"""Dimension formulas and the sampled local-dimension verification."""

import pytest

from troprank.decomposition import STAR, SYM, TREE, CertificateError
from troprank.dimension import (
    dimension_formula,
    dimension_report,
    sampled_local_dimension,
)
from troprank.exactlp import rational_rank


class TestFormulas:
    def test_reference_values(self):
        assert dimension_formula(SYM, 4, 1) == 4
        assert dimension_formula(TREE, 5, 2) == 10
        assert dimension_formula(STAR, 5, 3) == 10

    def test_saturation(self):
        assert dimension_formula(SYM, 4, 4) == 10  # full symmetric space
        assert dimension_formula(STAR, 6, 6) == 15
        assert dimension_formula(TREE, 6, 3) == 15

    def test_monotone_in_rank(self):
        for notion, n in ((SYM, 6), (STAR, 6), (TREE, 8)):
            values = [dimension_formula(notion, n, r) for r in range(1, n + 1)]
            assert values == sorted(values)

    def test_ambient_cap(self):
        for n in range(3, 9):
            ambient = n * (n - 1) // 2
            for r in range(1, n + 1):
                assert dimension_formula(STAR, n, r) <= ambient
                assert dimension_formula(TREE, n, r) <= ambient

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            dimension_formula(SYM, 4, 0)
        with pytest.raises(ValueError):
            dimension_formula(TREE, 2, 1)
        with pytest.raises(ValueError):
            dimension_formula("mystery", 4, 1)


class TestRationalRank:
    def test_small_matrices(self):
        assert rational_rank([[1, 2], [2, 4]]) == 1
        assert rational_rank([[1, 0], [0, 1]]) == 2
        assert rational_rank([]) == 0
        assert rational_rank([[0, 0, 0]]) == 0


class TestSampledDimension:
    def test_reference_samples(self):
        assert sampled_local_dimension(SYM, 4, 2, trials=5, seed=3) == 7
        assert sampled_local_dimension(STAR, 5, 2, trials=5, seed=3) == 9
        assert sampled_local_dimension(TREE, 6, 2, trials=5, seed=3) == 14

    def test_reports_match_formulas_small_grid(self):
        for n in (3, 4, 5):
            for r in range(1, n + 1):
                for notion in (SYM, STAR):
                    report = dimension_report(notion, n, r, trials=4, seed=11)
                    assert report.match, (notion, n, r)
            for r in range(1, n // 2 + 1):
                report = dimension_report(TREE, n, r, trials=4, seed=11)
                assert report.match, (TREE, n, r)

    def test_sample_never_exceeds_formula(self):
        for notion, n, r in ((SYM, 5, 3), (STAR, 6, 4), (TREE, 7, 3)):
            assert sampled_local_dimension(notion, n, r, 3, 5) <= dimension_formula(
                notion, n, r
            )

    def test_sample_above_formula_is_a_certificate_error(self, monkeypatch):
        # An internal fault (exit 5), raised under python -O as well.
        import troprank.dimension as dimension_module

        monkeypatch.setattr(
            dimension_module,
            "sampled_local_dimension",
            lambda notion, n, r, trials, seed: dimension_formula(notion, n, r) + 1,
        )
        with pytest.raises(CertificateError, match="exceeds the formula"):
            dimension_report(SYM, 4, 1)

    def test_deterministic_given_seed(self):
        a = sampled_local_dimension(STAR, 6, 3, trials=3, seed=9)
        b = sampled_local_dimension(STAR, 6, 3, trials=3, seed=9)
        assert a == b
