"""Closed-form classifiers for 3x3 symmetric and 5x5 dissimilarity
matrices, cross-validated against the exact solver."""

import itertools
import math
from fractions import Fraction

import pytest

from troprank.core import (
    DissimilarityMatrix,
    SymmetricMatrix,
    apply_permutation,
    frac,
    project,
    rank_one_symmetric,
    term_minimizers,
)
from troprank.decomposition import STAR, SYM, TREE, CertificateError, verify
from troprank.deficiency import (
    FIVE_CYCLE,
    HUB_PAIR,
    HUB_SINGLE,
    SPARSE,
    TRIVIAL,
    build_deficiency,
    chromatic_number,
    classify_petersen,
)
from troprank.membership import PLUECKER, SYMMETRIC_MINORS, is_tree_matrix
from troprank.rank import exact_rank, tree_upper_decomposition
from troprank.small_cases import (
    PENTAGONS,
    TRIANGLES,
    differ_by_transposition,
    Star5Witness,
    star5_rank2_decompose,
    star5_rank2_test,
    sym3_rank,
    tree5_rank,
)

from conftest import random_dissimilarity, random_symmetric

P22 = PENTAGONS + TRIANGLES


def cycle_zero_one(n):
    return DissimilarityMatrix.from_function(
        n, lambda i, j: 0 if (j - i) % n in (1, n - 1) else 1
    )


def fraction_minimizers(terms, m):
    """The terms of least Fraction sum of m's entries, recomputed directly."""
    sums = [sum((m[p] for p in term), Fraction(0)) for term in terms]
    return [term for term, total in zip(terms, sums) if total == min(sums)]


class TestPolynomialTerms:
    def test_twelve_pentagons(self):
        assert len(PENTAGONS) == 12
        assert len(set(PENTAGONS)) == 12
        for term in PENTAGONS:
            assert list(term) == sorted(term) and len(set(term)) == 5

    def test_twentytwo_terms_each_label_twice(self):
        assert len(P22) == 22 and len(set(P22)) == 22
        assert len(TRIANGLES) == 10
        for term in P22:
            assert list(term) == sorted(term)
            counts = {}
            for pos in term:
                for v in pos:
                    counts[v] = counts.get(v, 0) + 1
            assert counts == {v: 2 for v in range(1, 6)}

    def test_pentad_evaluation_on_min_matrix(self, rng):
        # Integer sums on the scaled entries pick the same minimizers, in the
        # same order, as Fraction sums on the entries themselves.
        matrices = [DissimilarityMatrix.from_function(5, lambda i, j: min(i, j))]
        for _ in range(60):
            matrices.append(DissimilarityMatrix.from_function(
                5, lambda i, j: Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))
            ))
        for m in matrices:
            scale, values = m.scaled_to_integers()
            assert all(values[p] == m[p] * scale for p in m.positions())
            for terms in (PENTAGONS, P22):
                assert term_minimizers(terms, values) == fraction_minimizers(terms, m)


class TestSym3:
    def test_proof_shape_two_term(self):
        m = SymmetricMatrix.from_rows([[0, 0, 4], [0, 0, 6], [4, 6, 0]])
        assert sym3_rank(m).value == 2

    def test_rank_one(self):
        m = rank_one_symmetric([1, frac("1/2"), -2])
        assert sym3_rank(m).value == 1

    def test_all_ones_offdiagonal_is_three(self):
        m = SymmetricMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert sym3_rank(m).value == 3

    def test_nonsingular_from_determinant_terms(self):
        m = SymmetricMatrix.from_rows([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        assert sym3_rank(m).value == 3

    def test_infinite(self):
        m = SymmetricMatrix.from_rows([[0, -1, 0], [-1, 0, 0], [0, 0, 0]])
        result = sym3_rank(m)
        assert result.value == math.inf and result.infinite_witness == (1, 2)

    def test_cross_validation_with_exact_solver(self, rng):
        for _ in range(150):
            m = random_symmetric(rng, 3, 0, 6)
            assert sym3_rank(m).value == exact_rank(m, SYM).value

    def test_equivalent_conditions(self, rng):
        # rank <= 2, 2-colorable deficiency graph, and the singularity
        # condition agree on finite-rank instances.
        from troprank.rank import symmetric_rank_finite
        from troprank.membership import is_tropically_singular_3x3

        for _ in range(120):
            m = random_symmetric(rng, 3, 0, 4)
            if not symmetric_rank_finite(m):
                continue
            rank_le_2 = sym3_rank(m).value <= 2
            chi = chromatic_number(build_deficiency(m, SYMMETRIC_MINORS))
            assert rank_le_2 == (chi <= 2)
            assert rank_le_2 == is_tropically_singular_3x3(m)

    def test_requires_three(self, rng):
        with pytest.raises(ValueError):
            sym3_rank(random_symmetric(rng, 4))


class TestStar5:
    def test_min_matrix_fails(self):
        m = DissimilarityMatrix.from_function(5, lambda i, j: min(i, j))
        ok, _ = star5_rank2_test(m)
        assert not ok

    def test_star_tree_short_circuit(self):
        m = project(rank_one_symmetric([1, 2, 3, 4, 5]))
        ok, witness = star5_rank2_test(m)
        assert ok and witness.trivial
        dec = star5_rank2_decompose(m, witness)
        assert len(dec) == 2 and verify(m, dec)

    def test_transposition_detection(self):
        t1 = frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})
        t2 = frozenset({(1, 3), (2, 3), (2, 4), (4, 5), (1, 5)})
        assert differ_by_transposition(t1, t2)
        t3 = frozenset({(1, 3), (3, 5), (2, 5), (2, 4), (1, 4)})
        assert not differ_by_transposition(t1, t3)

    def test_cross_validation_with_exact_solver(self, rng):
        for _ in range(120):
            m = random_dissimilarity(rng, 5, 0, 6)
            ok, witness = star5_rank2_test(m)
            assert ok == (exact_rank(m, STAR).value <= 2)
            if ok:
                dec = star5_rank2_decompose(m, witness)
                assert len(dec) == 2 and verify(m, dec)

    def test_proof_inequalities_on_passing_instances(self, rng):
        checked = 0
        for _ in range(300):
            m = random_dissimilarity(rng, 5, 0, 6)
            ok, witness = star5_rank2_test(m)
            if not ok or witness.trivial:
                continue
            mm = apply_permutation(m, witness.relabeling)
            a = mm[(1, 2)] + mm[(3, 4)]
            b_val = mm[(1, 4)] + mm[(2, 5)] + mm[(3, 5)] - mm[(1, 5)] - mm[(4, 5)]
            assert mm[(1, 4)] <= a - mm[(2, 3)]
            assert mm[(3, 4)] <= mm[(1, 4)] + mm[(3, 5)] - mm[(1, 5)]
            assert mm[(2, 4)] <= mm[(1, 4)] + mm[(2, 5)] - mm[(1, 5)]
            assert mm[(1, 2)] <= mm[(1, 4)] + mm[(2, 5)] - mm[(4, 5)]
            assert mm[(1, 3)] <= mm[(1, 4)] + mm[(3, 5)] - mm[(4, 5)]
            assert mm[(2, 3)] <= b_val
            checked += 1
        assert checked > 10

    def test_label_invariance(self, rng):
        for _ in range(10):
            m = random_dissimilarity(rng, 5, 0, 5)
            expected, _ = star5_rank2_test(m)
            for perm in itertools.islice(itertools.permutations(range(1, 6)), 0, 120, 17):
                got, _ = star5_rank2_test(apply_permutation(m, perm))
                assert got == expected

    def test_decompose_requires_passing(self):
        m = DissimilarityMatrix.from_function(5, lambda i, j: min(i, j))
        with pytest.raises(ValueError):
            star5_rank2_decompose(m)

    @pytest.mark.parametrize(
        "witness, message",
        [(None, "without a witness"), (Star5Witness(False), "no relabeling")],
    )
    def test_broken_witness_is_a_certificate_error(self, monkeypatch, witness, message):
        # Internal faults (exit 5), raised under python -O as well.
        import troprank.small_cases as small_cases_module

        m = DissimilarityMatrix.from_function(5, lambda i, j: (i * j) % 4)
        monkeypatch.setattr(small_cases_module, "star5_rank2_test", lambda mm: (True, witness))
        with pytest.raises(CertificateError, match=message):
            star5_rank2_decompose(m)


class TestTree5:
    def test_tree_matrix_rank_one(self):
        m = DissimilarityMatrix.from_function(5, lambda i, j: min(i, j))
        assert tree5_rank(m).value == 1

    def test_five_cycle_rank_three(self):
        m = cycle_zero_one(5)
        result = tree5_rank(m)
        assert result.value == 3
        assert result.five_cycle is not None and len(result.five_cycle) == 5

    def test_cross_validation_with_exact_solver(self, rng):
        for _ in range(120):
            m = random_dissimilarity(rng, 5, 0, 6)
            assert tree5_rank(m).value == exact_rank(m, TREE).value

    def test_rank2_decomposition_structure(self, rng):
        # `tree_upper_decomposition` at n = 5 has as many trees as the
        # classifier's rank, each a tree matrix dominating the input.
        # Every tenth input is a star tree matrix, so rank 1 occurs too.
        seen = set()
        for k in range(150):
            if k % 10 == 0:
                m = project(rank_one_symmetric([rng.randint(0, 6) for _ in range(5)]))
            else:
                m = random_dissimilarity(rng, 5, 0, 6)
            result = tree5_rank(m)
            value = result.value
            assert (result.triangle in TRIANGLES) == (value == 2)
            dec = tree_upper_decomposition(m)
            assert len(dec) == value and verify(m, dec)
            for s in dec.summands:
                assert is_tree_matrix(s.matrix)
                assert all(s.matrix[p] >= m[p] for p in m.positions())
            seen.add(value)
        assert seen == {1, 2, 3}

    def test_star_tree_input_has_rank_le_2_path(self):
        m = project(rank_one_symmetric([0, 1, 2, 3, 4]))
        # Star tree matrices are tree matrices, so the classifier reports 1.
        assert tree5_rank(m).value == 1

    def test_taxonomy_equivalences(self, rng):
        for _ in range(150):
            m = random_dissimilarity(rng, 5, 0, 6)
            value = tree5_rank(m).value
            tag = classify_petersen(m).tag
            chi = chromatic_number(build_deficiency(m, PLUECKER))
            if value == 1:
                assert tag == TRIVIAL
            elif value == 2:
                assert tag in (SPARSE, HUB_PAIR, HUB_SINGLE)
                assert chi == 2
            else:
                assert tag == FIVE_CYCLE
                assert chi == 3
            # The 22-term polynomial check against the taxonomy.
            triangles = [t for t in fraction_minimizers(P22, m) if t in TRIANGLES]
            assert (value <= 2) == (bool(triangles) or value == 1)
