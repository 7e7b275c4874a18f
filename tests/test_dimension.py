"""Dimension formulas and the sampled local-dimension verification."""

import random
from fractions import Fraction

import pytest

from troprank.core import offdiag_positions, symmetric_positions
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


# The Fraction-arithmetic samplers that the integer ones replaced, kept as
# the reference: the star coordinates past r are k/1009 and 2 + k/1009, and
# sym and star each have their own sampler over one candidate builder.


def _ref_locked_rows(theta, candidates):
    rows = []
    for pos in sorted(candidates):
        values = []
        for coeffs, const in candidates[pos]:
            values.append(const + sum((theta[k] * c for k, c in coeffs.items()), Fraction(0)))
        lo = min(values)
        winners = [coeffs for (coeffs, _), v in zip(candidates[pos], values) if v == lo]
        first = winners[0]
        if any(w != first for w in winners[1:]):
            return None
        row = [Fraction(0)] * len(theta)
        for k, c in first.items():
            row[k] = Fraction(c)
        rows.append(row)
    return rows


def _ref_sample(notion, n, r, rng):
    if notion == SYM:
        return _ref_sym_sample(n, r, rng)
    if notion == STAR:
        return _ref_star_sample(n, r, rng)
    theta = []
    candidates = _ref_tree_blocks(n, max(1, min(r, n // 2)), rng, theta)
    return theta, candidates


def _ref_rank_one_candidates(positions, index, r, big):
    candidates = {}
    for i, j in positions:
        lst = []
        for k in range(1, r + 1):
            coeffs = {}
            const = Fraction(0)
            for t in (i, j):
                if t < k:
                    const += big
                else:
                    key = index[(k, t)]
                    coeffs[key] = coeffs.get(key, 0) + 1
            lst.append((coeffs, const))
        candidates[(i, j)] = lst
    return candidates


def _ref_sym_sample(n, r, rng):
    r_eff = min(r, n)
    unit = 1000
    theta, index = [], {}
    for k in range(1, r_eff + 1):
        scale = unit * 100 ** (r_eff - k + 1)
        for i in range(k, n + 1):
            index[(k, i)] = len(theta)
            theta.append(Fraction(rng.randrange(scale, 2 * scale)))
    big = Fraction(unit * 100 ** (r_eff + 2))
    return theta, _ref_rank_one_candidates(symmetric_positions(n), index, r_eff, big)


def _ref_star_sample(n, r, rng):
    r_eff = min(r, n)
    unit = 1000
    pairs = [(i, j) for i in range(r_eff + 1, n + 1) for j in range(i + 1, n + 1)]
    theta, index = [], {}
    for k in range(1, r_eff + 1):
        pair = pairs[k - 1] if k <= len(pairs) else None
        scale = unit * 100 ** (r_eff - k + 1)
        for i in range(k, n + 1):
            index[(k, i)] = len(theta)
            if i <= r_eff:
                value = Fraction(rng.randrange(scale, 2 * scale))
            elif pair is not None and i in pair:
                value = Fraction(rng.randrange(1, 1008), 1009)
            else:
                value = 2 + Fraction(rng.randrange(1, 1008), 1009)
            theta.append(value)
    big = Fraction(unit * 100 ** (r_eff + 3))
    return theta, _ref_rank_one_candidates(offdiag_positions(n), index, r_eff, big)


def _ref_tree_blocks(n, r, rng, theta):
    if n == 2:
        idx = len(theta)
        theta.append(Fraction(rng.randrange(1000, 2000)))
        return {(1, 2): [({idx: 1}, Fraction(0))]}
    if r == 1 or n <= 3:
        return _ref_caterpillar_candidates(n, rng, theta, Fraction(1000))
    inner = _ref_tree_blocks(n - 2, r - 1, rng, theta)
    inner_peak = Fraction(0)
    for lst in inner.values():
        for coeffs, const in lst:
            value = const + sum((theta[k] * c for k, c in coeffs.items()), Fraction(0))
            inner_peak = max(inner_peak, abs(value))
    cat = _ref_caterpillar_candidates(n, rng, theta, 1000 * (inner_peak + 1))
    candidates = {}
    for i, j in offdiag_positions(n):
        lst = list(cat[(i, j)])
        if i >= 3:
            lst.extend(inner[(i - 2, j - 2)])
        candidates[(i, j)] = lst
    return candidates


def _ref_caterpillar_candidates(n, rng, theta, scale):
    lo = int(scale)
    p = {}
    for i in range(1, n + 1):
        p[i] = len(theta)
        theta.append(Fraction(rng.randrange(lo, 2 * lo)))
    q = {}
    for t in range(3, n):
        q[t] = len(theta)
        theta.append(Fraction(-rng.randrange(1, 50)))

    def path(i, j):
        coeffs = {p[i]: 1, p[j]: 1}
        if i == 1 and j == 2:
            span = range(3, n)
        elif i == 1:
            span = range(3, j)
        elif i == 2:
            span = range(j, n)
        else:
            span = range(i, j)
        for t in span:
            coeffs[q[t]] = coeffs.get(q[t], 0) + 1
        return (coeffs, Fraction(0))

    return {(i, j): [path(i, j)] for i, j in offdiag_positions(n)}


def _grid():
    for notion in (SYM, STAR, TREE):
        for n in range(3, 9):
            for r in range(1, (n // 2 if notion == TREE else n) + 1):
                yield notion, n, r


def test_integer_samples_lock_the_reference_rows(monkeypatch):
    # Every trial of sampled_local_dimension, on the integer points, locks
    # the same rows as the reference does on its rational points (or both
    # discard the trial), so every sampled rank is the reference's.
    import troprank.dimension as dimension_module

    locked = []
    lock = dimension_module._locked_rows

    def recording(theta, candidates):
        locked.append(lock(theta, candidates))
        return locked[-1]

    monkeypatch.setattr(dimension_module, "_locked_rows", recording)
    # Equal rows have equal ranks; the ranks themselves are not needed here.
    monkeypatch.setattr(dimension_module, "rational_rank", lambda rows: 0)
    degenerate = []
    for notion, n, r in _grid():
        for seed in range(5):
            locked.clear()
            sampled_local_dimension(notion, n, r, trials=10, seed=seed)
            rng = random.Random(seed)
            for trial, rows in enumerate(locked):
                expected = _ref_locked_rows(*_ref_sample(notion, n, r, rng))
                assert rows == expected, (notion, n, r, seed, trial)
                if rows is None:
                    degenerate.append((notion, n, r, seed, trial))
            assert len(locked) == 10
    # The one discarded trial of the grid keeps the discard path covered.
    assert degenerate == [(STAR, 8, 4, 3, 2)]
