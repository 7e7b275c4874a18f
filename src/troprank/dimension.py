"""Secant-set dimension formulas and empirical verification by sampling.

Each rank notion carries a closed-form dimension for the set of matrices
of rank at most r.  The samplers reproduce the constructions behind the
lower-bound proofs: generic parameter points whose coordinate-wise minima
have locally stable winners, making the parametrization affine near the
sample.  The exact rank of that affine map (over the rationals) is the
local dimension; it can never exceed the formula, and equals it at a
generic point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Position, offdiag_positions, symmetric_positions
from .decomposition import NOTIONS, STAR, SYM, TREE, CertificateError
from .exactlp import rational_rank


class DegenerateSampleError(RuntimeError):
    """Every trial produced an unstable minimum somewhere."""


def _choose2(k: int) -> int:
    return k * (k - 1) // 2 if k >= 2 else 0


def dimension_formula(notion: str, n: int, r: int) -> int:
    """Dimension of the locus of matrices with rank at most r."""
    if r < 1:
        raise ValueError("rank bound must be positive")
    if notion == SYM:
        if n < 1:
            raise ValueError("need n >= 1")
        return _choose2(n + 1) - _choose2(n - r + 1)
    if n < 3:
        raise ValueError("need n >= 3")
    if notion == STAR:
        return min(_choose2(n + 1) - _choose2(n - r + 1), _choose2(n))
    if notion == TREE:
        return _choose2(n) - _choose2(n - 2 * r)
    raise ValueError(f"unknown rank notion {notion!r}; expected one of {NOTIONS}")


# A candidate is (coefficient map over parameter indices, constant part).
Candidate = tuple[dict[int, int], Fraction]


def _locked_rows(
    theta: list[Fraction],
    candidates: dict[Position, list[Candidate]],
) -> Optional[list[list[Fraction]]]:
    """Per-entry winning coefficient rows, or None when a winner is unstable.

    A minimum shared by candidates with different coefficient vectors moves
    under arbitrarily small parameter perturbations, so the map is not
    affine there and the sample is discarded.
    """
    rows = []
    for pos in sorted(candidates):
        values = []
        for coeffs, const in candidates[pos]:
            values.append(
                const + sum((theta[k] * c for k, c in coeffs.items()), Fraction(0))
            )
        lo = min(values)
        winners = [
            coeffs
            for (coeffs, _), v in zip(candidates[pos], values)
            if v == lo
        ]
        first = winners[0]
        if any(w != first for w in winners[1:]):
            return None
        row = [Fraction(0)] * len(theta)
        for k, c in first.items():
            row[k] = Fraction(c)
        rows.append(row)
    return rows


def sampled_local_dimension(notion: str, n: int, r: int, trials: int = 10, seed: int = 0) -> int:
    """Exact affine rank of the parametrization at a generic sampled point.

    Runs up to `trials` independent samples and returns the best rank;
    raises DegenerateSampleError when every sample is unstable.
    """
    dimension_formula(notion, n, r)  # argument validation
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    best: Optional[int] = None
    for _ in range(trials):
        theta, candidates = _sample(notion, n, r, rng)
        rows = _locked_rows(theta, candidates)
        if rows is None:
            continue
        rank = rational_rank(rows)
        if best is None or rank > best:
            best = rank
    if best is None:
        raise DegenerateSampleError(
            f"all {trials} samples for {notion} n={n} r={r} were degenerate"
        )
    return best


def _sample(notion: str, n: int, r: int, rng: random.Random):
    if notion == SYM:
        return _sym_sample(n, r, rng)
    if notion == STAR:
        return _star_sample(n, r, rng)
    return _tree_sample(n, r, rng)


def _rank_one_candidates(
    positions: list[Position], index: dict[tuple[int, int], int], r: int, big: Fraction
) -> dict[Position, list[Candidate]]:
    """Entry (i, j) of summand k is theta[index[k, i]] + theta[index[k, j]];
    a summand k has no coordinate t < k, which counts as the constant `big`."""
    candidates: dict[Position, list[Candidate]] = {}
    for i, j in positions:
        lst: list[Candidate] = []
        for k in range(1, r + 1):
            coeffs: dict[int, int] = {}
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


def _sym_sample(n: int, r: int, rng: random.Random):
    r_eff = min(r, n)
    unit = 1000
    theta: list[Fraction] = []
    index: dict[tuple[int, int], int] = {}
    for k in range(1, r_eff + 1):
        scale = unit * 100 ** (r_eff - k + 1)
        for i in range(k, n + 1):
            index[(k, i)] = len(theta)
            theta.append(Fraction(rng.randrange(scale, 2 * scale)))
    big = Fraction(unit * 100 ** (r_eff + 2))
    return theta, _rank_one_candidates(symmetric_positions(n), index, r_eff, big)


def _star_sample(n: int, r: int, rng: random.Random):
    r_eff = min(r, n)
    unit = 1000
    pairs = [
        (i, j) for i in range(r_eff + 1, n + 1) for j in range(i + 1, n + 1)
    ]
    theta: list[Fraction] = []
    index: dict[tuple[int, int], int] = {}
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
    return theta, _rank_one_candidates(offdiag_positions(n), index, r_eff, big)


def _tree_sample(n: int, r: int, rng: random.Random):
    r_eff = max(1, min(r, n // 2))
    theta: list[Fraction] = []
    candidates = _tree_blocks(n, r_eff, rng, theta)
    return theta, candidates


def _tree_blocks(
    n: int, r: int, rng: random.Random, theta: list[Fraction]
) -> dict[Position, list[Candidate]]:
    """Caterpillar rows 1 and 2 over a recursively sampled lower-right block."""
    if n == 2:
        idx = len(theta)
        theta.append(Fraction(rng.randrange(1000, 2000)))
        return {(1, 2): [({idx: 1}, Fraction(0))]}
    if r == 1 or n <= 3:
        return _caterpillar_candidates(n, rng, theta, Fraction(1000))
    inner = _tree_blocks(n - 2, r - 1, rng, theta)
    inner_peak = Fraction(0)
    for lst in inner.values():
        for coeffs, const in lst:
            value = const + sum(
                (theta[k] * c for k, c in coeffs.items()), Fraction(0)
            )
            inner_peak = max(inner_peak, abs(value))
    scale = 1000 * (inner_peak + 1)
    cat = _caterpillar_candidates(n, rng, theta, scale)
    candidates: dict[Position, list[Candidate]] = {}
    for i, j in offdiag_positions(n):
        lst = list(cat[(i, j)])
        if i >= 3:
            lst.extend(inner[(i - 2, j - 2)])
        candidates[(i, j)] = lst
    return candidates


def _caterpillar_candidates(
    n: int, rng: random.Random, theta: list[Fraction], scale: Fraction
) -> dict[Position, list[Candidate]]:
    """Distance functionals of the caterpillar with leaf order 1,3,...,n,2.

    Pendant weights p_i are fresh parameters at the given scale; internal
    weights q_3..q_{n-1} are small negative parameters.
    """
    lo = int(scale)
    p = {}
    for i in range(1, n + 1):
        p[i] = len(theta)
        theta.append(Fraction(rng.randrange(lo, 2 * lo)))
    q = {}
    for t in range(3, n):
        q[t] = len(theta)
        theta.append(Fraction(-rng.randrange(1, 50)))

    def path(i: int, j: int) -> Candidate:
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


@dataclass(frozen=True)
class DimensionReport:
    notion: str
    n: int
    r: int
    formula_value: int
    sampled_value: int
    trials: int
    seed: int

    @property
    def match(self) -> bool:
        return self.formula_value == self.sampled_value

    def to_json_dict(self) -> dict:
        return {
            "notion": self.notion,
            "n": self.n,
            "r": self.r,
            "formula": self.formula_value,
            "sampled": self.sampled_value,
            "match": self.match,
            "trials": self.trials,
            "seed": self.seed,
        }


def dimension_report(
    notion: str, n: int, r: int, trials: int = 10, seed: int = 0
) -> DimensionReport:
    formula = dimension_formula(notion, n, r)
    sampled = sampled_local_dimension(notion, n, r, trials, seed)
    if sampled > formula:
        raise CertificateError(f"sampled dimension {sampled} exceeds the formula {formula}")
    return DimensionReport(notion, n, r, formula, sampled, trials, seed)
