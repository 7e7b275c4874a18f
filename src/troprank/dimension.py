"""Secant-set dimension formulas and empirical verification by sampling.

Each rank notion carries a closed-form dimension for the set of matrices
of rank at most r.  The samplers reproduce the constructions behind the
lower-bound proofs: generic parameter points whose coordinate-wise minima
have locally stable winners, making the parametrization affine near the
sample.  The exact rank of that affine map (over the rationals) is the
local dimension; it can never exceed the formula, and equals it at a
generic point.

Every parameter point is an integer vector and every candidate entry an
integer-affine function of it, so the winners and the locked rows are
integers.  Sym and star share one rank-one sampler: they differ in the
positions (star drops the diagonal), in how star draws the coordinates
past r (small, in units of 1/1009, with the rest scaled up by 1009), and
in the exponent of the constant that stands for a missing coordinate.
Tree stacks caterpillars over a recursively sampled lower-right block.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
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
Candidate = tuple[dict[int, int], int]


def _value(theta: list[int], candidate: Candidate) -> int:
    coeffs, const = candidate
    return const + sum(theta[k] * c for k, c in coeffs.items())


def _locked_rows(
    theta: list[int],
    candidates: dict[Position, list[Candidate]],
) -> Optional[list[list[int]]]:
    """Per-entry winning coefficient rows, or None when a winner is unstable.

    A minimum shared by candidates with different coefficient vectors moves
    under arbitrarily small parameter perturbations, so the map is not
    affine there and the sample is discarded.
    """
    rows = []
    for pos in sorted(candidates):
        values = [_value(theta, cand) for cand in candidates[pos]]
        lo = min(values)
        winners = [coeffs for (coeffs, _), v in zip(candidates[pos], values) if v == lo]
        if any(w != winners[0] for w in winners[1:]):
            return None
        rows.append([winners[0].get(k, 0) for k in range(len(theta))])
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
        theta: list[int] = []
        if notion == TREE:
            candidates = _tree_blocks(n, min(r, n // 2), rng, theta)
        else:
            candidates = _rank_one_candidates(notion, n, min(r, n), rng, theta)
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


def _rank_one_candidates(
    notion: str, n: int, r: int, rng: random.Random, theta: list[int]
) -> dict[Position, list[Candidate]]:
    """Sums of r rank-one generators: entry (i, j) of summand k is
    theta[k, i] + theta[k, j], and a summand k has no coordinate t < k,
    which counts as the constant `big`.

    Coordinate (k, i) with i <= r (every one, for sym) is drawn at scale
    1000 * 100**(r - k + 1).  For star the coordinates past r are small,
    in units of 1/1009: near 0 on the k-th pair of indices past r, near 2
    elsewhere, so every other coordinate and `big` are scaled by 1009.
    """
    star = notion == STAR
    unit = 1009 if star else 1
    pairs = [(i, j) for i in range(r + 1, n + 1) for j in range(i + 1, n + 1)]
    index: dict[tuple[int, int], int] = {}
    for k in range(1, r + 1):
        scale = 1000 * 100 ** (r - k + 1)
        for i in range(k, n + 1):
            index[(k, i)] = len(theta)
            if i <= r or not star:
                theta.append(unit * rng.randrange(scale, 2 * scale))
            elif k <= len(pairs) and i in pairs[k - 1]:
                theta.append(rng.randrange(1, 1008))
            else:
                theta.append(2 * unit + rng.randrange(1, 1008))
    big = unit * 1000 * 100 ** (r + 2 + star)
    return {
        (i, j): [
            (Counter(index[k, t] for t in (i, j) if t >= k), big * ((i < k) + (j < k)))
            for k in range(1, r + 1)
        ]
        for i, j in (offdiag_positions(n) if star else symmetric_positions(n))
    }


def _tree_blocks(
    n: int, r: int, rng: random.Random, theta: list[int]
) -> dict[Position, list[Candidate]]:
    """Caterpillar rows 1 and 2 over a recursively sampled lower-right block."""
    if n == 2:
        theta.append(rng.randrange(1000, 2000))
        return {(1, 2): [({len(theta) - 1: 1}, 0)]}
    if r == 1 or n <= 3:
        return _caterpillar_candidates(n, rng, theta, 1000)
    inner = _tree_blocks(n - 2, r - 1, rng, theta)
    inner_peak = max(abs(_value(theta, cand)) for lst in inner.values() for cand in lst)
    cat = _caterpillar_candidates(n, rng, theta, 1000 * (inner_peak + 1))
    return {
        (i, j): cat[i, j] + (inner[i - 2, j - 2] if i >= 3 else [])
        for i, j in offdiag_positions(n)
    }


def _caterpillar_candidates(
    n: int, rng: random.Random, theta: list[int], scale: int
) -> dict[Position, list[Candidate]]:
    """Distance functionals of the caterpillar with leaf order 1,3,...,n,2.

    Pendant weights p_i are fresh parameters at the given scale; internal
    weights q_3..q_{n-1} are small negative parameters.
    """
    p = {i: len(theta) + i - 1 for i in range(1, n + 1)}
    theta.extend(rng.randrange(scale, 2 * scale) for _ in p)
    q = {t: len(theta) + t - 3 for t in range(3, n)}
    theta.extend(-rng.randrange(1, 50) for _ in q)

    def path(i: int, j: int) -> Candidate:
        if i == 1 and j == 2:
            span = range(3, n)
        elif i == 1:
            span = range(3, j)
        elif i == 2:
            span = range(j, n)
        else:
            span = range(i, j)
        return (dict.fromkeys([p[i], p[j], *(q[t] for t in span)], 1), 0)

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
