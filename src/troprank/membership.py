"""Membership tests for the three varieties and their tropical bases.

A tropical polynomial here is a finite min of affine terms ("monomials");
a point lies on the hypersurface when the minimum is attained at least
twice.  The three quadratic bases used throughout:

* symmetric 2x2 minors     -- rank-one symmetric matrices,
* pair-swap relations      -- star tree matrices (projected rank one),
* three-term relations     -- tree matrices (four-point condition).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    DissimilarityMatrix,
    Matrix,
    Position,
    SymmetricMatrix,
    frac,
    rank_one_generator,
    star_generator,
)
from .trees import four_point_violation, realize_tree  # noqa: F401  (re-exported)

SYMMETRIC_MINORS = "symmetric-minors"
STAR_TREE = "star-tree"
PLUECKER = "pluecker"
BASES = (SYMMETRIC_MINORS, STAR_TREE, PLUECKER)


@dataclass(frozen=True)
class TropicalMonomial:
    """coefficient + sum of exponent * coordinate over the listed positions."""

    exponents: tuple[tuple[Position, int], ...]
    coefficient: Fraction = Fraction(0)

    @classmethod
    def from_positions(cls, positions: Iterable[Position], coefficient=0) -> "TropicalMonomial":
        counts: dict[Position, int] = {}
        for p in positions:
            counts[p] = counts.get(p, 0) + 1
        return cls(tuple(sorted(counts.items())), frac(coefficient))

    def positions(self) -> tuple[Position, ...]:
        return tuple(p for p, _ in self.exponents)

    def evaluate(self, m: Matrix) -> Fraction:
        return self.coefficient + sum((m[p] * e for p, e in self.exponents), Fraction(0))

    def label(self) -> str:
        def pos_name(p: Position) -> str:
            return f"x{p[0]}{p[1]}" if _compact_pair(p) else f"x{p[0]},{p[1]}"

        parts = []
        for p, e in self.exponents:
            parts.append(pos_name(p) + (f"^{e}" if e > 1 else ""))
        return "*".join(parts) if parts else "0"


def _compact_pair(p: Position) -> bool:
    return p[0] <= 9 and p[1] <= 9


@dataclass(frozen=True)
class TropicalPolynomial:
    """Min of at least two monomials; fewer define no hypersurface."""

    monomials: tuple[TropicalMonomial, ...]

    def __post_init__(self):
        if len(self.monomials) < 2:
            raise ValueError("a tropical polynomial needs at least two monomials")

    def label(self) -> str:
        return " (+) ".join(mon.label() for mon in self.monomials)


def vanishes_at(p: TropicalPolynomial, m: Matrix) -> tuple[bool, tuple[TropicalMonomial, ...]]:
    """Whether the minimum is attained at least twice, plus the minimizers."""
    values = [mon.evaluate(m) for mon in p.monomials]
    lo = min(values)
    winners = tuple(mon for mon, v in zip(p.monomials, values) if v == lo)
    return len(winners) >= 2, winners


def symmetric_minors_basis(n: int) -> list[TropicalPolynomial]:
    """All distinct 2x2 tropical minors x_ij*x_kl (+) x_il*x_kj, i!=k, j!=l.

    On symmetric matrices different row/column picks can produce the same
    pair of monomials, so polynomials are deduplicated by content.
    """
    seen = set()
    out = []
    for i, k in itertools.combinations(range(1, n + 1), 2):
        for j, l in itertools.combinations(range(1, n + 1), 2):
            t1 = TropicalMonomial.from_positions([_sym_pos(i, j), _sym_pos(k, l)])
            t2 = TropicalMonomial.from_positions([_sym_pos(i, l), _sym_pos(k, j)])
            key = frozenset((t1, t2))
            if len(key) < 2 or key in seen:
                continue
            seen.add(key)
            out.append(TropicalPolynomial(tuple(sorted(key, key=lambda t: t.exponents))))
    return out


def _sym_pos(i: int, j: int) -> Position:
    return (i, j) if i <= j else (j, i)


def star_tree_basis(n: int) -> list[TropicalPolynomial]:
    """Pair-swap relations x_ij*x_kl (+) x_ik*x_jl over distinct i,j,k,l.

    Three two-term polynomials per quadruple, one for each pair of pairings.
    """
    out = []
    for quad in itertools.combinations(range(1, n + 1), 4):
        pairings = _pairings(quad)
        for a, b in itertools.combinations(pairings, 2):
            out.append(
                TropicalPolynomial(
                    (
                        TropicalMonomial.from_positions(a),
                        TropicalMonomial.from_positions(b),
                    )
                )
            )
    return out


def pluecker_basis(n: int) -> list[TropicalPolynomial]:
    """Three-term relations, one per quadruple of indices."""
    out = []
    for quad in itertools.combinations(range(1, n + 1), 4):
        out.append(
            TropicalPolynomial(
                tuple(TropicalMonomial.from_positions(p) for p in _pairings(quad))
            )
        )
    return out


def _pairings(quad: Sequence[int]) -> list[tuple[Position, Position]]:
    i, j, k, l = quad
    return [
        ((i, j), (k, l)),
        ((i, k), (j, l)),
        ((i, l), (j, k)),
    ]


def basis_for(name: str, n: int) -> list[TropicalPolynomial]:
    if name == SYMMETRIC_MINORS:
        return symmetric_minors_basis(n)
    if name == STAR_TREE:
        return star_tree_basis(n)
    if name == PLUECKER:
        return pluecker_basis(n)
    raise ValueError(f"unknown tropical basis {name!r}; expected one of {BASES}")


def is_rank1_symmetric(m: SymmetricMatrix) -> bool:
    """True when every 2x2 minor vanishes; equivalently m = v^T (+) v."""
    try:
        rank_one_generator(m)
    except ValueError:
        return False
    return True


def is_star_tree(m: DissimilarityMatrix) -> bool:
    """True when all three pairings agree on every quadruple (n=3: always)."""
    try:
        star_generator(m)
    except ValueError:
        return False
    return True


def is_tree_matrix(m: DissimilarityMatrix) -> bool:
    """Four-point condition: minimum pairing attained twice per quadruple."""
    return four_point_violation(m) is None


def is_tropically_singular_3x3(m: SymmetricMatrix) -> bool:
    """Minimum over the six permutation terms of the determinant ties."""
    if m.n != 3:
        raise ValueError("tropical singularity test implemented for n = 3")
    terms = [
        sum((m[_sym_pos(i + 1, sigma[i] + 1)] for i in range(3)), Fraction(0))
        for sigma in itertools.permutations(range(3))
    ]
    lo = min(terms)
    return terms.count(lo) >= 2


PERFECT_MATCHINGS_6 = tuple(
    tuple(sorted(matching))
    for matching in (
        frozenset({(1, 2), (3, 4), (5, 6)}),
        frozenset({(1, 2), (3, 5), (4, 6)}),
        frozenset({(1, 2), (3, 6), (4, 5)}),
        frozenset({(1, 3), (2, 4), (5, 6)}),
        frozenset({(1, 3), (2, 5), (4, 6)}),
        frozenset({(1, 3), (2, 6), (4, 5)}),
        frozenset({(1, 4), (2, 3), (5, 6)}),
        frozenset({(1, 4), (2, 5), (3, 6)}),
        frozenset({(1, 4), (2, 6), (3, 5)}),
        frozenset({(1, 5), (2, 3), (4, 6)}),
        frozenset({(1, 5), (2, 4), (3, 6)}),
        frozenset({(1, 5), (2, 6), (3, 4)}),
        frozenset({(1, 6), (2, 3), (4, 5)}),
        frozenset({(1, 6), (2, 4), (3, 5)}),
        frozenset({(1, 6), (2, 5), (3, 4)}),
    )
)


def pfaffian_minimizers(m: DissimilarityMatrix) -> list[tuple[Position, ...]]:
    """Perfect matchings on six points attaining the minimal weight sum."""
    if m.n != 6:
        raise ValueError("the matching polynomial is a 6x6 construction")
    weights = {
        matching: sum((m[p] for p in matching), Fraction(0))
        for matching in PERFECT_MATCHINGS_6
    }
    lo = min(weights.values())
    return [matching for matching in PERFECT_MATCHINGS_6 if weights[matching] == lo]


__all__ = [
    "BASES",
    "PLUECKER",
    "STAR_TREE",
    "SYMMETRIC_MINORS",
    "TropicalMonomial",
    "TropicalPolynomial",
    "basis_for",
    "is_rank1_symmetric",
    "is_star_tree",
    "is_tree_matrix",
    "is_tropically_singular_3x3",
    "pfaffian_minimizers",
    "pluecker_basis",
    "realize_tree",
    "star_tree_basis",
    "symmetric_minors_basis",
    "vanishes_at",
]
