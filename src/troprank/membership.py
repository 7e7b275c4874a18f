"""Membership tests for the three varieties and their tropical bases.

A tropical polynomial is a finite min of terms; a point lies on its
hypersurface when the minimum is attained at least twice.  The three
quadratic bases used throughout have terms that are sums of two matrix
entries:

* symmetric 2x2 minors     -- rank-one symmetric matrices,
* pair-swap relations      -- star tree matrices (projected rank one),
* three-term relations     -- tree matrices (four-point condition).

`basis_for(name, n)` returns a basis as a cached relation table: a
relation is a tuple of terms, a term a sorted pair of positions (one
position twice for a square such as x12^2).  The degree-5 terms of the
5x5 closed forms are sorted position tuples too (`small_cases.PENTAGONS`,
`small_cases.TRIANGLES`); `term_label` names any of them.

Each variety has one integer membership kernel, which the tests below,
`decomposition.verify_matrices` and the generator recovery all read:
`core.rank_one_doubled` and `core.star_doubled` return the doubled
generator or None.  The three-term relations are a tropical basis of the
tree space trop Gr(2,n) (Speyer-Sturmfels), so the tree kernel
(`trees.four_point_violation`) is the hypersurface test on the Pluecker
table: the deficiency builder's `core.unique_minima`, stopped at the first
relation with a unique minimum.  `finiteness_violation` is the test for
finite symmetric rank.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional, Sequence

from .core import (
    DissimilarityMatrix,
    Pairing,
    Position,
    SymmetricMatrix,
    quartets,
    rank_one_doubled,
    sorted_pair,
    star_doubled,
    term_minimizers,
)
from .trees import four_point_violation, realize_tree  # noqa: F401  (re-exported)

SYMMETRIC_MINORS = "symmetric-minors"
STAR_TREE = "star-tree"
PLUECKER = "pluecker"
BASES = (SYMMETRIC_MINORS, STAR_TREE, PLUECKER)

Term = Pairing  # x_a * x_b as the sorted pair (a, b); a == b for a square
Relation = tuple[Term, ...]


def term_label(positions: Sequence[Position]) -> str:
    """"x12*x34", "x12^2" or "x1,10*x23" for a sorted product of entries."""
    parts = []
    for p, group in itertools.groupby(positions):
        e = len(list(group))
        name = f"x{p[0]}{p[1]}" if p[0] <= 9 and p[1] <= 9 else f"x{p[0]},{p[1]}"
        parts.append(name + (f"^{e}" if e > 1 else ""))
    return "*".join(parts)


def _symmetric_minors(n: int) -> tuple[Relation, ...]:
    # Distinct 2x2 minors x_ij*x_kl (+) x_il*x_kj, i < k, j < l.  The two
    # terms never share a position.  On symmetric matrices different
    # row/column picks can give the same pair of terms, so relations are
    # deduplicated by content.
    seen = set()
    out = []
    for i, k in itertools.combinations(range(1, n + 1), 2):
        for j, l in itertools.combinations(range(1, n + 1), 2):
            t1 = tuple(sorted((sorted_pair(i, j), sorted_pair(k, l))))
            t2 = tuple(sorted((sorted_pair(i, l), sorted_pair(k, j))))
            relation = (t1, t2) if t1 < t2 else (t2, t1)
            if relation not in seen:
                seen.add(relation)
                out.append(relation)
    return tuple(out)


@lru_cache(maxsize=None)
def basis_for(name: str, n: int) -> tuple[Relation, ...]:
    """The relation table of a basis at size n.

    symmetric-minors: the distinct 2x2 minors; star-tree: the three
    pair-swap relations ij.kl (+) ik.jl, ij.kl (+) il.jk, ik.jl (+) il.jk
    of each quadruple; pluecker: its three-term relation.
    """
    if name == SYMMETRIC_MINORS:
        return _symmetric_minors(n)
    if name == STAR_TREE:
        return tuple((q[a], q[b]) for q in quartets(n) for a, b in ((0, 1), (0, 2), (1, 2)))
    if name == PLUECKER:
        return quartets(n)
    raise ValueError(f"unknown tropical basis {name!r}; expected one of {BASES}")


def is_rank1_symmetric(m: SymmetricMatrix) -> bool:
    """True when every 2x2 minor vanishes; equivalently m = v^T (+) v."""
    return rank_one_doubled(m.n, m.scaled_to_integers()[1]) is not None


def finiteness_violation(m: SymmetricMatrix) -> Optional[Position]:
    """A pair with M_ii + M_jj > 2 M_ij, which forces infinite rank."""
    for i in range(1, m.n + 1):
        for j in range(i + 1, m.n + 1):
            if m[(i, i)] + m[(j, j)] > 2 * m[(i, j)]:
                return (i, j)
    return None


def is_star_tree(m: DissimilarityMatrix) -> bool:
    """True when all three pairings agree on every quadruple (n=3: always)."""
    return star_doubled(m.n, m.scaled_to_integers()[1]) is not None


def is_tree_matrix(m: DissimilarityMatrix) -> bool:
    """Four-point condition: minimum pairing attained twice per quadruple,
    i.e. no Pluecker relation has a unique minimum (decided in integers)."""
    return four_point_violation(m) is None


def is_tropically_singular_3x3(m: SymmetricMatrix) -> bool:
    """Minimum over the six permutation terms of the determinant ties."""
    if m.n != 3:
        raise ValueError("tropical singularity test implemented for n = 3")
    terms = [
        [sorted_pair(i + 1, s + 1) for i, s in enumerate(sigma)]
        for sigma in itertools.permutations(range(3))
    ]
    return len(term_minimizers(terms, m.scaled_to_integers()[1])) >= 2


def _perfect_matchings(points: tuple[int, ...]) -> list[tuple[Position, ...]]:
    """Perfect matchings of sorted points as sorted tuples of pairs, in
    sorted order: the first point pairs with each later one in turn."""
    if not points:
        return [()]
    first, rest = points[0], points[1:]
    return [
        ((first, partner),) + tail
        for k, partner in enumerate(rest)
        for tail in _perfect_matchings(rest[:k] + rest[k + 1 :])
    ]


PERFECT_MATCHINGS_6 = tuple(_perfect_matchings((1, 2, 3, 4, 5, 6)))


def pfaffian_minimizers(m: DissimilarityMatrix) -> list[tuple[Position, ...]]:
    """Perfect matchings on six points attaining the minimal weight sum."""
    if m.n != 6:
        raise ValueError("the matching polynomial is a 6x6 construction")
    return term_minimizers(PERFECT_MATCHINGS_6, m.scaled_to_integers()[1])


__all__ = [
    "BASES",
    "PLUECKER",
    "STAR_TREE",
    "SYMMETRIC_MINORS",
    "basis_for",
    "finiteness_violation",
    "is_rank1_symmetric",
    "is_star_tree",
    "is_tree_matrix",
    "is_tropically_singular_3x3",
    "pfaffian_minimizers",
    "realize_tree",
    "term_label",
]
