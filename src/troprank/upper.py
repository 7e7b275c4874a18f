"""Constructive upper bounds: verified decompositions of a size known in
advance, for every input of finite rank.

This layer sits below the closed forms (`small_cases`), the cover formulas
(`covers`) and the solver (`rank`), which all build on it.  It owns the
finiteness test and diagonal normalization for symmetric matrices, the
one-summand certificate of an input on the variety (`one_summand`), the
inductive symmetric construction (max(n, n^2/4) summands), the star peel
(n - 2), the 6x6 matching split (3) and the tree peel to the leading 6x6
block (n - 3).  These sizes depend on n alone (`upper_size`), and each
construction raises if it misses its size.  `rank.tree_upper_decomposition`
adds the 5x5 two-tree classifier on top.

Constructions that need a "sufficiently large" padding constant go through
`decomposition.verified_padded`, which verifies each result and retries
with a doubled constant.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from .core import (
    DissimilarityMatrix,
    Matrix,
    Position,
    SymmetricMatrix,
    _pad_value,
    pad_generator,
    principal_submatrix,
    rank_one_generator,
    star_generator,
)
from .decomposition import (
    CertificateError,
    Decomposition,
    STAR,
    SYM,
    TREE,
    certify,
    rank1_summand,
    star_summand,
    tree_summand,
    verified_padded,
)
from .membership import pfaffian_minimizers
from .trees import WeightedTree, embed_tree_block, realize_tree


def finiteness_violation(m: SymmetricMatrix) -> Optional[Position]:
    """A pair with M_ii + M_jj > 2 M_ij, which forces infinite rank."""
    for i in range(1, m.n + 1):
        for j in range(i + 1, m.n + 1):
            if m[(i, i)] + m[(j, j)] > 2 * m[(i, j)]:
                return (i, j)
    return None


def symmetric_rank_finite(m: SymmetricMatrix) -> bool:
    return finiteness_violation(m) is None


def normalize_diagonal(m: SymmetricMatrix) -> tuple[SymmetricMatrix, tuple[Fraction, ...]]:
    """Zero out the diagonal: M'_ij = M_ij - (M_ii + M_jj)/2.

    Rank is unaffected; a decomposition of M' pulls back by adding the
    offsets to each generator coordinate.
    """
    offsets = tuple(m[(i, i)] / 2 for i in range(1, m.n + 1))
    normalized = SymmetricMatrix.from_function(
        m.n, lambda i, j: m[(i, j)] - offsets[i - 1] - offsets[j - 1]
    )
    return normalized, offsets


def one_summand(m: Matrix, notion: str) -> Optional[Decomposition]:
    """The certified one-summand decomposition of m, or None off the variety."""
    try:
        if notion == SYM:
            summand = rank1_summand(rank_one_generator(m))
        elif notion == STAR:
            summand = star_summand(star_generator(m))
        else:
            summand = tree_summand(realize_tree(m))
    except ValueError:  # not rank one (NotTreeMatrixError is a ValueError)
        return None
    return certify(m, Decomposition(notion, (summand,)))


def upper_size(notion: str, n: int) -> int:
    """The number of summands `_upper_for_search` returns at size n."""
    if notion == SYM:
        return max(n, n * n // 4)
    if notion == STAR or n <= 5:
        return n - 2
    return 3 if n == 6 else n - 3


def _sized(dec: Decomposition, n: int) -> Decomposition:
    expected = upper_size(dec.notion, n)
    if len(dec) != expected:
        raise CertificateError(
            f"{dec.notion} construction has {len(dec)} summands, expected {expected}"
        )
    return dec


# --- symmetric upper bound -------------------------------------------------


def symmetric_upper_decomposition(m: SymmetricMatrix) -> Decomposition:
    """max(n, floor(n^2/4)) rank-one summands for finite-rank input.

    Inductive construction: split off two rows through a minimal
    off-diagonal entry, recurse on the rest allowing one relaxed diagonal
    entry, and patch with the displayed two-row blocks.
    """
    violation = finiteness_violation(m)
    if violation is not None:
        raise ValueError(f"infinite rank: entry pair {violation} violates finiteness")
    normalized, offsets = normalize_diagonal(m)

    def build(c: Fraction) -> Decomposition:
        partials = _sym_exact(normalized, tuple(range(1, m.n + 1)), c)
        summands = []
        for partial in partials:
            gen = pad_generator(partial, m.n, c)
            summands.append(
                rank1_summand([gen[i] + offsets[i] for i in range(m.n)])
            )
        return Decomposition(SYM, tuple(summands))

    return _sized(verified_padded(m, build, 1 + m.max_abs_entry()), m.n)


def _sym_exact(m0, idx: tuple[int, ...], c) -> list[dict[int, Fraction]]:
    k = len(idx)
    if k == 1:
        return [{idx[0]: Fraction(0)}]
    if k == 2:
        a, b = idx
        v = m0[(a, b)]
        return [{a: Fraction(0), b: v}, {a: v, b: Fraction(0)}]
    if k == 3:
        x, y, z = _sym_frame3(m0, idx, forbid_first=False)
        return [
            {x: Fraction(0), y: m0[(x, y)], z: m0[(x, z)]},
            {y: Fraction(0), z: m0[(y, z)]},
            {z: Fraction(0)},
        ]
    return _sym_split_step(m0, idx, c)


def _sym_relaxed(m0, idx: tuple[int, ...], c) -> tuple[list[dict[int, Fraction]], Optional[int]]:
    """Decomposition matching m0 on idx except one raised diagonal entry.

    The relaxed coordinate is never idx[0]; the caller's patch blocks fix
    diagonals everywhere except there.
    """
    k = len(idx)
    if k == 2:
        a, b = idx
        return [{a: Fraction(0), b: m0[(a, b)]}], b
    if k == 3:
        x, y, z = _sym_frame3(m0, idx, forbid_first=True)
        return (
            [
                {x: Fraction(0), y: m0[(x, y)], z: m0[(x, z)]},
                {y: Fraction(0), z: m0[(y, z)]},
            ],
            z,
        )
    return _sym_split_step(m0, idx, c), None


def _sym_frame3(m0, idx: tuple[int, ...], forbid_first: bool) -> tuple[int, int, int]:
    """The first frame (x, y, z) in permutation order with M_xy >= M_yz;
    when the third slot will be relaxed it must avoid idx[0].

    Such a frame always exists: with a = idx[0], both (b, a, c) and
    (c, a, b) are allowed, and M_ab >= M_ac or M_ac >= M_ab.
    """
    for x, y, z in itertools.permutations(idx):
        if forbid_first and z == idx[0]:
            continue
        if m0[(x, y)] >= m0[(y, z)]:
            return x, y, z
    raise CertificateError("no admissible three-element frame")


def _sym_split_step(m0, idx: tuple[int, ...], c) -> list[dict[int, Fraction]]:
    """Split off the two rows a, b through a minimal entry, recurse on the
    rest and patch a, b back in.

    The recursion may relax one diagonal entry of rest, but never the one
    at rest[0] = head (`_sym_relaxed` keeps its relaxed index off idx[0]),
    and the patch blocks below fix the diagonal entry of every other index
    of rest, so nothing stays relaxed.
    """
    a, b = min(itertools.combinations(idx, 2), key=lambda p: (m0[p], p))
    rest = tuple(t for t in idx if t not in (a, b))
    head = rest[0]
    if m0[(a, head)] < m0[(b, head)]:
        a, b = b, a
    sub, _ = _sym_relaxed(m0, rest, c)
    out = list(sub)
    for i in rest[1:]:
        out.append({a: m0[(a, i)], b: m0[(b, i)], i: Fraction(0)})
    out.append({a: Fraction(0), b: m0[(a, b)], head: m0[(a, head)]})
    out.append({b: Fraction(0), head: m0[(b, head)]})
    return out


# --- star tree upper bound -------------------------------------------------


def star_upper_decomposition(m: DissimilarityMatrix) -> Decomposition:
    """n-2 star summands: peel the last index with one fresh star."""

    def build(c: Fraction) -> Decomposition:
        return Decomposition(
            STAR, tuple(star_summand(v) for v in _star_vectors(m, c))
        )

    return _sized(verified_padded(m, build, 1 + m.max_abs_entry()), m.n)


def _star_vectors(m: DissimilarityMatrix, c: Fraction) -> list[tuple[Fraction, ...]]:
    if m.n == 3:
        return [star_generator(m)]
    sub = principal_submatrix(m, range(1, m.n))
    inner = _star_vectors(sub, c)
    extended = [v + (_pad_value(v, c),) for v in inner]
    last = tuple(m[(i, m.n)] + c for i in range(1, m.n)) + (-c,)
    return extended + [last]


def _tree_from_star(m: DissimilarityMatrix) -> Decomposition:
    star = star_upper_decomposition(m)
    return Decomposition(TREE, star.summands)


def _tree6_decomposition(m: DissimilarityMatrix, c: Fraction) -> Decomposition:
    """Three tree summands for any 6x6 input, split along a minimal matching.

    Relabel so the minimal perfect matching is {12, 34, 56}; each block
    keeps the matrix entries it is responsible for and closes its fourth
    pairing with the smaller of the two alternatives, which the matching
    minimality makes dominant.
    """
    matching = sorted(pfaffian_minimizers(m))[0]
    order: list[int] = [v for pair in sorted(matching) for v in pair]
    image = [0] * 6
    for slot, vertex in enumerate(order, start=1):
        image[vertex - 1] = slot
    relabeled = DissimilarityMatrix.from_function(
        6, lambda i, j: m[(order[i - 1], order[j - 1])]
    )
    r = relabeled
    x1 = min(r[(1, 3)] + r[(2, 4)], r[(1, 4)] + r[(2, 3)]) - r[(1, 2)]
    x2 = min(r[(1, 5)] + r[(2, 6)], r[(1, 6)] + r[(2, 5)]) - r[(5, 6)]
    x3 = min(r[(3, 5)] + r[(4, 6)], r[(3, 6)] + r[(4, 5)]) - r[(3, 4)]
    block_a = DissimilarityMatrix.from_rows(
        [
            [None, r[(1, 2)], r[(1, 3)], r[(1, 4)]],
            [r[(1, 2)], None, r[(2, 3)], r[(2, 4)]],
            [r[(1, 3)], r[(2, 3)], None, x1],
            [r[(1, 4)], r[(2, 4)], x1, None],
        ]
    )
    block_b = DissimilarityMatrix.from_rows(
        [
            [None, x2, r[(1, 5)], r[(1, 6)]],
            [x2, None, r[(2, 5)], r[(2, 6)]],
            [r[(1, 5)], r[(2, 5)], None, r[(5, 6)]],
            [r[(1, 6)], r[(2, 6)], r[(5, 6)], None],
        ]
    )
    block_c = DissimilarityMatrix.from_rows(
        [
            [None, r[(3, 4)], r[(3, 5)], r[(3, 6)]],
            [r[(3, 4)], None, r[(4, 5)], r[(4, 6)]],
            [r[(3, 5)], r[(4, 5)], None, x3],
            [r[(3, 6)], r[(4, 6)], x3, None],
        ]
    )
    summands = []
    for block, slots in (
        (block_a, (1, 2, 3, 4)),
        (block_b, (1, 2, 5, 6)),
        (block_c, (3, 4, 5, 6)),
    ):
        tree = embed_tree_block(block, slots, 6, c)
        # Undo the relabeling: slot v carries original leaf order[v-1].
        tree = tree.relabelled_leaves({v: order[v - 1] for v in range(1, 7)}, 6)
        summands.append(tree_summand(tree))
    return Decomposition(TREE, tuple(summands))


def _tree_peel_decomposition(m: DissimilarityMatrix, c: Fraction) -> Decomposition:
    """Reduce to the leading 6x6 block, one star summand per peeled index."""
    n = m.n
    base = principal_submatrix(m, range(1, 7))
    base_dec = verified_padded(
        base, lambda cc: _tree6_decomposition(base, cc), 1 + base.max_abs_entry()
    )
    summands = []
    for s in base_dec.summands:
        if not isinstance(s.generator, WeightedTree):
            raise CertificateError("the 6x6 matching split returned a summand without a tree")
        tree = embed_tree_block(s.matrix, (1, 2, 3, 4, 5, 6), n, c)
        summands.append(tree_summand(tree))
    for i in range(7, n + 1):
        vec = [c + m[(i, j)] if j != i else -c for j in range(1, n + 1)]
        summands.append(star_summand(vec))
    return Decomposition(TREE, tuple(summands))


def _upper_for_search(m: Matrix, notion: str) -> Decomposition:
    """The verified upper bound that the exact search and `bounds` report."""
    if notion == SYM:
        return symmetric_upper_decomposition(m)
    if notion == STAR:
        return star_upper_decomposition(m)
    # Tree: stay independent of the small-case classifiers; star summands
    # are tree summands, and from n = 6 the matching split applies.
    if m.n <= 5:
        return _tree_from_star(m)
    build = _tree6_decomposition if m.n == 6 else _tree_peel_decomposition
    return _sized(verified_padded(m, lambda c: build(m, c), 1 + m.max_abs_entry()), m.n)
