"""Constructive upper bounds: verified decompositions of a size known in
advance, for every input of finite rank.

This layer sits below the cover formulas (`covers`) and the solver
(`rank`), which both build on it.  It owns diagonal normalization for
symmetric matrices, the one-summand certificate of an input on the variety
(`one_summand`), the inductive symmetric construction (max(n, n^2/4)
summands), the star peel (n - 2) and, from n = 6, the tree construction
from a minimal matching of the leading 6x6 block (n - 3).  These sizes
depend on n alone (`upper_size`), and each construction raises if it
misses its size.  `rank.tree_upper_decomposition` takes the search's
decomposition at n = 5.

Each bound has one construction, split into a fixed part built once (the
symmetric partial generators of one recursion, the 3x3 star generator,
the matching's three 4x4 blocks on the input's own labels) and a padding
step.  Only the padding step goes through `decomposition.verified_padded`,
which verifies each result and retries with a doubled constant.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from .core import (
    DissimilarityMatrix,
    Matrix,
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
from .membership import finiteness_violation, pfaffian_minimizers
from .trees import embed_tree_block, realize_tree


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
    return n - 2 if notion == STAR or n <= 5 else n - 3


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
    entry, and patch with the displayed two-row blocks.  The partial
    generators do not depend on the padding constant; only their padding
    is retried.
    """
    violation = finiteness_violation(m)
    if violation is not None:
        raise ValueError(f"infinite rank: entry pair {violation} violates finiteness")
    normalized, offsets = normalize_diagonal(m)
    partials = _sym_partials(normalized, tuple(range(1, m.n + 1)))

    def build(c: Fraction) -> Decomposition:
        return Decomposition(
            SYM,
            tuple(
                rank1_summand([x + o for x, o in zip(pad_generator(partial, m.n, c), offsets)])
                for partial in partials
            ),
        )

    return _sized(verified_padded(m, build, 1 + m.max_abs_entry()), m.n)


def _sym_partials(m0, idx: tuple[int, ...], relaxed: bool = False) -> list[dict[int, Fraction]]:
    """Partial generators whose rank-one sum is m0 on idx; when `relaxed`,
    one diagonal entry other than idx[0]'s may come out raised.

    From four indices on: split off the two rows a, b through a minimal
    entry, recurse relaxed on the rest and patch a, b back in.  The relaxed
    recursion never raises the diagonal entry at rest[0] = head, and the
    patch blocks fix the diagonal entry of every other index of rest, so
    nothing stays relaxed.  The two- and three-element blocks relax by
    dropping their last partial, the only one that fixes the diagonal
    entry of their last index.
    """
    k = len(idx)
    if k >= 4:
        a, b = min(itertools.combinations(idx, 2), key=lambda p: (m0[p], p))
        rest = tuple(t for t in idx if t not in (a, b))
        head = rest[0]
        if m0[(a, head)] < m0[(b, head)]:
            a, b = b, a
        out = _sym_partials(m0, rest, relaxed=True)
        for i in rest[1:]:
            out.append({a: m0[(a, i)], b: m0[(b, i)], i: Fraction(0)})
        out.append({a: Fraction(0), b: m0[(a, b)], head: m0[(a, head)]})
        out.append({b: Fraction(0), head: m0[(b, head)]})
        return out
    if k == 1:
        return [{idx[0]: Fraction(0)}]
    if k == 2:
        a, b = idx
        v = m0[(a, b)]
        block = [{a: Fraction(0), b: v}, {a: v, b: Fraction(0)}]
    else:
        x, y, z = _sym_frame3(m0, idx, forbid_first=relaxed)
        block = [
            {x: Fraction(0), y: m0[(x, y)], z: m0[(x, z)]},
            {y: Fraction(0), z: m0[(y, z)]},
            {z: Fraction(0)},
        ]
    return block[:-1] if relaxed else block


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


# --- star tree upper bound -------------------------------------------------


def star_upper_decomposition(m: DissimilarityMatrix) -> Decomposition:
    """n-2 star summands: from the generator of the leading 3x3 block, add
    each index k = 4..n with one fresh star and pad the earlier ones."""
    first = star_generator(principal_submatrix(m, (1, 2, 3)))

    def build(c: Fraction) -> Decomposition:
        vectors = [first]
        for k in range(4, m.n + 1):
            vectors = [v + (_pad_value(v, c),) for v in vectors]
            vectors.append(tuple(m[(i, k)] + c for i in range(1, k)) + (-c,))
        return Decomposition(STAR, tuple(star_summand(v) for v in vectors))

    return _sized(verified_padded(m, build, 1 + m.max_abs_entry()), m.n)


# --- tree upper bound ------------------------------------------------------


def _matching_peel(m: DissimilarityMatrix) -> Decomposition:
    """n - 3 tree summands for any input with n >= 6: three from a minimal
    matching of the leading 6x6 block, one star per further index.

    With the block's minimal perfect matching's pairs in order P0, P1, P2,
    each 4x4 block lives on two pairs: it keeps the entry of one pair Pt and
    closes the next pair P(t+1 mod 3) with the smaller of its two cross
    pairings minus the kept entry, which the matching minimality makes
    dominant.  The blocks sit on the input's own labels; only their
    embedding into n leaves and the stars depend on the padding constant.
    """
    n = m.n
    pairs = sorted(pfaffian_minimizers(principal_submatrix(m, range(1, 7))))[0]
    blocks = []
    # Summand order: the blocks on P0 P1, P0 P2 and P1 P2.
    for keep, close in ((0, 1), (2, 0), (1, 2)):
        (a, b), (p, q) = pairs[keep], pairs[close]
        closing = min(m[(a, p)] + m[(b, q)], m[(a, q)] + m[(b, p)]) - m[(a, b)]
        leaves = [v for pair in sorted((pairs[keep], pairs[close])) for v in pair]
        block = DissimilarityMatrix.from_function(
            4,
            lambda i, j: closing
            if {leaves[i - 1], leaves[j - 1]} == {p, q}
            else m[(leaves[i - 1], leaves[j - 1])],
        )
        blocks.append((block, leaves))

    def build(c: Fraction) -> Decomposition:
        summands = [tree_summand(embed_tree_block(block, leaves, n, c)) for block, leaves in blocks]
        for i in range(7, n + 1):
            summands.append(star_summand([c + m[(i, j)] if j != i else -c for j in range(1, n + 1)]))
        return Decomposition(TREE, tuple(summands))

    return verified_padded(m, build, 1 + m.max_abs_entry())


def _upper_for_search(m: Matrix, notion: str) -> Decomposition:
    """The verified upper bound that the exact solver reports, `bounds` included."""
    if notion == SYM:
        return symmetric_upper_decomposition(m)
    if notion == STAR:
        return star_upper_decomposition(m)
    # Tree: stay independent of the small-case classifiers; star summands
    # are tree summands, and from n = 6 the leading block's matching applies.
    if m.n <= 5:
        return Decomposition(TREE, star_upper_decomposition(m).summands)
    return _sized(_matching_peel(m), m.n)
