"""The paper's rank classifiers for 3x3 symmetric and 5x5 dissimilarity
matrices, as rank values with their combinatorial certificates.

A 3x3 symmetric matrix has finite rank when the finiteness inequalities
hold, rank 1 when its 2x2 minors vanish, and rank <= 2 exactly when it is
tropically singular.  The 5x5 star tree classifier rests on the 12-term
degree-5 polynomial whose terms are the pentagons (5-cycles) on five
labels; the 5x5 tree classifier on its 22-term extension that also carries
the ten triangle terms x_ab x_bc x_ca x_de^2.  In both cases the matrix
has rank 2 exactly when the minimum lands on a suitably-shaped term, and a
relabeling search (120 permutations at most) replaces the "without loss
of generality" normalizations.  Tree rank 3 comes with a 5-cycle
deficiency graph.  No rank route calls these: the tests check them
against the search.

The terms are module-level tables (`PENTAGONS`, `TRIANGLES`), each term a
tuple of sorted positions with a squared entry listed twice.  Minimizers
and the relabeled inequalities are decided in integer sums on
`scaled_to_integers()`, which keeps every tie; only the two-star witness
of `star5_rank2_decompose` is built in Fraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    INFINITE,
    DissimilarityMatrix,
    Position,
    SymmetricMatrix,
    _pad_value,
    apply_permutation,
    relabel_positions,
    sorted_pair,
    star_generator,
    term_minimizers,
)
from .decomposition import (
    CertificateError,
    Decomposition,
    STAR,
    certify,
    star_summand,
    verified_padded,
)
from .deficiency import FIVE_CYCLE, classify_petersen
from .membership import (
    finiteness_violation,
    is_rank1_symmetric,
    is_star_tree,
    is_tree_matrix,
    is_tropically_singular_3x3,
)

Term = tuple[Position, ...]  # a product of entries, as its sorted positions


def _pentagons() -> tuple[Term, ...]:
    out = []
    for perm in itertools.permutations((2, 3, 4, 5)):
        cycle = (1,) + perm
        term = tuple(sorted(sorted_pair(cycle[k], cycle[(k + 1) % 5]) for k in range(5)))
        if term not in out:
            out.append(term)
    return tuple(out)


# The 12 pentagon terms, one per 5-cycle on the labels 1..5.
PENTAGONS: tuple[Term, ...] = _pentagons()


def _triangles() -> tuple[Term, ...]:
    out = []
    for a, b, c in itertools.combinations(range(1, 6), 3):
        d, e = sorted({1, 2, 3, 4, 5} - {a, b, c})
        out.append(tuple(sorted([(a, b), (b, c), (a, c), (d, e), (d, e)])))
    return tuple(out)


# The ten triangle terms x_ab x_bc x_ca x_de^2 that extend the pentagons to
# the 22 degree-5 terms in which every label appears exactly twice.
TRIANGLES: tuple[Term, ...] = _triangles()


def _relabeled(values: dict[Position, int], perm: Sequence[int]) -> dict[Position, int]:
    """`apply_permutation` on an integer table: {i, j} moves to {perm i, perm j}."""
    return {sorted_pair(perm[i - 1], perm[j - 1]): v for (i, j), v in values.items()}


# --- 3x3 symmetric ----------------------------------------------------------


@dataclass(frozen=True)
class Sym3Result:
    value: object  # 1, 2, 3 or math.inf
    infinite_witness: Optional[Position] = None


def sym3_rank(m: SymmetricMatrix) -> Sym3Result:
    """Rank of a 3x3 symmetric matrix: infinite, or 1, 2, 3 exactly.

    Rank <= 2 is equivalent to tropical singularity together with the
    finiteness inequalities.
    """
    if m.n != 3:
        raise ValueError("this classifier handles n = 3 only")
    violation = finiteness_violation(m)
    if violation is not None:
        return Sym3Result(INFINITE, violation)
    if is_rank1_symmetric(m):
        return Sym3Result(1)
    return Sym3Result(2 if is_tropically_singular_3x3(m) else 3)


# --- 5x5 star tree ----------------------------------------------------------

CANONICAL_PENTAGON = frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})
CANONICAL_SWAPPED = frozenset({(1, 3), (2, 3), (2, 4), (4, 5), (1, 5)})


@dataclass(frozen=True)
class Star5Witness:
    trivial: bool  # star tree matrix, no pentad reasoning needed
    pair: Optional[tuple[frozenset[Position], frozenset[Position]]] = None
    relabeling: Optional[tuple[int, ...]] = None  # image of 1..5


def differ_by_transposition(t1: frozenset, t2: frozenset) -> bool:
    """Do the two pentagon terms differ by transposing two labels?"""
    for a, b in itertools.combinations(range(1, 6), 2):
        perm = list(range(1, 6))
        perm[a - 1], perm[b - 1] = b, a
        if relabel_positions(t1, perm) == t2:
            return True
    return False


def star5_rank2_test(m: DissimilarityMatrix) -> tuple[bool, Optional[Star5Witness]]:
    """Star tree rank <= 2 for n = 5, by the pentagon-minimizer criterion.

    Rank-one inputs short-circuit.  Otherwise some minimizing pair of
    pentagon terms must differ by a transposition and, after relabeling
    the pair onto the canonical one, satisfy
    M_14 + M_23 <= M_12 + M_34 = M_13 + M_24.  Every minimizing pair is
    tried, which is the permissive reading when more than two terms tie.
    """
    if m.n != 5:
        raise ValueError("this classifier handles n = 5 only")
    if is_star_tree(m):
        return True, Star5Witness(trivial=True)
    _, values = m.scaled_to_integers()
    minimizers = [frozenset(t) for t in term_minimizers(PENTAGONS, values)]
    canon = {CANONICAL_PENTAGON, CANONICAL_SWAPPED}
    for t1, t2 in itertools.combinations(minimizers, 2):
        if not differ_by_transposition(t1, t2):
            continue
        for perm in itertools.permutations(range(1, 6)):
            if {relabel_positions(t1, perm), relabel_positions(t2, perm)} != canon:
                continue
            mm = _relabeled(values, perm)
            lhs = mm[(1, 4)] + mm[(2, 3)]
            a1 = mm[(1, 2)] + mm[(3, 4)]
            a2 = mm[(1, 3)] + mm[(2, 4)]
            if a1 == a2 and lhs <= a1:
                return True, Star5Witness(False, (t1, t2), perm)
    return False, None


def _unpermute_vector(v: Sequence[Fraction], perm: Sequence[int]) -> tuple[Fraction, ...]:
    # v lives in the relabeled frame; coordinate i of the original matrix
    # corresponds to frame coordinate perm[i-1].
    return tuple(v[perm[i - 1] - 1] for i in range(1, len(perm) + 1))


def star5_rank2_decompose(
    m: DissimilarityMatrix, witness: Optional[Star5Witness] = None
) -> Decomposition:
    """The two-star witness behind a passing rank-2 test."""
    if witness is None:
        ok, witness = star5_rank2_test(m)
        if not ok:
            raise ValueError("matrix fails the rank-2 criterion")
    if witness is None:
        raise CertificateError("the star rank-2 test passed without a witness")
    if witness.trivial:
        v = star_generator(m)
        return certify(m, Decomposition(STAR, (star_summand(v), star_summand(v))))
    perm = witness.relabeling
    if perm is None:
        raise CertificateError("a non-trivial star rank-2 witness has no relabeling")
    mm = apply_permutation(m, perm)
    a = mm[(1, 2)] + mm[(3, 4)]
    block = DissimilarityMatrix.from_rows(
        [
            [None, mm[(1, 2)], mm[(1, 3)], a - mm[(2, 3)]],
            [mm[(1, 2)], None, mm[(2, 3)], mm[(2, 4)]],
            [mm[(1, 3)], mm[(2, 3)], None, mm[(3, 4)]],
            [a - mm[(2, 3)], mm[(2, 4)], mm[(3, 4)], None],
        ]
    )
    u = star_generator(block)  # raises if the forced block is not rank one
    w1 = (mm[(1, 4)] + mm[(1, 5)] - mm[(4, 5)]) / 2
    w = (
        w1,
        mm[(2, 5)] - (mm[(1, 5)] - w1),
        mm[(3, 5)] - (mm[(1, 5)] - w1),
        mm[(1, 4)] - w1,
        mm[(1, 5)] - w1,
    )
    second = star_summand(_unpermute_vector(w, perm))

    def build(c: Fraction) -> Decomposition:
        first = star_summand(_unpermute_vector(u + (_pad_value(u, c),), perm))
        return Decomposition(STAR, (first, second))

    return verified_padded(m, build, 1 + 2 * m.max_abs_entry())


# --- 5x5 tree ---------------------------------------------------------------


@dataclass(frozen=True)
class Tree5Result:
    value: int
    triangle: Optional[Term] = None
    five_cycle: Optional[tuple[frozenset[Position], ...]] = None


def tree5_rank(m: DissimilarityMatrix) -> Tree5Result:
    """Tree rank of a 5x5 matrix: 1, 2 or 3, with certificates.

    Rank 1 is the four-point condition; rank <= 2 holds exactly when the
    22-term polynomial is minimized at a triangle term (returned);
    otherwise the deficiency graph is a 5-cycle (returned) and the rank
    is 3.
    """
    if m.n != 5:
        raise ValueError("this classifier handles n = 5 only")
    if is_tree_matrix(m):
        return Tree5Result(1)
    _, values = m.scaled_to_integers()
    triangles = [t for t in term_minimizers(PENTAGONS + TRIANGLES, values) if t in TRIANGLES]
    if triangles:
        return Tree5Result(2, triangle=triangles[0])
    classification = classify_petersen(m)
    if classification.tag != FIVE_CYCLE:
        raise CertificateError("no triangle term is minimal, yet no 5-cycle either")
    return Tree5Result(3, five_cycle=tuple(sorted(classification.edges, key=sorted)))
