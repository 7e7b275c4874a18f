"""Exact rank computation and constructive upper-bound decompositions.

The exact solver realizes the secant-set definition directly: every matrix
position must be attained by some summand, so it searches assignments of
positions to summand slots and asks, per slot, whether a variety element
exists that equals the target on the slot's positions and dominates it
everywhere else.  Slot feasibility is decided exactly:

* rank-one / star slots: two-variable sum constraints on the generator,
  solved by negative-cycle detection;
* tree slots: quartets first.  A quartet pairing that lies in the slot
  forces every pairing with a strictly larger sum to be the quartet's
  split; two forced pairings of one quartet make the slot infeasible.
  With no forced split a star witness is tried; otherwise exact linear
  feasibility runs, in integers, over the unrooted binary topologies
  showing every forced split (zero-weight internal edges cover the
  degenerate shapes, so binary topologies suffice).

Search slots must stay independent in the deficiency graph (a slot holding
both ends of a deficiency edge is infeasible), which is also where the
certified chromatic lower bound comes from.

Constructions that need a "sufficiently large" padding constant verify the
result and retry with a doubled constant; the retry turns the existence
arguments behind the constructions into algorithms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .core import (
    DissimilarityMatrix,
    Matrix,
    Position,
    SymmetricMatrix,
    frac,
    pad_generator,
    principal_submatrix,
    star_generator,
)
from .decomposition import (
    Decomposition,
    NOTIONS,
    STAR,
    SYM,
    TREE,
    rank1_summand,
    star_summand,
    tree_summand,
    verify,
)
from .deficiency import (
    DeficiencyHypergraph,
    build_deficiency,
    optimal_coloring,
)
from .exactlp import TwoVarSystem, solve_linear_feasibility
from .membership import PLUECKER, STAR_TREE, SYMMETRIC_MINORS, pfaffian_minimizers
from .trees import WeightedTree, embed_tree_block, realize_tree

INFINITE = math.inf


class ConstructionError(RuntimeError):
    """A padded construction failed verification at every retry scale."""


class CertificateError(RuntimeError):
    """A computed answer failed the check that certifies it."""


def basis_for_notion(notion: str) -> str:
    if notion == SYM:
        return SYMMETRIC_MINORS
    if notion == STAR:
        return STAR_TREE
    if notion == TREE:
        return PLUECKER
    raise ValueError(f"unknown rank notion {notion!r}; expected one of {NOTIONS}")


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


def _verified_padded(
    m: Matrix, build: Callable[[Fraction], Decomposition], retries: int = 40
) -> Decomposition:
    c = 1 + m.max_abs_entry()
    for _ in range(retries):
        dec = build(c)
        if verify(m, dec):
            return dec
        c *= 2
    raise ConstructionError("construction kept failing as the padding constant grew")


# --- symmetric upper bound -------------------------------------------------


def symmetric_upper_decomposition(m: SymmetricMatrix) -> Decomposition:
    """At most max(n, floor(n^2/4)) rank-one summands for finite-rank input.

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

    dec = _verified_padded(m, build)
    assert len(dec) <= max(m.n, m.n * m.n // 4)
    return dec


def _offdiag_pairs(idx: Sequence[int]):
    return itertools.combinations(idx, 2)


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
    # Need a frame (x, y, z) with M_xy >= M_yz; when the third slot will be
    # relaxed it must avoid idx[0].  Such a frame always exists.
    for x, y, z in itertools.permutations(idx):
        if forbid_first and z == idx[0]:
            continue
        if m0[(x, y)] >= m0[(y, z)]:
            return x, y, z
    raise AssertionError("no admissible three-element frame")


def _sym_split_step(m0, idx: tuple[int, ...], c) -> list[dict[int, Fraction]]:
    a, b = min(_offdiag_pairs(idx), key=lambda p: (m0[p], p))
    rest = tuple(t for t in idx if t not in (a, b))
    head = rest[0]
    if m0[(a, head)] < m0[(b, head)]:
        a, b = b, a
    sub, relaxed = _sym_relaxed(m0, rest, c)
    assert relaxed is None or relaxed != head
    out = list(sub)
    for i in rest[1:]:
        out.append({a: m0[(a, i)], b: m0[(b, i)], i: Fraction(0)})
    out.append({a: Fraction(0), b: m0[(a, b)], head: m0[(a, head)]})
    out.append({b: Fraction(0), head: m0[(b, head)]})
    return out


# --- star tree upper bound -------------------------------------------------


def star_upper_decomposition(m: DissimilarityMatrix) -> Decomposition:
    """At most n-2 star summands: peel the last index with one fresh star."""

    def build(c: Fraction) -> Decomposition:
        return Decomposition(
            STAR, tuple(star_summand(v) for v in _star_vectors(m, c))
        )

    dec = _verified_padded(m, build)
    assert len(dec) <= m.n - 2
    return dec


def _star_vectors(m: DissimilarityMatrix, c: Fraction) -> list[tuple[Fraction, ...]]:
    if m.n == 3:
        return [star_generator(m)]
    sub = principal_submatrix(m, range(1, m.n))
    inner = _star_vectors(sub, c)
    extended = [v + (max(c / 2, c - min(v)),) for v in inner]
    last = tuple(m[(i, m.n)] + c for i in range(1, m.n)) + (-c,)
    return extended + [last]


# --- tree upper bound ------------------------------------------------------


def tree_upper_decomposition(m: DissimilarityMatrix) -> Decomposition:
    """Tree decompositions within the known worst-case sizes per n.

    n = 3: one summand.  n = 4, 5: realize directly when the four-point
    condition already holds, else the two-term classifier (n = 5) or the
    star construction.  n = 6: always the three-block matching split.
    n >= 7: peel indices down to the leading 6x6 block.
    """
    n = m.n
    from .membership import is_tree_matrix

    if n == 3:
        return Decomposition(TREE, (tree_summand(realize_tree(m)),))
    if n in (4, 5) and is_tree_matrix(m):
        return Decomposition(TREE, (tree_summand(realize_tree(m)),))
    if n == 4:
        return _tree_from_star(m)
    if n == 5:
        from .small_cases import tree5_rank

        outcome = tree5_rank(m)
        if outcome.value == 2 and outcome.decomposition is not None:
            return outcome.decomposition
        return _tree_from_star(m)
    if n == 6:
        dec = _verified_padded(m, lambda c: _tree6_decomposition(m, c))
        assert len(dec) == 3
        return dec
    if is_tree_matrix(m):
        return Decomposition(TREE, (tree_summand(realize_tree(m)),))
    dec = _verified_padded(m, lambda c: _tree_peel_decomposition(m, c))
    assert len(dec) <= max(1, n - 3)
    return dec


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
    base_dec = _verified_padded(base, lambda cc: _tree6_decomposition(base, cc))
    summands = []
    for s in base_dec.summands:
        assert isinstance(s.generator, WeightedTree)
        tree = embed_tree_block(s.matrix, (1, 2, 3, 4, 5, 6), n, c)
        summands.append(tree_summand(tree))
    for i in range(7, n + 1):
        vec = [c + m[(i, j)] if j != i else -c for j in range(1, n + 1)]
        summands.append(star_summand(vec))
    return Decomposition(TREE, tuple(summands))


# --- the exact solver ------------------------------------------------------


@dataclass(frozen=True)
class RankResult:
    notion: str
    status: str  # "finite" | "infinite" | "interval"
    value: object  # int, math.inf, or None for intervals
    lower: object
    upper: object
    chromatic_bound: object
    lower_certificate: dict
    decomposition: Optional[Decomposition] = None
    infinite_witness: Optional[Position] = None

    @property
    def chromatic_equals_rank(self) -> Optional[bool]:
        if self.status == "interval":
            return None
        if self.status == "infinite":
            return self.chromatic_bound == INFINITE
        return self.chromatic_bound == self.value

    def to_json_dict(self) -> dict:
        def enc(v):
            if v is None:
                return None
            if v == INFINITE:
                return "infinity"
            return v

        out = {
            "notion": self.notion,
            "status": self.status,
            "rank": enc(self.value),
            "lower": enc(self.lower),
            "upper": enc(self.upper),
            "chromatic_bound": enc(self.chromatic_bound),
            "lower_certificate": self.lower_certificate,
            "chromatic_equals_rank": self.chromatic_equals_rank,
        }
        if self.infinite_witness is not None:
            out["violating_pair"] = list(self.infinite_witness)
        if self.decomposition is not None:
            out["decomposition"] = self.decomposition.to_json_dict()
        return out


def _upper_for_search(m: Matrix, notion: str) -> Decomposition:
    if notion == SYM:
        return symmetric_upper_decomposition(m)
    if notion == STAR:
        return star_upper_decomposition(m)
    # Tree: stay independent of the small-case classifiers; star summands
    # are tree summands, and from n = 6 the matching split applies.
    if m.n <= 5:
        return _tree_from_star(m)
    if m.n == 6:
        return _verified_padded(m, lambda c: _tree6_decomposition(m, c))
    return _verified_padded(m, lambda c: _tree_peel_decomposition(m, c))


def exact_rank(
    m: Matrix,
    notion: str,
    budget: Optional[int] = None,
    *,
    search_from_one: bool = False,
) -> RankResult:
    """Smallest number of variety summands reproducing m, with certificates.

    The search runs r upward from the chromatic lower bound (or from 1
    when `search_from_one`), stopping at the constructive upper bound,
    which is itself a verified decomposition.  Intended scale: n <= 7.
    """
    if notion not in NOTIONS:
        raise ValueError(f"unknown rank notion {notion!r}")
    if notion == SYM and not isinstance(m, SymmetricMatrix):
        raise TypeError("symmetric rank applies to symmetric matrices")
    if notion in (STAR, TREE) and not isinstance(m, DissimilarityMatrix):
        raise TypeError(f"{notion} rank applies to dissimilarity matrices")

    if notion == SYM:
        violation = finiteness_violation(m)
        if violation is not None:
            return RankResult(
                notion,
                "infinite",
                INFINITE,
                INFINITE,
                INFINITE,
                INFINITE,
                {"type": "finiteness-violation", "pair": list(violation)},
                infinite_witness=violation,
            )

    hypergraph = build_deficiency(m, basis_for_notion(notion))
    chi, _ = optimal_coloring(hypergraph)
    assert chi != INFINITE
    chi = int(chi)

    upper_dec = _upper_for_search(m, notion)
    ub = len(upper_dec)
    low = 1 if search_from_one else max(1, chi)
    budget_eff = ub if budget is None else budget

    searcher = _AssignmentSearcher(m, notion, hypergraph)
    searched_through = low - 1
    for r in range(low, min(ub, budget_eff + 1)):
        witnesses = searcher.search(r)
        if witnesses is not None:
            dec = _decomposition_from_witnesses(m, notion, witnesses)
            report = verify(m, dec)
            if not report:
                raise CertificateError(f"searched decomposition fails verification: {report}")
            cert = _lower_certificate(chi, r, searched_through)
            return RankResult(notion, "finite", r, r, r, chi, cert, dec)
        searched_through = r
    lower_proved = max(chi, searched_through + 1)
    if ub <= budget_eff or lower_proved >= ub:
        cert = _lower_certificate(chi, ub, searched_through)
        return RankResult(notion, "finite", ub, ub, ub, chi, cert, upper_dec)
    return RankResult(
        notion,
        "interval",
        None,
        lower_proved,
        ub,
        chi,
        _lower_certificate(chi, lower_proved, searched_through),
        upper_dec,
    )


def _lower_certificate(chi: int, value: int, searched_through: int) -> dict:
    if chi >= value:
        return {"type": "chromatic", "value": chi}
    return {
        "type": "exhaustion",
        "infeasible_through": searched_through,
        "chromatic_bound": chi,
    }


ClassWitness = tuple[str, object]  # ("vector", generator) or ("tree", WeightedTree)


class _AssignmentSearcher:
    """Backtracking search over position-to-slot assignments.

    Slots must stay independent in the deficiency graph; slot contents are
    checked for variety feasibility eagerly (rank-one and star slots,
    where the check is a cheap two-variable system) or at the leaves
    (tree slots: quartet pruning, then one integer LP per remaining
    topology), with results cached by position set.
    """

    def __init__(self, m: Matrix, notion: str, hypergraph: DeficiencyHypergraph):
        self.m = m
        self.notion = notion
        degree = {p: 0 for p in m.positions()}
        adjacency: dict[Position, set[Position]] = {p: set() for p in m.positions()}
        for e in hypergraph.graph_edges():
            u, v = sorted(e)
            adjacency[u].add(v)
            adjacency[v].add(u)
            degree[u] += 1
            degree[v] += 1
        self.order = sorted(m.positions(), key=lambda p: (-degree[p], p))
        self.index = {p: i for i, p in enumerate(self.order)}
        self.adj_mask = [0] * len(self.order)
        for p, nbs in adjacency.items():
            for q in nbs:
                self.adj_mask[self.index[p]] |= 1 << self.index[q]
        self.feasible_cache: dict[frozenset, Optional[ClassWitness]] = {}
        self.eager = notion in (SYM, STAR)
        # Tree slots work on the entries times `scale`, all integers; a
        # tree LP's point is divided by `scale` again.
        self.scale = math.lcm(*(v.denominator for _, v in m.items()))
        self.values = {p: v.numerator * (self.scale // v.denominator) for p, v in m.items()}

    def search(self, r: int) -> Optional[list[ClassWitness]]:
        order = self.order
        masks = [0] * r
        members: list[list[Position]] = [[] for _ in range(r)]

        def recurse(t: int, used: int) -> Optional[list[ClassWitness]]:
            if t == len(order):
                if used < r:
                    return None
                witnesses = []
                for cls in members:
                    w = self._class_witness(frozenset(cls))
                    if w is None:
                        return None
                    witnesses.append(w)
                return witnesses
            p = order[t]
            bit = 1 << t
            limit = min(used + 1, r)
            for c in range(limit):
                if masks[c] & self.adj_mask[t]:
                    continue
                members[c].append(p)
                if not self.eager or self._class_witness(frozenset(members[c])) is not None:
                    masks[c] |= bit
                    got = recurse(t + 1, max(used, c + 1))
                    if got is not None:
                        return got
                    masks[c] &= ~bit
                members[c].pop()
            return None

        return recurse(0, 0)

    def _class_witness(self, cls: frozenset) -> Optional[ClassWitness]:
        cached = self.feasible_cache.get(cls, "missing")
        if cached != "missing":
            return cached
        if self.notion in (SYM, STAR):
            witness = self._sum_witness(cls)
        else:
            witness = self._tree_witness(cls)
        self.feasible_cache[cls] = witness
        return witness

    def _sum_witness(self, cls: frozenset) -> Optional[ClassWitness]:
        system = TwoVarSystem(self.m.n)
        for (i, j), value in self.m.items():
            system.add_sum_ge(i - 1, j - 1, value)
        for i, j in cls:
            system.add_sum_le(i - 1, j - 1, self.m[(i, j)])
        solution = system.solve()
        if solution is None:
            return None
        return ("vector", tuple(solution))

    def _tree_witness(self, cls: frozenset) -> Optional[ClassWitness]:
        forced = _forced_splits(self.m.n, self.values, cls)
        if forced is None:
            return None
        if not forced:
            # A forced split needs one pairing sum above another, which a
            # star (all three sums equal) never has.
            star = self._sum_witness(cls)
            if star is not None:
                return star
        for topology in _binary_topologies(self.m.n):
            if all(topology.splits[q] == code for q, code in forced):
                point = self._solve_topology(topology, cls)
                if point is not None:
                    return ("tree", point)
        return None

    def _solve_topology(self, topology: "_Topology", cls: frozenset) -> Optional[WeightedTree]:
        n = self.m.n
        nvars = len(topology.edges)
        eqs = []
        ineqs = []
        for pos, path in zip(self.m.positions(), topology.paths):
            row = [(path >> e) & 1 for e in range(nvars)]
            (eqs if pos in cls else ineqs).append((row, self.values[pos]))
        for e, (u, _) in enumerate(topology.edges):
            if u > n:  # u < v, so both ends are internal
                row = [0] * nvars
                row[e] = -1
                ineqs.append((row, 0))
        point = solve_linear_feasibility(nvars, eqs, ineqs)
        if point is None:
            return None
        return topology.build_tree(n, [x / self.scale for x in point])


Quartet = tuple[tuple[Position, Position], ...]


@lru_cache(maxsize=None)
def _quartets(n: int) -> tuple[Quartet, ...]:
    """The three pairings (ij|kl, ik|jl, il|jk) of each i < j < k < l.

    A pairing's index in its quartet is its split code.
    """
    return tuple(
        (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))
        for i, j, k, l in itertools.combinations(range(1, n + 1), 4)
    )


def _forced_splits(
    n: int, values: dict[Position, int], cls: frozenset
) -> Optional[list[tuple[int, int]]]:
    """(quartet, split code) pairs that every tree witness of `cls` shows.

    A tree matrix attains the minimum of a quartet's three pairing sums
    twice, and its split pairing carries the largest sum (internal edges
    are <= 0).  A witness equals the target on a pairing A inside the slot
    and dominates it elsewhere, so a pairing with a strictly larger target
    sum than A has a larger witness sum than A and must be the split.
    None when some quartet has two such pairings: no tree fits the slot.
    """
    forced = []
    for q, pairings in enumerate(_quartets(n)):
        sums = [values[a] + values[b] for a, b in pairings]
        inside = [s for (a, b), s in zip(pairings, sums) if a in cls and b in cls]
        if not inside:
            continue
        low = min(inside)
        above = [code for code, s in enumerate(sums) if s > low]
        if len(above) > 1:
            return None
        if above:
            forced.append((q, above[0]))
    return forced


class _Topology:
    """An unrooted binary tree shape on leaves 1..n, reduced to what a tree
    slot check reads.

    `edges` is sorted; an edge's index there is its LP variable.
    `paths[k]` is the bitmask of the edges on the path between the k-th
    leaf pair (i < j, in `itertools.combinations` order).  `splits[q]` is
    the split code of the q-th quartet of `_quartets(n)`.
    """

    __slots__ = ("edges", "paths", "splits")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        self.edges = edges
        adjacency: dict[int, list[tuple[int, int]]] = {}
        for k, (u, v) in enumerate(edges):
            adjacency.setdefault(u, []).append((v, k))
            adjacency.setdefault(v, []).append((u, k))
        paths = []
        for i in range(1, n):
            masks = {i: 0}
            stack = [i]
            while stack:
                u = stack.pop()
                for v, k in adjacency[u]:
                    if v not in masks:
                        masks[v] = masks[u] | 1 << k
                        stack.append(v)
            paths.extend(masks[j] for j in range(i + 1, n + 1))
        self.paths = tuple(paths)
        path = dict(zip(itertools.combinations(range(1, n + 1), 2), self.paths))
        # In a binary tree exactly one pairing of a quartet has disjoint paths.
        self.splits = bytes(
            next(code for code, (a, b) in enumerate(pairings) if not path[a] & path[b])
            for pairings in _quartets(n)
        )

    def build_tree(self, n: int, weights: Sequence[Fraction]) -> WeightedTree:
        adj: dict[int, dict[int, Fraction]] = {}
        for k, (u, v) in enumerate(self.edges):
            adj.setdefault(u, {})[v] = weights[k]
            adj.setdefault(v, {})[u] = weights[k]
        tree = WeightedTree(n, adj)
        tree.validate()
        return tree


@lru_cache(maxsize=None)
def _binary_topologies(n: int) -> tuple[_Topology, ...]:
    """All unrooted binary shapes on n leaves ((2n-5)!! of them).

    Leaves 4..n are inserted in turn on each edge of the sorted edge list,
    depth first; leaf `leaf` brings internal vertex n + leaf - 2.
    """
    if n < 3:
        raise ValueError("binary tree shapes need at least three leaves")
    shapes = []

    def grow(edges: list[tuple[int, int]], leaf: int) -> None:
        if leaf > n:
            shapes.append(_Topology(n, tuple(edges)))
            return
        mid = n + leaf - 2
        for u, v in edges:
            grown = [e for e in edges if e != (u, v)] + [(u, mid), (v, mid), (leaf, mid)]
            grow(sorted(grown), leaf + 1)

    grow([(1, n + 1), (2, n + 1), (3, n + 1)], 4)
    return tuple(shapes)


def _decomposition_from_witnesses(
    m: Matrix, notion: str, witnesses: Sequence[ClassWitness]
) -> Decomposition:
    summands = []
    for kind, payload in witnesses:
        if kind == "vector":
            if notion == SYM:
                summands.append(rank1_summand(payload))
            else:
                summands.append(star_summand(payload))
        else:
            summands.append(tree_summand(payload))
    return Decomposition(notion, tuple(summands))


def block_matrix(m: DissimilarityMatrix, copies: int, filler=10) -> DissimilarityMatrix:
    """copies x copies block-diagonal layout of m, `filler` elsewhere."""
    if copies < 1:
        raise ValueError("need at least one copy")
    n = m.n
    filler = frac(filler)

    def entry(i: int, j: int):
        bi, bj = (i - 1) // n, (j - 1) // n
        if bi != bj:
            return filler
        return m[((i - 1) % n + 1, (j - 1) % n + 1)]

    return DissimilarityMatrix.from_function(n * copies, entry)
