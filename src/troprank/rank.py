"""Rank computation: method dispatch, the exact solver, and the tree upper
bound of `decompose`.

Layers, bottom up: `upper` builds the constructive upper bounds; `covers`
(0/1 cover formulas) builds on it; this module sits on top.  Each answer
comes from one source: the exact solver or the cover formulas.
`compute_rank` is the one entry point with a method choice:

* ``auto``: the cover formula for a 0/1 matrix, else `exact_rank`;
* ``exact``: `exact_rank`, always;
* ``bounds``: `exact_rank` with budget 0, which searches no rank: the
  membership test, the chromatic lower bound and the constructive upper
  bound.  Its finite answers are `exact`'s.

The rank is the least r with m in the r-th secant set, and the first
secant set is the variety itself, so the exact solver decides r = 1 by the
variety's membership test (`upper.one_summand`, O(n^2)).  From r = 2 on it
realizes the secant-set definition directly: every matrix
position must be attained by some summand, so it searches assignments of
positions to summand slots and asks, per slot, whether a variety element
exists that equals the target on the slot's positions and dominates it
everywhere else.  Slot feasibility is decided exactly:

* rank-one / star slots: two-variable sum constraints on the generator,
  solved by negative-cycle detection;
* tree slots: quartets first.  A quartet pairing that lies in the slot
  forces every pairing with a strictly larger sum to be the quartet's
  split.  With no forced split a star witness is tried; otherwise exact
  linear feasibility runs, in integers, over the unrooted binary
  topologies showing every forced split.  Zero-weight internal edges
  cover the degenerate shapes, so binary topologies suffice.  An AND of
  one bitmask per forced (quartet, split code) picks the topologies to
  try; two forced codes on one quartet leave no shape.

A slot is one bitmask over the search order, from the independence test
to the LP split.  Search slots must stay independent in the deficiency
graph (a slot holding both ends of a deficiency edge is infeasible), which
is also where the certified chromatic lower bound comes from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

from .core import (
    INFINITE,
    DissimilarityMatrix,
    Matrix,
    Position,
    SymmetricMatrix,
    quartets,
)
from .decomposition import (  # noqa: F401  (the errors are re-exported)
    CertificateError,
    ConstructionError,
    Decomposition,
    NOTIONS,
    STAR,
    SYM,
    TREE,
    certify,
    rank1_summand,
    star_summand,
    tree_summand,
)
from .deficiency import (
    DeficiencyHypergraph,
    _bits,
    build_deficiency,
    optimal_coloring,
)
from .exactlp import TwoVarSystem, solve_linear_feasibility
from .membership import PLUECKER, STAR_TREE, SYMMETRIC_MINORS
from .trees import WeightedTree
from .upper import (  # noqa: F401  (re-exported)
    _upper_for_search,
    finiteness_violation,
    normalize_diagonal,
    one_summand,
    star_upper_decomposition,
    symmetric_rank_finite,
    symmetric_upper_decomposition,
    upper_size,
)

METHODS = ("auto", "exact", "bounds")


def basis_for_notion(notion: str) -> str:
    if notion == SYM:
        return SYMMETRIC_MINORS
    if notion == STAR:
        return STAR_TREE
    if notion == TREE:
        return PLUECKER
    raise ValueError(f"unknown rank notion {notion!r}; expected one of {NOTIONS}")


def tree_upper_decomposition(m: DissimilarityMatrix) -> Decomposition:
    """Tree decompositions within the known worst-case sizes per n.

    One summand whenever the four-point condition already holds;
    n = 5: the search's minimal decomposition (at most three trees);
    otherwise the search's upper bound: the star construction for n = 4,
    and for n >= 6 three 4x4 blocks from a minimal matching of the leading
    6x6 block, embedded into n leaves, plus one star per further index.
    """
    one = one_summand(m, TREE)
    if one is not None:
        return one
    if m.n == 5:
        return exact_rank(m, TREE).decomposition
    return _upper_for_search(m, TREE)


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


def _infinite_result(notion: str, witness: Position) -> RankResult:
    return RankResult(
        notion,
        "infinite",
        INFINITE,
        INFINITE,
        INFINITE,
        INFINITE,
        {"type": "finiteness-violation", "pair": list(witness)},
        infinite_witness=witness,
    )


def _finite_result(
    notion: str, value: int, chi: int, dec: Optional[Decomposition], certificate: dict
) -> RankResult:
    return RankResult(notion, "finite", value, value, value, chi, certificate, dec)


def compute_rank(
    m: Matrix, notion: str, method: str = "auto", budget: Optional[int] = None
) -> RankResult:
    """The rank of m under `notion` ("sym", "star" or "tree"), certified.

    `method` is "auto", "exact" or "bounds" (see the module docstring).
    `budget` (at least 0 on every route) is the largest rank the search
    tries; past it the answer is an interval.  The cover formulas ignore
    it, and `bounds` is the solver at budget 0.
    """
    check_space(m, notion)
    _check_budget(budget)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "auto" and all(v in (0, 1) for _, v in m.items()):
        return _zero_one_rank(m, notion)
    return exact_rank(m, notion, 0 if method == "bounds" else budget)


def _check_budget(budget: Optional[int]) -> None:
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")


def check_space(m: Matrix, notion: str) -> None:
    if notion not in NOTIONS:
        raise ValueError(f"unknown rank notion {notion!r}")
    if notion == SYM and not isinstance(m, SymmetricMatrix):
        raise TypeError("symmetric rank applies to symmetric matrices")
    if notion in (STAR, TREE) and not isinstance(m, DissimilarityMatrix):
        raise TypeError(f"{notion} rank applies to dissimilarity matrices")


def _zero_one_rank(m: Matrix, notion: str) -> RankResult:
    # Imported here so that `import troprank.cli` does not load the cover
    # module, which takes about 13 ms to import without bytecode caches.
    from .covers import star_tree_rank_01, symmetric_rank_01, tree_rank_01

    cover_rank = {SYM: symmetric_rank_01, STAR: star_tree_rank_01, TREE: tree_rank_01}[notion]
    outcome = cover_rank(m)
    if outcome.value == INFINITE:
        return _infinite_result(notion, outcome.infinite_witness)
    certificate = {"type": "covers", "cover": [el.to_json_dict() for el in outcome.cover]}
    if outcome.solid is not None:
        certificate["solid"] = outcome.solid
    chi = _chromatic(m, notion)[1]
    return _finite_result(notion, outcome.value, chi, outcome.decomposition, certificate)


def _chromatic(m: Matrix, notion: str) -> tuple[DeficiencyHypergraph, int]:
    """The deficiency graph of m and its chromatic number, a rank lower bound."""
    hypergraph = build_deficiency(m, basis_for_notion(notion))
    chi, _ = optimal_coloring(hypergraph)
    if chi == INFINITE:
        raise CertificateError("the deficiency graph of a finite-rank input has a loop")
    return hypergraph, int(chi)


def exact_rank(
    m: Matrix,
    notion: str,
    budget: Optional[int] = None,
) -> RankResult:
    """Smallest number of variety summands reproducing m, with certificates.

    r = 1 is the membership test `one_summand`, run at every budget: it
    answers whenever m lies on the variety, and with a sound χ <= 1 it
    always does.  The search then runs r upward from max(2, χ), stopping
    at `budget` and below the size of the constructive upper bound, which
    depends on n alone; the construction, a verified decomposition, is
    built only when the search finds nothing smaller.  `budget` 0 tries
    membership alone: the chromatic bound and the construction, as
    `bounds` reports them.
    Intended scale: n <= 7 for the search; an input on the variety answers
    at any n.
    """
    check_space(m, notion)
    _check_budget(budget)
    if notion == SYM:
        violation = finiteness_violation(m)
        if violation is not None:
            return _infinite_result(notion, violation)
    hypergraph, chi = _chromatic(m, notion)
    ub = upper_size(notion, m.n)
    budget_eff = ub if budget is None else budget
    if chi <= 1:
        one = one_summand(m, notion)
        if one is not None:
            return _finite_result(notion, 1, chi, one, _lower_certificate(chi, 1, 0))
    searched_through = max(2, chi) - 1  # r = 1 is out: by χ, or by membership
    ranks = range(searched_through + 1, min(ub, budget_eff + 1))
    searcher = _AssignmentSearcher(m, notion, hypergraph) if ranks else None
    for r in ranks:
        witnesses = searcher.search(r)
        if witnesses is not None:
            dec = certify(m, _decomposition_from_witnesses(m, notion, witnesses))
            return _finite_result(notion, r, chi, dec, _lower_certificate(chi, r, searched_through))
        searched_through = r
    upper_dec = _upper_for_search(m, notion)
    lower_proved = max(chi, searched_through + 1)
    if ub <= budget_eff or lower_proved >= ub:
        cert = _lower_certificate(chi, ub, searched_through)
        return _finite_result(notion, ub, chi, upper_dec, cert)
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


ClassWitness = Union[tuple[Fraction, ...], WeightedTree]  # a generator or a tree


class _AssignmentSearcher:
    """Backtracking search over position-to-slot assignments.

    Slots must stay independent in the deficiency graph; slot contents are
    checked for variety feasibility eagerly (rank-one and star slots,
    where the check is a cheap two-variable system) or at the leaves
    (tree slots: quartet pruning, then one integer LP per remaining
    topology), with results cached by slot, a bitmask (bit t: order[t]).
    """

    def __init__(self, m: Matrix, notion: str, hypergraph: DeficiencyHypergraph):
        self.m = m
        self.notion = notion
        positions = m.positions()
        adjacency: dict[Position, list[Position]] = {p: [] for p in positions}
        for u, v in hypergraph.graph_edges():
            adjacency[u].append(v)
            adjacency[v].append(u)
        self.order = sorted(positions, key=lambda p: (-len(adjacency[p]), p))
        self.index = {p: i for i, p in enumerate(self.order)}
        self.adj_mask = [sum(1 << self.index[q] for q in adjacency[p]) for p in self.order]
        self.feasible_cache: dict[int, Optional[ClassWitness]] = {}
        self.eager = notion in (SYM, STAR)
        # Slot checks work on the entries times `scale`, all integers; a
        # witness is divided by `scale` again.
        self.scale, self.values = m.scaled_to_integers()

    @cached_property
    def dominance_edges(self) -> list[tuple[int, int, int]]:
        """The ">= entry" edges (every generator dominates the target) that
        each two-variable slot system starts from; tree searches build them
        only for the star fallback."""
        dominates = TwoVarSystem(self.m.n)
        for (i, j), value in self.values.items():
            dominates.add_sum_ge(i - 1, j - 1, value)
        return dominates.edges

    @cached_property
    def pairing_sums(self) -> PairingSums:
        return _pairing_sums(self.m.n, self.values, self.index)

    def search(self, r: int) -> Optional[list[ClassWitness]]:
        size = len(self.order)
        masks = [0] * r

        def recurse(t: int, used: int) -> Optional[list[ClassWitness]]:
            if t == size:
                if used < r:
                    return None
                witnesses = []
                for slot in masks:
                    w = self._class_witness(slot)
                    if w is None:
                        return None
                    witnesses.append(w)
                return witnesses
            bit = 1 << t
            limit = min(used + 1, r)
            for c in range(limit):
                if masks[c] & self.adj_mask[t]:
                    continue
                masks[c] |= bit
                if not self.eager or self._class_witness(masks[c]) is not None:
                    got = recurse(t + 1, max(used, c + 1))
                    if got is not None:
                        return got
                masks[c] &= ~bit
            return None

        return recurse(0, 0)

    def _class_witness(self, slot: int) -> Optional[ClassWitness]:
        if slot in self.feasible_cache:
            return self.feasible_cache[slot]
        witness = self._sum_witness(slot) if self.eager else self._tree_witness(slot)
        self.feasible_cache[slot] = witness
        return witness

    def _sum_witness(self, slot: int) -> Optional[tuple[Fraction, ...]]:
        system = TwoVarSystem(self.m.n, self.dominance_edges)
        for t in _bits(slot):
            i, j = self.order[t]
            system.add_sum_le(i - 1, j - 1, self.values[(i, j)])
        doubled = system.solve()
        if doubled is None:
            return None
        return tuple(Fraction(d, 2 * self.scale) for d in doubled)

    def _tree_witness(self, slot: int) -> Optional[ClassWitness]:
        forced = _forced_splits(self.pairing_sums, slot)
        if not forced:
            # A forced split needs one pairing sum above another, which a
            # star (all three sums equal) never has.
            star = self._sum_witness(slot)
            if star is not None:
                return star
        for topology in _candidate_topologies(self.m.n, forced):
            point = self._solve_topology(topology, slot)
            if point is not None:
                return point
        return None

    def _solve_topology(self, topology: "_Topology", slot: int) -> Optional[WeightedTree]:
        n = self.m.n
        nvars = len(topology.edges)
        eqs = []
        ineqs = []
        for pos, path in zip(self.m.positions(), topology.paths):
            inside = slot >> self.index[pos] & 1
            (eqs if inside else ineqs).append((_mask_row(path, nvars), self.values[pos]))
        for e, (u, _) in enumerate(topology.edges):
            if u > n:  # u < v, so both ends are internal: weight <= 0
                ineqs.append((_mask_row(1 << e, nvars, -1), 0))
        point = solve_linear_feasibility(nvars, eqs, ineqs)
        if point is None:
            return None
        return topology.build_tree(n, [x / self.scale for x in point])


@lru_cache(maxsize=4096)
def _mask_row(mask: int, nvars: int, sign: int = 1) -> tuple[int, ...]:
    """LP coefficients of the edge set `mask`: `sign` on its edges, else 0."""
    return tuple(sign * (mask >> e & 1) for e in range(nvars))


# Per quartet: its three pairings as bitmasks of their two positions, and
# their target sums.
PairingSums = tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]


def _pairing_sums(n: int, values: dict[Position, int], index: dict[Position, int]) -> PairingSums:
    """The pairings of each quartet of `core.quartets(n)`, position p
    standing for bit index[p], with their sums on `values`."""
    bit = {p: 1 << k for p, k in index.items()}
    return tuple(
        (
            (bit[a0] | bit[b0], bit[a1] | bit[b1], bit[a2] | bit[b2]),
            (values[a0] + values[b0], values[a1] + values[b1], values[a2] + values[b2]),
        )
        for (a0, b0), (a1, b1), (a2, b2) in quartets(n)
    )


def _forced_splits(pairing_sums: PairingSums, slot: int) -> list[tuple[int, int]]:
    """(quartet, split code) pairs that every tree witness of a slot shows;
    `slot` is the bitmask of its positions, as in `pairing_sums`.

    A tree matrix attains the minimum of a quartet's three pairing sums
    twice, and its split pairing carries the largest sum (internal edges
    are <= 0).  A witness equals the target on a pairing A inside the slot
    and dominates it elsewhere, so a pairing with a strictly larger target
    sum than A has a larger witness sum than A and must be the split.
    When a quartet has two such pairings both codes are forced, and no
    shape shows both.
    """
    forced = []
    for q, (masks, sums) in enumerate(pairing_sums):
        inside = [s for mask, s in zip(masks, sums) if slot & mask == mask]
        if inside:
            low = min(inside)
            forced.extend((q, code) for code, s in enumerate(sums) if s > low)
    return forced


class _Topology:
    """An unrooted binary tree shape on leaves 1..n, reduced to what a tree
    slot check reads.

    `edges` is sorted; an edge's index there is its LP variable.
    `paths[k]` is the bitmask of the edges on the path between the k-th
    leaf pair (i < j, in `itertools.combinations` order).  `splits[q]` is
    the split code of the q-th quartet of `core.quartets(n)`.
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
            for pairings in quartets(n)
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


@lru_cache(maxsize=None)
def _split_masks(n: int) -> tuple[tuple[int, int, int], ...]:
    """masks[q][c]: bit t set when the t-th shape of `_binary_topologies(n)`
    has split code c on the q-th quartet."""
    masks = [[0, 0, 0] for _ in quartets(n)]
    for t, shape in enumerate(_binary_topologies(n)):
        for q, code in enumerate(shape.splits):
            masks[q][code] |= 1 << t
    return tuple(map(tuple, masks))


def _candidate_topologies(n: int, forced: Sequence[tuple[int, int]]):
    """The shapes showing every forced (quartet, split code), in
    `_binary_topologies(n)` order."""
    topologies = _binary_topologies(n)
    selected = (1 << len(topologies)) - 1
    if forced:
        masks = _split_masks(n)
        for q, code in forced:
            selected &= masks[q][code]
    while selected:
        low = selected & -selected
        selected ^= low
        yield topologies[low.bit_length() - 1]


def _decomposition_from_witnesses(
    m: Matrix, notion: str, witnesses: Sequence[ClassWitness]
) -> Decomposition:
    vector = rank1_summand if notion == SYM else star_summand
    summands = [tree_summand(w) if isinstance(w, WeightedTree) else vector(w) for w in witnesses]
    return Decomposition(notion, tuple(summands))
