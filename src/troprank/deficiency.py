"""Deficiency hypergraphs and exact chromatic numbers.

For a matrix w and a tropical basis, every basis polynomial whose minimum
is attained once contributes a hyperedge on the coordinates of its unique
minimal term.  The chromatic number of the resulting (hyper)graph is a
certified lower bound for the rank of w: in any decomposition, the summand
agreeing with w on a whole hyperedge would violate that polynomial.

All three shipped bases are quadratic, so hyperedges have size one (loops,
forcing infinite rank) or two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .core import (
    INFINITE,
    DissimilarityMatrix,
    Matrix,
    Position,
    SymmetricMatrix,
    relabel_positions,
    unique_minima,
)
from .membership import (
    PLUECKER,
    STAR_TREE,
    SYMMETRIC_MINORS,
    Relation,
    basis_for,
    term_label,
)


@dataclass(frozen=True)
class DeficiencyHypergraph:
    vertices: tuple[Position, ...]
    hyperedges: tuple[frozenset[Position], ...]
    # The first relation, in basis order, that put each hyperedge in.
    provenance: dict[frozenset[Position], Relation] = field(hash=False, compare=False, default_factory=dict)

    def loops(self) -> list[Position]:
        return sorted(next(iter(e)) for e in self.hyperedges if len(e) == 1)

    def graph_edges(self) -> set[frozenset[Position]]:
        return {e for e in self.hyperedges if len(e) == 2}

    def is_empty(self) -> bool:
        return not self.hyperedges

    def induced(self, keep: Iterable[Position]) -> "DeficiencyHypergraph":
        kept = set(keep)
        edges = tuple(e for e in self.hyperedges if e <= kept)
        prov = {e: self.provenance[e] for e in edges if e in self.provenance}
        return DeficiencyHypergraph(tuple(sorted(kept)), edges, prov)

    def to_json_dict(self) -> dict:
        def pos_name(p: Position) -> str:
            return f"{p[0]},{p[1]}"

        return {
            "vertices": [pos_name(v) for v in self.vertices],
            "hyperedges": [sorted(pos_name(v) for v in e) for e in self.hyperedges],
            "provenance": {
                "|".join(sorted(pos_name(v) for v in e)): " (+) ".join(map(term_label, relation))
                for e, relation in self.provenance.items()
            },
        }

    def to_dot(self) -> str:
        def name(p: Position) -> str:
            return f'"{p[0]},{p[1]}"'

        lines = ["graph deficiency {"]
        covered = set()
        for e in self.hyperedges:
            if len(e) == 1:
                (v,) = e
                lines.append(f"  {name(v)} -- {name(v)};")
                covered.add(v)
            else:
                u, v = sorted(e)
                lines.append(f"  {name(u)} -- {name(v)};")
                covered.update((u, v))
        for v in self.vertices:
            if v not in covered:
                lines.append(f"  {name(v)};")
        lines.append("}")
        return "\n".join(lines)


def build_deficiency(w: Matrix, basis: str) -> DeficiencyHypergraph:
    """Hyperedges from the basis relations uniquely minimized at w.

    Every term is a sum of two entries, so `core.unique_minima` compares the
    sums in integers (the entries times the lcm of their denominators),
    which keeps each tie and each minimizer.
    """
    if basis == SYMMETRIC_MINORS and not isinstance(w, SymmetricMatrix):
        raise TypeError("the minors basis applies to symmetric matrices")
    if basis in (STAR_TREE, PLUECKER) and not isinstance(w, DissimilarityMatrix):
        raise TypeError(f"the {basis} basis applies to dissimilarity matrices")
    _, values = w.scaled_to_integers()
    hyperedges: list[frozenset[Position]] = []
    provenance: dict[frozenset[Position], Relation] = {}
    for relation, k in unique_minima(basis_for(basis, w.n), values):
        edge = frozenset(relation[k])
        if edge not in provenance:
            hyperedges.append(edge)
            provenance[edge] = relation
    return DeficiencyHypergraph(tuple(w.positions()), tuple(hyperedges), provenance)


def chromatic_number(h: DeficiencyHypergraph):
    """Exact chromatic number; math.inf when a loop is present."""
    value, _ = optimal_coloring(h)
    return value


def optimal_coloring(h: DeficiencyHypergraph):
    """(chi, coloring) with colors 1..chi, or (inf, None) given a loop."""
    if any(len(e) == 1 for e in h.hyperedges):
        return INFINITE, None
    return exact_graph_coloring(h.vertices, h.graph_edges())


def rank_lower_bound(w: Matrix, basis: str):
    return chromatic_number(build_deficiency(w, basis))


# --- exact graph coloring -------------------------------------------------
#
# A vertex set is an int bitmask and a graph is one neighbor mask per
# vertex: bit u of adj[v] is set when u and v are adjacent.


def exact_graph_coloring(vertices: Sequence, edges: Iterable[frozenset]):
    """Exact (chi, coloring dict) for a simple graph given as edge sets.

    Strategy: color isolated vertices 1, decompose the rest along
    connected components of the complement (the graph is then a join, and
    chromatic numbers add), and solve each factor with `_dsatur` alone.
    The first pass has more colors than any degree, so it is the greedy
    coloring; each later pass asks for one color fewer than the last
    coloring used.  k-colorability is monotone in k and `_dsatur` is a
    complete search, so the first refuted pass proves chi.
    """
    vertices = list(vertices)
    if not vertices:
        return 1, {}
    index = {v: i for i, v in enumerate(vertices)}
    adj = [0] * len(vertices)
    for e in edges:
        if len(e) == 1:
            raise ValueError("loops make the chromatic number infinite")
        u, v = (index[x] for x in e)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    coloring = {v: 1 for v, nb in zip(vertices, adj) if not nb}
    active = sum(1 << i for i, nb in enumerate(adj) if nb)
    if not active:
        return 1, coloring
    chi = 0
    for part in _complement_components(active, adj):
        k = 2 + max((adj[i] & part).bit_count() for i in _bits(part))
        attempt = [-1] * len(adj)
        while _dsatur(part, adj, k - 1, attempt):
            k, colors, attempt = max(attempt) + 1, attempt, [-1] * len(adj)
        for i in _bits(part):
            coloring[vertices[i]] = chi + colors[i] + 1
        chi += k
    return chi, coloring


def _bits(mask: int):
    """The set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _complement_components(vertices: int, adj: Sequence[int]) -> list[int]:
    """The connected components of the complement graph on `vertices`, as masks."""
    parts = []
    while vertices:
        comp = frontier = vertices & -vertices
        while frontier:
            u = frontier.bit_length() - 1
            frontier ^= 1 << u
            reached = vertices & ~comp & ~adj[u]
            comp |= reached
            frontier |= reached
        parts.append(comp)
        vertices &= ~comp
    return parts


def _dsatur(part: int, adj: list[int], k: int, colors: list[int]) -> bool:
    """Color the vertices of `part` into `colors` with colors 0..k-1.

    DSATUR backtracking (Brélaz 1979): the next vertex has the most
    distinct colors among its neighbors, then the highest degree in
    `part`, then the lowest index.  Each uncolored vertex keeps a count of
    its neighbors per color, updated as colors are placed and taken back.
    With k above the largest degree in `part` no vertex runs out of
    colors, so nothing is taken back and the result is the DSATUR greedy
    coloring.  With a smaller k the search is exhaustive: False means
    `part` has no k-coloring.
    The placed colors form an explicit stack, so no recursion limit
    applies to the size of `part`.
    """
    counts = {v: [0] * k for v in _bits(part)}
    saturation = dict.fromkeys(counts, 0)
    degree = {v: (adj[v] & part).bit_count() for v in counts}
    placed: list[tuple[int, int, int]] = []  # (vertex, color, highest color before it)
    uncolored, top, v, first = part, -1, -1, 0
    while True:
        if v < 0:
            if not uncolored:
                return True
            v = max(_bits(uncolored), key=lambda u: (saturation[u], degree[u]))
            uncolored ^= 1 << v
            first = 0
        # New colors only in canonical order: prunes color permutations.
        c = next((c for c in range(first, min(k, top + 2)) if not counts[v][c]), -1)
        if c >= 0:
            placed.append((v, c, top))
            colors[v], top, step = c, max(top, c), 1
        else:
            uncolored |= 1 << v
            if not placed:
                return False
            v, c, top = placed.pop()
            colors[v], first, step = -1, c + 1, -1
        for u in _bits(adj[v] & uncolored):
            counts[u][c] += step
            if counts[u][c] == (step > 0):  # c is new to u, or gone from it
                saturation[u] += step
        if step > 0:
            v = -1


# --- the Petersen graph on pairs of [5] ------------------------------------

TRIVIAL = "trivial"
SPARSE = "fewer-than-five-edges"
HUB_PAIR = "two-hubs"
HUB_SINGLE = "one-hub"
FIVE_CYCLE = "five-cycle"

PETERSEN_VERTICES: tuple[Position, ...] = tuple(itertools.combinations(range(1, 6), 2))
PETERSEN_EDGES: frozenset[frozenset[Position]] = frozenset(
    frozenset({a, b})
    for a, b in itertools.combinations(PETERSEN_VERTICES, 2)
    if not set(a) & set(b)
)

# Canonical 5-edge 2-colorable shapes: hub vertex {1,2} carries its three
# incident edges; the remaining two quadruples either both reuse partner 3
# (giving a second degree-3 vertex {4,5}) or use distinct partners.
_HUB = (1, 2)
_HUB_EDGES = [
    frozenset({(1, 2), (3, 4)}),
    frozenset({(1, 2), (3, 5)}),
    frozenset({(1, 2), (4, 5)}),
]
CANONICAL_HUB_PAIR = frozenset(
    _HUB_EDGES + [frozenset({(2, 3), (4, 5)}), frozenset({(1, 3), (4, 5)})]
)
CANONICAL_HUB_SINGLE = frozenset(
    _HUB_EDGES + [frozenset({(2, 3), (4, 5)}), frozenset({(1, 4), (3, 5)})]
)


@dataclass(frozen=True)
class PetersenClassification:
    tag: str
    edges: frozenset[frozenset[Position]]
    relabeling: Optional[tuple[int, ...]] = None  # image of 1..5, when matched


def _is_five_cycle(edges: frozenset) -> bool:
    # Five edges, each of five vertices of degree two: a simple 2-regular
    # graph is a union of cycles of length >= 3, and on five vertices that
    # leaves one 5-cycle, so no connectivity walk is needed.
    if len(edges) != 5:
        return False
    degree: dict[Position, int] = {}
    for e in edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    return sorted(degree.values()) == [2, 2, 2, 2, 2]


def classify_petersen(m: DissimilarityMatrix) -> PetersenClassification:
    """Place the 5x5 deficiency graph in the five-way taxonomy.

    Every 5x5 deficiency graph is a subgraph of the Petersen graph with at
    most one edge per quadruple; with five edges it is one of the two
    2-colorable hub shapes or a five-cycle.
    """
    if m.n != 5:
        raise ValueError("the Petersen classification applies to n = 5")
    h = build_deficiency(m, PLUECKER)
    edges = frozenset(h.graph_edges())
    if not edges:
        return PetersenClassification(TRIVIAL, edges)
    if len(edges) < 5:
        return PetersenClassification(SPARSE, edges)
    if _is_five_cycle(edges):
        return PetersenClassification(FIVE_CYCLE, edges)
    for perm in itertools.permutations(range(1, 6)):
        relabelled = frozenset(relabel_positions(e, perm) for e in edges)
        if relabelled == CANONICAL_HUB_PAIR:
            return PetersenClassification(HUB_PAIR, edges, perm)
        if relabelled == CANONICAL_HUB_SINGLE:
            return PetersenClassification(HUB_SINGLE, edges, perm)
    raise RuntimeError("five-edge deficiency graph outside the known taxonomy")


@lru_cache(maxsize=None)
def petersen_even_cycles() -> list[tuple[Position, ...]]:
    """All 6- and 8-cycles of the Petersen graph, as vertex sequences."""
    adj = {
        u: {v for v in PETERSEN_VERTICES if frozenset({u, v}) in PETERSEN_EDGES}
        for u in PETERSEN_VERTICES
    }
    cycles: set[tuple[Position, ...]] = set()
    order = {v: i for i, v in enumerate(PETERSEN_VERTICES)}

    def extend(path: list[Position]) -> None:
        head = path[-1]
        start = path[0]
        if len(path) in (6, 8) and start in adj[head]:
            # Canonical form: smallest vertex first, smaller neighbor second.
            if order[path[1]] < order[path[-1]]:
                cycles.add(tuple(path))
        if len(path) == 8:
            return
        for nxt in adj[head]:
            if nxt in path or order[nxt] <= order[start]:
                continue
            path.append(nxt)
            extend(path)
            path.pop()

    for v in PETERSEN_VERTICES:
        extend([v])
    return sorted(cycles)


def has_alternating_even_cycle(
    edges: Iterable[frozenset],
) -> tuple[bool, Optional[tuple[Position, ...]]]:
    """Does some Petersen 6- or 8-cycle alternate members and non-members?

    `edges` is any set of Petersen edges (for instance a 5x5 deficiency
    graph).  Returns a witness cycle when one exists.
    """
    members = set(edges)
    if not members <= PETERSEN_EDGES:
        raise ValueError("edges must be edges of the Petersen graph on pairs of [5]")
    for cycle in petersen_even_cycles():
        length = len(cycle)
        sides = [
            frozenset({cycle[i], cycle[(i + 1) % length]}) in members
            for i in range(length)
        ]
        if all(sides[i] != sides[i + 1] for i in range(length - 1)) and sides[-1] != sides[0]:
            return True, cycle
    return False, None
