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
    chi, coloring = exact_graph_coloring(list(h.vertices), h.graph_edges())
    return chi, coloring


def rank_lower_bound(w: Matrix, basis: str):
    return chromatic_number(build_deficiency(w, basis))


# --- exact graph coloring -------------------------------------------------


def exact_graph_coloring(vertices: Sequence, edges: Iterable[frozenset]):
    """Exact (chi, coloring dict) for a simple graph given as edge sets.

    Strategy: split off vertices of positive degree, decompose along
    connected components of the complement (the graph is then a join, and
    chromatic numbers add), and solve each factor by iterated k-coloring
    with clique and greedy bounds.
    """
    vertices = list(vertices)
    if not vertices:
        return 1, {}
    adjacency: dict = {v: set() for v in vertices}
    for e in edges:
        u, v = sorted(e)
        if u == v:
            raise ValueError("loops make the chromatic number infinite")
        adjacency[u].add(v)
        adjacency[v].add(u)
    active = [v for v in vertices if adjacency[v]]
    coloring = {v: 1 for v in vertices if not adjacency[v]}
    if not active:
        return 1, coloring
    best = 0
    for part in _complement_components(active, adjacency):
        k, part_coloring = _color_component(part, adjacency)
        for v, c in part_coloring.items():
            coloring[v] = best + c
        best += k
    return best, coloring


def _complement_components(vertices: list, adjacency: dict) -> list[list]:
    remaining = set(vertices)
    parts = []
    while remaining:
        seed = next(iter(remaining))
        comp = {seed}
        frontier = [seed]
        while frontier:
            u = frontier.pop()
            for v in list(remaining - comp):
                if v not in adjacency[u]:
                    comp.add(v)
                    frontier.append(v)
        parts.append(sorted(comp))
        remaining -= comp
    return parts


def _color_component(vertices: list, adjacency: dict):
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    adj_mask = [0] * n
    for v in vertices:
        for u in adjacency[v]:
            if u in index:
                adj_mask[index[v]] |= 1 << index[u]
    clique = _max_clique_mask(n, adj_mask)
    lb = bin(clique).count("1")
    ub, greedy = _dsatur_greedy(n, adj_mask)
    if lb == ub:
        return ub, {vertices[i]: greedy[i] + 1 for i in range(n)}
    for k in range(lb, ub):
        attempt = _k_coloring(n, adj_mask, k)
        if attempt is not None:
            return k, {vertices[i]: attempt[i] + 1 for i in range(n)}
    return ub, {vertices[i]: greedy[i] + 1 for i in range(n)}


def _max_clique_mask(n: int, adj_mask: list[int]) -> int:
    best_mask = 0

    def expand(clique_mask: int, cand: int, size: int) -> None:
        nonlocal best_mask
        if size + bin(cand).count("1") <= bin(best_mask).count("1"):
            return
        if cand == 0:
            if size > bin(best_mask).count("1"):
                best_mask = clique_mask
            return
        while cand:
            if size + bin(cand).count("1") <= bin(best_mask).count("1"):
                return
            v = cand.bit_length() - 1
            bit = 1 << v
            cand &= ~bit
            expand(clique_mask | bit, cand & adj_mask[v], size + 1)

    expand(0, (1 << n) - 1, 0)
    return best_mask


def _dsatur_greedy(n: int, adj_mask: list[int]):
    colors = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    degrees = [bin(m).count("1") for m in adj_mask]
    for _ in range(n):
        v = max(
            (i for i in range(n) if colors[i] < 0),
            key=lambda i: (len(neighbor_colors[i]), degrees[i]),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        mask = adj_mask[v]
        while mask:
            u = mask.bit_length() - 1
            mask &= ~(1 << u)
            neighbor_colors[u].add(c)
    return max(colors) + 1, colors


def _k_coloring(n: int, adj_mask: list[int], k: int) -> Optional[list[int]]:
    """Backtracking k-coloring with low-degree peeling and DSATUR selection."""
    # Vertices with degree < k can always be colored last.
    active = set(range(n))
    peeled: list[int] = []
    changed = True
    while changed:
        changed = False
        for v in list(active):
            if bin(adj_mask[v] & _mask_of(active)).count("1") < k:
                active.remove(v)
                peeled.append(v)
                changed = True
    colors = [-1] * n
    if active and not _k_color_core(sorted(active), adj_mask, k, colors):
        return None
    for v in reversed(peeled):
        used = {colors[u] for u in _bits(adj_mask[v]) if colors[u] >= 0}
        c = next(c for c in range(k) if c not in used)
        colors[v] = c
    return colors


def _mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(mask: int):
    while mask:
        v = mask.bit_length() - 1
        mask &= ~(1 << v)
        yield v


def _k_color_core(core: list[int], adj_mask: list[int], k: int, colors: list[int]) -> bool:
    uncolored = set(core)

    def choose() -> int:
        return max(
            uncolored,
            key=lambda v: (
                len({colors[u] for u in _bits(adj_mask[v]) if colors[u] >= 0}),
                bin(adj_mask[v]).count("1"),
            ),
        )

    def backtrack(max_used: int) -> bool:
        if not uncolored:
            return True
        v = choose()
        used = {colors[u] for u in _bits(adj_mask[v]) if colors[u] >= 0}
        if len(used) >= k:
            return False
        uncolored.remove(v)
        # New colors only in canonical order: prunes color permutations.
        limit = min(k, max_used + 2)
        for c in range(limit):
            if c in used:
                continue
            colors[v] = c
            if backtrack(max(max_used, c)):
                return True
            colors[v] = -1
        uncolored.add(v)
        return False

    return backtrack(-1)


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
