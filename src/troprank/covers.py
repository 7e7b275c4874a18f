"""Graph-cover characterizations of the three ranks for 0/1 matrices.

G_M has an edge wherever the matrix entry is zero.  Minimum covers are
found by exhaustive branch and bound over maximal candidate subgraphs,
which is exact at the intended scale (n <= 12 or so):

* cliques covering every edge and vertex  -> symmetric rank,
* cliques and stars covering every edge   -> star tree rank (r or r+1,
  settled by the existence of a "solid" cover),
* complete multipartite subgraphs         -> tree rank (r or r+1 by the
  isolated-vertex count).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    INFINITE,
    DissimilarityMatrix,
    Matrix,
    SymmetricMatrix,
    frac,
    pad_generator,
    principal_submatrix,
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
)
from .deficiency import _bits, _complement_components
from .membership import finiteness_violation
from .trees import WeightedTree, _add_edge

CLIQUE = "clique"
STAR_ELEMENT = "star"
MULTIPARTITE = "multipartite"


@dataclass(frozen=True)
class ZeroOneGraph:
    """G_M as adjacency masks.  A cover item is a bit: vertex v is bit v and
    the pair {i < j} is bit i(n+1) + j, so pair bits sit above every vertex
    bit and run in (i, j) order."""

    n: int
    # Bit u of adj[v] is set when uv is an edge; vertices are 1..n, so adj[0] is 0.
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "ZeroOneGraph":
        adj = [0] * (n + 1)
        for i, j in edges:
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"bad edge ({i},{j})")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(n, tuple(adj))

    @classmethod
    def from_matrix(cls, m: Matrix) -> "ZeroOneGraph":
        """The graph of the zero entries of a 0/1 matrix off the diagonal."""
        return cls.from_edges(m.n, (p for p in m.positions() if p[0] != p[1] and m[p] == 0))

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> set[int]:
        return set(_bits(self.adj[v]))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def edge_items(self) -> int:
        """The item mask of the edges: each neighbor j above i shifts to bit i(n+1) + j."""
        n = self.n
        return sum((self.adj[i] >> i + 1 << i + 1) << i * (n + 1) for i in self.vertices())


def _within(n: int, vertices: int) -> int:
    """The item mask of the pairs inside the vertex mask `vertices`."""
    out = 0
    while vertices:
        low = vertices & -vertices
        vertices ^= low
        # Vertex i pairs with each vertex j above it: bit j shifts to bit i(n+1) + j.
        out |= vertices << (low.bit_length() - 1) * (n + 1)
    return out


def _mask(vertices: Iterable[int]) -> int:
    """The vertex mask of `vertices`, which may repeat."""
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def _require_zero_one(m: Matrix) -> None:
    if any(v not in (0, 1) for _, v in m.items()):
        raise ValueError("matrix entries must all be 0 or 1")


@dataclass(frozen=True)
class CoverElement:
    kind: str
    vertices: tuple[int, ...] = ()          # clique
    center: int = 0                          # star
    leaves: tuple[int, ...] = ()             # star
    parts: tuple[tuple[int, ...], ...] = ()  # multipartite

    def to_json_dict(self) -> dict:
        if self.kind == CLIQUE:
            return {"kind": CLIQUE, "vertices": sorted(self.vertices)}
        if self.kind == STAR_ELEMENT:
            return {"kind": STAR_ELEMENT, "center": self.center, "leaves": sorted(self.leaves)}
        return {"kind": MULTIPARTITE, "parts": [sorted(p) for p in self.parts]}


def maximal_cliques(g: ZeroOneGraph) -> list[tuple[int, ...]]:
    """Bron-Kerbosch with pivoting; isolated vertices appear as singletons."""
    adj = g.adj
    out: list[tuple[int, ...]] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(tuple(_bits(r)))
            return
        pivot = max(_bits(p | x), key=lambda u: (adj[u] & p).bit_count())
        for v in _bits(p & ~adj[pivot]):
            expand(r | 1 << v, p & adj[v], x & adj[v])
            p ^= 1 << v
            x |= 1 << v

    expand(0, _mask(g.vertices()), 0)
    return sorted(out)


def _cover_search(
    footprints: Sequence[int], uncovered: int, limit: int, found: Callable[[list[int]], int]
) -> None:
    """Depth-first search for covers of the item mask `uncovered` by at
    most `limit` footprints (item masks).

    It branches on the scarcest uncovered item (fewest covering footprints,
    then the lowest index), trying its coverers in index order, and prunes
    a branch that needs more than `limit` footprints even if every further
    one were as large as the largest.  Each cover reached goes to `found`
    as footprint indices in the order chosen; `found` returns the new limit.
    """
    coverers: dict[int, list[int]] = {i: [] for i in _bits(uncovered)}
    for k, fp in enumerate(footprints):
        for i in _bits(fp & uncovered):
            coverers[i].append(k)
    largest = max(fp.bit_count() for fp in footprints)
    chosen: list[int] = []

    def search(uncovered: int) -> None:
        nonlocal limit
        if not uncovered:
            if len(chosen) <= limit:
                limit = found(chosen)
            return
        if len(chosen) + (uncovered.bit_count() + largest - 1) // largest > limit:
            return
        item = min(_bits(uncovered), key=lambda i: (len(coverers[i]), i))
        for k in coverers[item]:
            chosen.append(k)
            search(uncovered & ~footprints[k])
            chosen.pop()

    search(uncovered)


def _exact_min_cover(footprints: Sequence[int], items: int) -> list[int]:
    """Ascending indices of the fewest footprints (item masks) covering the
    item mask `items`: the greedy cover, then the cover search below its size."""
    best: list[int] = []
    uncovered = items
    while uncovered:
        k = max(
            range(len(footprints)),
            key=lambda k: ((footprints[k] & uncovered).bit_count(), -k),
        )
        if not footprints[k] & uncovered:
            raise ValueError("an item cannot be covered by any candidate")
        best.append(k)
        uncovered &= ~footprints[k]

    def found(cover: list[int]) -> int:
        nonlocal best
        best = list(cover)
        return len(best) - 1

    _cover_search(footprints, items, len(best) - 1, found)
    return sorted(best)


def min_clique_cover(g: ZeroOneGraph) -> tuple[int, list[CoverElement]]:
    """Fewest cliques covering every edge and every vertex of G."""
    cliques = maximal_cliques(g)
    footprints = [vs | _within(g.n, vs) for vs in map(_mask, cliques)]
    best = _exact_min_cover(footprints, _mask(g.vertices()) | g.edge_items())
    return len(best), [CoverElement(CLIQUE, vertices=cliques[k]) for k in best]


@dataclass(frozen=True)
class Rank01Result:
    value: object  # int or math.inf
    cover: tuple[CoverElement, ...]
    decomposition: Optional[Decomposition]
    infinite_witness: Optional[tuple[int, int]] = None
    cover_size: Optional[int] = None
    solid: Optional[bool] = None


def symmetric_rank_01(m: SymmetricMatrix) -> Rank01Result:
    """Symmetric rank of a 0/1 matrix via minimum clique covers.

    Zero diagonal: the clique-cover size exactly.  A diagonal one next to
    a zero in the same row forces infinite rank (the pair that
    `membership.finiteness_violation` reports); otherwise recurse on the
    zero-diagonal principal block and add the all-ones matrix.
    """
    _require_zero_one(m)
    n = m.n
    violation = finiteness_violation(m)
    if violation is not None:
        return Rank01Result(INFINITE, (), None, infinite_witness=violation)
    zero_diag = [i for i in range(1, n + 1) if m[(i, i)] == 0]
    if len(zero_diag) == n:
        size, cover = min_clique_cover(ZeroOneGraph.from_matrix(m))
        summands = [
            rank1_summand([0 if v in set(el.vertices) else 1 for v in range(1, n + 1)])
            for el in cover
        ]
        dec = certify(m, Decomposition(SYM, tuple(summands)))
        return Rank01Result(size, tuple(cover), dec)
    if not zero_diag:
        # All-ones matrix: one rank-one summand from the constant 1/2 vector.
        dec = certify(m, Decomposition(SYM, (rank1_summand([frac("1/2")] * n),)))
        return Rank01Result(1, (), dec)
    inner = symmetric_rank_01(principal_submatrix(m, zero_diag))
    summands = []
    c = 2 + m.max_abs_entry()
    for s in inner.decomposition.summands:
        values = {zero_diag[k]: s.generator[k] for k in range(len(zero_diag))}
        summands.append(rank1_summand(pad_generator(values, n, c)))
    summands.append(rank1_summand([frac("1/2")] * n))
    dec = certify(m, Decomposition(SYM, tuple(summands)))
    return Rank01Result(inner.value + 1, inner.cover, dec)


def min_clique_star_cover(
    g: ZeroOneGraph,
) -> tuple[int, list[CoverElement], bool, Optional[list[CoverElement]]]:
    """(r, cover, solid?, solid cover) over cliques and full-neighborhood stars.

    Only edges need covering.  Solidity asks that every vertex pair be an
    edge, touch a clique, touch a star center, or be two leaves of one
    star; maximal elements only help those conditions, so searching over
    maximal cliques and full-neighborhood stars is exhaustive.
    """
    edges = g.edge_items()
    if not edges:
        return 0, [], False, None
    n = g.n
    cliques = [c for c in maximal_cliques(g) if len(c) >= 2]
    elements = [CoverElement(CLIQUE, vertices=c) for c in cliques]
    footprints = [_within(n, _mask(c)) for c in cliques]
    for v in g.vertices():
        if g.adj[v]:
            elements.append(CoverElement(STAR_ELEMENT, center=v, leaves=tuple(_bits(g.adj[v]))))
            footprints.append(_within(n, g.adj[v] | 1 << v) ^ _within(n, g.adj[v]))
    best = _exact_min_cover(footprints, edges)
    size = len(best)
    solid_cover: Optional[list[CoverElement]] = None

    def found(chosen: list[int]) -> int:
        # Every cover reached has the minimum size; the first solid one ends the search.
        nonlocal solid_cover
        cover = [elements[k] for k in chosen]
        if not _cover_is_solid(g, cover):
            return size
        solid_cover = cover
        return -1

    _cover_search(footprints, edges, size, found)
    return size, [elements[k] for k in best], solid_cover is not None, solid_cover


def _cover_is_solid(g: ZeroOneGraph, elements: Sequence[CoverElement]) -> bool:
    """Every non-edge touches a clique or a star center, or joins two leaves
    of one star."""
    touched = leaf_pairs = 0
    for el in elements:
        if el.kind == CLIQUE:
            touched |= _mask(el.vertices)
        else:
            touched |= 1 << el.center
            leaf_pairs |= _within(g.n, _mask(el.leaves))
    untouched = _mask(g.vertices()) & ~touched
    return not _within(g.n, untouched) & ~g.edge_items() & ~leaf_pairs


def star_tree_rank_01(m: DissimilarityMatrix) -> Rank01Result:
    """Star tree rank of a 0/1 matrix: the cover size r, or r+1.

    With a solid cover the canonical vectors reproduce the matrix exactly;
    otherwise the all-ones star summand tops up the large entries.
    """
    _require_zero_one(m)
    n = m.n
    r, cover, solid, solid_cover = min_clique_star_cover(ZeroOneGraph.from_matrix(m))
    use = solid_cover if solid else cover
    summands = [star_summand(_star_cover_vector(el, n)) for el in use]
    if solid:
        dec = certify(m, Decomposition(STAR, tuple(summands)))
        return Rank01Result(r, tuple(use), dec, cover_size=r, solid=True)
    summands.append(star_summand([frac("1/2")] * n))
    dec = certify(m, Decomposition(STAR, tuple(summands)))
    return Rank01Result(r + 1, tuple(use), dec, cover_size=r, solid=False)


def _star_cover_vector(el: CoverElement, n: int) -> list[Fraction]:
    if el.kind == CLIQUE:
        members = set(el.vertices)
        return [Fraction(0) if v in members else Fraction(1) for v in range(1, n + 1)]
    if el.kind != STAR_ELEMENT:
        raise CertificateError(f"a star cover holds a {el.kind} element")
    leaves = set(el.leaves)
    out = []
    for v in range(1, n + 1):
        if v == el.center:
            out.append(Fraction(-1, 2))
        elif v in leaves:
            out.append(Fraction(1, 2))
        else:
            out.append(Fraction(3, 2))
    return out


def _multipartite_candidates(g: ZeroOneGraph, edges: int) -> dict[int, list[int]]:
    """The canonical complete multipartite subgraphs, one per vertex subset:
    each undominated footprint (item mask) with its parts (vertex masks).

    For a subset S the finest valid partition is into connected components
    of the complement restricted to S (non-edges must stay inside parts);
    it covers the most edges, so other partitions of S are dominated.  The
    footprint is the pairs within S minus the pairs within each part.
    """
    n = g.n
    parts_of: dict[int, list[int]] = {}
    for size in range(2, n + 1):
        for subset in itertools.combinations(g.vertices(), size):
            vertices = _mask(subset)
            comps = _complement_components(vertices, g.adj)
            if len(comps) < 2:
                continue
            footprint = _within(n, vertices)
            for comp in comps:
                footprint &= ~_within(n, comp)
            if footprint & ~edges:
                raise CertificateError("multipartite footprint escaped the graph")
            if footprint and footprint not in parts_of:
                parts_of[footprint] = comps
    # Drop dominated footprints: a footprint inside a larger one is inside a kept one.
    kept: list[int] = []
    for footprint in sorted(parts_of, key=int.bit_count, reverse=True):
        if all(footprint & ~k for k in kept):
            kept.append(footprint)
    keep = set(kept)
    return {fp: parts for fp, parts in parts_of.items() if fp in keep}


def min_multipartite_cover(g: ZeroOneGraph) -> tuple[int, list[CoverElement]]:
    """Fewest complete multipartite subgraphs covering every edge."""
    edges = g.edge_items()
    if not edges:
        return 0, []
    candidates = _multipartite_candidates(g, edges)
    best = _exact_min_cover(list(candidates), edges)
    parts = list(candidates.values())
    return len(best), [
        CoverElement(MULTIPARTITE, parts=tuple(sorted(tuple(_bits(p)) for p in parts[k])))
        for k in best
    ]


def multipartite_tree(el: CoverElement, n: int) -> WeightedTree:
    """The hub tree realizing a multipartite cover element's 0/1 pattern.

    Part members sit 1/2 from their part vertex, part vertices sit -1/2
    from the hub, uncovered vertices hang at distance 1 from the hub;
    distances come out 0 across parts, 1 inside parts and to uncovered
    vertices, and 2 between uncovered vertices.
    """
    adj: dict[int, dict[int, Fraction]] = {}
    hub = n + 1
    nxt = n + 2
    covered = set()
    for part in el.parts:
        part_vertex = nxt
        nxt += 1
        _add_edge(adj, part_vertex, hub, Fraction(-1, 2))
        for v in part:
            covered.add(v)
            _add_edge(adj, v, part_vertex, Fraction(1, 2))
    for v in range(1, n + 1):
        if v not in covered:
            _add_edge(adj, v, hub, Fraction(1))
    tree = WeightedTree(n, adj).simplified()
    tree.validate()
    return tree


def tree_rank_01(m: DissimilarityMatrix) -> Rank01Result:
    """Tree rank of a 0/1 matrix from multipartite covers.

    Rank is the cover size when at most one vertex of G_M is isolated;
    with two or more isolated vertices the all-ones matrix is needed on
    top (and with no edges at all the all-ones matrix alone does it).
    """
    _require_zero_one(m)
    n = m.n
    g = ZeroOneGraph.from_matrix(m)
    r, cover = min_multipartite_cover(g)
    summands = [tree_summand(multipartite_tree(el, n)) for el in cover]
    if r > 0 and g.adj[1:].count(0) <= 1:
        dec = certify(m, Decomposition(TREE, tuple(summands)))
        return Rank01Result(r, tuple(cover), dec, cover_size=r)
    summands.append(star_summand([frac("1/2")] * n))
    dec = certify(m, Decomposition(TREE, tuple(summands)))
    return Rank01Result(r + 1, tuple(cover), dec, cover_size=r)
