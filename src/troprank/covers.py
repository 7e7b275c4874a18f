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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    INFINITE,
    DissimilarityMatrix,
    Matrix,
    SymmetricMatrix,
    frac,
    pad_generator,
    trop_sum_all,
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
    n: int
    edges: frozenset[frozenset[int]]
    # Bit u of adj[v] is set when uv is an edge; vertices are 1..n, so adj[0] is 0.
    adj: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adj = [0] * (self.n + 1)
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "ZeroOneGraph":
        out = set()
        for i, j in edges:
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"bad edge ({i},{j})")
            out.add(frozenset({i, j}))
        return cls(n, frozenset(out))

    @classmethod
    def from_matrix(cls, m: Matrix) -> "ZeroOneGraph":
        _require_zero_one(m)
        edges = frozenset(
            frozenset({i, j})
            for (i, j) in m.positions()
            if i != j and m[(i, j)] == 0
        )
        return cls(m.n, edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> set[int]:
        return set(_bits(self.adj[v]))

    def isolated_vertices(self) -> list[int]:
        return [v for v in self.vertices() if not self.adj[v]]

    def has_edge(self, i: int, j: int) -> bool:
        return frozenset({i, j}) in self.edges


def _require_zero_one(m: Matrix) -> None:
    zero, one = Fraction(0), Fraction(1)
    for _, v in m.items():
        if v != zero and v != one:
            raise ValueError("matrix entries must all be 0 or 1")


@dataclass(frozen=True)
class CoverElement:
    kind: str
    vertices: tuple[int, ...] = ()          # clique
    center: int = 0                          # star
    leaves: tuple[int, ...] = ()             # star
    parts: tuple[tuple[int, ...], ...] = ()  # multipartite

    def edge_footprint(self) -> frozenset[frozenset[int]]:
        if self.kind == CLIQUE:
            return frozenset(
                frozenset(p) for p in itertools.combinations(self.vertices, 2)
            )
        if self.kind == STAR_ELEMENT:
            return frozenset(frozenset({self.center, l}) for l in self.leaves)
        if self.kind == MULTIPARTITE:
            return frozenset(
                frozenset({a, b})
                for p1, p2 in itertools.combinations(self.parts, 2)
                for a in p1
                for b in p2
            )
        raise ValueError(self.kind)

    def vertex_footprint(self) -> frozenset[int]:
        if self.kind == CLIQUE:
            return frozenset(self.vertices)
        if self.kind == STAR_ELEMENT:
            return frozenset({self.center, *self.leaves})
        return frozenset(v for p in self.parts for v in p)

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

    expand(0, sum(1 << v for v in g.vertices()), 0)
    return sorted(out)


def _item_masks(items: Sequence, footprints: Iterable[Iterable]) -> list[int]:
    """Each footprint as the mask of its members' positions in `items`."""
    bit = {it: 1 << i for i, it in enumerate(items)}
    return [sum(bit[it] for it in fp) for fp in footprints]


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


def _exact_min_cover(footprints: Sequence[int], n_items: int) -> list[int]:
    """Ascending indices of the fewest footprints (item masks) covering items
    0..n_items-1: the greedy cover, then the cover search below its size."""
    everything = (1 << n_items) - 1
    best: list[int] = []
    uncovered = everything
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

    _cover_search(footprints, everything, len(best) - 1, found)
    return sorted(best)


def min_clique_cover(g: ZeroOneGraph) -> tuple[int, list[CoverElement]]:
    """Fewest cliques covering every edge and every vertex of G."""
    cliques = [CoverElement(CLIQUE, vertices=c) for c in maximal_cliques(g)]
    items = [*g.vertices(), *sorted_edges(g)]
    footprints = _item_masks(items, (el.vertex_footprint() | el.edge_footprint() for el in cliques))
    best = _exact_min_cover(footprints, len(items))
    return len(best), [cliques[k] for k in best]


def sorted_edges(g: ZeroOneGraph) -> list[frozenset[int]]:
    return sorted(g.edges, key=lambda e: tuple(sorted(e)))


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
        g = ZeroOneGraph.from_matrix(m)
        size, cover = min_clique_cover(g)
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
    sub = SymmetricMatrix.from_function(
        len(zero_diag), lambda a, b: m[(zero_diag[a - 1], zero_diag[b - 1])]
    )
    inner = symmetric_rank_01(sub)
    summands = []
    c = 2 + m.max_abs_entry()
    for s in inner.decomposition.summands:
        values = {zero_diag[k]: s.generator[k] for k in range(len(zero_diag))}
        summands.append(rank1_summand(pad_generator(values, n, c)))
    summands.append(rank1_summand([frac("1/2")] * n))
    dec = certify(m, Decomposition(SYM, tuple(summands)))
    return Rank01Result(inner.value + 1, inner.cover, dec)


def _star_candidates(g: ZeroOneGraph) -> list[CoverElement]:
    out = []
    for v in g.vertices():
        nb = tuple(_bits(g.adj[v]))
        if nb:
            out.append(CoverElement(STAR_ELEMENT, center=v, leaves=nb))
    return out


def min_clique_star_cover(
    g: ZeroOneGraph,
) -> tuple[int, list[CoverElement], bool, Optional[list[CoverElement]]]:
    """(r, cover, solid?, solid cover) over cliques and full-neighborhood stars.

    Only edges need covering.  Solidity asks that every vertex pair be an
    edge, touch a clique, touch a star center, or be two leaves of one
    star; maximal elements only help those conditions, so searching over
    maximal cliques and full-neighborhood stars is exhaustive.
    """
    edges = sorted_edges(g)
    if not edges:
        return 0, [], False, None
    cliques = [CoverElement(CLIQUE, vertices=c) for c in maximal_cliques(g) if len(c) >= 2]
    elements = cliques + _star_candidates(g)
    footprints = _item_masks(edges, (el.edge_footprint() for el in elements))
    best = _exact_min_cover(footprints, len(edges))
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

    _cover_search(footprints, (1 << len(edges)) - 1, size, found)
    return size, [elements[k] for k in best], solid_cover is not None, solid_cover


def _cover_is_solid(g: ZeroOneGraph, elements: Sequence[CoverElement]) -> bool:
    clique_members = set()
    centers = set()
    star_leafsets = []
    for el in elements:
        if el.kind == CLIQUE:
            clique_members.update(el.vertices)
        else:
            centers.add(el.center)
            star_leafsets.append(set(el.leaves))
    for i, j in itertools.combinations(g.vertices(), 2):
        if g.has_edge(i, j):
            continue
        if i in clique_members or j in clique_members:
            continue
        if i in centers or j in centers:
            continue
        if any(i in ls and j in ls for ls in star_leafsets):
            continue
        return False
    return True


def star_tree_rank_01(m: DissimilarityMatrix) -> Rank01Result:
    """Star tree rank of a 0/1 matrix: the cover size r, or r+1.

    With a solid cover the canonical vectors reproduce the matrix exactly;
    otherwise the all-ones star summand tops up the large entries.
    """
    _require_zero_one(m)
    n = m.n
    g = ZeroOneGraph.from_matrix(m)
    r, cover, solid, solid_cover = min_clique_star_cover(g)
    use = solid_cover if solid else cover
    summands = [star_summand(_star_cover_vector(el, n)) for el in use]
    if solid:
        dec = certify(m, Decomposition(STAR, tuple(summands)))
        return Rank01Result(r, tuple(use), dec, cover_size=r, solid=True)
    if summands:
        if trop_sum_all([s.matrix for s in summands]) == m:
            dec = certify(m, Decomposition(STAR, tuple(summands)))
            return Rank01Result(r, tuple(use), dec, cover_size=r, solid=False)
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


def _multipartite_candidates(g: ZeroOneGraph) -> list[tuple[CoverElement, frozenset]]:
    """Canonical complete multipartite subgraphs, one per vertex subset.

    For a subset S the finest valid partition is into connected components
    of the complement restricted to S (non-edges must stay inside parts);
    it covers the most edges, so other partitions of S are dominated.
    """
    best: dict[frozenset, tuple[CoverElement, frozenset]] = {}
    for size in range(2, g.n + 1):
        for subset in itertools.combinations(g.vertices(), size):
            comps = _complement_components(sum(1 << v for v in subset), g.adj)
            parts = tuple(sorted(tuple(_bits(p)) for p in comps))
            if len(parts) < 2:
                continue
            el = CoverElement(MULTIPARTITE, parts=parts)
            footprint = el.edge_footprint()
            if not footprint <= g.edges:
                raise CertificateError("multipartite footprint escaped the graph")
            if footprint and footprint not in best:
                best[footprint] = (el, footprint)
    # Drop dominated footprints.
    items = list(best.values())
    keep = []
    for el, fp in items:
        if not any(fp < fp2 for _, fp2 in items):
            keep.append((el, fp))
    return keep


def min_multipartite_cover(g: ZeroOneGraph) -> tuple[int, list[CoverElement]]:
    """Fewest complete multipartite subgraphs covering every edge."""
    edges = sorted_edges(g)
    if not edges:
        return 0, []
    candidates = _multipartite_candidates(g)
    best = _exact_min_cover(_item_masks(edges, (fp for _, fp in candidates)), len(edges))
    return len(best), [candidates[k][0] for k in best]


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
    isolated = g.isolated_vertices()
    if r > 0 and len(isolated) <= 1:
        dec = certify(m, Decomposition(TREE, tuple(summands)))
        return Rank01Result(r, tuple(cover), dec, cover_size=r)
    summands.append(star_summand([frac("1/2")] * n))
    dec = certify(m, Decomposition(TREE, tuple(summands)))
    return Rank01Result(r + 1, tuple(cover), dec, cover_size=r)
