"""Leaf-labelled weighted trees and exact tree-metric realization.

Convention: a dissimilarity matrix is a tree matrix when the minimum of the
three pairings M_ij+M_kl, M_ik+M_jl, M_il+M_jk is attained at least twice
for every quadruple.  Such matrices are exactly the leaf-distance matrices
of trees whose internal edges carry nonpositive weights (pendant edges are
unrestricted).  Negating entries turns this into the classical four-point
condition with nonnegative internal weights.  Realization works there,
shifted so that pendant edges are nonnegative too: lengths then grow along
every path, and each new leaf is placed by one walk along a host path.

The arithmetic runs on integer-scaled values (the four-point test,
leaf distances, leaf insertion); `Fraction`s are built on exit only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    DissimilarityMatrix,
    Position,
    format_decimal_or_ratio,
    frac,
    quartets,
    unique_minima,
)


class NotTreeMatrixError(ValueError):
    """Raised when a four-point violation blocks a tree realization."""


def four_point_violation(m: DissimilarityMatrix) -> Optional[tuple[int, int, int, int]]:
    """First quadruple whose pairing minimum is attained only once, if any.

    The three pairing sums of a quadruple are the terms of its three-term
    Pluecker relation, so this is the first relation of the Pluecker table
    with a unique minimum, found on the integer-scaled entries.
    """
    _, values = m.scaled_to_integers()
    return _violation(m.n, values)


def _violation(n: int, values: dict[Position, int]) -> Optional[tuple[int, int, int, int]]:
    for pairings, _ in unique_minima(quartets(n), values):
        (i, j), (k, l) = pairings[0]
        return (i, j, k, l)
    return None


@dataclass
class WeightedTree:
    """A tree on leaves 1..n_leaves with rational edge weights.

    Internal vertices use labels above n_leaves.  Leaves have degree 1 and
    internal edges (both endpoints internal) must have weight <= 0.  Treat
    instances as immutable; builders in this module construct fresh ones.
    """

    n_leaves: int
    adjacency: dict[int, dict[int, Fraction]] = field(default_factory=dict)

    def vertices(self) -> list[int]:
        return sorted(self.adjacency)

    def leaves(self) -> list[int]:
        return list(range(1, self.n_leaves + 1))

    def is_leaf(self, v: int) -> bool:
        return 1 <= v <= self.n_leaves

    def edges(self) -> list[tuple[int, int, Fraction]]:
        out = []
        for u in sorted(self.adjacency):
            for v, w in sorted(self.adjacency[u].items()):
                if u < v:
                    out.append((u, v, w))
        return out

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def copy(self) -> "WeightedTree":
        return WeightedTree(self.n_leaves, {u: dict(nb) for u, nb in self.adjacency.items()})

    def validate(self) -> None:
        verts = self.vertices()
        if not verts:
            raise ValueError("empty tree")
        edge_count = sum(len(nb) for nb in self.adjacency.values()) // 2
        if edge_count != len(verts) - 1 or len(self.distances_from(verts[0])) != len(verts):
            raise ValueError("not a connected acyclic graph")
        for leaf in self.leaves():
            if leaf not in self.adjacency or self.degree(leaf) != 1:
                raise ValueError(f"leaf {leaf} must be present with degree 1")
        for u, v, w in self.edges():
            if not self.is_leaf(u) and not self.is_leaf(v) and w > 0:
                raise ValueError(f"internal edge ({u},{v}) has positive weight {w}")

    def distances_from(self, source: int) -> dict[int, Fraction]:
        """Path lengths from `source`, in the weights' own number type."""
        dist = {source: 0}
        stack = [source]
        while stack:
            u = stack.pop()
            for v, w in self.adjacency[u].items():
                if v not in dist:
                    dist[v] = dist[u] + w
                    stack.append(v)
        return dist

    def leaf_distance_matrix(self) -> DissimilarityMatrix:
        """Leaf distances, summed in integers (the weights times the lcm of
        their denominators), each pair once: a depth-first pass from leaf 1
        hands every vertex the (leaf, distance) lists of its subtrees, and
        two leaves meet at the vertex joining their lists."""
        n = self.n_leaves
        adjacency = self.adjacency
        scale = math.lcm(*(w.denominator for nb in adjacency.values() for w in nb.values()))
        parent = {1: 0}
        order = []
        stack = [1]
        while stack:
            u = stack.pop()
            order.append(u)
            for v in adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    stack.append(v)
        dist = [[0] * (n + 1) for _ in range(n + 1)]
        below: dict[int, list[tuple[int, int]]] = {}
        for u in reversed(order):
            reach = [(u, 0)] if u <= n else []
            for v, w in adjacency[u].items():
                if v == parent[u]:
                    continue
                w = w.numerator * (scale // w.denominator)
                sub = [(leaf, d + w) for leaf, d in below.pop(v)]
                for a, da in reach:
                    for b, db in sub:
                        dist[a][b] = dist[b][a] = da + db
                reach += sub
            below[u] = reach
        fractions: dict[int, Fraction] = {}  # one Fraction per distinct distance
        values = []
        for i in range(1, n):
            for d in dist[i][i + 1 :]:
                f = fractions.get(d)
                if f is None:
                    f = fractions[d] = Fraction(d, scale)
                values.append(f)
        return DissimilarityMatrix(n, tuple(values))

    def simplified(self) -> "WeightedTree":
        """Unsplice degree-2 internal vertices.  Unsplicing keeps every other
        vertex's degree, so one pass over the vertices finds them all."""
        t = self.copy()
        for v in list(t.adjacency):
            if not t.is_leaf(v) and t.degree(v) == 2:
                (a, wa), (b, wb) = t.adjacency.pop(v).items()
                del t.adjacency[a][v]
                del t.adjacency[b][v]
                # Parallel edges cannot arise: a-v-b was a path in a tree.
                t.adjacency[a][b] = t.adjacency[b][a] = wa + wb
        return t

    def relabelled_leaves(self, mapping: dict[int, int], n_leaves: int) -> "WeightedTree":
        """Rename leaves through `mapping`; internal labels move above n_leaves."""
        internal = [v for v in self.vertices() if not self.is_leaf(v)]
        new_names = {v: n_leaves + k + 1 for k, v in enumerate(internal)}
        for old, new in mapping.items():
            new_names[old] = new
        adj: dict[int, dict[int, Fraction]] = {}
        for u, nb in self.adjacency.items():
            adj[new_names[u]] = {new_names[v]: w for v, w in nb.items()}
        return WeightedTree(n_leaves, adj)

    def to_newick(self) -> str:
        """Newick with branch lengths; exact values, decimal when terminating."""
        root = next((v for v in self.vertices() if not self.is_leaf(v)), None)
        if root is None:
            raise ValueError("tree has no internal vertex")

        def emit(v: int, parent: int) -> str:
            children = [u for u in sorted(self.adjacency[v]) if u != parent]
            if not children:
                return str(v)
            inner = ",".join(
                emit(u, v) + ":" + format_decimal_or_ratio(self.adjacency[v][u])
                for u in children
            )
            return f"({inner})"

        return emit(root, -1) + ";"


def _add_edge(adj: dict[int, dict[int, Fraction]], u: int, v: int, w: Fraction) -> None:
    adj.setdefault(u, {})[v] = w
    adj.setdefault(v, {})[u] = w


def realize_tree(m: DissimilarityMatrix) -> WeightedTree:
    """Build a weighted tree whose leaf distances equal `m` exactly.

    Works in the negated (classical) orientation, shifted so that no edge
    is negative and lengths grow along every path.  Leaves are inserted one
    at a time: the smallest Gromov-type sum over pairs of placed leaves
    gives a pair i, j and the attachment point's distance from i, and one
    walk along the i-j path finds the edge that reaches it.  The leaf
    splits that edge, or hangs off its end if the end is the point, so no
    internal edge has weight 0 and no internal vertex has degree 2.

    It runs on the even integers 2 * scale * m (scale: the lcm of the
    entries' denominators), so each halving is exact and every comparison,
    hence the pair, split and shape, is as on m; the weights are divided
    back once, at the end.
    """
    scale, values = m.scaled_to_integers()
    return _with_denominator(_realize_scaled(m.n, {p: 2 * v for p, v in values.items()}), 2 * scale)


def _with_denominator(tree: WeightedTree, den: int) -> WeightedTree:
    """The tree with each integer weight w replaced by w / den, validated."""
    adjacency = tree.adjacency
    for u, nb in adjacency.items():
        for v, w in nb.items():
            if u < v:
                nb[v] = adjacency[v][u] = Fraction(w, den)
    tree.validate()
    return tree


def _realize_scaled(n: int, values: dict[Position, int]) -> WeightedTree:
    """`realize_tree` on even integer entries (keyed (i, j), i < j): the
    tree with integer weights in the entries' unit.  Every positive
    multiple of the entries gives the same tree, its weights scaled alike.
    """
    violation = _violation(n, values)
    if violation is not None:
        raise NotTreeMatrixError(f"four-point condition fails on quadruple {violation}")
    # The classical orientation, shifted by 2k.  A pendant edge is at least
    # -(3/2) max|v| there, so adding k = 2 max|v| makes no edge negative;
    # k is even, so every halving stays exact.
    k = 2 * max(map(abs, values.values()))
    d = {p: 2 * k - v for p, v in values.items()}

    # Base: three leaves around a hub.
    tree = WeightedTree(n_leaves=n)
    adjacency = tree.adjacency
    hub = n + 1
    _add_edge(adjacency, 1, hub, (d[1, 2] + d[1, 3] - d[2, 3]) // 2)
    _add_edge(adjacency, 2, hub, (d[1, 2] + d[2, 3] - d[1, 3]) // 2)
    _add_edge(adjacency, 3, hub, (d[1, 3] + d[2, 3] - d[1, 2]) // 2)

    for x in range(4, n + 1):
        # x >= 4, so at least three leaves are placed and there is a pair;
        # ties go to the first pair in combinations order.
        alpha, i, j = min(
            ((d[i, x] + d[j, x] - d[i, j]) // 2, i, j)
            for i, j in itertools.combinations(range(1, x), 2)
        )
        u = d[i, x] - alpha  # distance from i to the attachment point
        path = _tree_path(tree, i, j)
        for a, b in zip(path, path[1:]):
            w = adjacency[a][b]
            if u <= w:
                break
            u -= w
        else:
            raise NotTreeMatrixError("tree insertion failed; matrix is not a tree metric")
        if u < w:  # split a-b at distance u from a
            split = n + x - 2
            del adjacency[a][b], adjacency[b][a]
            _add_edge(adjacency, a, split, u)
            _add_edge(adjacency, split, b, w - u)
            b = split
        _add_edge(adjacency, x, b, alpha)

    # Undo the shift on the pendant edges, then the negation.
    for a, nb in adjacency.items():
        for b, w in nb.items():
            nb[b] = (k if a <= n or b <= n else 0) - w
    return tree


def _tree_path(tree: WeightedTree, i: int, j: int) -> list[int]:
    parent = {i: i}
    stack = [i]
    while stack:
        u = stack.pop()
        if u == j:
            break
        for v in tree.adjacency[u]:
            if v not in parent:
                parent[v] = u
                stack.append(v)
    path = [j]
    while path[-1] != i:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def embed_tree_block(
    block: DissimilarityMatrix,
    positions: Sequence[int],
    n: int,
    c,
) -> WeightedTree:
    """An n-leaf tree matching `block` on `positions`, other entries >= c.

    Realizes the block, then hangs the remaining leaves off one internal
    vertex with pendant weight max(c/2, c - nearest leaf distance), the
    same padding rule used for rank-one extensions.  Runs on integers in
    units of 1 / unit, unit = 2 lcm(entry denominators, denominator of c):
    every entry and c are even there, so c / 2 and the halvings of
    `_realize_scaled` stay exact.
    """
    c = frac(c)
    idx = list(positions)
    if len(idx) != block.n or sorted(set(idx)) != sorted(idx):
        raise ValueError("positions must be distinct and match the block size")
    if any(not 1 <= i <= n for i in idx) or n <= len(idx):
        raise ValueError("positions must sit strictly inside 1..n")
    scale, values = block.scaled_to_integers()
    unit = 2 * math.lcm(scale, c.denominator)
    factor = unit // scale
    small = _realize_scaled(block.n, {p: factor * v for p, v in values.items()})
    tree = small.relabelled_leaves({k + 1: idx[k] for k in range(len(idx))}, n)
    anchor_new = next(v for v in tree.vertices() if not tree.is_leaf(v))
    distances = tree.distances_from(anchor_new)
    padding = c.numerator * (unit // c.denominator)
    pendant = max(padding // 2, padding - min(distances[leaf] for leaf in idx))
    for leaf in range(1, n + 1):
        if leaf not in idx:
            _add_edge(tree.adjacency, leaf, anchor_new, pendant)
    return _with_denominator(tree, unit)


def extend_tree(m: DissimilarityMatrix, n: int, c) -> DissimilarityMatrix:
    """Extend a tree matrix to n x n keeping the block; new entries >= c."""
    if n <= m.n:
        raise ValueError("target dimension must exceed the current one")
    tree = embed_tree_block(m, list(range(1, m.n + 1)), n, c)
    return tree.leaf_distance_matrix()

