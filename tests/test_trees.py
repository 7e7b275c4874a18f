"""`realize_tree` and `WeightedTree.simplified` against reference versions.

The references are the earlier realization by trial insertion and the
earlier two-step `simplified`.  Trial insertion places each new leaf by
splitting every edge of the host path in turn, recomputing the leaf's
distances to all placed leaves after each try and rolling back the
failures, and it contracts the zero-weight internal edges its splits leave
behind at the end.  It works in the unshifted classical orientation, where
negative pendant weights make lengths along a path non-monotone.
"""

import itertools
import random
from fractions import Fraction

import pytest

from troprank.core import DissimilarityMatrix, star_matrix
from troprank.trees import WeightedTree, _add_edge, _tree_path, realize_tree


def reference_simplified(tree: WeightedTree) -> WeightedTree:
    """Contract zero-weight internal edges (keeping the smaller label) and
    unsplice degree-2 internal vertices, one change per scan, until
    neither applies."""
    t = tree.copy()
    adj = t.adjacency
    changed = True
    while changed:
        changed = False
        for u, v, w in t.edges():
            if w == 0 and not t.is_leaf(u) and not t.is_leaf(v):
                del adj[u][v], adj[v][u]
                for nb, wn in adj.pop(v).items():
                    del adj[nb][v]
                    _add_edge(adj, u, nb, wn)
                changed = True
                break
        else:
            for v in list(adj):
                if not t.is_leaf(v) and t.degree(v) == 2:
                    (a, wa), (b, wb) = adj.pop(v).items()
                    del adj[a][v], adj[b][v]
                    _add_edge(adj, a, b, wa + wb)
                    changed = True
                    break
    return t


def reference_realize(m: DissimilarityMatrix) -> WeightedTree:
    """Trial-insertion realization of a tree matrix, in exact integers."""
    n = m.n
    scale, values = m.scaled_to_integers()
    d = {p: -2 * v for p, v in values.items()}  # the classical orientation
    tree = WeightedTree(n)
    adj = tree.adjacency
    hub = n + 1
    _add_edge(adj, 1, hub, (d[1, 2] + d[1, 3] - d[2, 3]) // 2)
    _add_edge(adj, 2, hub, (d[1, 2] + d[2, 3] - d[1, 3]) // 2)
    _add_edge(adj, 3, hub, (d[1, 3] + d[2, 3] - d[1, 2]) // 2)
    for x in range(4, n + 1):
        placed = range(1, x)
        alpha, i, j = min(
            ((d[i, x] + d[j, x] - d[i, j]) // 2, i, j)
            for i, j in itertools.combinations(placed, 2)
        )
        path = _tree_path(tree, i, j)
        u = d[i, x] - alpha
        split = n + x - 2
        cumulative = 0
        for a, b in zip(path, path[1:]):
            w = adj[a][b]
            del adj[a][b], adj[b][a]
            _add_edge(adj, a, split, u - cumulative)
            _add_edge(adj, split, b, w - (u - cumulative))
            _add_edge(adj, x, split, alpha)
            dist = tree.distances_from(x)
            if all(dist[leaf] == d[leaf, x] for leaf in placed):
                break
            del adj[x], adj[split], adj[a][split], adj[b][split]
            _add_edge(adj, a, b, w)
            cumulative += w
        else:
            raise AssertionError("trial insertion found no edge")
    tree = reference_simplified(tree)
    for u, nb in tree.adjacency.items():
        for v, w in nb.items():
            nb[v] = Fraction(-w, 2 * scale)
    tree.validate()
    return tree


def random_tree(rng: random.Random, n: int, binary: bool) -> WeightedTree:
    """A random tree on leaves 1..n, weights integers over 1, 2 or 3:
    pendant weights in [-6, 12], internal ones in [-6, -1].  Each new leaf
    splits a random edge; unless `binary`, it hangs off a random internal
    vertex half of the time instead, and internal weights may be 0."""
    den = rng.choice((1, 2, 3))
    internal_high = -1 if binary else 0

    def weight(internal: bool) -> Fraction:
        return Fraction(rng.randint(-6, internal_high if internal else 12), den)

    adj: dict = {}
    for leaf in (1, 2, 3):
        _add_edge(adj, leaf, n + 1, weight(False))
    for leaf in range(4, n + 1):
        if not binary and rng.random() < 0.5:
            host = rng.choice([v for v in sorted(adj) if v > n])
        else:
            u = rng.choice(sorted(adj))
            v = rng.choice(sorted(adj[u]))
            host = n + leaf - 2
            del adj[u][v], adj[v][u]
            _add_edge(adj, u, host, weight(u > n))
            _add_edge(adj, host, v, weight(v > n))
        _add_edge(adj, leaf, host, weight(False))
    return WeightedTree(n, adj)


def assert_matches_reference(m: DissimilarityMatrix) -> WeightedTree:
    tree = realize_tree(m)
    reference = reference_realize(m)
    assert tree.adjacency == reference.adjacency
    assert tree.to_newick() == reference.to_newick()
    assert tree.leaf_distance_matrix() == m
    return tree


class TestRealizeMatchesTrialInsertion:
    def test_seeded_tree_matrices(self):
        # 640 trees, n = 3..10, half of them binary with negative internal
        # edges, so that every insertion splits an edge; the others grow
        # vertices of degree >= 4, so that some insertion lands on a vertex.
        binary = wide = negative_pendant = 0
        for seed in range(640):
            rng = random.Random(seed)
            n = 3 + seed % 8
            source = random_tree(rng, n, binary=seed % 2 == 0)
            negative_pendant += any(
                w < 0 for u, v, w in source.edges() if source.is_leaf(u) or source.is_leaf(v)
            )
            tree = assert_matches_reference(source.leaf_distance_matrix())
            degrees = [tree.degree(v) for v in tree.vertices() if not tree.is_leaf(v)]
            binary += degrees == [3] * (n - 2)
            wide += max(degrees) >= 4
        assert binary >= 300 and wide >= 100 and negative_pendant >= 300

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_all_zero_matrix(self, n):
        tree = assert_matches_reference(DissimilarityMatrix.from_function(n, lambda i, j: 0))
        assert tree.vertices() == list(range(1, n + 2))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_min_caterpillar(self, n):
        assert_matches_reference(DissimilarityMatrix.from_function(n, lambda i, j: min(i, j)))

    def test_star_trees(self):
        rng = random.Random(5)
        for n in range(3, 9):
            v = [Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3))) for _ in range(n)]
            tree = assert_matches_reference(star_matrix(v))
            assert len(tree.vertices()) == n + 1


class TestSimplified:
    def test_one_pass_matches_the_reference(self):
        # Trees with chains of degree-2 internal vertices: each edge of a
        # random tree without zero-weight internal edges becomes a path
        # through up to three new vertices, its weight shared out evenly.
        unspliced = 0
        for seed in range(400):
            rng = random.Random(seed)
            n = 3 + seed % 6
            tree = reference_simplified(random_tree(rng, n, binary=seed % 2 == 0))
            adj = tree.adjacency
            label = max(adj) + 1
            for u, v, w in tree.edges():
                chain = list(range(label, label + rng.randint(0, 3)))
                label += len(chain)
                del adj[u][v], adj[v][u]
                ends = [u, *chain, v]
                for a, b in zip(ends, ends[1:]):
                    _add_edge(adj, a, b, w / (len(chain) + 1))
                unspliced += len(chain)
            simple = tree.simplified()
            assert simple.adjacency == reference_simplified(tree).adjacency
            assert simple.leaf_distance_matrix() == tree.leaf_distance_matrix()
            assert all(simple.degree(v) != 2 for v in simple.vertices())
        assert unspliced >= 1000
