"""Cover characterizations of the three ranks for 0/1 matrices."""

import itertools
import math

import pytest

from troprank.core import DissimilarityMatrix, SymmetricMatrix
from troprank.covers import (
    ZeroOneGraph,
    _mask,
    _within,
    min_clique_cover,
    min_clique_star_cover,
    min_multipartite_cover,
    star_tree_rank_01,
    symmetric_rank_01,
    tree_rank_01,
)
from troprank.decomposition import CertificateError, verify



def edge_set(g):
    return frozenset(
        frozenset(p) for p in itertools.combinations(g.vertices(), 2) if g.has_edge(*p)
    )


def all_cliques(g):
    out = []
    for size in range(1, g.n + 1):
        for vs in itertools.combinations(g.vertices(), size):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(vs, 2)):
                out.append(frozenset(frozenset(p) for p in itertools.combinations(vs, 2)))
    return out


def all_stars(g):
    out = []
    for c in g.vertices():
        nb = sorted(g.neighbors(c))
        for size in range(1, len(nb) + 1):
            for leaves in itertools.combinations(nb, size):
                out.append(frozenset(frozenset({c, l}) for l in leaves))
    return out


def brute_min_edge_cover(g, footprints):
    """Smallest number of footprints covering every edge, by direct search."""
    edges = edge_set(g)
    if not edges:
        return 0
    footprints = [f for f in set(footprints) if f]
    for k in range(1, len(footprints) + 1):
        for combo in itertools.combinations(footprints, k):
            union = frozenset().union(*combo)
            if edges <= union:
                return k
    return math.inf


def brute_is_solid(g, elements):
    """Every non-edge touches a clique or a star center, or joins two leaves of one star."""
    touched = {v for el in elements for v in (el.vertices if el.kind == "clique" else (el.center,))}
    leafsets = [set(el.leaves) for el in elements if el.kind == "star"]
    return all(
        g.has_edge(i, j) or {i, j} & touched or any({i, j} <= leaves for leaves in leafsets)
        for i, j in itertools.combinations(g.vertices(), 2)
    )


def cycle_graph(n):
    return ZeroOneGraph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def zero_one_matrix_from_graph(g, diag=None):
    if diag is None:
        return DissimilarityMatrix.from_function(
            g.n, lambda i, j: 0 if g.has_edge(i, j) else 1
        )
    return SymmetricMatrix.from_function(
        g.n, lambda i, j: diag if i == j else (0 if g.has_edge(i, j) else 1)
    )


class TestMinCliqueCover:
    def test_edgeless_graph_needs_singletons(self):
        g = ZeroOneGraph.from_edges(4, [])
        size, cover = min_clique_cover(g)
        assert size == 4
        assert all(el.kind == "clique" and len(el.vertices) == 1 for el in cover)

    def test_complete_bipartite_needs_all_edges(self):
        for n in (4, 5, 6):
            half = n // 2
            g = ZeroOneGraph.from_edges(
                n, [(i, j) for i in range(1, half + 1) for j in range(half + 1, n + 1)]
            )
            size, _ = min_clique_cover(g)
            assert size == n * n // 4

    def test_intro_pattern(self):
        g = ZeroOneGraph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        size, cover = min_clique_cover(g)
        assert size == 4
        # Vertex v is item bit v; the pair {i < j} is item bit i(n+1) + j.
        assert g.edge_items() == sum(1 << 5 * i + j for i, j in [(1, 3), (1, 4), (2, 3), (2, 4)])
        covered = 0
        for el in cover:
            vertices = _mask(el.vertices)
            covered |= vertices | _within(g.n, vertices)
        assert covered == _mask(g.vertices()) | g.edge_items()

    def test_triangle_plus_pendant(self):
        g = ZeroOneGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        size, _ = min_clique_cover(g)
        assert size == 2


class TestSymmetricRank01:
    def test_intro_example(self, intro_symmetric):
        result = symmetric_rank_01(intro_symmetric)
        assert result.value == 4
        assert verify(intro_symmetric, result.decomposition)

    def test_identity_pattern(self):
        for n in range(3, 7):
            m = SymmetricMatrix.from_function(n, lambda i, j: 0 if i == j else 1)
            result = symmetric_rank_01(m)
            assert result.value == n
            assert verify(m, result.decomposition)

    def test_diagonal_one_with_zero_is_infinite(self):
        m = SymmetricMatrix.from_rows([[1, 0, 1], [0, 0, 1], [1, 1, 0]])
        result = symmetric_rank_01(m)
        assert result.value == math.inf
        assert result.infinite_witness == (1, 2)

    def test_mixed_diagonal_adds_one(self):
        m = SymmetricMatrix.from_rows(
            [[0, 0, 1], [0, 0, 1], [1, 1, 1]]
        )
        result = symmetric_rank_01(m)
        assert result.value == 2  # one clique {1,2} plus the all-ones matrix
        assert verify(m, result.decomposition)

    def test_all_ones(self):
        m = SymmetricMatrix.from_function(4, lambda i, j: 1)
        result = symmetric_rank_01(m)
        assert result.value == 1
        assert verify(m, result.decomposition)

    def test_rejects_other_entries(self):
        with pytest.raises(ValueError):
            symmetric_rank_01(SymmetricMatrix.from_rows([[0, 2], [2, 0]]))


class TestCliqueStarCover:
    def test_five_cycle(self):
        g = cycle_graph(5)
        size, cover, solid, solid_cover = min_clique_star_cover(g)
        assert size == 3
        assert solid and solid_cover is not None
        footprints = all_cliques(g) + all_stars(g)
        assert brute_min_edge_cover(g, footprints) == 3

    def test_intro_pattern_two_stars(self):
        g = ZeroOneGraph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        size, cover, solid, _ = min_clique_star_cover(g)
        assert size == 2 and solid
        footprints = all_cliques(g) + all_stars(g)
        assert brute_min_edge_cover(g, footprints) == 2

    def test_complete_graph_single_clique(self):
        g = ZeroOneGraph.from_edges(5, list(itertools.combinations(range(1, 6), 2)))
        size, cover, solid, _ = min_clique_star_cover(g)
        assert size == 1 and solid
        assert cover[0].kind == "clique"

    def test_matches_brute_force_on_random_graphs(self, rng):
        for _ in range(25):
            n = rng.randint(3, 6)
            edges = [
                p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5
            ]
            g = ZeroOneGraph.from_edges(n, edges)
            if not g.edge_items():
                continue
            size, cover, _, _ = min_clique_star_cover(g)
            footprints = all_cliques(g) + all_stars(g)
            assert size == brute_min_edge_cover(g, footprints)

    def test_solid_flag_matches_brute_force(self, rng):
        # Solid exactly when some minimum cover by maximal cliques (>= 2
        # vertices) and full-neighbourhood stars is solid.
        from troprank.covers import CLIQUE, STAR_ELEMENT, CoverElement, _cover_is_solid

        # In the first two graphs the first minimum cover the search meets is
        # not solid and a later one is; random graphs rarely have that.
        graphs = [
            ZeroOneGraph.from_edges(6, [(1, 5), (1, 6), (2, 5), (3, 4), (3, 5), (3, 6), (4, 5)]),
            ZeroOneGraph.from_edges(7, [(1, 6), (2, 3), (2, 5), (3, 4), (3, 6), (4, 6), (6, 7)]),
        ]
        for _ in range(60):
            n = rng.randint(4, 7)
            density = rng.choice((0.3, 0.5, 0.7))
            edges = [
                p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < density
            ]
            graphs.append(ZeroOneGraph.from_edges(n, edges))
        outcomes = set()
        for g in graphs:
            n = g.n
            if not g.edge_items():
                continue
            cliques = [
                vs
                for size in range(2, n + 1)
                for vs in itertools.combinations(g.vertices(), size)
                if all(g.has_edge(a, b) for a, b in itertools.combinations(vs, 2))
            ]
            elements = [
                CoverElement(CLIQUE, vertices=c)
                for c in cliques
                if not any(set(c) < set(d) for d in cliques)
            ] + [
                CoverElement(STAR_ELEMENT, center=v, leaves=tuple(sorted(g.neighbors(v))))
                for v in g.vertices()
                if g.neighbors(v)
            ]

            def footprint(el):
                if el.kind == CLIQUE:
                    return _within(n, _mask(el.vertices))
                return sum(1 << min(el.center, l) * (n + 1) + max(el.center, l) for l in el.leaves)

            def covers_edges(combo):
                covered = 0
                for el in combo:
                    covered |= footprint(el)
                return covered == g.edge_items()

            for r in range(1, len(elements) + 1):
                covers = [combo for combo in itertools.combinations(elements, r) if covers_edges(combo)]
                if covers:
                    break
            assert [_cover_is_solid(g, combo) for combo in covers] == [
                brute_is_solid(g, combo) for combo in covers
            ]
            any_solid = any(brute_is_solid(g, combo) for combo in covers)
            size, _, solid, solid_cover = min_clique_star_cover(g)
            assert size == r and solid == any_solid
            if solid:
                assert len(solid_cover) == r
                assert covers_edges(solid_cover)
                assert brute_is_solid(g, solid_cover)
            outcomes.add(solid)
        assert outcomes == {True, False}


class TestStarTreeRank01:
    def test_intro_projection(self, intro_dissimilarity):
        result = star_tree_rank_01(intro_dissimilarity)
        assert result.value == 2 and result.solid
        assert verify(intro_dissimilarity, result.decomposition)

    def test_all_zero_and_all_one(self):
        zero = DissimilarityMatrix.from_function(4, lambda i, j: 0)
        one = DissimilarityMatrix.from_function(4, lambda i, j: 1)
        for m, expected in ((zero, 1), (one, 1)):
            result = star_tree_rank_01(m)
            assert result.value == expected
            assert verify(m, result.decomposition)

    def test_five_cycle_rank_three(self):
        m = zero_one_matrix_from_graph(cycle_graph(5))
        result = star_tree_rank_01(m)
        assert result.value == 3
        assert verify(m, result.decomposition)


class TestMultipartiteCover:
    def test_five_cycle_needs_three(self):
        assert min_multipartite_cover(cycle_graph(5))[0] == 3

    def test_complete_bipartite_is_one(self):
        g = ZeroOneGraph.from_edges(5, [(i, j) for i in (1, 2) for j in (3, 4, 5)])
        size, cover = min_multipartite_cover(g)
        assert size == 1
        assert cover[0].kind == "multipartite"

    def test_intro_pattern_is_one(self):
        g = ZeroOneGraph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert min_multipartite_cover(g)[0] == 1

    def test_transitive_nonedge_footprints(self, rng):
        # Every candidate's parts behave like a complete multipartite graph.
        for _ in range(10):
            n = rng.randint(3, 6)
            edges = [
                p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5
            ]
            g = ZeroOneGraph.from_edges(n, edges)
            if not g.edge_items():
                continue
            _, cover = min_multipartite_cover(g)
            for el in cover:
                for p1, p2 in itertools.combinations(el.parts, 2):
                    for a in p1:
                        for b in p2:
                            assert g.has_edge(a, b)


class TestTreeRank01:
    def test_intro_projection(self, intro_dissimilarity):
        result = tree_rank_01(intro_dissimilarity)
        assert result.value == 1
        assert verify(intro_dissimilarity, result.decomposition)

    def test_five_cycle(self):
        m = zero_one_matrix_from_graph(cycle_graph(5))
        result = tree_rank_01(m)
        assert result.value == 3
        assert verify(m, result.decomposition)

    def test_all_ones_isolated_vertices(self):
        m = DissimilarityMatrix.from_function(4, lambda i, j: 1)
        result = tree_rank_01(m)
        assert result.value == 1
        assert verify(m, result.decomposition)

    def test_two_isolated_vertices_add_one(self):
        g = ZeroOneGraph.from_edges(4, [(1, 2)])
        m = zero_one_matrix_from_graph(g)
        result = tree_rank_01(m)
        assert result.value == 2
        assert verify(m, result.decomposition)

    def test_cover_size_chain(self, rng):
        for _ in range(20):
            n = rng.randint(3, 6)
            edges = [
                p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5
            ]
            g = ZeroOneGraph.from_edges(n, edges)
            if not g.edge_items():
                continue
            multi = min_multipartite_cover(g)[0]
            star = min_clique_star_cover(g)[0]
            clique = min_clique_cover(g)[0]
            assert multi <= star <= clique


class TestSolidCoverOpenQuestion:
    def test_no_weakening_example_on_random_corpus(self, rng):
        # The cover bound may return r+1 without a solid cover; the exact
        # solver has never contradicted it.  Any flag here would be a
        # research-grade finding, so the corpus run surfaces them loudly.
        from troprank.experiments import solid_cover_weakening_flag

        flags = []
        nonsolid = 0
        for _ in range(120):
            n = rng.choice((4, 5, 6))
            m = DissimilarityMatrix.from_function(
                n, lambda i, j: rng.randint(0, 1)
            )
            result = star_tree_rank_01(m)
            if not result.solid:
                # No cover of size r reproduces m: some non-edge touches no
                # clique and no center and joins no two leaves of one star,
                # so the summands read at least 2 there, where m reads 1.
                assert result.value == result.cover_size + 1
                nonsolid += 1
            flag = solid_cover_weakening_flag(m)
            if flag is not None:
                flags.append(flag)
        assert nonsolid > 5  # the interesting branch was exercised
        assert flags == [], f"solid-cover weakening candidates found: {flags}"


class TestInternalFaults:
    """Cover invariants fail with CertificateError (exit 5), also under
    python -O; each test injects the fault it checks."""

    def test_star_cover_with_a_foreign_element(self):
        from troprank.covers import MULTIPARTITE, CoverElement, _star_cover_vector

        element = CoverElement(MULTIPARTITE, parts=((1,), (2,)))
        with pytest.raises(CertificateError, match="star cover holds"):
            _star_cover_vector(element, 3)

    def test_multipartite_footprint_outside_the_graph(self, monkeypatch):
        import troprank.covers as covers_module

        g = ZeroOneGraph.from_edges(4, [(1, 3), (2, 4)])
        monkeypatch.setattr(
            covers_module, "_complement_components", lambda vertices, adj: [1 << 1, 1 << 2]
        )
        with pytest.raises(CertificateError, match="footprint escaped"):
            min_multipartite_cover(g)
