"""Deficiency graphs, exact coloring, and the 5x5 Petersen taxonomy."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from troprank.core import (
    DissimilarityMatrix,
    SymmetricMatrix,
    apply_permutation,
    principal_submatrix,
    project,
    rank_one_symmetric,
)
from troprank.deficiency import (
    FIVE_CYCLE,
    HUB_PAIR,
    HUB_SINGLE,
    PETERSEN_EDGES,
    SPARSE,
    TRIVIAL,
    _bits,
    _complement_components,
    _dsatur,
    build_deficiency,
    chromatic_number,
    classify_petersen,
    exact_graph_coloring,
    has_alternating_even_cycle,
    petersen_even_cycles,
    rank_lower_bound,
)
from troprank.generators import tr6_blocks
from troprank.membership import (
    PLUECKER,
    STAR_TREE,
    SYMMETRIC_MINORS,
    is_star_tree,
    is_tree_matrix,
)

from conftest import random_dissimilarity, random_finite_symmetric, random_symmetric


def brute_chromatic(vertices, edges):
    """Try every coloring with k classes, smallest k first."""
    verts = list(vertices)
    pairs = [tuple(sorted(e)) for e in edges]
    for k in range(1, len(verts) + 1):
        for assignment in itertools.product(range(k), repeat=len(verts)):
            coloring = dict(zip(verts, assignment))
            if all(coloring[u] != coloring[v] for u, v in pairs):
                return k
    return 0


def reference_coloring(vertices, edges):
    """Chi by the earlier upward route, and per complement component the
    triple (DSATUR greedy colors, clique number, chi).

    Each component's k runs up from a max-clique branch and bound until a
    k-coloring exists; a k-coloring peels vertices of degree < k, colors
    the rest by `_dsatur`, and colors the peeled vertices last, greedily.
    """
    vertices = list(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    adj = [0] * len(vertices)
    for e in edges:
        u, v = (index[x] for x in e)
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def max_clique(part):
        best = 0

        def expand(cand, size):
            nonlocal best
            while cand and size + cand.bit_count() > best:
                v = cand.bit_length() - 1
                cand &= ~(1 << v)
                expand(cand & adj[v], size + 1)
            best = max(best, size)

        expand(part, 0)
        return best

    def k_coloring(part, k):
        core, peeled, changed = part, [], True
        while changed:
            changed = False
            for v in _bits(core):
                if (adj[v] & core).bit_count() < k:
                    core ^= 1 << v
                    peeled.append(v)
                    changed = True
        colors = [-1] * len(adj)
        if not _dsatur(core, adj, k, colors):
            return None
        for v in reversed(peeled):
            used = {colors[u] for u in _bits(adj[v] & part)}
            colors[v] = next(c for c in range(k) if c not in used)
        return colors

    active = sum(1 << i for i, nb in enumerate(adj) if nb)
    chi, parts = (0 if active else 1), []
    for part in _complement_components(active, adj):
        colors = [-1] * len(adj)
        _dsatur(part, adj, 1 + max((adj[i] & part).bit_count() for i in _bits(part)), colors)
        greedy = max(colors) + 1
        clique = max_clique(part)
        k = next(low for low in range(clique, greedy + 1) if low == greedy or k_coloring(part, low))
        parts.append((greedy, clique, k))
        chi += k
    return chi, parts


def proper(coloring, edges):
    return all(len({coloring[v] for v in e}) == 2 for e in edges)


def naive_hyperedges(m, basis):
    """Hyperedges by the definition, in Fraction: every 2x2 minor
    x_ij x_kl (+) x_il x_kj (i != k, j != l), every pair of the pairings
    ij|kl, ik|jl, il|jk of a quadruple (star tree), or all three of them
    (Pluecker), whose minimum is attained by one term only."""
    n = m.n

    def pos(i, j):
        return (min(i, j), max(i, j))

    polynomials = []
    if basis == SYMMETRIC_MINORS:
        for i, k, j, l in itertools.product(range(1, n + 1), repeat=4):
            if i != k and j != l:
                polynomials.append([(pos(i, j), pos(k, l)), (pos(i, l), pos(k, j))])
    else:
        for i, j, k, l in itertools.combinations(range(1, n + 1), 4):
            pairings = [((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))]
            if basis == PLUECKER:
                polynomials.append(pairings)
            else:
                polynomials += [list(pair) for pair in itertools.combinations(pairings, 2)]
    edges = set()
    for terms in polynomials:
        values = [m[a] + m[b] for a, b in terms]
        winners = [t for t, v in zip(terms, values) if v == min(values)]
        if len(winners) == 1:
            edges.add(frozenset(winners[0]))
    return edges


class TestBuildDeficiency:
    def test_empty_iff_on_variety_symmetric(self, rng):
        for _ in range(30):
            m = random_symmetric(rng, 4, 0, 3)
            h = build_deficiency(m, SYMMETRIC_MINORS)
            from troprank.membership import is_rank1_symmetric

            assert h.is_empty() == is_rank1_symmetric(m)

    def test_empty_iff_on_variety_star_and_tree(self, rng):
        for _ in range(30):
            m = random_dissimilarity(rng, 5, 0, 3)
            assert build_deficiency(m, STAR_TREE).is_empty() == is_star_tree(m)
            assert build_deficiency(m, PLUECKER).is_empty() == is_tree_matrix(m)

    def test_intro_symmetric_chromatic_four(self, intro_symmetric):
        h = build_deficiency(intro_symmetric, SYMMETRIC_MINORS)
        assert chromatic_number(h) == 4

    def test_min_matrix_overlap_and_nesting_edges(self):
        m = DissimilarityMatrix.from_function(6, lambda i, j: min(i, j))
        h = build_deficiency(m, STAR_TREE)
        edges = h.graph_edges()
        for i, j, k, l in itertools.combinations(range(1, 7), 4):
            assert frozenset({(i, k), (j, l)}) in edges
            assert frozenset({(i, l), (j, k)}) in edges
            assert frozenset({(i, j), (k, l)}) not in edges

    def test_loop_on_finiteness_violation(self):
        m = SymmetricMatrix.from_rows([[0, -1, 0], [-1, 0, 0], [0, 0, 0]])
        h = build_deficiency(m, SYMMETRIC_MINORS)
        assert (1, 2) in h.loops()
        assert chromatic_number(h) == math.inf
        assert rank_lower_bound(m, SYMMETRIC_MINORS) == math.inf

    def test_permutation_equivariance(self, rng):
        for _ in range(10):
            m = random_dissimilarity(rng, 5, 0, 4)
            perm = list(range(1, 6))
            rng.shuffle(perm)
            perm = tuple(perm)
            h = build_deficiency(m, PLUECKER)
            hp = build_deficiency(apply_permutation(m, perm), PLUECKER)

            def move(e):
                return frozenset(
                    tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in e
                )

            assert {move(e) for e in h.hyperedges} == set(hp.hyperedges)

    @pytest.mark.parametrize("basis", [SYMMETRIC_MINORS, STAR_TREE, PLUECKER])
    def test_matches_naive_reference(self, basis):
        rng = random.Random(31)
        space = SymmetricMatrix if basis == SYMMETRIC_MINORS else DissimilarityMatrix
        edges_seen = 0
        for trial in range(24):
            n = (2 if basis == SYMMETRIC_MINORS else 4) + trial % 4
            top = 3 if trial % 2 else 40  # small ranges make ties
            m = space.from_function(
                n, lambda i, j: Fraction(rng.randint(-top, top), rng.choice((1, 2, 3, 4, 6)))
            )
            h = build_deficiency(m, basis)
            assert len(set(h.hyperedges)) == len(h.hyperedges)
            assert set(h.hyperedges) == naive_hyperedges(m, basis)
            for edge, relation in h.provenance.items():
                values = [m[a] + m[b] for a, b in relation]
                assert values.count(min(values)) == 1
                assert frozenset(relation[values.index(min(values))]) == edge
            edges_seen += len(h.hyperedges)
        assert edges_seen > 50

    @pytest.mark.parametrize("basis", [SYMMETRIC_MINORS, STAR_TREE, PLUECKER])
    def test_principal_submatrix_gives_the_induced_graph(self, basis):
        # Every edge's relation lives on the indices of the edge's two
        # positions, so dropping an index drops exactly the edges and
        # relations that use it.
        rng = random.Random(12)
        for trial in range(4):
            if basis != SYMMETRIC_MINORS:
                m = random_dissimilarity(rng, 7, 0, 3)
            elif trial % 2:
                m = random_finite_symmetric(rng, 7, 0, 3)
            else:
                m = random_symmetric(rng, 7, 0, 3)
            h = build_deficiency(m, basis)
            chi = chromatic_number(h)
            for idx in itertools.combinations(range(1, 8), 6):
                label = {v: a for a, v in enumerate(idx, start=1)}

                def move(p):
                    return (label[p[0]], label[p[1]])

                induced = h.induced(v for v in h.vertices if set(v) <= set(idx))
                sub = build_deficiency(principal_submatrix(m, idx), basis)
                assert sub.vertices == tuple(map(move, induced.vertices))
                assert sub.hyperedges == tuple(frozenset(map(move, e)) for e in induced.hyperedges)
                assert sub.provenance == {
                    frozenset(map(move, e)): tuple(tuple(map(move, t)) for t in relation)
                    for e, relation in induced.provenance.items()
                }
                assert chromatic_number(sub) <= chi

    def test_provenance_and_exports(self, intro_dissimilarity):
        h = build_deficiency(intro_dissimilarity, STAR_TREE)
        assert all(e in h.provenance for e in h.hyperedges)
        dump = h.to_json_dict()
        assert set(dump) == {"vertices", "hyperedges", "provenance"}
        dot = h.to_dot()
        assert dot.startswith("graph deficiency {") and dot.endswith("}")

    def test_wrong_space_rejected(self, rng, intro_dissimilarity):
        with pytest.raises(TypeError):
            build_deficiency(random_symmetric(rng, 4), PLUECKER)
        with pytest.raises(TypeError):
            build_deficiency(intro_dissimilarity, SYMMETRIC_MINORS)
        with pytest.raises(ValueError):
            build_deficiency(intro_dissimilarity, "mystery")


class TestChromaticNumber:
    def test_empty_graph_is_one(self, rng):
        v = [random.Random(0).random() for _ in range(3)]
        m = project(rank_one_symmetric([1, 2, 3, 4]))
        h = build_deficiency(m, STAR_TREE)
        assert h.is_empty() and chromatic_number(h) == 1

    def test_five_cycle_needs_three(self):
        chi, coloring = exact_graph_coloring(
            list(range(1, 6)),
            [frozenset({i, i % 5 + 1}) for i in range(1, 6)],
        )
        assert chi == 3
        assert proper(coloring, [frozenset({i, i % 5 + 1}) for i in range(1, 6)])

    def test_against_brute_force_random_graphs(self, rng):
        for _ in range(40):
            n = rng.randint(2, 8)
            verts = list(range(n))
            edges = {
                frozenset(p)
                for p in itertools.combinations(verts, 2)
                if rng.random() < 0.45
            }
            chi, coloring = exact_graph_coloring(verts, edges)
            assert chi == brute_chromatic(verts, edges)
            assert proper(coloring, edges)

    def test_colorings_that_take_colors_back(self):
        # The Groetzsch graph: triangle-free with minimum degree 3, so the
        # refutation of k = 3 below chi = 4 backtracks.
        outer = [frozenset({i, (i + 1) % 5}) for i in range(5)]
        spokes = [frozenset({i, 5 + j}) for i in range(5) for j in ((i - 1) % 5, (i + 1) % 5)]
        hub = [frozenset({5 + i, 10}) for i in range(5)]
        groetzsch = outer + spokes + hub
        assert len(groetzsch) == 20
        # Not 3-colorable (checked by brute force); the DSATUR greedy uses 5
        # colors, and the 4-coloring is found only after colors are taken back.
        hard = [
            frozenset(e)
            for e in [(0, 1), (0, 2), (0, 4), (0, 5), (0, 6), (0, 8), (0, 9), (1, 2), (1, 3),
                      (1, 5), (2, 5), (2, 6), (2, 7), (2, 9), (3, 4), (3, 5), (3, 7), (3, 8),
                      (4, 5), (4, 8), (4, 9), (5, 6), (6, 7), (6, 8), (7, 8), (7, 9)]
        ]
        for n, edges in ((11, groetzsch), (10, hard)):
            chi, coloring = exact_graph_coloring(list(range(n)), edges)
            assert chi == 4
            assert proper(coloring, edges) and set(coloring.values()) == {1, 2, 3, 4}

    def test_matches_the_clique_bound_reference(self):
        # Seeded deficiency graphs of all three bases (entries 0..top over
        # denominators 1 and 2, so with ties; symmetric diagonals 0, so no
        # loops), and tr6-blocks 2 (one component, clique 8, chi 12).
        rng = random.Random(1)
        graphs = []
        for basis in (SYMMETRIC_MINORS, STAR_TREE, PLUECKER):
            space = SymmetricMatrix if basis == SYMMETRIC_MINORS else DissimilarityMatrix
            for trial in range(40):
                top = (2, 4, 9)[trial % 3]
                m = space.from_function(
                    6 + trial % 5,
                    lambda i, j: 0 if i == j else Fraction(rng.randint(0, top), rng.choice((1, 2))),
                )
                graphs.append(build_deficiency(m, basis))
        graphs.append(build_deficiency(tr6_blocks(2), PLUECKER))
        parts = []
        for h in graphs:
            assert not h.loops()
            edges = h.graph_edges()
            chi, coloring = exact_graph_coloring(h.vertices, edges)
            reference, stats = reference_coloring(h.vertices, edges)
            assert chi == reference
            assert proper(coloring, edges) and set(coloring.values()) == set(range(1, chi + 1))
            parts += stats
        assert chi == 12
        # Somewhere the greedy count is at least chi + 2, and somewhere the
        # clique number is below chi.
        assert any(greedy >= k + 2 for greedy, _, k in parts)
        assert any(clique < k for _, clique, k in parts)

    def test_loop_is_rejected(self):
        with pytest.raises(ValueError, match="loops make the chromatic number infinite"):
            exact_graph_coloring([(1, 2)], [frozenset({(1, 2)})])

    def test_join_decomposition_path(self):
        # Two triangles joined completely: chromatic number 6.
        verts = list(range(6))
        edges = {frozenset(p) for p in itertools.combinations(range(3), 2)}
        edges |= {frozenset(p) for p in itertools.combinations(range(3, 6), 2)}
        edges |= {frozenset({a, b}) for a in range(3) for b in range(3, 6)}
        chi, coloring = exact_graph_coloring(verts, edges)
        assert chi == 6
        assert proper(coloring, edges)

    def test_intro_star_bound(self, intro_dissimilarity):
        assert rank_lower_bound(intro_dissimilarity, STAR_TREE) == 2
        assert rank_lower_bound(intro_dissimilarity, PLUECKER) == 1

    def test_min_matrix_bound_matches_star_rank(self):
        for n in range(3, 8):
            m = DissimilarityMatrix.from_function(n, lambda i, j: min(i, j))
            assert rank_lower_bound(m, STAR_TREE) == n - 2


class TestPetersen:
    def test_even_cycle_counts(self):
        cycles = petersen_even_cycles()
        assert sum(1 for c in cycles if len(c) == 6) == 10
        assert sum(1 for c in cycles if len(c) == 8) == 15

    def test_known_alternating_configuration(self):
        solid = [
            frozenset({(4, 5), (1, 3)}),
            frozenset({(2, 5), (3, 4)}),
            frozenset({(1, 5), (2, 3)}),
        ]
        found, witness = has_alternating_even_cycle(solid)
        assert found and len(witness) == 6

    def test_empty_graph_has_none(self):
        assert has_alternating_even_cycle([]) == (False, None)

    def test_rejects_non_petersen_edges(self):
        with pytest.raises(ValueError):
            has_alternating_even_cycle([frozenset({(1, 2), (1, 3)})])

    def test_tree_matrix_classifies_trivial(self, intro_dissimilarity):
        m = DissimilarityMatrix.from_function(5, lambda i, j: min(i, j))
        assert classify_petersen(m).tag == TRIVIAL

    def test_five_cycle_matrix(self):
        m = DissimilarityMatrix.from_function(
            5, lambda i, j: 0 if (j - i) % 5 in (1, 4) else 1
        )
        result = classify_petersen(m)
        assert result.tag == FIVE_CYCLE
        assert chromatic_number(build_deficiency(m, PLUECKER)) == 3

    def test_single_perturbation_gives_sparse(self):
        m = DissimilarityMatrix.from_function(5, lambda i, j: min(i, j))
        bumped = DissimilarityMatrix.from_function(
            5, lambda i, j: m[(i, j)] - 2 if (i, j) == (1, 2) else m[(i, j)]
        )
        result = classify_petersen(bumped)
        assert result.tag == SPARSE
        assert 1 <= len(result.edges) < 5

    def test_taxonomy_and_no_alternating_cycles(self, rng):
        seen = set()
        for _ in range(300):
            m = random_dissimilarity(rng, 5, 0, 7)
            result = classify_petersen(m)
            seen.add(result.tag)
            assert result.edges <= PETERSEN_EDGES
            assert len(result.edges) <= 5
            found, _ = has_alternating_even_cycle(result.edges)
            assert not found
            if result.tag in (HUB_PAIR, HUB_SINGLE):
                assert result.relabeling is not None
                degrees = {}
                for e in result.edges:
                    for v in e:
                        degrees[v] = degrees.get(v, 0) + 1
                assert max(degrees.values()) == 3
        assert {HUB_PAIR, HUB_SINGLE, FIVE_CYCLE} <= seen

    def test_needs_five_points(self, rng):
        with pytest.raises(ValueError):
            classify_petersen(random_dissimilarity(rng, 4))
