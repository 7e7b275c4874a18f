"""Membership tests, the basis relation tables, the 6x6 matching
polynomial, and exact tree realization."""

import itertools
import random
from fractions import Fraction

import pytest

from troprank.core import (
    DissimilarityMatrix,
    SymmetricMatrix,
    apply_permutation,
    frac,
    offdiag_positions,
    project,
    quartets,
    rank_one_symmetric,
    unique_minima,
)
from troprank.deficiency import build_deficiency
from troprank.membership import (
    PLUECKER,
    STAR_TREE,
    SYMMETRIC_MINORS,
    basis_for,
    is_rank1_symmetric,
    is_star_tree,
    is_tree_matrix,
    is_tropically_singular_3x3,
    pfaffian_minimizers,
    term_label,
)
from troprank.trees import NotTreeMatrixError, four_point_violation, realize_tree

from conftest import random_dissimilarity, random_rational, random_symmetric


def minors_vanish_everywhere(m: SymmetricMatrix) -> bool:
    """Independent oracle: enumerate every 2x2 minor directly."""
    n = m.n
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if i == k:
                continue
            for j in range(1, n + 1):
                for l in range(1, n + 1):
                    if j == l:
                        continue
                    if m[(i, j)] + m[(k, l)] != m[(i, l)] + m[(k, j)]:
                        return False
    return True


def cycle_zero_one(n: int) -> DissimilarityMatrix:
    return DissimilarityMatrix.from_function(
        n, lambda i, j: 0 if (j - i) % n in (1, n - 1) else 1
    )


class TestVanishesAt:
    """A relation vanishes at w when its minimum is attained twice; the
    others give the deficiency hyperedges, with the relation as provenance."""

    def test_unique_minimizer_reported(self, intro_dissimilarity):
        # Pairing sums 12|34 = 2, 13|24 = 0, 14|23 = 0.
        h = build_deficiency(intro_dissimilarity, STAR_TREE)
        edge = frozenset({(1, 3), (2, 4)})
        assert h.hyperedges == (edge, frozenset({(1, 4), (2, 3)}))
        assert h.provenance[edge] == (((1, 2), (3, 4)), ((1, 3), (2, 4)))
        assert h.to_json_dict()["provenance"]["1,3|2,4"] == "x12*x34 (+) x13*x24"

    def test_constant_matrix_ties_everything(self):
        m = DissimilarityMatrix.from_function(4, lambda i, j: 5)
        assert all(len(relation) == 2 for relation in basis_for(STAR_TREE, 4))
        assert build_deficiency(m, STAR_TREE).is_empty()
        assert build_deficiency(m, PLUECKER).is_empty()


class TestRankOneMembership:
    def test_generated_matrices_pass(self, rng):
        for _ in range(20):
            v = [random_rational(rng) for _ in range(4)]
            assert is_rank1_symmetric(rank_one_symmetric(v))

    def test_intro_example_fails(self, intro_symmetric):
        assert not is_rank1_symmetric(intro_symmetric)

    def test_two_by_two_counterexample(self):
        assert not is_rank1_symmetric(SymmetricMatrix.from_rows([[0, 1], [1, 0]]))

    def test_agrees_with_minor_enumeration(self, rng):
        hits = 0
        for _ in range(120):
            if rng.random() < 0.5:
                m = random_symmetric(rng, 4, 0, 2)
            else:
                m = rank_one_symmetric([random_rational(rng) for _ in range(4)])
            expected = minors_vanish_everywhere(m)
            hits += expected
            assert is_rank1_symmetric(m) == expected
        assert hits > 10  # both branches exercised

    def test_rank_one_diagonal_identity(self, rng):
        for _ in range(20):
            v = [random_rational(rng) for _ in range(4)]
            m = rank_one_symmetric(v)
            for i, j in itertools.combinations(range(1, 5), 2):
                assert m[(i, i)] + m[(j, j)] == 2 * m[(i, j)]


class TestStarTreeMembership:
    def test_every_3x3_passes(self, rng):
        for _ in range(20):
            assert is_star_tree(random_dissimilarity(rng, 3))

    def test_intro_projection_fails(self, intro_dissimilarity):
        assert not is_star_tree(intro_dissimilarity)

    def test_pairings_all_equal_characterization(self, rng):
        for _ in range(60):
            m = random_dissimilarity(rng, 5, 0, 3)
            expected = all(
                m[(i, j)] + m[(k, l)] == m[(i, k)] + m[(j, l)] == m[(i, l)] + m[(j, k)]
                for i, j, k, l in itertools.combinations(range(1, 6), 4)
            )
            assert is_star_tree(m) == expected


class TestTreeMembership:
    def test_intro_projection_is_tree(self, intro_dissimilarity):
        assert is_tree_matrix(intro_dissimilarity)

    def test_min_matrix_all_sizes(self):
        for n in range(3, 9):
            m = DissimilarityMatrix.from_function(n, lambda i, j: min(i, j))
            assert is_tree_matrix(m)

    def test_five_cycle_fails_on_first_quadruple(self):
        m = cycle_zero_one(5)
        # Quadruple {1,2,3,4}: pairings 0+0, 1+1, 1+0; minimum unique.
        assert not is_tree_matrix(m)

    def test_star_trees_are_tree_matrices(self, rng):
        for _ in range(40):
            v = [random_rational(rng) for _ in range(5)]
            m = project(rank_one_symmetric(v))
            assert is_star_tree(m) and is_tree_matrix(m)

    def test_permutation_invariance(self, rng):
        for _ in range(20):
            m = random_dissimilarity(rng, 5, 0, 4)
            perm = list(range(1, 6))
            rng.shuffle(perm)
            assert is_tree_matrix(m) == is_tree_matrix(apply_permutation(m, tuple(perm)))


def reference_four_point_violation(m: DissimilarityMatrix):
    """The four-point test as it was before the integer kernel: a loop over
    `quartets(n)` in Fraction sums."""
    for pairings in quartets(m.n):
        sums = [m[a] + m[b] for a, b in pairings]
        if sums.count(min(sums)) < 2:
            (i, j), (k, l) = pairings[0]
            return (i, j, k, l)
    return None


class TestFourPointKernel:
    """`four_point_violation` runs the integer unique-minimum kernel over the
    Pluecker table; it must report the reference loop's first quadruple."""

    def test_first_violation_matches_reference(self):
        rng = random.Random(4321)
        violations = late = trees = 0
        for n in range(4, 10):
            for trial in range(60):
                # Few distinct values over denominators 1, 2, 3: many ties.
                m = DissimilarityMatrix.from_function(
                    n, lambda i, j: Fraction(rng.randint(-2, 3), rng.choice((1, 2, 3)))
                )
                if trial % 3 == 0:
                    # A tree matrix (a star), with one entry nudged half the time.
                    v = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
                    bump = rng.choice(offdiag_positions(n)) if trial % 2 else None
                    m = DissimilarityMatrix.from_function(
                        n, lambda i, j: v[i - 1] + v[j - 1] - (Fraction(1, 3) if (i, j) == bump else 0)
                    )
                expected = reference_four_point_violation(m)
                assert four_point_violation(m) == expected
                assert is_tree_matrix(m) == (expected is None)
                violations += expected is not None
                trees += expected is None
                late += expected is not None and expected != (1, 2, 3, 4)
        assert violations > 100 and trees > 50 and late > 30

    def test_three_term_hits_match_a_direct_scan(self):
        # The deficiency builder reads every hit of `unique_minima`, so each
        # hit and its index must be a direct scan's, on small values with
        # many ties.
        rng = random.Random(4242)
        hits = {0: 0, 1: 0, 2: 0}
        for n in range(4, 9):
            for _ in range(30):
                values = {p: rng.randint(0, 3) for p in offdiag_positions(n)}
                expected = []
                for relation in quartets(n):
                    sums = [values[a] + values[b] for a, b in relation]
                    if sums.count(min(sums)) == 1:
                        expected.append((relation, sums.index(min(sums))))
                        hits[sums.index(min(sums))] += 1
                assert list(unique_minima(quartets(n), values)) == expected
        assert min(hits.values()) > 100


class TestTropicalSingularity:
    def test_zero_matrix(self):
        assert is_tropically_singular_3x3(SymmetricMatrix.from_function(3, lambda i, j: 0))

    def test_normalized_zero_offdiagonal(self):
        m = SymmetricMatrix.from_rows([[0, 0, 5], [0, 0, 7], [5, 7, 0]])
        assert is_tropically_singular_3x3(m)

    def test_six_term_enumeration(self):
        m = SymmetricMatrix.from_rows([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        values = []
        for sigma in itertools.permutations((1, 2, 3)):
            values.append(sum(m[(i, sigma[i - 1])] for i in (1, 2, 3)))
        lo = min(values)
        assert (values.count(lo) >= 2) == is_tropically_singular_3x3(m)
        assert not is_tropically_singular_3x3(m)


class TestPfaffianMinimizers:
    def brute(self, m):
        """Independent matching enumeration via recursive pairing."""

        def matchings(points):
            if not points:
                yield ()
                return
            first = points[0]
            for k in range(1, len(points)):
                partner = points[k]
                rest = points[1:k] + points[k + 1 :]
                for tail in matchings(rest):
                    yield ((first, partner),) + tail

        weights = {}
        for matching in matchings(tuple(range(1, 7))):
            key = tuple(sorted(matching))
            weights[key] = sum(m[p] for p in matching)
        lo = min(weights.values())
        return sorted(k for k, v in weights.items() if v == lo)

    def test_constant_matrix_keeps_all_fifteen(self):
        m = DissimilarityMatrix.from_function(6, lambda i, j: 3)
        assert len(pfaffian_minimizers(m)) == 15

    def test_planted_minimum(self):
        zeros = {(1, 2), (3, 4), (5, 6)}
        m = DissimilarityMatrix.from_function(
            6, lambda i, j: 0 if (i, j) in zeros else 1
        )
        assert pfaffian_minimizers(m) == [((1, 2), (3, 4), (5, 6))]

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            m = random_dissimilarity(rng, 6, 0, 5)
            assert sorted(pfaffian_minimizers(m)) == self.brute(m)

    def test_requires_six(self, rng):
        with pytest.raises(ValueError):
            pfaffian_minimizers(random_dissimilarity(rng, 5))


class TestRealizeTree:
    def test_intro_projection_roundtrip(self, intro_dissimilarity):
        tree = realize_tree(intro_dissimilarity)
        assert tree.leaf_distance_matrix() == intro_dissimilarity
        for u, v, w in tree.edges():
            if not tree.is_leaf(u) and not tree.is_leaf(v):
                assert w <= 0

    def test_min_matrix_caterpillar(self):
        m = DissimilarityMatrix.from_function(5, lambda i, j: min(i, j))
        tree = realize_tree(m)
        assert tree.leaf_distance_matrix() == m

    def test_star_tree_inputs(self, rng):
        for _ in range(20):
            v = [random_rational(rng) for _ in range(5)]
            m = project(rank_one_symmetric(v))
            assert realize_tree(m).leaf_distance_matrix() == m

    def test_random_tree_metrics_roundtrip(self, rng):
        # Random trees with negative internal edges, positive pendants.
        from troprank.trees import WeightedTree, _add_edge

        for _ in range(40):
            n = rng.randint(4, 8)
            adj = {}
            _add_edge(adj, 1, n + 1, frac(rng.randint(0, 12)))
            _add_edge(adj, 2, n + 1, frac(rng.randint(0, 12)))
            internals = [n + 1]
            nxt = n + 2
            for leaf in range(3, n + 1):
                host = rng.choice(internals)
                if rng.random() < 0.5:
                    _add_edge(adj, leaf, host, frac(rng.randint(0, 12)))
                else:
                    _add_edge(adj, nxt, host, frac(-rng.randint(0, 4)))
                    _add_edge(adj, leaf, nxt, frac(rng.randint(0, 12)))
                    internals.append(nxt)
                    nxt += 1
            tree = WeightedTree(n, adj)
            m = tree.leaf_distance_matrix()
            assert is_tree_matrix(m)
            rebuilt = realize_tree(m)
            assert rebuilt.leaf_distance_matrix() == m

    def test_rejects_non_tree(self):
        with pytest.raises(NotTreeMatrixError):
            realize_tree(cycle_zero_one(5))

    def test_newick_has_all_leaves(self, intro_dissimilarity):
        text = realize_tree(intro_dissimilarity).to_newick()
        assert text.endswith(";")
        for leaf in ("1", "2", "3", "4"):
            assert leaf in text


class TestBases:
    def test_basis_sizes(self):
        assert len(basis_for(PLUECKER, 5)) == 5
        assert len(basis_for(STAR_TREE, 5)) == 15
        # rows x cols pairs fold in half plus the diagonal choices
        assert len(basis_for(SYMMETRIC_MINORS, 3)) == 6

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            basis_for("mystery", 4)

    def test_relations_are_sorted_position_pairs(self):
        # x11*x22 (+) x12^2: a square is one position twice.
        assert basis_for(SYMMETRIC_MINORS, 2) == ((((1, 1), (2, 2)), ((1, 2), (1, 2))),)
        assert [term_label(t) for t in basis_for(SYMMETRIC_MINORS, 2)[0]] == ["x11*x22", "x12^2"]
        assert basis_for(PLUECKER, 4) == ((((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))),)
        for name in (SYMMETRIC_MINORS, STAR_TREE, PLUECKER):
            for relation in basis_for(name, 6):
                assert all(a <= b for a, b in relation)

    def test_one_term_formatter(self):
        assert term_label(((1, 10), (2, 3))) == "x1,10*x23"
        assert term_label(sorted([(3, 4), (1, 2), (1, 2)])) == "x12^2*x34"


class TestDegenerateRealizations:
    def test_all_zero_and_all_negative(self):
        zero = DissimilarityMatrix.from_function(6, lambda i, j: 0)
        assert realize_tree(zero).leaf_distance_matrix() == zero
        neg = DissimilarityMatrix.from_function(5, lambda i, j: -3)
        assert realize_tree(neg).leaf_distance_matrix() == neg

    def test_coincident_pair_of_leaves(self):
        # Leaves 1 and 2 at distance zero; the rest equidistant from them.
        m = DissimilarityMatrix.from_function(
            5,
            lambda i, j: 0
            if {i, j} == {1, 2}
            else (4 if 1 in (i, j) or 2 in (i, j) else 8),
        )
        assert is_tree_matrix(m)
        assert realize_tree(m).leaf_distance_matrix() == m

    def test_positive_internal_structure_is_rejected(self):
        # The classical tree metric with a positive internal edge fails the
        # min-pairing condition, so it is not a tree matrix here.
        m = DissimilarityMatrix.from_function(
            5,
            lambda i, j: 0
            if {i, j} == {1, 2}
            else (4 if 1 in (i, j) or 2 in (i, j) else 6),
        )
        assert not is_tree_matrix(m)
        with pytest.raises(NotTreeMatrixError):
            realize_tree(m)


def random_binary_tree_matrix(rng: random.Random, n: int, scale: int) -> DissimilarityMatrix:
    """Leaf distances of a random binary tree on leaves 1..n: each leaf
    splits a random edge; pendant weights are any rationals over `scale`,
    internal weights nonpositive ones."""
    from troprank.trees import WeightedTree, _add_edge

    def weight(internal: bool) -> Fraction:
        w = Fraction(rng.randint(0 if internal else -6, 6), scale)
        return -w if internal else w

    adj: dict = {}
    for leaf in (1, 2, 3):
        _add_edge(adj, leaf, n + 1, weight(False))
    for leaf in range(4, n + 1):
        u = rng.choice(sorted(adj))
        v = rng.choice(sorted(adj[u]))
        split = n + leaf - 2
        del adj[u][v], adj[v][u]
        _add_edge(adj, u, split, weight(u > n))
        _add_edge(adj, split, v, weight(v > n))
        _add_edge(adj, leaf, split, weight(False))
    return WeightedTree(n, adj).leaf_distance_matrix()


class TestBasesDecideMembership:
    """No relation of `basis_for(b, n)` has a unique minimum exactly when
    the variety's integer kernel accepts; both outcomes occur for every
    basis, on integer and rational entries with ties."""

    def test_bases_agree_with_the_kernels(self):
        from troprank.core import rank_one_doubled, star_doubled, star_matrix
        from troprank.trees import _violation

        rng = random.Random(2009)
        outcomes = {b: set() for b in (SYMMETRIC_MINORS, STAR_TREE, PLUECKER)}
        for n in range(3, 9):
            for trial in range(24):
                den = rng.choice((1, 2, 3)) if trial % 2 else 1

                def entry(i, j):
                    return Fraction(rng.randint(-3, 3), den)

                v = [entry(0, 0) for _ in range(n)]
                symmetric = [
                    SymmetricMatrix.from_function(n, entry),
                    rank_one_symmetric(v),
                ]
                dissimilarity = [
                    DissimilarityMatrix.from_function(n, entry),
                    star_matrix(v),
                    random_binary_tree_matrix(rng, n, den),
                ]
                cases = [(SYMMETRIC_MINORS, m) for m in symmetric]
                cases += [(b, m) for b in (STAR_TREE, PLUECKER) for m in dissimilarity]
                for basis, m in cases:
                    scale, values = m.scaled_to_integers()
                    no_unique = next(unique_minima(basis_for(basis, n), values), None) is None
                    if basis == PLUECKER:
                        accepted = _violation(n, values) is None
                        if accepted:
                            assert realize_tree(m).leaf_distance_matrix() == m
                    else:
                        kernel = rank_one_doubled if basis == SYMMETRIC_MINORS else star_doubled
                        doubled = kernel(n, values)
                        accepted = doubled is not None
                        if accepted:
                            generator = [Fraction(d, 2 * scale) for d in doubled]
                            assert type(m).from_function(
                                n, lambda i, j: generator[i - 1] + generator[j - 1]
                            ) == m
                    assert no_unique == accepted, (basis, n, m)
                    outcomes[basis].add(accepted)
        assert all(seen == {True, False} for seen in outcomes.values())
