"""Finiteness, the constructive upper bounds, the exact solver, and
certificate verification."""

import math
import random
from fractions import Fraction

import pytest

from troprank.core import (
    DissimilarityMatrix,
    SymmetricMatrix,
    apply_permutation,
    frac,
    principal_submatrix,
    project,
    quartets,
    rank_one_generator,
    rank_one_symmetric,
    star_generator,
    trop_sum_all,
)
from troprank.decomposition import (
    Decomposition,
    STAR,
    SYM,
    TREE,
    VerificationReport,
    star_summand,
    verify,
    verify_matrices,
)
from troprank.generators import block_matrix, generate, tr6_blocks, tr6_matrix
from troprank.cli import main
from troprank.matrixio import parse_matrix, serialize_matrix
from troprank.membership import PLUECKER, is_tree_matrix
from troprank.deficiency import build_deficiency, chromatic_number
from troprank.rank import (
    CertificateError,
    RankResult,
    _AssignmentSearcher,
    _upper_for_search,
    _binary_topologies,
    _candidate_topologies,
    _forced_splits,
    _pairing_sums,
    compute_rank,
    exact_rank,
    finiteness_violation,
    normalize_diagonal,
    star_upper_decomposition,
    symmetric_rank_finite,
    symmetric_upper_decomposition,
    tree_upper_decomposition,
    upper_size,
)

from conftest import (
    random_dissimilarity,
    random_finite_symmetric,
    random_symmetric,
)


class TestFiniteness:
    def test_intro_example_is_finite(self, intro_symmetric):
        assert symmetric_rank_finite(intro_symmetric)

    def test_negative_offdiagonal_violation(self):
        m = SymmetricMatrix.from_rows([[0, -1], [-1, 0]])
        assert finiteness_violation(m) == (1, 2)

    def test_rank_one_matrices_meet_with_equality(self, rng):
        for _ in range(20):
            v = [frac(rng.randint(-5, 5)) for _ in range(4)]
            m = rank_one_symmetric(v)
            assert symmetric_rank_finite(m)
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    assert m[(i, i)] + m[(j, j)] == 2 * m[(i, j)]


class TestNormalizeDiagonal:
    def test_zero_diagonal_unchanged(self, intro_symmetric):
        normalized, offsets = normalize_diagonal(intro_symmetric)
        assert normalized == intro_symmetric
        assert set(offsets) == {frac(0)}

    def test_direct_formula(self):
        m = SymmetricMatrix.from_rows([[2, 1], [1, 4]])
        normalized, offsets = normalize_diagonal(m)
        assert normalized.to_rows() == [[frac(0), frac(-2)], [frac(-2), frac(0)]]
        assert offsets == (frac(1), frac(2))

    def test_decomposition_pulls_back(self, rng):
        for _ in range(10):
            m = random_finite_symmetric(rng, 4)
            normalized, offsets = normalize_diagonal(m)
            dec = symmetric_upper_decomposition(normalized)
            lifted = Decomposition(
                SYM,
                tuple(
                    type(s)(
                        s.kind,
                        rank_one_symmetric(
                            [g + o for g, o in zip(s.generator, offsets)]
                        ),
                        tuple(g + o for g, o in zip(s.generator, offsets)),
                    )
                    for s in dec.summands
                ),
            )
            assert verify(m, lifted)


class TestSymmetricUpper:
    def test_two_by_two_display(self):
        m = SymmetricMatrix.from_rows([[0, 7], [7, 0]])
        dec = symmetric_upper_decomposition(m)
        rows = [s.matrix.to_rows() for s in dec.summands]
        assert [[frac(0), frac(7)], [frac(7), frac(14)]] in rows
        assert [[frac(14), frac(7)], [frac(7), frac(0)]] in rows

    def test_three_by_three_blocks(self):
        m = SymmetricMatrix.from_rows([[0, 5, 1], [5, 0, 2], [1, 2, 0]])
        dec = symmetric_upper_decomposition(m)
        assert len(dec) == 3 and verify(m, dec)

    def test_bipartite_pattern_within_bound(self):
        half = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
        m = SymmetricMatrix.from_rows(half)
        dec = symmetric_upper_decomposition(m)
        assert len(dec) <= 4 and verify(m, dec)

    def test_random_instances_verified_and_bounded(self, rng):
        for n in (1, 2, 3, 4, 5, 6, 7):
            for _ in range(12):
                m = random_finite_symmetric(rng, n)
                dec = symmetric_upper_decomposition(m)
                assert verify(m, dec)
                assert len(dec) <= max(n, n * n // 4)

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            symmetric_upper_decomposition(SymmetricMatrix.from_rows([[0, -1], [-1, 0]]))


class TestStarUpper:
    def test_three_by_three_single(self, rng):
        m = random_dissimilarity(rng, 3)
        dec = star_upper_decomposition(m)
        assert len(dec) == 1 and verify(m, dec)

    def test_intro_gives_two(self, intro_dissimilarity):
        dec = star_upper_decomposition(intro_dissimilarity)
        assert len(dec) == 2 and verify(intro_dissimilarity, dec)

    def test_min_matrix_meets_sharp_bound(self):
        m = DissimilarityMatrix.from_function(5, lambda i, j: min(i, j))
        dec = star_upper_decomposition(m)
        assert len(dec) == 3 and verify(m, dec)

    def test_random_instances(self, rng):
        for n in (3, 4, 5, 6, 7):
            for _ in range(12):
                m = random_dissimilarity(rng, n, -9, 9)
                dec = star_upper_decomposition(m)
                assert verify(m, dec)
                assert len(dec) <= n - 2


class TestTreeUpper:
    def test_intro_single_summand(self, intro_dissimilarity):
        dec = tree_upper_decomposition(intro_dissimilarity)
        assert len(dec) == 1 and verify(intro_dissimilarity, dec)

    def test_six_by_six_always_three(self, rng):
        for _ in range(25):
            m = random_dissimilarity(rng, 6)
            dec = tree_upper_decomposition(m)
            assert len(dec) == 3
            assert verify(m, dec)
            assert all(is_tree_matrix(s.matrix) for s in dec.summands)

    def test_six_by_six_tree_matrix_is_one_tree(self):
        m = generate("min", 6)
        dec = tree_upper_decomposition(m)
        assert len(dec) == 1 and verify(m, dec)

    def test_tree_matrix_needs_no_shape_table(self, monkeypatch):
        # r = 1 is the membership test, so a tree matrix answers at any n
        # without the (2n-5)!! binary shapes (135,135 at n = 9).
        import troprank.rank as rank_module

        def refuse(n):
            raise AssertionError("built the binary shape table")

        m = generate("min", 9)
        monkeypatch.setattr(rank_module, "_binary_topologies", refuse)
        results = [exact_rank(m, TREE)] + [compute_rank(m, TREE, method) for method in ("auto", "exact")]
        for result in results:
            assert (result.status, result.value, len(result.decomposition)) == ("finite", 1, 1)
            assert verify(m, result.decomposition)

    def test_tr6_reaches_its_chromatic_bound(self):
        m = tr6_matrix()
        dec = tree_upper_decomposition(m)
        assert len(dec) == 6 and verify(m, dec)

    def test_random_instances_by_size(self, rng):
        bounds = {3: 1, 4: 2, 5: 3, 6: 3, 7: 4, 8: 5, 9: 6, 10: 7}
        for n, bound in bounds.items():
            for _ in range(10):
                m = random_dissimilarity(rng, n)
                dec = tree_upper_decomposition(m)
                assert verify(m, dec)
                assert len(dec) <= bound

    def test_bound_realizes_only_the_matching_blocks(self, monkeypatch):
        # From n = 7 on, the bound embeds the leading 6x6 block's three 4x4
        # matching blocks straight into n leaves: no 6x6 tree is realized.
        import troprank.trees as trees_module

        sizes = []
        realize = trees_module._realize_scaled

        def recording(n, values):
            sizes.append(n)
            return realize(n, values)

        monkeypatch.setattr(trees_module, "_realize_scaled", recording)
        rng = random.Random(20)
        for n in range(7, 11):
            for _ in range(5):
                m = DissimilarityMatrix.from_function(
                    n, lambda i, j: Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))
                )
                dec = _upper_for_search(m, TREE)
                assert len(dec) == n - 3 and verify(m, dec)
                assert all(is_tree_matrix(s.matrix) for s in dec.summands)
        assert sizes and set(sizes) == {4}


class TestExactRank:
    def test_intro_values(self, intro_symmetric, intro_dissimilarity):
        assert exact_rank(intro_symmetric, SYM).value == 4
        assert exact_rank(intro_dissimilarity, STAR).value == 2
        assert exact_rank(intro_dissimilarity, TREE).value == 1

    def test_remark_matrix(self):
        m = SymmetricMatrix.from_rows(
            [[0, 0, 1, 2], [0, 0, 2, 1], [1, 2, 0, 0], [2, 1, 0, 0]]
        )
        result = exact_rank(m, SYM)
        assert result.value == 4
        assert result.chromatic_bound == 4

    def test_infinite_detection(self):
        m = SymmetricMatrix.from_rows([[0, -1, 0], [-1, 0, 0], [0, 0, 0]])
        result = exact_rank(m, SYM)
        assert result.status == "infinite"
        assert result.value == math.inf
        assert result.infinite_witness == (1, 2)

    def test_witness_decomposition_always_verifies(self, rng):
        for _ in range(15):
            m = random_dissimilarity(rng, 5)
            result = exact_rank(m, TREE)
            assert verify(m, result.decomposition)
            assert result.lower == result.upper == result.value

    def test_lower_bound_sound(self, rng):
        for _ in range(15):
            m = random_dissimilarity(rng, 5)
            result = exact_rank(m, STAR)
            chi = chromatic_number(build_deficiency(m, "star-tree"))
            assert chi <= result.value

    def test_agrees_with_exhaustive_start(self, rng):
        # Starting the search at χ skips nothing: no r below χ has a witness.
        for _ in range(10):
            m = random_dissimilarity(rng, 5)
            h = build_deficiency(m, PLUECKER)
            searcher = _AssignmentSearcher(m, TREE, h)
            assert all(searcher.search(r) is None for r in range(1, chromatic_number(h)))

    def test_budget_interval(self):
        m = DissimilarityMatrix.from_function(5, lambda i, j: min(i, j))
        result = exact_rank(m, STAR, budget=1)
        # Chromatic bound 3 already matches the upper bound, so even a tiny
        # budget cannot leave an interval here; the solver reports 3.
        assert result.value == 3

    def test_budget_bounds_can_still_determine(self, intro_dissimilarity):
        # Chromatic bound 2 meets the two-star construction, so the rank is
        # determined even though the budget blocks the witness search.
        result = exact_rank(intro_dissimilarity, STAR, budget=1)
        assert result.status == "finite" and result.value == 2

    def test_budget_interval_genuine(self):
        # A 6x6 instance whose chromatic bound 2 sits strictly below the
        # three-summand construction: with the search capped at one slot,
        # only the interval [2, 3] can be certified.
        rng = random.Random(11)
        m = None
        for _ in range(200):
            candidate = DissimilarityMatrix.from_function(
                6, lambda i, j: rng.randint(0, 9)
            )
            chi = chromatic_number(build_deficiency(candidate, PLUECKER))
            if chi == 2:
                m = candidate
                break
        assert m is not None
        result = exact_rank(m, TREE, budget=1)
        assert result.status == "interval"
        assert result.lower == 2 and result.upper == 3
        assert result.value is None

    def test_permutation_and_normalization_invariance(self, rng):
        for _ in range(6):
            m = random_finite_symmetric(rng, 4)
            value = exact_rank(m, SYM).value
            perm = list(range(1, 5))
            rng.shuffle(perm)
            assert exact_rank(apply_permutation(m, tuple(perm)), SYM).value == value
            normalized, _ = normalize_diagonal(m)
            assert exact_rank(normalized, SYM).value == value

    def test_rank_chain(self, rng):
        for _ in range(12):
            m = random_finite_symmetric(rng, 4)
            sym_rank = exact_rank(m, SYM).value
            star_rank = exact_rank(project(m), STAR).value
            tree_rank = exact_rank(project(m), TREE).value
            assert sym_rank >= star_rank >= tree_rank

    def test_peeling_bound(self, rng):
        for _ in range(8):
            m = random_dissimilarity(rng, 5)
            whole = exact_rank(m, TREE).value
            sub = exact_rank(principal_submatrix(m, (1, 2, 3, 4)), TREE).value
            assert whole <= sub + 1

    def test_type_checks(self, rng, intro_dissimilarity):
        with pytest.raises(TypeError):
            exact_rank(intro_dissimilarity, SYM)
        with pytest.raises(TypeError):
            exact_rank(random_symmetric(rng, 4), TREE)
        with pytest.raises(ValueError):
            exact_rank(random_symmetric(rng, 4), "mystery")


# A 7x7 tree rank 3 matrix whose seven 6x6 principal submatrices all have
# tree rank 2: a counterexample to "tree rank <= 2 exactly when every 6x6
# principal submatrix has tree rank <= 2".
SUBMATRIX_COUNTEREXAMPLE = """dissimilarity 7
*  -3  2 -8  1 -7 -5
-3  *  5 -1 -2  0  2
2  5  * -2  1 -1  1
-8 -1 -2  * -7  1 -2
1 -2  1 -7  * -6 -4
-7  0 -1  1 -6  *  4
-5  2  1 -2 -4  4  *
"""


class TestSubmatrixCounterexample:
    def test_tree_rank_three_by_an_odd_cycle(self):
        m = parse_matrix(SUBMATRIX_COUNTEREXAMPLE)
        result = exact_rank(m, TREE)
        assert (result.status, result.value) == ("finite", 3)
        assert result.lower_certificate == {"type": "chromatic", "value": 3}
        assert verify(m, result.decomposition)
        # A 5-cycle of the Pluecker deficiency graph touching all seven indices.
        cycle = [(3, 5), (1, 2), (3, 6), (4, 7), (1, 6)]
        edges = build_deficiency(m, PLUECKER).graph_edges()
        assert all(frozenset(e) in edges for e in zip(cycle, cycle[1:] + cycle[:1]))
        assert {i for p in cycle for i in p} == set(range(1, 8))

    def test_every_six_by_six_submatrix_has_tree_rank_two(self):
        m = parse_matrix(SUBMATRIX_COUNTEREXAMPLE)
        for drop in range(1, 8):
            sub = principal_submatrix(m, [i for i in range(1, 8) if i != drop])
            result = exact_rank(sub, TREE)
            assert (result.value, len(result.decomposition)) == (2, 2)
            assert verify(sub, result.decomposition)


class TestVerify:
    def test_explicit_intro_pair(self, intro_dissimilarity):
        first = DissimilarityMatrix.from_rows(
            [["*", 1, 0, 0], [1, "*", 2, 2], [0, 2, "*", 1], [0, 2, 1, "*"]]
        )
        second = DissimilarityMatrix.from_rows(
            [["*", 1, 2, 2], [1, "*", 0, 0], [2, 0, "*", 1], [2, 0, 1, "*"]]
        )
        from troprank.core import star_generator

        dec = Decomposition(
            STAR,
            (
                star_summand(star_generator(first)),
                star_summand(star_generator(second)),
            ),
        )
        assert verify(intro_dissimilarity, dec)

    def test_perturbation_pinpointed(self, intro_dissimilarity):
        first = DissimilarityMatrix.from_rows(
            [["*", 1, 0, 0], [1, "*", 2, 2], [0, 2, "*", 1], [0, 2, 1, "*"]]
        )
        second = DissimilarityMatrix.from_rows(
            [["*", 1, 2, 2], [1, "*", 0, 0], [2, 0, "*", 1], [2, 0, 1, "*"]]
        )
        target = DissimilarityMatrix.from_function(
            4,
            lambda i, j: intro_dissimilarity[(i, j)] + (1 if (i, j) == (3, 4) else 0),
        )
        from troprank.core import star_generator

        dec = Decomposition(
            STAR,
            (
                star_summand(star_generator(first)),
                star_summand(star_generator(second)),
            ),
        )
        report = verify(target, dec)
        assert not report.ok
        assert report.position == (3, 4)

    def test_membership_failure_pinpointed(self, intro_dissimilarity):
        # A summand whose matrix is not a star tree matrix must be flagged.
        from troprank.decomposition import Summand

        crooked = Summand("star", intro_dissimilarity, (frac(0),) * 4)
        dec = Decomposition(STAR, (star_summand([0, 0, 0, 0]), crooked))
        report = verify(intro_dissimilarity, dec)
        assert not report.ok and report.summand_index == 1

    @pytest.mark.parametrize("space", ["symmetric", "dissimilarity"])
    def test_unknown_notion_is_rejected_in_either_space(
        self, intro_symmetric, intro_dissimilarity, space
    ):
        # The notion is checked before the space, so no matrix passes a
        # bogus notion off as "the wrong space".
        m = intro_symmetric if space == "symmetric" else intro_dissimilarity
        with pytest.raises(ValueError, match="unknown rank notion 'bogus'"):
            verify_matrices(m, [m], "bogus")


def reference_verify(m, matrices, notion):
    """`verify_matrices` as it was before it moved to integers: Fraction
    membership tests, `trop_sum_all`, then a compare per position."""
    space = SymmetricMatrix if notion == SYM else DissimilarityMatrix
    if not isinstance(m, space):
        return VerificationReport(False, "matrix lives in the wrong space")
    if not matrices:
        return VerificationReport(False, "empty decomposition")

    def member(summand):
        if notion == TREE:
            return all(
                sums.count(min(sums)) >= 2
                for sums in ([summand[a] + summand[b] for a, b in q] for q in quartets(m.n))
            )
        try:
            (rank_one_generator if notion == SYM else star_generator)(summand)
        except ValueError:
            return False
        return True

    for idx, summand in enumerate(matrices):
        if type(summand) is not type(m) or summand.n != m.n:
            return VerificationReport(False, "summand has mismatched shape", idx)
        if not member(summand):
            return VerificationReport(False, "summand fails its membership test", idx)
    total = trop_sum_all(list(matrices))
    for pos in m.positions():
        if total[pos] != m[pos]:
            return VerificationReport(
                False, f"tropical sum disagrees with the target at {pos}", None, pos
            )
    return VerificationReport(True)


class TestIntegerVerify:
    """`verify_matrices` decides in integers over one lcm; it must give the
    Fraction reference's report, field for field."""

    def rational(self, rng):
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))

    def seeded_case(self, rng, notion):
        n = rng.randint(4, 7)
        if notion == SYM:
            diag = [self.rational(rng) for _ in range(n)]
            m = SymmetricMatrix.from_function(
                n,
                lambda i, j: diag[i - 1]
                if i == j
                else (diag[i - 1] + diag[j - 1]) / 2 + rng.randint(0, 4),
            )
            dec = symmetric_upper_decomposition(m)
        else:
            m = DissimilarityMatrix.from_function(n, lambda i, j: self.rational(rng))
            build = star_upper_decomposition if notion == STAR else tree_upper_decomposition
            dec = build(m)
        return m, dec.matrices()

    def broken(self, rng, m, matrices, kind):
        """(target, summand matrices) with one defect of the given kind."""
        mats = list(matrices)
        k = rng.randrange(len(mats))
        bump = Fraction(rng.choice((-1, 1)), rng.choice((1, 2, 3, 6)))
        pos = rng.choice(m.positions())
        if kind == "wrong summand":
            # The target, off every variety here, or a bumped summand.
            mats[k] = m if rng.random() < 0.5 else _bumped(mats[k], pos, bump)
        elif kind == "wrong entry":
            m = _bumped(m, pos, bump)
        elif kind == "wrong shape":
            mats[k] = principal_submatrix(mats[k], range(1, m.n))
        elif kind == "wrong summand before a wrong shape":
            # Summands are checked in order: the first fault is reported.
            mats[0] = m
            mats.append(principal_submatrix(mats[k], range(1, m.n)))
        elif kind == "wrong space":
            other = project(m) if isinstance(m, SymmetricMatrix) and m.n >= 3 else None
            m = other or SymmetricMatrix.from_function(m.n, lambda i, j: 0)
        elif kind == "empty":
            mats = []
        return m, mats

    @pytest.mark.parametrize("notion", [SYM, STAR, TREE])
    def test_reports_match_the_fraction_reference(self, notion):
        rng = random.Random({SYM: 61, STAR: 62, TREE: 63}[notion])
        failures = set()
        for _ in range(12):
            m, matrices = self.seeded_case(rng, notion)
            assert verify_matrices(m, matrices, notion) == VerificationReport(True)
            assert reference_verify(m, matrices, notion) == VerificationReport(True)
            for kind in (
                "wrong summand",
                "wrong entry",
                "wrong shape",
                "wrong summand before a wrong shape",
                "wrong space",
                "empty",
            ):
                target, mats = self.broken(rng, m, matrices, kind)
                report = verify_matrices(target, mats, notion)
                assert report == reference_verify(target, mats, notion)
                if not report:
                    failures.add(report.failure.split(" at ")[0])
        assert failures == {
            "summand fails its membership test",
            "tropical sum disagrees with the target",
            "summand has mismatched shape",
            "matrix lives in the wrong space",
            "empty decomposition",
        }


def _bumped(m, pos, bump):
    return type(m).from_function(m.n, lambda i, j: m[(i, j)] + (bump if (i, j) == pos else 0))


class TestBlockMatrix:
    def test_single_copy_is_identity(self):
        m = tr6_matrix()
        assert block_matrix(m, 1) == m

    def test_two_copies_layout(self):
        m2 = tr6_blocks(2)
        m = tr6_matrix()
        assert m2.n == 18
        assert m2[(1, 2)] == m[(1, 2)]
        assert m2[(10, 11)] == m[(1, 2)]
        assert m2[(1, 10)] == 10

    def test_two_copies_chromatic_bound(self):
        m2 = tr6_blocks(2)
        h = build_deficiency(m2, PLUECKER)
        within = [p for p in m2.positions() if (p[0] <= 9) == (p[1] <= 9)]
        assert chromatic_number(h.induced(within)) == 12


class TestSolverStress:
    def test_six_by_six_tree_rank_with_certificates(self, rng):
        # No closed form exists at n = 6; the solver must still verify and
        # stay consistent with its own chromatic bound.
        for _ in range(25):
            m = random_dissimilarity(rng, 6)
            result = exact_rank(m, TREE)
            assert verify(m, result.decomposition)
            assert result.chromatic_bound <= result.value <= 3

    def test_rational_and_negative_entries(self, rng):
        for _ in range(25):
            m = DissimilarityMatrix.from_function(
                5, lambda i, j: frac(rng.randint(-12, 12)) / rng.randint(1, 3)
            )
            result = exact_rank(m, STAR)
            assert verify(m, result.decomposition)
            result = exact_rank(m, TREE)
            assert verify(m, result.decomposition)

    def test_seven_point_symmetric_scale(self, rng):
        for _ in range(4):
            m = random_finite_symmetric(rng, 7)
            result = exact_rank(m, SYM)
            assert verify(m, result.decomposition)
            assert result.chromatic_bound <= result.value


class TestQuartetPruning:
    def test_split_codes_match_the_four_point_condition(self):
        # Negative internal edges make each quartet's split pairing the
        # unique largest pairing sum.
        n = 6
        topologies = _binary_topologies(n)
        assert len(topologies) == 105
        for topology in topologies:
            weights = [Fraction(-1) if u > n else Fraction(3) for u, _ in topology.edges]
            d = topology.build_tree(n, weights).leaf_distance_matrix()
            for pairings, code in zip(quartets(n), topology.splits):
                sums = [d[a] + d[b] for a, b in pairings]
                assert sums[code] > max(s for k, s in enumerate(sums) if k != code)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_mask_selection_matches_the_split_scan(self, n):
        # The bitmask AND picks the shapes the per-shape scan
        # `all(t.splits[q] == c ...)` picks, in the same order.
        rng = random.Random(8000 + n)
        topologies = _binary_topologies(n)
        seen = set()
        for _ in range(40):
            m = DissimilarityMatrix.from_function(
                n, lambda i, j: Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))
            )
            _, values = m.scaled_to_integers()
            index = {p: k for k, p in enumerate(m.positions())}
            for size in range(2, 2 * n):
                slot = sum(1 << index[p] for p in rng.sample(m.positions(), size))
                forced = _forced_splits(_pairing_sums(n, values, index), slot)
                scan = [t for t in topologies if all(t.splits[q] == c for q, c in forced)]
                assert list(_candidate_topologies(n, forced)) == scan
                seen.add("none" if not scan else "some" if forced else "all")
        assert seen == {"none", "some", "all"}

    @pytest.mark.parametrize("n, matrices, slots", [(5, 10, 10), (6, 4, 8)])
    def test_rejected_topologies_are_lp_infeasible(self, n, matrices, slots):
        rng = random.Random(7000 + n)
        topologies = _binary_topologies(n)
        rejected = forced_witnesses = 0
        for _ in range(matrices):
            m = DissimilarityMatrix.from_function(
                n, lambda i, j: Fraction(rng.randint(0, 8), rng.choice((1, 2, 3)))
            )
            searcher = _AssignmentSearcher(m, TREE, build_deficiency(m, PLUECKER))
            for _ in range(slots):
                cls = frozenset(rng.sample(m.positions(), rng.randint(2, n + 1)))
                slot = sum(1 << searcher.index[p] for p in cls)
                forced = _forced_splits(searcher.pairing_sums, slot)
                trees = [searcher._solve_topology(t, slot) for t in topologies]
                for topology, tree in zip(topologies, trees):
                    if any(topology.splits[q] != c for q, c in forced):
                        assert tree is None
                        rejected += 1
                # Filter-then-LP finds the witness an LP over every topology finds.
                unpruned = searcher._sum_witness(slot) or next(
                    (t for t in trees if t is not None), None
                )
                assert searcher._tree_witness(slot) == unpruned
                forced_witnesses += bool(forced) and unpruned is not None
        assert rejected > 100 and forced_witnesses > 0

    def test_the_search_never_forces_two_codes_on_one_quartet(self, monkeypatch):
        # A pairing with a sum strictly below its quartet's two others is a
        # deficiency edge, so the search never puts both of its positions
        # into one slot, and at most one code per quartet is forced.
        import troprank.rank as rank_module

        forced_splits = rank_module._forced_splits
        results = []

        def recording(pairing_sums, slot):
            results.append(forced_splits(pairing_sums, slot))
            return results[-1]

        monkeypatch.setattr(rank_module, "_forced_splits", recording)
        rng = random.Random(15)
        for n, count in ((5, 40), (6, 20), (7, 10)):
            for _ in range(count):
                m = DissimilarityMatrix.from_function(
                    n, lambda i, j: Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))
                )
                exact_rank(m, TREE)
        for forced in results:
            assert isinstance(forced, list)
            quartets_seen = [q for q, _ in forced]
            assert len(set(quartets_seen)) == len(quartets_seen)
        assert len(results) >= 50


class TestUpperSize:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_construction_has_the_size_of_n(self, n):
        rng = random.Random(900 + n)
        m = random_finite_symmetric(rng, n)
        assert len(_upper_for_search(m, SYM)) == upper_size(SYM, n)
        if n >= 3:
            d = random_dissimilarity(rng, n, 0, 6)
            assert len(_upper_for_search(d, STAR)) == upper_size(STAR, n)
            assert len(_upper_for_search(d, TREE)) == upper_size(TREE, n)

    def test_size_mismatch_raises(self, monkeypatch):
        # A raise, not an assert, so the check also runs under python -O.
        import troprank.upper as upper_module

        monkeypatch.setattr(upper_module, "upper_size", lambda notion, n: n)
        m = random_dissimilarity(random.Random(3), 5, 0, 6)
        with pytest.raises(CertificateError):
            _upper_for_search(m, STAR)

    def test_search_below_the_size_skips_the_construction(self, monkeypatch):
        import troprank.rank as rank_module

        def refuse(m, notion):
            raise AssertionError("constructed an upper bound the search beat")

        m = random_dissimilarity(random.Random(2), 7, 0, 3)
        expected = exact_rank(m, TREE)
        assert expected.value < upper_size(TREE, 7)
        monkeypatch.setattr(rank_module, "_upper_for_search", refuse)
        assert exact_rank(m, TREE).to_json_dict() == expected.to_json_dict()

    def test_bounds_certify_rank_one(self):
        # r = 1 is the membership test at every budget: `bounds` and an
        # `exact` budget of 0 answer rank one alike.
        cases = [
            (SYM, rank_one_symmetric([1, frac("1/2"), 3, 0])),
            (STAR, project(rank_one_symmetric([2, 0, 5, 1, 4, 3]))),
            (TREE, generate("min", 6)),
        ]
        for notion, m in cases:
            result = compute_rank(m, notion, "bounds")
            assert (result.status, result.value, len(result.decomposition)) == ("finite", 1, 1)
            assert verify(m, result.decomposition)
            assert compute_rank(m, notion, "exact", 0).to_json_dict() == result.to_json_dict()


class TestCertificateChecks:
    def test_frame_search_fault_raises(self):
        # No frame satisfies M_xy >= M_yz under an order that is never
        # reflexive, which no real matrix has: exit 5, also under -O.
        from troprank.upper import _sym_frame3

        class Unordered:
            def __ge__(self, other):
                return False

        class Entries:
            def __getitem__(self, pos):
                return Unordered()

        with pytest.raises(CertificateError, match="three-element frame"):
            _sym_frame3(Entries(), (1, 2, 3), False)

    def test_failed_search_verification_raises(self, monkeypatch):
        # A raise, not an assert, so the check also runs under python -O.
        import troprank.rank as rank_module

        build = rank_module._decomposition_from_witnesses

        def drop_last(m, notion, witnesses):
            dec = build(m, notion, witnesses)
            return Decomposition(dec.notion, dec.summands[:-1])

        monkeypatch.setattr(rank_module, "_decomposition_from_witnesses", drop_last)
        m = random_dissimilarity(random.Random(2), 7, 0, 3)
        with pytest.raises(CertificateError):
            exact_rank(m, TREE)


class TestRankInterval:
    # An empty interval, and a chromatic bound above the upper end.  A
    # raise, not an assert, so the check also runs under python -O.
    @pytest.mark.parametrize("lower, upper, chi", [(3, 2, 2), (2, 2, 3)])
    def test_contradictory_bounds_raise(self, lower, upper, chi):
        with pytest.raises(CertificateError):
            RankResult(TREE, lower, upper, chi, {"type": "chromatic", "value": chi})

    def test_chromatic_bound_past_the_construction_raises(self, monkeypatch, tmp_path, capsys):
        # A chromatic bound above the construction contradicts it: the
        # solver raises (exit 5) instead of reporting the construction's
        # size as the rank beside a larger chromatic certificate.
        import troprank.rank as rank_module

        chromatic = rank_module._chromatic

        def inflated(m, notion):
            hypergraph, _ = chromatic(m, notion)
            return hypergraph, upper_size(notion, m.n) + 1

        m = random_dissimilarity(random.Random(5), 6, 0, 9)
        path = tmp_path / "m.diss"
        path.write_text(serialize_matrix(m))
        monkeypatch.setattr(rank_module, "_chromatic", inflated)
        with pytest.raises(CertificateError):
            exact_rank(m, TREE)
        assert main(["rank", str(path), "--notion", "tree"]) == 5
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "notion, m, expected",
        [
            (STAR, generate("min", 5), ("finite", 3, 3, 3, True)),
            (
                SYM,
                SymmetricMatrix.from_rows([[0, -1, 0], [-1, 0, 0], [0, 0, 0]]),
                ("infinite", math.inf, math.inf, math.inf, True),
            ),
            (TREE, random_dissimilarity(random.Random(13), 6, 0, 9), ("interval", None, 2, 3, None)),
        ],
        ids=["finite", "infinite", "interval"],
    )
    def test_status_and_rank_derive_from_the_ends(self, notion, m, expected):
        result = compute_rank(m, notion, "bounds")
        derived = (result.status, result.value, result.lower, result.upper)
        assert (*derived, result.chromatic_equals_rank) == expected
