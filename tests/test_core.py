"""Min-plus primitives: exact scalars, matrix spaces, rank-one generators,
projections, and the block-extension constructions."""

import random

import pytest

from troprank.core import (
    DissimilarityMatrix,
    SymmetricMatrix,
    apply_permutation,
    extend_rank_one,
    extend_star_tree,
    format_decimal_or_ratio,
    frac,
    principal_submatrix,
    project,
    rank_one_symmetric,
    star_matrix,
    trop_sum,
)
from troprank.matrixio import serialize_matrix
from troprank.membership import is_rank1_symmetric, is_star_tree, is_tree_matrix
from troprank.trees import extend_tree, four_point_violation

from conftest import random_rational, random_symmetric


class TestExactScalars:
    def test_reduced_canonical_form(self):
        q = frac("6/4")
        assert (q.numerator, q.denominator) == (3, 2)
        assert frac("-6/4").denominator == 2  # denominator stays positive

    def test_exact_addition_roundtrip(self):
        rng = random.Random(5)
        for _ in range(200):
            a, b = random_rational(rng), random_rational(rng)
            assert (a + b) - b == a

    def test_integers_stay_integers(self):
        m = SymmetricMatrix.from_rows([[frac(3) + frac(4), "1/3"], ["1/3", 0]])
        assert serialize_matrix(m) == "symmetric 2\n7 1/3\n1/3 0\n"

    def test_floats_rejected(self):
        # JSON true is no entry either, though Python's bool is an int.
        for value in (0.5, True):
            with pytest.raises(TypeError):
                frac(value)

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            frac("1/0")

    def test_branch_length_rendering(self):
        assert format_decimal_or_ratio(frac("1/2")) == "0.5"
        assert format_decimal_or_ratio(frac("-3/4")) == "-0.75"
        assert format_decimal_or_ratio(frac("1/3")) == "1/3"
        assert format_decimal_or_ratio(frac(7)) == "7"


class TestMatrixSpaces:
    def test_symmetric_storage_and_lookup(self):
        m = SymmetricMatrix.from_rows([[1, 2, 3], [2, 4, 5], [3, 5, 6]])
        assert m[(1, 3)] == m[(3, 1)] == 3
        assert m[(2, 2)] == 4

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            SymmetricMatrix.from_rows([[0, 1], [2, 0]])

    def test_dissimilarity_has_no_diagonal(self):
        m = DissimilarityMatrix.from_rows([[None, 1, 2], [1, None, 3], [2, 3, None]])
        with pytest.raises(IndexError):
            m[(2, 2)]
        assert len(m.positions()) == 3

    def test_dissimilarity_needs_three_points(self):
        with pytest.raises(ValueError):
            DissimilarityMatrix.from_rows([[None, 1], [1, None]])


class TestTropSum:
    def test_entrywise_minimum_and_laws(self, rng):
        a = random_symmetric(rng, 4)
        b = random_symmetric(rng, 4)
        c = random_symmetric(rng, 4)
        s = trop_sum(a, b)
        assert all(s[p] == min(a[p], b[p]) for p in a.positions())
        assert trop_sum(a, b) == trop_sum(b, a)
        assert trop_sum(trop_sum(a, b), c) == trop_sum(a, trop_sum(b, c))
        assert trop_sum(a, a) == a

    def test_domination(self, rng):
        a = random_symmetric(rng, 4)
        bumped = SymmetricMatrix.from_function(4, lambda i, j: a[(i, j)] + 1)
        assert trop_sum(a, bumped) == a

    def test_intro_star_pair_sums_to_projection(self, intro_dissimilarity):
        first = DissimilarityMatrix.from_rows(
            [["*", 1, 0, 0], [1, "*", 2, 2], [0, 2, "*", 1], [0, 2, 1, "*"]]
        )
        second = DissimilarityMatrix.from_rows(
            [["*", 1, 2, 2], [1, "*", 0, 0], [2, 0, "*", 1], [2, 0, 1, "*"]]
        )
        assert trop_sum(first, second) == intro_dissimilarity

    def test_space_and_size_mismatch(self, rng, intro_dissimilarity):
        with pytest.raises(ValueError):
            trop_sum(random_symmetric(rng, 3), random_symmetric(rng, 4))
        with pytest.raises(TypeError):
            trop_sum(random_symmetric(rng, 4), intro_dissimilarity)


class TestRankOneConstructors:
    def test_zero_vector(self):
        assert rank_one_symmetric([0, 0, 0]).values == (frac(0),) * 6

    def test_two_entry_expansion(self):
        assert rank_one_symmetric([0, 1]).to_rows() == [
            [frac(0), frac(1)],
            [frac(1), frac(2)],
        ]

    def test_entries_are_coordinate_sums_and_membership(self):
        v = (2, 3, 1)
        m = rank_one_symmetric(v)
        for i in range(1, 4):
            for j in range(i, 4):
                assert m[(i, j)] == v[i - 1] + v[j - 1]
        assert is_rank1_symmetric(m)

    def test_star_matrix_agrees_with_projection(self, rng):
        v = [random_rational(rng) for _ in range(5)]
        assert star_matrix(v) == project(rank_one_symmetric(v))


class TestProjection:
    def test_intro_example(self, intro_symmetric, intro_dissimilarity):
        assert project(intro_symmetric) == intro_dissimilarity

    def test_all_zero(self):
        m = SymmetricMatrix.from_function(4, lambda i, j: 0)
        assert project(m) == DissimilarityMatrix.from_function(4, lambda i, j: 0)

    def test_projected_rank_one_is_star_tree(self, rng):
        for _ in range(20):
            v = [random_rational(rng) for _ in range(5)]
            assert is_star_tree(project(rank_one_symmetric(v)))

    def test_too_small(self):
        with pytest.raises(ValueError):
            project(SymmetricMatrix.from_rows([[0, 1], [1, 0]]))


class TestExtensions:
    def test_rank_one_single_cell(self):
        m = SymmetricMatrix.from_rows([[0]])
        out = extend_rank_one(m, 2, 10)
        assert out.to_rows() == [[frac(0), frac(10)], [frac(10), frac(20)]]

    def test_block_preserved_and_entries_bounded(self, rng):
        for _ in range(25):
            v = [random_rational(rng) for _ in range(3)]
            m = rank_one_symmetric(v)
            c = random_rational(rng)
            out = extend_rank_one(m, 5, c)
            assert is_rank1_symmetric(out)
            assert principal_submatrix(out, (1, 2, 3)) == m
            for (i, j), value in out.items():
                if j > 3:
                    assert value >= c

    def test_rejects_non_rank_one(self, intro_symmetric):
        with pytest.raises(ValueError):
            extend_rank_one(intro_symmetric, 6, 0)

    def test_star_extension_commutes_with_projection(self, rng):
        for _ in range(10):
            v = [random_rational(rng) for _ in range(3)]
            m = rank_one_symmetric(v)
            c = random_rational(rng)
            assert extend_star_tree(project(m), 5, c) == project(extend_rank_one(m, 5, c))

    def test_star_extension_of_any_3x3(self, rng):
        block = DissimilarityMatrix.from_function(3, lambda i, j: random_rational(rng))
        out = extend_star_tree(block, 4, 100)
        assert is_star_tree(out)
        assert principal_submatrix(out, (1, 2, 3)) == block
        for (i, j), value in out.items():
            if j == 4:
                assert value >= 100

    def test_tree_extension_four_point_and_block(self, rng):
        block = DissimilarityMatrix.from_function(3, lambda i, j: rng.randint(0, 9))
        out = extend_tree(block, 4, 50)
        assert four_point_violation(out) is None
        assert principal_submatrix(out, (1, 2, 3)) == block
        for (i, j), value in out.items():
            if j == 4:
                assert value >= 50

    def test_tree_extension_low_bound_keeps_block(self, intro_dissimilarity):
        out = extend_tree(intro_dissimilarity, 6, -100)
        assert principal_submatrix(out, (1, 2, 3, 4)) == intro_dissimilarity
        assert is_tree_matrix(out)

    def test_tree_extension_rejects_non_tree(self):
        c5 = DissimilarityMatrix.from_function(
            5, lambda i, j: 0 if (j - i) % 5 in (1, 4) else 1
        )
        with pytest.raises(ValueError):
            extend_tree(c5, 6, 0)


class TestPermutations:
    def test_relabel_moves_entries(self, rng):
        m = random_symmetric(rng, 4)
        perm = (3, 1, 4, 2)
        out = apply_permutation(m, perm)
        for i, j in m.positions():
            assert out[(perm[i - 1], perm[j - 1])] == m[(i, j)]

    def test_membership_invariance(self, rng):
        v = [random_rational(rng) for _ in range(5)]
        m = project(rank_one_symmetric(v))
        perms = [(2, 1, 4, 3, 5), (5, 4, 3, 2, 1), (3, 4, 5, 1, 2)]
        for perm in perms:
            assert is_star_tree(apply_permutation(m, perm))
