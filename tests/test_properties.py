"""Metamorphic properties of the exact rank.

Relabelling the indices (`apply_permutation`) or shifting every entry
M_ij to M_ij + a_i + a_j moves each rank-one, star tree and tree summand
to another one of its kind, so neither changes the status, the rank or
the chromatic bound χ, under any of the three notions.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from troprank import compute_rank  # noqa: E402
from troprank.core import apply_permutation  # noqa: E402
from troprank.decomposition import NOTIONS, space_for  # noqa: E402

# Derandomized and without an example database, so every run draws the
# same examples.
EXAMPLES = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def matrices(notion):
    """Matrices of the notion's space with n up to 6 and entries 0..3."""
    space = space_for(notion)

    @st.composite
    def draw_matrix(draw):
        n = draw(st.integers(space.min_n, 6))
        return space.from_function(n, lambda i, j: draw(st.integers(0, 3)))

    return draw_matrix()


def exact_answer(m, notion):
    result = compute_rank(m, notion, "exact")
    return result.status, result.value, result.chromatic_bound


@pytest.mark.parametrize("notion", NOTIONS)
@EXAMPLES
@given(data=st.data())
def test_relabelling_keeps_the_answer(notion, data):
    m = data.draw(matrices(notion))
    perm = data.draw(st.permutations(range(1, m.n + 1)))
    assert exact_answer(apply_permutation(m, perm), notion) == exact_answer(m, notion)


@pytest.mark.parametrize("notion", NOTIONS)
@EXAMPLES
@given(data=st.data())
def test_shift_by_a_vector_keeps_the_answer(notion, data):
    m = data.draw(matrices(notion))
    a = data.draw(st.lists(st.integers(-3, 3), min_size=m.n, max_size=m.n))
    shifted = type(m).from_function(m.n, lambda i, j: m[i, j] + a[i - 1] + a[j - 1])
    assert exact_answer(shifted, notion) == exact_answer(m, notion)
