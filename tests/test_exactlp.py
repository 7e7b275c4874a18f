"""The exact feasibility layer: rational rank, Fourier-Motzkin with point
recovery, and the two-variable constraint solver.

The two solvers overlap on sum-constraint systems, so each serves as an
independent oracle for the other there.
"""

import hashlib
import json
import random
from fractions import Fraction

from troprank.exactlp import TwoVarSystem, rational_rank, solve_linear_feasibility
from troprank.rank import exact_rank

from conftest import random_dissimilarity


def check_point(point, equalities, inequalities):
    for coeffs, const in equalities:
        assert sum(c * x for c, x in zip(coeffs, point)) == const
    for coeffs, const in inequalities:
        assert sum(c * x for c, x in zip(coeffs, point)) >= const


class TestRationalRank:
    def test_known_values(self):
        assert rational_rank([[Fraction(1, 3), 1], [1, 3]]) == 1
        assert rational_rank([[2, 0, 1], [0, 5, 0], [2, 5, 1]]) == 2

    def test_random_products_have_bounded_rank(self, rng):
        for _ in range(20):
            rows, inner, cols = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 5)
            a = [[Fraction(rng.randint(-4, 4)) for _ in range(inner)] for _ in range(rows)]
            b = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(inner)]
            product = [
                [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
                for i in range(rows)
            ]
            assert rational_rank(product) <= inner


class TestLinearFeasibility:
    def test_equalities_only(self):
        point = solve_linear_feasibility(
            2, [([1, 1], Fraction(3)), ([1, -1], Fraction(1))], []
        )
        assert point == [Fraction(2), Fraction(1)]

    def test_inconsistent_equalities(self):
        assert (
            solve_linear_feasibility(
                1, [([1], Fraction(0)), ([1], Fraction(1))], []
            )
            is None
        )

    def test_box_with_cut(self):
        ineqs = [
            ([1, 0], Fraction(0)),
            ([0, 1], Fraction(0)),
            ([-1, 0], Fraction(-5)),
            ([0, -1], Fraction(-5)),
            ([1, 1], Fraction(7)),
        ]
        point = solve_linear_feasibility(2, [], ineqs)
        assert point is not None
        check_point(point, [], ineqs)

    def test_point_rule(self):
        # The last variable is eliminated first; back-substitution sets each
        # variable to its largest lower bound, else its smallest upper
        # bound, else 0.  Tree witnesses are built from this exact point.
        box = [
            ([1, 0], 0),
            ([0, 1], 0),
            ([-1, 0], -5),
            ([0, -1], -5),
            ([1, 1], 7),
        ]
        assert solve_linear_feasibility(2, [], box) == [2, 5]
        chain = [([-1, -1, 0], -4), ([0, -1, 1], -1)]
        assert solve_linear_feasibility(3, [], chain) == [0, 4, 3]
        pinned = solve_linear_feasibility(3, [([0, 2, 0], 3)], chain)
        assert pinned == [Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)]

    def test_empty_strip(self):
        ineqs = [([1, 1], Fraction(3)), ([-1, -1], Fraction(-2))]
        assert solve_linear_feasibility(2, [], ineqs) is None

    def test_random_systems_with_planted_solution(self, rng):
        for _ in range(40):
            nvars = rng.randint(1, 5)
            solution = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nvars)]
            eqs, ineqs = [], []
            for _ in range(rng.randint(1, 7)):
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(nvars)]
                value = sum(c * x for c, x in zip(coeffs, solution))
                if rng.random() < 0.4:
                    eqs.append((coeffs, value))
                else:
                    ineqs.append((coeffs, value - rng.randint(0, 3)))
            point = solve_linear_feasibility(nvars, eqs, ineqs)
            assert point is not None
            check_point(point, eqs, ineqs)

    def planted_system(self, rng, nvars):
        """Rational rows (some equalities) that a rational point satisfies."""
        solution = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(nvars)]
        eqs, ineqs = [], []
        for _ in range(rng.randint(1, 7)):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(nvars)]
            value = sum(c * x for c, x in zip(coeffs, solution))
            if rng.random() < 0.4:
                eqs.append((coeffs, value))
            else:
                ineqs.append((coeffs, value - Fraction(rng.randint(0, 5), rng.randint(1, 4))))
        return eqs, ineqs

    def test_non_integer_rows_are_met_exactly(self, rng):
        for _ in range(40):
            nvars = rng.randint(1, 5)
            eqs, ineqs = self.planted_system(rng, nvars)
            point = solve_linear_feasibility(nvars, eqs, ineqs)
            assert point is not None
            assert all(isinstance(x, Fraction) for x in point)
            check_point(point, eqs, ineqs)

    def test_scaling_the_constants_scales_the_point(self, rng):
        # The integer kernel must return the same point as exact rational
        # elimination; that point is homogeneous in the constants.
        for _ in range(40):
            nvars = rng.randint(1, 5)
            eqs, ineqs = self.planted_system(rng, nvars)
            k = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            scaled = solve_linear_feasibility(
                nvars,
                [(coeffs, k * c) for coeffs, c in eqs],
                [(coeffs, k * c) for coeffs, c in ineqs],
            )
            assert scaled == [k * x for x in solve_linear_feasibility(nvars, eqs, ineqs)]


class TestPinnedTreeDecomposition:
    def test_seeded_seven_point_tree_rank(self):
        # Recorded from the Fraction kernel that scanned every topology; the
        # LP points show up as the branch lengths of the Newick strings.
        m = random_dissimilarity(random.Random(2), 7, 0, 3)
        result = exact_rank(m, "tree").to_json_dict()
        assert result["rank"] == 3
        assert result["lower_certificate"] == {"type": "chromatic", "value": 3}
        assert [s["newick"] for s in result["decomposition"]["summands"]] == [
            "(2:1,3:3,(4:0,(7:2.5,(1:1,(5:1.5,6:1.5):-0.5):-0.5):-0.5):0);",
            "(2:1.5,(4:2.5,(5:2,(1:0,7:2):0):-0.5):0,(3:1,6:2):-0.5);",
            "(3:2,(4:1,(5:1,(1:1,6:2):0):-1):0,(2:0.5,7:2.5):-0.5);",
        ]
        digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
        assert digest == "b1670cdfe3b9ba0a59caeec17744c765d8c6621eef0b6f4b406d62578125a9ff"


class TestTwoVarSystem:
    def sample_system(self, rng, nvars):
        # Constants c/1 or c/2, times 2: the solver takes integers only.
        system = TwoVarSystem(nvars)
        raw = []
        for _ in range(rng.randint(1, 10)):
            i = rng.randrange(nvars)
            j = rng.randrange(nvars)
            c = int(2 * Fraction(rng.randint(-6, 6), rng.randint(1, 2)))
            kind = rng.choice(("ge", "le", "eq"))
            raw.append((kind, i, j, c))
            if kind in ("ge", "eq"):
                system.add_sum_ge(i, j, c)
            if kind in ("le", "eq"):
                system.add_sum_le(i, j, c)
        return system, raw

    def as_linear(self, raw, nvars):
        eqs, ineqs = [], []
        for kind, i, j, c in raw:
            row = [Fraction(0)] * nvars
            row[i] += 1
            row[j] += 1
            if kind == "ge":
                ineqs.append((row, c))
            elif kind == "le":
                ineqs.append(([-x for x in row], -c))
            else:
                eqs.append((row, c))
        return eqs, ineqs

    def test_models_satisfy_constraints(self, rng):
        for _ in range(60):
            nvars = rng.randint(1, 5)
            system, raw = self.sample_system(rng, nvars)
            doubled = system.solve()
            if doubled is None:
                continue
            assert all(type(x) is int for x in doubled)
            for kind, i, j, c in raw:
                total = Fraction(doubled[i] + doubled[j], 2)
                if kind == "ge":
                    assert total >= c
                elif kind == "le":
                    assert total <= c
                else:
                    assert total == c

    def test_agrees_with_fourier_motzkin(self, rng):
        feasible = infeasible = 0
        for _ in range(80):
            nvars = rng.randint(1, 4)
            system, raw = self.sample_system(rng, nvars)
            eqs, ineqs = self.as_linear(raw, nvars)
            fm = solve_linear_feasibility(nvars, eqs, ineqs)
            model = system.solve()
            assert (fm is None) == (model is None)
            feasible += model is not None
            infeasible += model is None
        assert feasible > 5 and infeasible > 5

    def test_simple_infeasible_pair(self):
        system = TwoVarSystem(2)
        system.add_sum_ge(0, 1, 10)
        system.add_sum_le(0, 1, 9)
        assert system.solve() is None
