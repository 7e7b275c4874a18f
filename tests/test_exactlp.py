"""The exact feasibility layer: rational rank, Fourier-Motzkin with point
recovery, and the two-variable constraint solver.

The two solvers overlap on sum-constraint systems, so each serves as an
independent oracle for the other there.  `reference_solve` is the solver
as it was before integer rows skipped the lcm pass and Fourier-Motzkin
kept one row per direction; the point is a property of the polyhedron,
so both must return the same one.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd, lcm

import troprank.rank as rank_module
from troprank.exactlp import TwoVarSystem, rational_rank, solve_linear_feasibility
from troprank.rank import exact_rank

from conftest import random_dissimilarity


def _reference_integer_row(coeffs, const):
    values = [*coeffs, const]
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _reference_primitive(row):
    g = gcd(*row)
    return tuple(v // g for v in row) if g > 1 else tuple(row)


def _reference_eliminate(target, source, var):
    s, t = source[var], target[var]
    return _reference_primitive([s * a - t * b for a, b in zip(target, source)])


def reference_solve(nvars, equalities, inequalities):
    """Every row through the lcm pass, exact duplicates dropped, no other
    row pruned; the point as Fractions."""
    pivots = []
    for coeffs, const in equalities:
        row = _reference_primitive(_reference_integer_row(coeffs, const))
        for var, pivot_row in pivots:
            if row[var]:
                row = _reference_eliminate(row, pivot_row, var)
        pivot = next((k for k in range(nvars) if row[k]), None)
        if pivot is None:
            if row[-1]:
                return None
            continue
        if row[pivot] < 0:
            row = tuple(-v for v in row)
        pivots = [
            (var, _reference_eliminate(old, row, pivot) if old[pivot] else old)
            for var, old in pivots
        ]
        pivots.append((pivot, row))
    pivot_vars = {var for var, _ in pivots}
    free_vars = [k for k in range(nvars) if k not in pivot_vars]
    reduced = set()
    for coeffs, const in inequalities:
        row = _reference_integer_row(coeffs, const)
        for var, pivot_row in pivots:
            if row[var]:
                row = _reference_eliminate(row, pivot_row, var)
        free_row = [row[v] for v in free_vars]
        if not any(free_row):
            if row[-1] > 0:
                return None
            continue
        free_row.append(row[-1])
        reduced.add(_reference_primitive(free_row))
    solved = _reference_fourier_motzkin(len(free_vars), list(reduced))
    if solved is None:
        return None
    numerators, denominator = solved
    values = [Fraction(0)] * nvars
    free_numerators = [0] * nvars
    for var, num in zip(free_vars, numerators):
        values[var] = Fraction(num, denominator)
        free_numerators[var] = num
    for var, row in pivots:
        rest = sum(a * p for a, p in zip(row, free_numerators) if a)
        values[var] = Fraction(row[-1] * denominator - rest, row[var] * denominator)
    return values


def _reference_fourier_motzkin(nvars, ineqs):
    if nvars == 0:
        return ([], 1) if all(row[-1] <= 0 for row in ineqs) else None
    var = nvars - 1
    lowers, uppers, rest = [], [], set()
    for row in ineqs:
        a = row[var]
        if a == 0:
            rest.add(row[:var] + row[-1:])
        elif a > 0:
            lowers.append(row)
        else:
            uppers.append(row)
    for lo in lowers:
        for up in uppers:
            combined = [lo[var] * u - up[var] * l for l, u in zip(lo, up)]
            del combined[var]
            if not any(combined[:-1]):
                if combined[-1] > 0:
                    return None
                continue
            rest.add(_reference_primitive(combined))
    solved = _reference_fourier_motzkin(var, list(rest))
    if solved is None:
        return None
    point, denominator = solved

    def bound(row):
        num = row[-1] * denominator - sum(a * p for a, p in zip(row, point) if a)
        den = row[var] * denominator
        return (num, den) if den > 0 else (-num, -den)

    lo = hi = None
    for row in lowers:
        num, den = bound(row)
        if lo is None or num * lo[1] > lo[0] * den:
            lo = (num, den)
    for row in uppers:
        num, den = bound(row)
        if hi is None or num * hi[1] < hi[0] * den:
            hi = (num, den)
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    num, den = lo or hi or (0, 1)
    g = gcd(num, den)
    num, den = num // g, den // g
    common = lcm(denominator, den)
    return [p * (common // denominator) for p in point] + [num * (common // den)], common


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


class TestAgainstReference:
    def system_with_parallel_rows(self, rng, nvars):
        """Random rows (int or rational) plus copies of some of them:
        exact duplicates, positive multiples with a looser or tighter
        bound, and whole-row rescalings."""
        def coeff():
            v = rng.randint(-3, 3)
            return v if rng.random() < 0.6 else Fraction(v, rng.randint(1, 4))

        eqs, ineqs = [], []
        for _ in range(rng.randint(1, nvars + 3)):
            coeffs = [coeff() for _ in range(nvars)]
            const = rng.randint(-6, 6)
            (eqs if rng.random() < 0.15 else ineqs).append((coeffs, const))
        for coeffs, const in list(ineqs):
            kind = rng.choice(("duplicate", "parallel", "scaled", "none"))
            k = rng.randint(2, 4)
            if kind == "duplicate":
                ineqs.append((list(coeffs), const))
            elif kind == "parallel":
                ineqs.append(([k * a for a in coeffs], k * const + rng.randint(-3, 3)))
            elif kind == "scaled":
                ineqs.append(([Fraction(a, k) for a in coeffs], Fraction(const, k)))
        rng.shuffle(ineqs)
        return eqs, ineqs

    def test_parallel_and_scaled_rows_give_the_reference_point(self):
        rng = random.Random(9100)
        outcomes = set()
        for _ in range(400):
            nvars = rng.randint(1, 5)
            eqs, ineqs = self.system_with_parallel_rows(rng, nvars)
            expected = reference_solve(nvars, eqs, ineqs)
            assert solve_linear_feasibility(nvars, eqs, ineqs) == expected
            outcomes.add(expected is None)
            if expected is not None:
                check_point(expected, eqs, ineqs)
        assert outcomes == {True, False}

    def test_every_tree7_search_lp_gives_the_reference_point(self, monkeypatch):
        # The ten base matrices of the tree7-search benchmark workload.
        calls = []
        solve = rank_module.solve_linear_feasibility

        def recording(nvars, eqs, ineqs):
            calls.append((nvars, eqs, ineqs))
            return solve(nvars, eqs, ineqs)

        monkeypatch.setattr(rank_module, "solve_linear_feasibility", recording)
        rng = random.Random(5)
        for _ in range(10):
            exact_rank(random_dissimilarity(rng, 7, 0, 3), "tree")
        feasible = 0
        for nvars, eqs, ineqs in calls:
            expected = reference_solve(nvars, eqs, ineqs)
            assert solve(nvars, eqs, ineqs) == expected
            feasible += expected is not None
        assert 0 < feasible < len(calls)


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
