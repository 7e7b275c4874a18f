"""Exact rational linear algebra: rank, linear feasibility via equality
elimination plus Fourier-Motzkin, and a two-variable-per-inequality solver.

No tolerances anywhere.

`solve_linear_feasibility` returns a point fixed by the polyhedron P its
rows define and by the span of its equalities, not by how the rows are
written.  The pivot variables are the leading columns of that span; the
others, the free variables, parametrize P.  Going through the free
variables in index order, each is set to its minimum over the points of P
that agree on the earlier ones, if that is bounded below, else to its
maximum, if bounded above, else to 0; the equalities then fix the pivot
variables.  Fourier-Motzkin computes exactly these projections of P, so a
row that P does not need changes nothing: of rows whose heads are positive
multiples of each other, each eliminated system keeps only the one with
the largest bound.

`rational_rank` counts the pivots of the same fraction-free elimination
(`_echelon`) that removes those equalities.

Rows of ints enter the kernel as they are and rational rows are scaled to
integers; every elimination step is a fraction-free integer combination,
so the point is built from integer numerators over one common denominator
and only the returned point is Fraction.  The two-variable solver takes
integer constants only (callers scale the matrix with `scaled_to_integers`)
and returns its model times two, all ints.  Sizes are tiny (at most a few
dozen variables), so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix over the rationals: the pivots of `_echelon`."""
    return len(_echelon(len(rows[0]) if rows else 0, [(row, 0) for row in rows]))


def _integer_row(coeffs: Sequence, const) -> tuple[int, ...]:
    """(a_1, ..., a_n, c) for the row sum(a*x) >= c (or = c) in integers:
    the row itself when every entry is an int, else the row times the
    least positive integer that clears its denominators."""
    values = (*coeffs, const)
    if {*map(type, values)} == {int}:
        return values
    scale = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values)


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    """The row divided by the gcd of its entries, which keeps its sign."""
    g = gcd(*row)
    return tuple(v // g for v in row) if g > 1 else tuple(row)


def _echelon(
    nvars: int, equalities: Sequence[tuple[Sequence, object]]
) -> Optional[list[tuple[int, tuple[int, ...]]]]:
    """Fraction-free elimination of sum(a*x) = c rows to reduced echelon
    form, or None when they are inconsistent.

    Returns pivots[k] = (var, row): row says sum(row[:-1] * x) = row[-1],
    in primitive integers, with row[var] > 0 and a zero in the column of
    every other pivot; var is the first nonzero column of the row.  Such a
    row is unique, whatever the order and scaling of the equalities.
    """
    pivots: list[tuple[int, tuple[int, ...]]] = []
    for coeffs, const in equalities:
        row = _integer_row(coeffs, const)
        for var, pivot_row in pivots:
            if row[var]:
                row = _cleared(row, pivot_row, var)
        row = _primitive(row)
        pivot = next((k for k in range(nvars) if row[k]), None)
        if pivot is None:
            if row[-1]:
                return None
            continue
        if row[pivot] < 0:
            row = tuple(-v for v in row)
        pivots = [(v, _primitive(_cleared(r, row, pivot)) if r[pivot] else r) for v, r in pivots]
        pivots.append((pivot, row))
    return pivots


def _cleared(row: Sequence[int], pivot_row: Sequence[int], var: int) -> list[int]:
    """pivot_row[var] * row - row[var] * pivot_row: zero in column var."""
    s, t = pivot_row[var], row[var]
    return [s * a - t * b for a, b in zip(row, pivot_row)]


def solve_linear_feasibility(
    nvars: int,
    equalities: Sequence[tuple[Sequence, object]],
    inequalities: Sequence[tuple[Sequence, object]],
) -> Optional[list[Fraction]]:
    """A point satisfying sum(a*x) = c and sum(a*x) >= c systems, or None.

    The point is the one the module docstring defines.  Equalities are
    removed by `_echelon`; the free system goes through Fourier-Motzkin.
    """
    pivots = _echelon(nvars, equalities)
    if pivots is None:
        return None
    pivot_vars = {var for var, _ in pivots}
    free_vars = [k for k in range(nvars) if k not in pivot_vars]
    # A pivot row reads row[var] * x_var + row[free] . x_free = row[-1].  Over
    # one multiplier `scale`: scale * x_var = expr[-1] - expr[:-1] . x_free.
    scale = lcm(*(row[var] for var, row in pivots))
    exprs = [(var, [scale // row[var] * row[k] for k in (*free_vars, -1)]) for var, row in pivots]

    reduced = []
    for coeffs, const in inequalities:
        row = _integer_row(coeffs, const)
        # scale * row with each pivot variable substituted.
        free_row = [scale * row[f] for f in free_vars] + [scale * row[-1]]
        for var, expr in exprs:
            a = row[var]
            if a:
                free_row = [v - a * e for v, e in zip(free_row, expr)]
        if not any(free_row[:-1]):
            if free_row[-1] > 0:
                return None
            continue
        reduced.append(_primitive(free_row))

    solved = _fourier_motzkin_point(len(free_vars), reduced)
    if solved is None:
        return None
    free_numerators, denominator = solved

    # Every coordinate as an integer numerator over common = denominator * scale.
    common = denominator * scale
    numerators = [0] * nvars
    for var, num in zip(free_vars, free_numerators):
        numerators[var] = num * scale
    for var, expr in exprs:
        numerators[var] = expr[-1] * denominator - sum(
            e * num for e, num in zip(expr, free_numerators) if e
        )
    return [Fraction(num, common) for num in numerators]


def _tightest(rows: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """One row per direction: of rows whose heads are positive multiples of
    each other, the one with the largest bound c / gcd(head) implies the
    rest, so only it is kept.  The polyhedron does not change."""
    best: dict[tuple[int, ...], tuple[int, int, tuple[int, ...]]] = {}
    for row in rows:
        head = row[:-1]
        g = gcd(*head)
        direction = tuple(a // g for a in head) if g > 1 else head
        kept = best.get(direction)
        if kept is None or row[-1] * kept[1] > kept[0] * g:
            best[direction] = (row[-1], g, row)
    return [row for _, _, row in best.values()]


def _fourier_motzkin_point(
    nvars: int, ineqs: Sequence[tuple[int, ...]]
) -> Optional[tuple[list[int], int]]:
    """Point satisfying sum(a*x) >= c constraints, by variable elimination.

    Rows are integer tuples (a_1, ..., a_n, c), each with a nonzero head.
    The point comes back as integer numerators over one positive common
    denominator.  The last variable is eliminated first; once the others
    are fixed it is set to its largest lower bound (else its smallest
    upper bound, else 0).  Each system keeps one row per direction
    (`_tightest`) before its variable is eliminated.
    """
    if nvars == 0:
        return ([], 1) if all(row[-1] <= 0 for row in ineqs) else None
    ineqs = _tightest(ineqs)
    var = nvars - 1
    lowers = []  # a > 0: x_var >= (c - head . x) / a
    uppers = []  # a < 0: x_var <= (c - head . x) / a
    rest = []
    for row in ineqs:
        a = row[var]
        if a > 0:
            lowers.append(row)
        elif a:
            uppers.append(row)
        else:
            rest.append(row[:var] + (row[-1],))
    for lo in lowers:
        a_lo = lo[var]
        for up in uppers:
            a_up = -up[var]
            # a_lo * up + a_up * lo cancels x_var: lower bound <= upper bound.
            combined = [a_lo * u + a_up * l for l, u in zip(lo, up)]
            del combined[var]
            if not any(combined[:-1]):
                if combined[-1] > 0:
                    return None
                continue
            rest.append(_primitive(combined))
    solved = _fourier_motzkin_point(var, rest)
    if solved is None:
        return None
    point, denominator = solved

    def bound(row: tuple[int, ...]) -> tuple[int, int]:
        # (c - head . x) / a at x = point / denominator, as (num, den > 0);
        # map stops at the end of point, before x_var.
        num = row[-1] * denominator - sum(map(mul, row, point))
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


class TwoVarSystem:
    """Constraints x_i + x_j >= c and x_i + x_j <= c (2 x_i for i == j) with
    integer constants, solved exactly by negative-cycle detection.

    Nodes 2i and 2i+1 stand for +x_i and -x_i; an edge p -> q of weight w
    encodes phi(q) <= phi(p) + w for the potential phi(+x) = x.  A model is
    read off Bellman-Ford distances as x_i = (d(+x_i) - d(-x_i)) / 2.
    `edges` seeds the system with the edges of another one.
    """

    def __init__(self, nvars: int, edges: Sequence[tuple[int, int, int]] = ()):
        self.nvars = nvars
        self.edges: list[tuple[int, int, int]] = list(edges)

    def add_sum_ge(self, i: int, j: int, c: int) -> None:
        self.edges.append((2 * i, 2 * j + 1, -c))
        if i != j:
            self.edges.append((2 * j, 2 * i + 1, -c))

    def add_sum_le(self, i: int, j: int, c: int) -> None:
        self.edges.append((2 * i + 1, 2 * j, c))
        if i != j:
            self.edges.append((2 * j + 1, 2 * i, c))

    def solve(self) -> Optional[list[int]]:
        """A model times two, [2 x_0, ..., 2 x_{n-1}], or None when a
        negative cycle exists."""
        edges = self.edges
        node_count = 2 * self.nvars
        dist = [0] * node_count
        for sweep in range(node_count):
            changed = False
            for p, q, w in edges:
                cand = dist[p] + w
                if cand < dist[q]:
                    dist[q] = cand
                    changed = True
            if not changed:
                break
        else:
            for p, q, w in edges:
                if dist[p] + w < dist[q]:
                    return None
        return [dist[2 * i] - dist[2 * i + 1] for i in range(self.nvars)]
