"""Exact rational linear algebra: rank, linear feasibility via equality
elimination plus Fourier-Motzkin, and a two-variable-per-inequality solver.

No tolerances anywhere.  Linear feasibility scales each rational row to
integers and eliminates fraction-free (each combination divided by its
gcd), so its inner loops run on ints and only the returned point is
Fraction.  The two-variable solver takes integer constants only (callers
scale the matrix with `scaled_to_integers`) and returns its model times
two, all ints.  Sizes are tiny (at most a few dozen variables), so
clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix over the rationals by Gaussian elimination."""
    work = [list(map(Fraction, row)) for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] / pv
                for c in range(col, ncols):
                    work[r][c] -= factor * work[rank][c]
        rank += 1
        if rank == len(work):
            break
    return rank


def _integer_row(coeffs: Sequence, const) -> list[int]:
    """[a_1, ..., a_n, c] for the row sum(a*x) >= c (or = c), times the
    least positive integer that clears its denominators."""
    values = [*coeffs, const]
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    """The row divided by the gcd of its entries, which keeps its sign."""
    g = gcd(*row)
    return tuple(v // g for v in row) if g > 1 else tuple(row)


def _eliminate(target: Sequence[int], source: Sequence[int], var: int) -> tuple[int, ...]:
    """source[var] * target - target[var] * source: zero in column `var`.

    The caller keeps source[var] > 0, so an inequality target keeps its
    direction.
    """
    s, t = source[var], target[var]
    return _primitive([s * a - t * b for a, b in zip(target, source)])


def solve_linear_feasibility(
    nvars: int,
    equalities: Sequence[tuple[Sequence[Fraction], Fraction]],
    inequalities: Sequence[tuple[Sequence[Fraction], Fraction]],
) -> Optional[list[Fraction]]:
    """A point satisfying sum(a*x) = c and sum(a*x) >= c systems, or None.

    Equalities are removed by Gaussian pivoting (first nonzero column of
    each reduced equality, kept in reduced row echelon form); the remaining
    free system goes through Fourier-Motzkin with back-substitution to
    recover a point.  Every row is scaled to integers on entry and every
    elimination step is a fraction-free combination divided by its gcd, so
    the kernel runs on ints; only the point it returns is built as Fraction.
    """
    # pivots[k] = (var, row): row says sum(row[:-1] * x) = row[-1], with
    # row[var] > 0 and a zero in every other pivot's column.
    pivots: list[tuple[int, tuple[int, ...]]] = []
    for coeffs, const in equalities:
        row = _primitive(_integer_row(coeffs, const))
        for var, pivot_row in pivots:
            if row[var]:
                row = _eliminate(row, pivot_row, var)
        pivot = next((k for k in range(nvars) if row[k]), None)
        if pivot is None:
            if row[-1]:
                return None
            continue
        if row[pivot] < 0:
            row = tuple(-v for v in row)
        pivots = [
            (var, _eliminate(old, row, pivot) if old[pivot] else old) for var, old in pivots
        ]
        pivots.append((pivot, row))

    pivot_vars = {var for var, _ in pivots}
    free_vars = [k for k in range(nvars) if k not in pivot_vars]

    reduced: set[tuple[int, ...]] = set()
    for coeffs, const in inequalities:
        row = _integer_row(coeffs, const)
        for var, pivot_row in pivots:
            if row[var]:
                row = _eliminate(row, pivot_row, var)
        free_row = [row[v] for v in free_vars]
        if not any(free_row):
            if row[-1] > 0:
                return None
            continue
        free_row.append(row[-1])
        reduced.add(_primitive(free_row))

    solved = _fourier_motzkin_point(len(free_vars), list(reduced))
    if solved is None:
        return None
    numerators, denominator = solved

    values: list[Fraction] = [Fraction(0)] * nvars
    free_numerators = [0] * nvars
    for var, num in zip(free_vars, numerators):
        values[var] = Fraction(num, denominator)
        free_numerators[var] = num
    for var, row in pivots:
        rest = sum(a * p for a, p in zip(row, free_numerators) if a)
        values[var] = Fraction(row[-1] * denominator - rest, row[var] * denominator)
    return values


def _fourier_motzkin_point(
    nvars: int, ineqs: list[tuple[int, ...]]
) -> Optional[tuple[list[int], int]]:
    """Point satisfying sum(a*x) >= c constraints, by variable elimination.

    Rows are integer tuples (a_1, ..., a_n, c).  The point comes back as
    integer numerators over one positive common denominator.  The last
    variable is eliminated first and set to its largest lower bound (else
    its smallest upper bound, else 0) once the others are fixed.
    """
    if nvars == 0:
        return ([], 1) if all(row[-1] <= 0 for row in ineqs) else None
    var = nvars - 1
    lowers = []  # a > 0: x_var >= (c - head . x) / a
    uppers = []  # a < 0: x_var <= (c - head . x) / a
    rest: set[tuple[int, ...]] = set()
    for row in ineqs:
        a = row[var]
        if a == 0:
            rest.add(row[:var] + row[-1:])
        elif a > 0:
            lowers.append(row)
        else:
            uppers.append(row)
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
            rest.add(_primitive(combined))
    solved = _fourier_motzkin_point(var, list(rest))
    if solved is None:
        return None
    point, denominator = solved

    def bound(row: tuple[int, ...]) -> tuple[int, int]:
        # (c - head . x) / a at x = point / denominator, as (num, den > 0).
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
