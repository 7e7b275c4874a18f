"""Min-plus primitives: exact scalars, the two matrix spaces, rank-one
generators, the diagonal-dropping projection, and block extensions.

Entries are exact rationals (``fractions.Fraction``), so every tie in a
minimum is decidable and all membership/decomposition checks below reduce
to exact equality.  Matrices are immutable; one value is stored per
unordered index pair.  Indices are 1-based in the public API.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

# The rank of a symmetric matrix that no rank-one sum reaches, and the
# chromatic number of a deficiency graph with a loop.
INFINITE = math.inf


def frac(value) -> Fraction:
    """Coerce an int, string ("7", "-3/4") or Fraction to an exact rational.

    Floats are rejected: rounding would make min-ties undecidable.  So are
    bools, which are ints to Python but no entry a matrix file means.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_decimal_or_ratio(q: Fraction) -> str:
    """Decimal string when the expansion terminates, else "p/q".

    Used for Newick branch lengths, where fractional notation is unusual
    but exactness must be preserved.
    """
    den = q.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return str(q)
    digits = max(twos, fives)
    if digits == 0:
        return str(q.numerator)
    scaled = q * 10**digits
    sign = "-" if scaled < 0 else ""
    text = str(abs(int(scaled))).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


Position = tuple[int, int]


def sorted_pair(i: int, j: int) -> Position:
    """The position {i, j} as the pair (min, max)."""
    return (i, j) if i <= j else (j, i)


def symmetric_positions(n: int) -> list[Position]:
    """All unordered pairs {i, j} with i <= j (diagonal included)."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def offdiag_positions(n: int) -> list[Position]:
    """All unordered pairs {i, j} with i < j."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


Pairing = tuple[Position, Position]
Quartet = tuple[Pairing, Pairing, Pairing]


@lru_cache(maxsize=None)
def quartets(n: int) -> tuple[Quartet, ...]:
    """The three pairings (ij|kl, ik|jl, il|jk) of each i < j < k < l.

    The quartets come in `itertools.combinations` order, and a pairing's
    index in its quartet is its split code.  Every quadruple loop of the
    package (the star tree and Pluecker bases, the four-point test, the
    tree-slot split codes) reads this one table.
    """
    return tuple(
        (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))
        for i, j, k, l in itertools.combinations(range(1, n + 1), 4)
    )


def unique_minima(relations, values) -> Iterator[tuple[tuple, int]]:
    """(relation, k) for each relation whose smallest term is its k-th only.

    A relation is a tuple of terms, a term a pair of positions standing for
    the sum of their two entries; `values` maps positions to integers (see
    `scaled_to_integers`), so every tie is exact.  The deficiency builder
    reads every hit; the four-point test stops at the first.
    """
    for relation in relations:
        sums = [values[a] + values[b] for a, b in relation]
        low = min(sums)
        if sums.count(low) == 1:
            yield relation, sums.index(low)


def term_minimizers(terms: Sequence[tuple], values: dict[Position, int]) -> list[tuple]:
    """The terms attaining the least sum of `values` over their positions."""
    sums = [sum(values[p] for p in term) for term in terms]
    low = min(sums)
    return [term for term, total in zip(terms, sums) if total == low]


def rank_one_doubled(n: int, values: dict[Position, int]) -> Optional[list[int]]:
    """2v with m = v^T (+) v, or None when m is not rank one.

    `values` maps positions to m's entries as integers (see
    `scaled_to_integers`).  The generator is forced, 2 v_i = m_ii, so m is
    rank one exactly when every 2 m_ij equals m_ii + m_jj.
    """
    return _if_generated([values[i, i] for i in range(1, n + 1)], values)


def star_doubled(n: int, values: dict[Position, int]) -> Optional[list[int]]:
    """2v with m the projection of v^T (+) v, or None off the star tree variety.

    2 v_1 = m_12 + m_13 - m_23 and v_j = m_1j - v_1 are forced, so every
    m_ij must equal v_i + v_j (always true for n = 3).
    """
    v1 = values[1, 2] + values[1, 3] - values[2, 3]
    return _if_generated([v1] + [2 * values[1, j] - v1 for j in range(2, n + 1)], values)


def _if_generated(doubled: list[int], values: dict[Position, int]) -> Optional[list[int]]:
    """`doubled` when 2 m_ij = doubled_i + doubled_j for all i < j, else None."""
    for i, j in itertools.combinations(range(1, len(doubled) + 1), 2):
        if 2 * values[i, j] != doubled[i - 1] + doubled[j - 1]:
            return None
    return doubled


class _PairIndexed:
    """Storage and indexing shared by the two matrix spaces.

    Each space sets `kind`, `min_n` (its smallest n) and `offset`: row i
    stores columns i + offset .. n, so 0 keeps the diagonal and 1 has none.
    Each keeps its own `_index` formula for i <= j, the hot path of `m[(i, j)]`.
    """

    __slots__ = ()

    n: int
    values: tuple[Fraction, ...]
    kind: str
    min_n: int
    offset: int

    def __post_init__(self):
        if self.n < self.min_n:
            raise ValueError(f"{self.kind} matrix needs n >= {self.min_n}")
        expected = self.n * (self.n + 1 - 2 * self.offset) // 2
        if len(self.values) != expected:
            raise ValueError(f"expected {expected} entries, got {len(self.values)}")

    def __getitem__(self, ij: Position) -> Fraction:
        i, j = ij
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"index pair ({i},{j}) out of range for n={n}")
        return self.values[self._index(i, j) if i <= j else self._index(j, i)]

    def positions(self) -> list[Position]:
        n = self.n
        return [(i, j) for i in range(1, n + 1) for j in range(i + self.offset, n + 1)]

    def items(self) -> Iterator[tuple[Position, Fraction]]:
        for pos in self.positions():
            yield pos, self[pos]

    def max_abs_entry(self) -> Fraction:
        return max((abs(v) for v in self.values), default=Fraction(0))

    def scaled_to_integers(self) -> tuple[int, dict[Position, int]]:
        """(scale, {position: entry * scale}), scale the lcm of the denominators.

        Ranks, ties and minimizers are invariant under positive scaling, so
        integer kernels work on these values and divide by `scale` on exit.
        """
        scale = math.lcm(*(v.denominator for v in self.values))
        return scale, {
            p: v.numerator * (scale // v.denominator)
            for p, v in zip(self.positions(), self.values)
        }

    @classmethod
    def from_function(cls, n: int, entry: Callable[[int, int], object]):
        vals = tuple(
            frac(entry(i, j)) for i in range(1, n + 1) for j in range(i + cls.offset, n + 1)
        )
        return cls(n, vals)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]]):
        """Rows of a square matrix; a space without a diagonal ignores its
        diagonal cells (they may be None or '*')."""
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("rows must form a square matrix")
        # The str test first: `Fraction == "*"` runs the `numbers` ABC checks.
        grid = [
            [
                None if cls.offset and (x is None or (isinstance(x, str) and x == "*")) else frac(x)
                for x in row
            ]
            for row in rows
        ]
        for i in range(n):
            for j in range(i + 1, n):
                if grid[i][j] is None or grid[j][i] is None:
                    raise ValueError(f"missing off-diagonal entry at ({i + 1},{j + 1})")
                if grid[i][j] != grid[j][i]:
                    raise ValueError(f"not symmetric at ({i + 1},{j + 1})")
        return cls.from_function(n, lambda i, j: grid[i - 1][j - 1])

    def to_rows(self) -> list[list[Optional[Fraction]]]:
        """The full square; None on the diagonal of a space without one."""
        n = self.n
        return [
            [None if i == j and self.offset else self[(i, j)] for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]


@dataclass(frozen=True)
class SymmetricMatrix(_PairIndexed):
    """An n x n symmetric matrix stored as its upper triangle (diagonal kept)."""

    n: int
    values: tuple[Fraction, ...]

    kind = "symmetric"
    min_n = 1
    offset = 0

    def _index(self, i: int, j: int) -> int:  # i <= j
        return (i - 1) * (2 * self.n - i + 2) // 2 + (j - i)


@dataclass(frozen=True)
class DissimilarityMatrix(_PairIndexed):
    """A map from unordered pairs of [n] to rationals; no diagonal exists."""

    n: int
    values: tuple[Fraction, ...]

    kind = "dissimilarity"
    min_n = 3
    offset = 1

    def _index(self, i: int, j: int) -> int:  # i <= j
        if i == j:
            raise IndexError("dissimilarity matrices have no diagonal entries")
        return (i - 1) * (2 * self.n - i) // 2 + (j - i - 1)


Matrix = Union[SymmetricMatrix, DissimilarityMatrix]


def trop_sum(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise minimum.  Both operands must live in the same space."""
    if type(a) is not type(b):
        raise TypeError("cannot mix symmetric and dissimilarity matrices")
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return type(a)(a.n, tuple(min(x, y) for x, y in zip(a.values, b.values)))


def trop_sum_all(matrices: Sequence[Matrix]) -> Matrix:
    if not matrices:
        raise ValueError("empty tropical sum has no finite value")
    out = matrices[0]
    for m in matrices[1:]:
        out = trop_sum(out, m)
    return out


def as_vector(values: Iterable[object]) -> tuple[Fraction, ...]:
    return tuple(frac(v) for v in values)


def rank_one_symmetric(v: Sequence[object]) -> SymmetricMatrix:
    """The symmetric matrix with entry {i,j} equal to v_i + v_j."""
    return _generated(SymmetricMatrix, v)


def star_matrix(v: Sequence[object]) -> DissimilarityMatrix:
    """Off-diagonal part of the rank-one matrix of v: a star tree matrix."""
    return _generated(DissimilarityMatrix, v)


def _generated(space, v: Sequence[object]) -> Matrix:
    w = as_vector(v)
    # Summed in ints: entry {i,j} is (a_i + a_j) / s, s the lcm of the denominators.
    s = math.lcm(*(x.denominator for x in w))
    a = [x.numerator * (s // x.denominator) for x in w]
    n = len(a)
    return space(
        n, tuple(Fraction(a[i] + a[j], s) for i in range(n) for j in range(i + space.offset, n))
    )


def project(m: SymmetricMatrix) -> DissimilarityMatrix:
    """Drop the diagonal.  Defined for n >= 3 (smaller spaces have no target)."""
    if not isinstance(m, SymmetricMatrix):
        raise TypeError("projection applies to symmetric matrices")
    if m.n < 3:
        raise ValueError("projection needs n >= 3")
    return DissimilarityMatrix.from_function(m.n, lambda i, j: m[(i, j)])


def rank_one_generator(m: SymmetricMatrix) -> tuple[Fraction, ...]:
    """Recover v with m = v^T (+) v, or raise ValueError.

    The generator is forced: v_i = m_ii / 2 (see `rank_one_doubled`).
    """
    return _generator(m, rank_one_doubled, "matrix is not rank one")


def star_generator(m: DissimilarityMatrix) -> tuple[Fraction, ...]:
    """Recover v with m = projection of v^T (+) v, or raise ValueError."""
    return _generator(m, star_doubled, "matrix is not a star tree matrix")


def _generator(m: Matrix, kernel, error: str) -> tuple[Fraction, ...]:
    scale, values = m.scaled_to_integers()
    doubled = kernel(m.n, values)
    if doubled is None:
        raise ValueError(error)
    return tuple(Fraction(d, 2 * scale) for d in doubled)


def _pad_value(v: Sequence[Fraction], c: Fraction) -> Fraction:
    # Weakest padding that keeps every new entry at least c: both the
    # cross terms v_i + c' and the doubled term 2c' must clear c.
    return max(c / 2, c - min(v))


def pad_generator(values: dict[int, Fraction], n: int, c) -> tuple[Fraction, ...]:
    """Complete a partial generator to length n, padding unset coordinates.

    The pad is max(c/2, c - min of the set values), so every entry of the
    resulting rank-one matrix outside the set block is >= c.
    """
    c = frac(c)
    fixed = [frac(x) for x in values.values()]
    pad = _pad_value(fixed, c) if fixed else c
    return tuple(frac(values[i]) if i in values else pad for i in range(1, n + 1))


def extend_rank_one(m: SymmetricMatrix, n: int, c) -> SymmetricMatrix:
    """Extend an m x m rank-one matrix to n x n, new entries all >= c.

    The generator gains n - m trailing copies of max(c/2, c - min_i v_i).
    """
    return _extended(m, n, c, rank_one_generator)


def extend_star_tree(m: DissimilarityMatrix, n: int, c) -> DissimilarityMatrix:
    """Star-tree analogue of extend_rank_one, acting through the projection."""
    return _extended(m, n, c, star_generator)


def _extended(m: Matrix, n: int, c, generator) -> Matrix:
    if n <= m.n:
        raise ValueError("target dimension must exceed the current one")
    v = generator(m)
    return _generated(type(m), v + (_pad_value(v, frac(c)),) * (n - m.n))


def apply_permutation(m: Matrix, perm: Sequence[int]) -> Matrix:
    """Relabel index i as perm[i-1]; entry {i,j} moves to {perm i, perm j}."""
    if sorted(perm) != list(range(1, m.n + 1)):
        raise ValueError("not a permutation of 1..n")
    inverse = [0] * m.n
    for i, image in enumerate(perm, start=1):
        inverse[image - 1] = i
    return type(m).from_function(m.n, lambda i, j: m[(inverse[i - 1], inverse[j - 1])])


def relabel_positions(positions: Iterable[Position], perm: Sequence[int]) -> frozenset[Position]:
    """The positions moved as `apply_permutation` moves entries: {i,j} to {perm i, perm j}."""
    return frozenset(sorted_pair(perm[i - 1], perm[j - 1]) for i, j in positions)


def principal_submatrix(m: Matrix, indices: Sequence[int]) -> Matrix:
    """Submatrix on the given (ordered, distinct) indices, relabelled 1..k."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValueError("indices must be distinct")
    return type(m).from_function(len(idx), lambda a, b: m[(idx[a - 1], idx[b - 1])])
