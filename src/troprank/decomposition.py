"""Rank decompositions and their exact verification.

A decomposition is a list of witness matrices, each generated by a row
vector (rank-one / star summands) or a weighted tree.  Verification is the
whole point of the constructions elsewhere: every summand must pass its
membership test and the tropical sum must equal the target entry for
entry.  `certify` and `verified_padded` are the two ways the constructions
use it; both raise, so the checks also run under `python -O`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence, Union

from .core import (
    DissimilarityMatrix,
    Matrix,
    Position,
    SymmetricMatrix,
    as_vector,
    rank_one_doubled,
    rank_one_symmetric,
    star_doubled,
    star_matrix,
)
from .trees import WeightedTree, _violation

SYM = "sym"
STAR = "star"
TREE = "tree"
NOTIONS = (SYM, STAR, TREE)

KIND_RANK1 = "rank1-symmetric"
KIND_STAR = "star"
KIND_TREE = "tree"

PADDING_RETRIES = 40


class ConstructionError(RuntimeError):
    """A padded construction failed verification at every retry scale."""


class CertificateError(RuntimeError):
    """A computed answer failed the check that certifies it."""


@dataclass(frozen=True)
class Summand:
    kind: str
    matrix: Matrix
    generator: Union[tuple[Fraction, ...], WeightedTree]

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "matrix": rows_json(self.matrix)}
        if isinstance(self.generator, WeightedTree):
            out["newick"] = self.generator.to_newick()
        else:
            out["generator"] = [str(x) for x in self.generator]
        return out


@dataclass(frozen=True)
class Decomposition:
    notion: str
    summands: tuple[Summand, ...]

    def __len__(self) -> int:
        return len(self.summands)

    def matrices(self) -> list[Matrix]:
        return [s.matrix for s in self.summands]

    def to_json_dict(self) -> dict:
        return {
            "notion": self.notion,
            "size": len(self.summands),
            "summands": [s.to_json_dict() for s in self.summands],
        }


def rows_json(m: Matrix) -> list[list[Optional[str]]]:
    """The rows of m as JSON: entries as strings, None off the space."""
    return [[None if x is None else str(x) for x in row] for row in m.to_rows()]


def rank1_summand(v: Sequence) -> Summand:
    return Summand(KIND_RANK1, rank_one_symmetric(v), as_vector(v))


def star_summand(v: Sequence) -> Summand:
    return Summand(KIND_STAR, star_matrix(v), as_vector(v))


def tree_summand(tree: WeightedTree) -> Summand:
    return Summand(KIND_TREE, tree.leaf_distance_matrix(), tree)


def _member(notion: str, n: int, values: dict[Position, int]) -> bool:
    """The notion's integer membership kernel on entries keyed by position."""
    if notion == TREE:
        return _violation(n, values) is None
    return (rank_one_doubled if notion == SYM else star_doubled)(n, values) is not None


def space_for(notion: str):
    return SymmetricMatrix if notion == SYM else DissimilarityMatrix


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failure: Optional[str] = None
    summand_index: Optional[int] = None
    position: Optional[Position] = None

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        out: dict = {"ok": self.ok}
        if not self.ok:
            out["failure"] = self.failure
            if self.summand_index is not None:
                out["summand"] = self.summand_index + 1
            if self.position is not None:
                out["position"] = list(self.position)
        return out


def verify_matrices(m: Matrix, matrices: Sequence[Matrix], notion: str) -> VerificationReport:
    """Membership of every summand matrix plus exact tropical-sum equality.

    Decided in integers: the target and the summands are multiplied by one
    lcm of all their denominators (membership, minima and equality are
    invariant under positive scaling).  Summands are checked in order, each
    for its shape, then its membership, and then the sum position by
    position.
    """
    if notion not in NOTIONS:
        raise ValueError(f"unknown rank notion {notion!r}; expected one of {NOTIONS}")
    if not isinstance(m, space_for(notion)):
        return VerificationReport(False, "matrix lives in the wrong space")
    if not matrices:
        return VerificationReport(False, "empty decomposition")
    shaped = next(
        (idx for idx, s in enumerate(matrices) if type(s) is not type(m) or s.n != m.n),
        len(matrices),
    )
    scale = lcm(*(v.denominator for x in (m, *matrices[:shaped]) for v in x.values))
    positions = m.positions()
    target, *summands = (
        [v.numerator * (scale // v.denominator) for v in x.values]
        for x in (m, *matrices[:shaped])
    )
    for idx, values in enumerate(summands):
        if not _member(notion, m.n, dict(zip(positions, values))):
            return VerificationReport(False, "summand fails its membership test", idx)
    if shaped < len(matrices):
        return VerificationReport(False, "summand has mismatched shape", shaped)
    for pos, total, want in zip(positions, map(min, zip(*summands)), target):
        if total != want:
            return VerificationReport(
                False,
                f"tropical sum disagrees with the target at {pos}",
                None,
                pos,
            )
    return VerificationReport(True)


def verify(m: Matrix, decomposition: Decomposition) -> VerificationReport:
    """Membership of every summand plus exact tropical-sum equality."""
    return verify_matrices(m, decomposition.matrices(), decomposition.notion)


def certify(m: Matrix, decomposition: Decomposition) -> Decomposition:
    """The decomposition itself once `verify` accepts it; else CertificateError."""
    report = verify(m, decomposition)
    if not report:
        raise CertificateError(f"decomposition fails verification: {report.failure}")
    return decomposition


def verified_padded(
    m: Matrix, build: Callable[[Fraction], Decomposition], c: Fraction
) -> Decomposition:
    """The first of build(c), build(2c), build(4c), ... that verifies.

    Constructions that need a "sufficiently large" padding constant turn
    the existence argument behind them into an algorithm this way.
    """
    for _ in range(PADDING_RETRIES):
        dec = build(c)
        if verify(m, dec):
            return dec
        c *= 2
    raise ConstructionError("construction kept failing as the padding constant grew")
