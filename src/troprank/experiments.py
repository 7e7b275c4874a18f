"""Exploratory harnesses for the open questions.  Nothing here asserts;
each run reports what it saw.

* rank7_search: hunts for 10x10 matrices whose chromatic lower bound
  reaches 7, which would settle whether the n-3 bound is tight at n=10.
* submatrix_conjecture: samples 7x7 matrices and compares "tree rank <= 2"
  with "every 6x6 principal submatrix has tree rank <= 2".
* solid_cover_weakening_flag: compares the 0/1 star tree cover answer
  with the exact solver where no solid cover exists.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .core import DissimilarityMatrix, principal_submatrix
from .covers import star_tree_rank_01
from .decomposition import STAR, TREE, rows_json
from .deficiency import build_deficiency, chromatic_number
from .membership import PLUECKER
from .rank import exact_rank


@dataclass(frozen=True)
class Rank7Candidate:
    trial: int
    chromatic_bound: int
    rows: list

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "chromatic_bound": self.chromatic_bound,
            "rows": self.rows,
        }


# rank7_search samples RANK7_N x RANK7_N matrices with entries RANK7_LOW..RANK7_HIGH.
RANK7_N, RANK7_LOW, RANK7_HIGH = 10, 0, 9


def rank7_search(trials: int, seed: int):
    """Random integer matrices whose deficiency graph needs >= 7 colors.

    Returns (candidates, best_bound_seen).  The tree rank of a candidate
    would be at least its chromatic bound; none is asserted here.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    best = 0
    candidates = []
    for trial in range(trials):
        m = DissimilarityMatrix.from_function(
            RANK7_N, lambda i, j: rng.randint(RANK7_LOW, RANK7_HIGH)
        )
        chi = chromatic_number(build_deficiency(m, PLUECKER))
        best = max(best, int(chi))
        if chi >= 7:
            candidates.append(Rank7Candidate(trial, int(chi), rows_json(m)))
    return candidates, best


@dataclass(frozen=True)
class SubmatrixConjectureReport:
    trials: int
    rank_le_2_count: int
    agree_count: int
    counterexamples: int

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "rank_le_2": self.rank_le_2_count,
            "agreements": self.agree_count,
            "counterexamples": self.counterexamples,
        }


def _tree_rank_at_most_2(m: DissimilarityMatrix) -> bool:
    # With budget 2 the search covers every r <= 2, so a rank of at most 2
    # is found and is the certified upper end.
    return exact_rank(m, TREE, budget=2).upper <= 2


def submatrix_conjecture(trials: int, seed: int) -> SubmatrixConjectureReport:
    """Compare 7x7 tree rank <= 2 against all 6x6 principal submatrices.

    A counterexample would be a matrix whose submatrices all have rank at
    most 2 while the matrix itself does not.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    le2 = agree = counter = 0
    for _ in range(trials):
        m = DissimilarityMatrix.from_function(7, lambda i, j: rng.randint(0, 6))
        subs_ok = all(
            _tree_rank_at_most_2(principal_submatrix(m, idx))
            for idx in itertools.combinations(range(1, 8), 6)
        )
        whole = _tree_rank_at_most_2(m)
        if whole:
            le2 += 1
        if whole == subs_ok:
            agree += 1
        if subs_ok and not whole:
            counter += 1
    return SubmatrixConjectureReport(trials, le2, agree, counter)


def solid_cover_weakening_flag(m: DissimilarityMatrix) -> Optional[dict]:
    """Compare the cover answer with the exact solver (open question).

    The cover computation returns r+1 whenever no solid size-r cover
    exists, but that direction is not known to be forced.  When the exact
    solver certifies rank r anyway, the instance would show the solid
    condition can be weakened; it is reported rather than asserted away.
    Returns None when the two answers agree, else a description of the
    discrepancy.  Exact search only runs at the solver's scale.
    """
    cover_result = star_tree_rank_01(m)
    if cover_result.solid:
        return None
    exact = exact_rank(m, STAR)
    if exact.value == cover_result.value:
        return None
    return {
        "matrix": rows_json(m),
        "cover_bound": cover_result.value,
        "exact_rank": exact.value,
        "cover_size": cover_result.cover_size,
    }
