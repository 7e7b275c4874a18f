"""Named example matrices exposed by the command line.

Each generator returns a fresh immutable matrix; `--project` on the CLI
turns a symmetric generator into its off-diagonal part.
"""

from __future__ import annotations

import json
import random
from importlib import resources
from typing import Optional, Union

from .core import DissimilarityMatrix, SymmetricMatrix

# A paired 4x4 example whose symmetric, star tree and tree ranks are 4, 2
# and 1: zeroes split {1,2} from {3,4} and the two ones sit inside the
# groups.
INTRO_ROWS = [
    [0, 1, 0, 0],
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
]

# 9x9 integer matrix whose tree rank is exactly 6 (chromatic lower bound 6
# meets the n-3 construction).
TR6_ROWS = [
    [None, 1, 6, 7, 2, 3, 8, 9, 6],
    [1, None, 2, 7, 9, 7, 5, 7, 1],
    [6, 2, None, 6, 0, 6, 1, 7, 1],
    [7, 7, 6, None, 3, 3, 8, 5, 3],
    [2, 9, 0, 3, None, 5, 7, 5, 7],
    [3, 7, 6, 3, 5, None, 9, 3, 9],
    [8, 5, 1, 8, 7, 9, None, 2, 3],
    [9, 7, 7, 5, 5, 3, 2, None, 8],
    [6, 1, 1, 3, 7, 9, 3, 8, None],
]

# 4x4 matrix with symmetric rank 4 although every 3x3 principal submatrix
# is tropically singular.
SYM_REMARK_ROWS = [
    [0, 0, 1, 2],
    [0, 0, 2, 1],
    [1, 2, 0, 0],
    [2, 1, 0, 0],
]


def intro_example() -> SymmetricMatrix:
    return SymmetricMatrix.from_rows(INTRO_ROWS)


def min_matrix(n: int) -> DissimilarityMatrix:
    """Entry {i,j} = min(i, j); star tree rank n-2, tree rank 1."""
    if n < 3:
        raise ValueError("need n >= 3")
    return DissimilarityMatrix.from_function(n, lambda i, j: min(i, j))


def bipartite_matrix(n: int) -> SymmetricMatrix:
    """0/1 pattern of the balanced complete bipartite graph; rank n^2//4."""
    if n < 2:
        raise ValueError("need n >= 2")
    half = n // 2

    def entry(i: int, j: int) -> int:
        if i == j:
            return 0
        return 0 if (i <= half) != (j <= half) else 1

    return SymmetricMatrix.from_function(n, entry)


def identity_pattern(n: int) -> SymmetricMatrix:
    """Zero diagonal, ones elsewhere; symmetric rank n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return SymmetricMatrix.from_function(n, lambda i, j: 0 if i == j else 1)


def cycle_matrix(n: int) -> DissimilarityMatrix:
    """0/1 matrix of the n-cycle: zeroes on consecutive pairs."""
    if n < 3:
        raise ValueError("need n >= 3")
    return DissimilarityMatrix.from_function(
        n, lambda i, j: 0 if (j - i) % n in (1, n - 1) else 1
    )


def tr6_matrix() -> DissimilarityMatrix:
    return DissimilarityMatrix.from_rows(TR6_ROWS)


BLOCK_FILLER = 10


def block_matrix(m: DissimilarityMatrix, copies: int) -> DissimilarityMatrix:
    """copies x copies block-diagonal layout of m, BLOCK_FILLER elsewhere."""
    if copies < 1:
        raise ValueError("need at least one copy")
    n = m.n

    def entry(i: int, j: int):
        bi, bj = (i - 1) // n, (j - 1) // n
        if bi != bj:
            return BLOCK_FILLER
        return m[((i - 1) % n + 1, (j - 1) % n + 1)]

    return DissimilarityMatrix.from_function(n * copies, entry)


def tr6_blocks(copies: int) -> DissimilarityMatrix:
    """Block-diagonal copies of the 9x9 example, 10 in the off blocks.

    The deficiency graph contains the block copies joined completely, so
    the chromatic bound (and hence the tree rank) is at least 6 * copies.
    """
    return block_matrix(tr6_matrix(), copies)


def sym_remark_matrix() -> SymmetricMatrix:
    return SymmetricMatrix.from_rows(SYM_REMARK_ROWS)


def random_matrix(
    kind: str, n: int, low: int = 0, high: int = 9, seed: int = 0
) -> Union[SymmetricMatrix, DissimilarityMatrix]:
    """Uniform integer entries in [low, high], reproducible from the seed."""
    if high < low:
        raise ValueError("empty entry range")
    rng = random.Random(seed)
    if kind == "symmetric":
        return SymmetricMatrix.from_function(n, lambda i, j: rng.randint(low, high))
    if kind == "dissimilarity":
        return DissimilarityMatrix.from_function(n, lambda i, j: rng.randint(low, high))
    raise ValueError("kind must be 'symmetric' or 'dissimilarity'")


GENERATORS = {
    "intro-exs": (intro_example, 0),
    "min": (min_matrix, 1),
    "bipartite": (bipartite_matrix, 1),
    "identity-pattern": (identity_pattern, 1),
    "cycle": (cycle_matrix, 1),
    "tr6": (tr6_matrix, 0),
    "tr6-blocks": (tr6_blocks, 1),
    "sym6-remark": (sym_remark_matrix, 0),
}


def generate(name: str, size: Optional[int] = None):
    if name not in GENERATORS:
        raise ValueError(
            f"unknown generator {name!r}; known: {', '.join(sorted(GENERATORS))}, random"
        )
    fn, arity = GENERATORS[name]
    if arity == 0:
        if size is not None:
            raise ValueError(f"generator {name!r} takes no size argument")
        return fn()
    if size is None:
        raise ValueError(f"generator {name!r} needs a size argument")
    return fn(size)


def max_tree_rank_table() -> list[dict]:
    """The known maximum tree ranks per matrix size, with provenance flags."""
    text = resources.files("troprank.data").joinpath("max_tree_rank.json").read_text()
    return json.loads(text)["rows"]
