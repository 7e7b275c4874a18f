"""The benchmark corpus: fixed base queries per workload, and the seeded
variation that turns them into the input files of one pass.

Every base query is drawn, in stream order, from a `random.Random` seeded
with a fixed label, so the corpus is the same on every machine and every
run.  `--seed` then makes each pass's inputs: it shuffles the query order
and rewrites every matrix by a transformation that leaves all three ranks
unchanged,

* "shift": M_ij -> M_ij + a_i + a_j (the diagonal of a symmetric matrix
  gets 2 a_i).  Every basis polynomial gains the same amount on all its
  terms, so the deficiency graph, the search order and every slot's
  feasibility stay the same; only the numbers change.
* "relabel": a simultaneous permutation of rows and columns.  Used for
  0/1 matrices, which a shift would take off the 0/1 path.

so the expected answer of a base query (in expected.json) is the expected
answer of every input made from it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("tree7-search", "wide-bounds", "cli-mix")

SHIFT_MAX = 4

# The 9x9 integer matrix of tree rank 6 (the `tr6` generator), copied so
# that the benchmark's inputs do not depend on the program under test.
TR6_ROWS = (
    (None, 1, 6, 7, 2, 3, 8, 9, 6),
    (1, None, 2, 7, 9, 7, 5, 7, 1),
    (6, 2, None, 6, 0, 6, 1, 7, 1),
    (7, 7, 6, None, 3, 3, 8, 5, 3),
    (2, 9, 0, 3, None, 5, 7, 5, 7),
    (3, 7, 6, 3, 5, None, 9, 3, 9),
    (8, 5, 1, 8, 7, 9, None, 2, 3),
    (9, 7, 7, 5, 5, 3, 2, None, 8),
    (6, 1, 1, 3, 7, 9, 3, 8, None),
)


@dataclass(frozen=True)
class Query:
    """One CLI call.  `rows` is None for queries that read no matrix file.

    `args` holds the CLI words; the input file path replaces "{file}".
    """

    id: str
    args: tuple[str, ...]
    kind: Optional[str] = None  # "symmetric" | "dissimilarity"
    rows: Optional[tuple[tuple[Optional[int], ...], ...]] = None
    vary: str = "none"  # "shift" | "relabel" | "none"

    def text(self) -> str:
        return matrix_text(self.kind, self.rows) if self.rows is not None else ""

    def digest(self) -> str:
        """Identifies the base query, so expected.json cannot drift from it."""
        blob = "\n".join(self.args) + "\n" + self.text()
        return hashlib.sha256(blob.encode()).hexdigest()


def matrix_text(kind: str, rows) -> str:
    lines = [f"{kind} {len(rows)}"]
    for row in rows:
        lines.append(" ".join("*" if x is None else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _stream(label: str) -> random.Random:
    return random.Random("troprank-bench:" + label)


def _random_rows(rng: random.Random, kind: str, n: int, low: int, high: int, diag=None):
    """Integer rows filled upper triangle first, row by row, then mirrored."""
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if kind == "symmetric" else i + 1, n):
            if i == j:
                value = rng.randint(*diag) if diag else rng.randint(low, high)
            else:
                value = rng.randint(low, high)
            grid[i][j] = grid[j][i] = value
    return tuple(tuple(r) for r in grid)


def _rank(notion: str, method: Optional[str] = None) -> tuple[str, ...]:
    args = ("rank", "{file}", "--notion", notion)
    return args + ("--method", method) if method else args


def _queries(label, count, args, kind, sizes, low, high, vary, diag=None):
    rng = _stream(label)
    out = []
    for k in range(count):
        n = sizes[k % len(sizes)]
        rows = _random_rows(rng, kind, n, low, high, diag)
        out.append(Query(f"{label}/{k:03d}", args, kind, rows, vary))
    return out


TREE7_COUNT = 10


def _tree7() -> list[Query]:
    # The first TREE7_COUNT matrices of one stream; none is dropped for its
    # run time.  Ten keep a pass near 10 s, so a run holds several passes.
    rng = random.Random(5)
    return [
        Query(f"tree7/{k:03d}", _rank("tree"), "dissimilarity",
              _random_rows(rng, "dissimilarity", 7, 0, 3), "shift")
        for k in range(TREE7_COUNT)
    ]


def _tr6_blocks(copies: int) -> tuple[tuple[Optional[int], ...], ...]:
    n = 9 * copies

    def entry(i: int, j: int) -> Optional[int]:
        if i == j:
            return None
        if i // 9 != j // 9:
            return 10
        return TR6_ROWS[i % 9][j % 9]

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


def _wide_bounds() -> list[Query]:
    out = []
    for notion in ("star", "tree"):
        for n in range(10, 15):
            out += _queries(
                f"wide-{notion}-{n}", 2, _rank(notion, "bounds"),
                "dissimilarity", (n,), 0, 9, "shift",
            )
    out.append(
        Query(
            "tr6-blocks-2", ("deficiency", "{file}", "--basis", "pluecker"),
            "dissimilarity", _tr6_blocks(2), "shift",
        )
    )
    for s in range(2):
        out.append(
            Query(
                f"rank7-search/{s:03d}",
                ("experiment", "rank7-search", "--trials", "5", "--seed", str(s)),
            )
        )
    return out


def _min_rows(n: int):
    return tuple(
        tuple(None if i == j else min(i, j) for j in range(1, n + 1)) for i in range(1, n + 1)
    )


def _bipartite_rows(n: int):
    half = n // 2
    return tuple(
        tuple(0 if i == j or (i <= half) != (j <= half) else 1 for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


PER_ROUTE = 30


def _cli_mix() -> list[Query]:
    """A synthetic mix with equal weight per route: PER_ROUTE queries for
    each of eight routes, so each route gives the same number of latencies
    per pass and none is measured from a few samples.  No traffic log
    exists to weight them by.  The `bipartite` and `min` generator
    families are added once per size for their known ranks."""
    sym, diss = "symmetric", "dissimilarity"
    sizes01 = (4, 5, 6, 7, 8)
    routes = (
        ("sym3", _rank("sym"), sym, (3,), 0, 9, "shift", (0, 4)),
        ("star5", _rank("star"), diss, (5,), 0, 9, "shift", None),
        ("tree5", _rank("tree"), diss, (5,), 0, 9, "shift", None),
        ("sym01", _rank("sym"), sym, sizes01, 0, 1, "relabel", (0, 0)),
        ("star01", _rank("star"), diss, sizes01, 0, 1, "relabel", None),
        ("tree01", _rank("tree"), diss, sizes01, 0, 1, "relabel", None),
        ("symfin", _rank("sym"), sym, (5, 6, 7), 0, 9, "shift", (0, 0)),
        ("starfin", _rank("star"), diss, (6, 7, 8), 0, 9, "shift", None),
    )
    out = []
    for label, args, kind, sizes, low, high, vary, diag in routes:
        out += _queries(label, PER_ROUTE, args, kind, sizes, low, high, vary, diag)
    for n in range(4, 9):
        out.append(Query(f"bipartite-{n}", _rank("sym"), sym, _bipartite_rows(n), "relabel"))
    for n in range(6, 9):
        out.append(Query(f"min-{n}", _rank("star"), diss, _min_rows(n), "shift"))
    return out


_BUILDERS = {"tree7-search": _tree7, "wide-bounds": _wide_bounds, "cli-mix": _cli_mix}


def base_queries(workload: str) -> list[Query]:
    return _BUILDERS[workload]()


def warmup_ids(workload: str) -> list[str]:
    """One cheap base query per route, answered before timing starts so
    that lazily built tables (such as the topology list) are in place."""
    return {
        "tree7-search": ["tree7/008"],
        "wide-bounds": ["wide-star-10/000", "wide-tree-10/000", "rank7-search/000"],
        "cli-mix": [
            "sym3/000", "star5/000", "tree5/000", "sym01/000", "star01/000",
            "tree01/000", "symfin/000", "starfin/000",
        ],
    }[workload]


def transform(query: Query, rng: random.Random) -> tuple[tuple[Optional[int], ...], ...]:
    """The rows of one input made from `query`, drawing from rng."""
    rows = query.rows
    if rows is None:
        return rows
    n = len(rows)
    if query.vary == "shift":
        a = [rng.randint(0, SHIFT_MAX) for _ in range(n)]
        return tuple(
            tuple(None if x is None else x + a[i] + a[j] for j, x in enumerate(row))
            for i, row in enumerate(rows)
        )
    if query.vary == "relabel":
        perm = rng.sample(range(n), n)
        return tuple(tuple(rows[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    return rows


def pass_plan(workload: str, seed: int, index: int, queries: list[Query]):
    """[(query, rows)] for pass `index` of a run: seeded order and inputs."""
    rng = random.Random(f"troprank-bench:{workload}:{seed}:{index}")
    order = list(queries)
    rng.shuffle(order)
    return [(q, transform(q, rng)) for q in order]
