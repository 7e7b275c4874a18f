"""Build bench/expected.json: the expected answer of every base query.

Run from the repository root:

    python3 bench/make_expected.py

Each answer is cross-checked by a route that does not rest on the search
alone, and the file records which:

* closed-form=exact: 3x3 symmetric and 5x5 star/tree queries answered by
  the closed forms equal `--method exact`;
* covers=exact: 0/1 queries answered by the cover formulas equal
  `--method exact` (used where the chromatic bound is below the rank);
* chromatic=size: the chromatic lower bound equals the size of the
  emitted, verified decomposition;
* bounds: `--method bounds` reports the chromatic number that the
  `deficiency` command computes for the same matrix as its lower end, and
  the known construction size (star n-2, tree n-3) as its upper end;
* finiteness: the reported pair violates M_ii + M_jj <= 2 M_ij;
* known: a generator value from the literature (tr6-blocks 2 has chi 12,
  bipartite n has symmetric rank floor(n^2/4), min n has star rank n-2);
* experiment: rank7-search reports chromatic bounds of at most 7 = n-3.

Every emitted decomposition is re-verified.  The build stops with an error
if any check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import corpus  # noqa: E402
from troprank.cli import main  # noqa: E402
from troprank.decomposition import verify_matrices  # noqa: E402

BASIS = {"sym": "symmetric-minors", "star": "star-tree", "tree": "pluecker"}
KNOWN = {f"bipartite-{n}": n * n // 4 for n in range(2, 20)}
KNOWN.update({f"min-{n}": n - 2 for n in range(3, 20)})


def ask(query: corpus.Query, workdir: Path, args=None):
    path = workdir / "input.txt"
    path.write_text(query.text())
    argv = [str(path) if a == "{file}" else a for a in (args or query.args)]
    code, out, err = check.invoke(main, argv)
    if not isinstance(code, int) or code not in (0, 3, 4):
        raise SystemExit(f"{query.id}: exit {code!r}: {err.strip()}")
    return code, json.loads(out)


def option(args, name):
    return args[args.index(name) + 1] if name in args else None


def cross_check(query, code, payload, workdir) -> str:
    """The route that confirms the answer; raises SystemExit on a mismatch."""
    args, rows = query.args, query.rows

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise SystemExit(f"{query.id}: {what}: {json.dumps(payload)[:400]}")

    if args[0] == "experiment":
        require(payload["best_chromatic_bound"] <= 7, "chromatic bound above n-3")
        return "experiment"
    if args[0] == "deficiency":
        require(query.id != "tr6-blocks-2" or payload["chromatic_number"] == 12, "tr6-blocks 2 chi")
        return "known"
    problem = check.recheck_decomposition(query.kind, rows, payload, verify_matrices)
    require(problem is None, str(problem))
    notion, method, n = option(args, "--notion"), option(args, "--method"), len(rows)
    if query.id in KNOWN:
        require(payload["rank"] == KNOWN[query.id], "known generator value")
        return "known"
    if payload["status"] == "infinite":
        i, j = payload["violating_pair"]
        require(rows[i - 1][i - 1] + rows[j - 1][j - 1] > 2 * rows[i - 1][j - 1], "finiteness pair")
        return "finiteness"
    if method == "bounds":
        deficiency = ("deficiency", "{file}", "--basis", BASIS[notion])
        _, graph = ask(query, workdir, deficiency)
        require(payload["lower"] == graph["chromatic_number"], "lower end is not chi")
        require(payload["upper"] == (n - 2 if notion == "star" else n - 3), "construction size")
        return "bounds"
    exact = ("rank", "{file}", "--notion", notion, "--method", "exact")
    closed = (notion == "sym" and n == 3) or (notion != "sym" and n == 5)
    zero_one = all(x in (0, 1) for row in rows for x in row if x is not None)
    if closed or (zero_one and payload["chromatic_bound"] != payload["rank"]):
        exact_code, exact_payload = ask(query, workdir, exact)
        require(
            exact_code == code
            and check.answer_of(exact, exact_payload)["rank"] == payload["rank"],
            "differs from --method exact",
        )
        return "closed-form=exact" if closed else "covers=exact"
    require(payload["chromatic_bound"] == payload["rank"] == payload["upper"], "chi below rank")
    return "chromatic=size"


def build() -> dict:
    out = {"format": 1, "workloads": {}}
    workdir = ROOT / ".bench_out" / "expected-build"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in corpus.WORKLOADS:
            records = {}
            for query in corpus.base_queries(workload):
                start = time.perf_counter()
                code, payload = ask(query, workdir)
                route = cross_check(query, code, payload, workdir)
                records[query.id] = {
                    "digest": query.digest(),
                    "exit": code,
                    "answer": check.answer_of(query.args, payload),
                    "route": route,
                }
                print(f"{query.id}: {route} {time.perf_counter() - start:.3f}s", file=sys.stderr)
            out["workloads"][workload] = records
    finally:
        shutil.rmtree(workdir)
    return out


if __name__ == "__main__":
    data = build()
    (BENCH / "expected.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
