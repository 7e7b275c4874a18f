"""troprank benchmark: one closed-loop client driving the CLI in process.

    python3 bench/run.py --workload tree7-search --seed 1 --seconds 45 --trace 0

Run from the repository root; the program is imported from ./src.  The
last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the line before it holds the details (tail percentile, output
digest, environment, ...).  See bench/README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import corpus  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

SETUP_SAMPLES = 11  # this process plus ten fresh ones
COLD_START_SAMPLES = 21
MIN_PASSES = 4  # a run's fewest passes; the tail percentile is fixed by them
TAIL_BEYOND = 10  # samples required beyond the tail percentile
RATIOS = {
    "exactlp.lp.feasible_ratio": ("exactlp.lp.hits", "exactlp.lp.tries"),
    "exactlp.twovar.feasible_ratio": ("exactlp.twovar.hits", "exactlp.twovar.tries"),
    "rank.search.success_ratio": ("rank.search.hits", "rank.search.tries"),
    "rank.upper.verify_per_build": ("rank.upper.verify_calls", "rank.upper.calls"),
}


def import_cli():
    """troprank.cli from this checkout's src; anything else is an error."""
    sys.path.insert(0, str(SRC))
    import troprank.cli

    if not Path(troprank.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"troprank imported from {troprank.cli.__file__}, not {SRC}")
    return troprank.cli


def load_expected(workload: str, queries) -> dict:
    records = json.loads((BENCH / "expected.json").read_text())["workloads"][workload]
    for q in queries:
        if records.get(q.id, {}).get("digest") != q.digest():
            raise SystemExit(f"expected.json is stale for {q.id}; rebuild it")
    return records


@dataclass
class Answer:
    query: corpus.Query
    rows: object
    code: object
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Run:
    workload: str
    seed: int
    cli: object
    queries: list
    expected: dict
    workdir: Path
    verify_matrices: object = None
    checked: int = 0
    failures: list = field(default_factory=list)

    def write_pass(self, index: int):
        """[(query, rows, argv)] with the pass's input files written."""
        folder = self.workdir / f"pass{index}"
        folder.mkdir(parents=True, exist_ok=True)
        plan = []
        for k, (q, rows) in enumerate(corpus.pass_plan(self.workload, self.seed, index, self.queries)):
            path = folder / f"q{k:04d}.txt"
            if rows is not None:
                path.write_text(corpus.matrix_text(q.kind, rows))
            argv = [str(path) if a == "{file}" else a for a in q.args]
            plan.append((q, rows, argv))
        return plan

    def ask(self, q, rows, argv) -> Answer:
        start = time.perf_counter()
        code, out, err = check.invoke(self.cli.main, argv)
        return Answer(q, rows, code, out, err, time.perf_counter() - start)

    def run_pass(self, plan, tracer=None) -> tuple[float, list[float], str]:
        """(wall seconds, per-query seconds, concatenated stdout) of one pass.

        Answers are checked once the pass's clock has stopped, then dropped,
        so memory does not grow with the number of passes.
        """
        answers = []
        start = time.perf_counter()
        for number, (q, rows, argv) in enumerate(plan):
            if tracer is None:
                answers.append(self.ask(q, rows, argv))
            else:
                tracer.query = number
                answers.append(tracer.call("cli.main", self.ask, q, rows, argv))
        wall = time.perf_counter() - start
        for answer in answers:
            self.check(answer)
        return wall, [a.seconds for a in answers], "".join(a.stdout for a in answers)

    def check(self, answer: Answer) -> None:
        """Compare with expected.json and re-verify the certificate."""
        self.checked += 1
        q = answer.query
        want = self.expected[q.id]
        problem = None
        if answer.code != want["exit"]:
            problem = f"exit {answer.code!r}, expected {want['exit']}: {answer.stderr.strip()[:200]}"
        else:
            try:
                payload = json.loads(answer.stdout)
                got = check.answer_of(q.args, payload)
                if got != want["answer"]:
                    problem = f"answer {got}, expected {want['answer']}"
                elif q.args[0] == "rank":
                    problem = check.recheck_decomposition(
                        q.kind, answer.rows, payload, self.verify_matrices
                    )
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable answer: {exc}"
        if problem is not None:
            self.failures.append(f"{q.id}: {problem}")


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, load the corpus and its expected answers, and
    write the first pass's inputs."""
    cli = import_cli()
    queries = corpus.base_queries(workload)
    from troprank.decomposition import verify_matrices

    run = Run(workload, seed, cli, queries, load_expected(workload, queries), workdir, verify_matrices)
    return run, run.write_pass(0)


def warm_up(run: Run) -> None:
    """Answer one cheap query per route, so that lazily built tables (such
    as the topology list) are in place before timing starts.  Not part of
    setup_s: these are queries, and their time would swamp the set-up's."""
    by_id = {q.id: q for q in run.queries}
    folder = run.workdir / "warmup"
    folder.mkdir(parents=True, exist_ok=True)
    for k, q in enumerate(by_id[i] for i in corpus.warmup_ids(run.workload)):
        path = folder / f"w{k}.txt"
        path.write_text(q.text())
        run.check(run.ask(q, q.rows, [str(path) if a == "{file}" else a for a in q.args]))


def nearest_rank(values: list, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of `count` samples
    beyond it.  Runs take it from the answers every run has (MIN_PASSES
    passes), so one workload keeps one percentile however many passes fit."""
    for pct in range(99, 50, -1):
        if count - math.ceil(pct / 100 * count) >= TAIL_BEYOND:
            return pct
    return 50


class FreshSamples:
    """Timings of fresh processes: cold starts of `python -m troprank rank`
    on a 4x4 file, and set-up probes (this script with --setup-probe).

    The machine's speed drifts over seconds, so the run takes these
    samples between passes, spread over its whole length.
    """

    def __init__(self, run: Run, args):
        self.run = run
        path = run.workdir / "cold.txt"
        path.write_text("symmetric 4\n0 1 0 0\n1 0 0 0\n0 0 0 1\n0 0 1 0\n")
        self.cold_argv = [sys.executable, "-m", "troprank", "rank", str(path), "--notion", "sym"]
        self.probe_argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                           "--workload", args.workload, "--seed", str(args.seed)]
        probes = SETUP_SAMPLES - 1
        self.pending = ["cold"] * COLD_START_SAMPLES
        for k in range(probes):  # spread the probes evenly among the cold starts
            self.pending.insert(k * (COLD_START_SAMPLES + probes) // probes, "setup")
        self.cold_ms: list[float] = []
        self.setup_s: list[float] = []

    def take(self, count: int) -> None:
        for _ in range(min(count, len(self.pending))):
            if self.pending.pop(0) == "cold":
                self._cold_start()
            else:
                self._setup_probe()

    def _cold_start(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        done = subprocess.run(self.cold_argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.cold_ms.append((time.perf_counter() - start) * 1000)
        self.run.checked += 1
        try:
            ok = done.returncode == 0 and json.loads(done.stdout)["rank"] == 4
        except (ValueError, KeyError):
            ok = False
        if not ok:
            self.run.failures.append(f"cold start: exit {done.returncode}: {done.stderr.strip()[:200]}")

    def _setup_probe(self) -> None:
        done = subprocess.run(self.probe_argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        self.setup_s.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(run: Run, first_plan, seconds: float, samples: FreshSamples) -> dict:
    """Untraced whole passes until `seconds` have passed and at least
    MIN_PASSES have run."""
    size = len(first_plan)
    wall, latencies, digest_text = run.run_pass(first_plan)
    walls = [wall]
    while True:
        left = max(MIN_PASSES - len(walls), math.ceil((seconds - sum(walls)) / walls[-1]))
        samples.take(math.ceil(len(samples.pending) / (max(left, 0) + 1)))
        if left <= 0:
            break
        wall, more, _ = run.run_pass(run.write_pass(len(walls)))
        walls.append(wall)
        latencies += more
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [x * 1000 for x in latencies]
    pct = tail_percentile(MIN_PASSES * size)
    return {
        "passes": len(walls),
        "walls": walls,
        "latencies": latencies,
        "tail_pct": pct,
        "metrics": {
            "throughput_mps": metric(len(latencies) / sum(walls), "1/s"),
            "latency_p50_ms": metric(statistics.median(latencies), "ms"),
            "latency_tail_ms": metric(nearest_rank(latencies, pct), "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        },
        "digest": hashlib.sha256(digest_text.encode()).hexdigest(),
    }


def measure_traced(run: Run, plan, seconds: float) -> dict:
    """Untraced and traced passes over the same inputs, alternating, until
    `seconds` have passed."""
    tracer = Tracer()
    untraced, walls, summaries, spans = [], [], [], []
    digest_text = None
    while not walls or sum(untraced) + sum(walls) < seconds:
        wall, _, text = run.run_pass(plan)
        untraced.append(wall)
        digest_text = digest_text or text
        tracer.reset()
        tracer.install()
        try:
            wall, _, _ = run.run_pass(plan, tracer)
        finally:
            tracer.uninstall()
        walls.append(wall)
        summaries.append(tracer.summary())
        spans.append(tracer.spans)
    counts = summaries[0]["counts"]
    for other in summaries[1:]:
        if other["counts"] != counts:
            run.failures.append("trace: counts differ between two traced passes of the same inputs")
    per_pass = len(summaries)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = metric(counts[f"{layer}.calls"], "count")
        total = sum(s["self_s"][layer] for s in summaries)
        metrics[f"{layer}.self_s"] = metric(total / per_pass, "s")
    for name, (hits, tries) in RATIOS.items():
        base = counts.get(tries, 0)
        metrics[name] = metric(counts.get(hits, 0) / base if base else 0.0, "ratio")
    lookups = counts.get("rank.slot.lookups", 0)
    solves = counts.get("rank.slot.solves", 0)
    metrics["rank.slot.cache_hit_ratio"] = metric(1 - solves / lookups if lookups else 0.0, "ratio")
    metrics["rank.search.tries"] = metric(counts.get("rank.search.tries", 0), "count")
    metrics["rank.slot.lookups"] = metric(lookups, "count")
    metrics["pass.wall_s"] = metric(statistics.mean(untraced), "s")
    metrics["trace.overhead_s"] = metric(statistics.mean(walls) - statistics.mean(untraced), "s")
    return {
        "passes": per_pass,
        "walls": {"untraced": untraced, "traced": walls},
        "metrics": metrics,
        "counts": counts,
        "missing_hooks": tracer.missing,
        "spans": spans,
        "digest": hashlib.sha256(digest_text.encode()).hexdigest(),
    }


def source_digest() -> str:
    """Identifies the program and benchmark sources that produced a trace."""
    h = hashlib.sha256()
    files = sorted((SRC / "troprank").rglob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in files + [BENCH / "expected.json"]:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def write_trace(args, result: dict, env: dict) -> tuple[Path, dict | None]:
    """Spans and counts to .bench_out/traces; compare counts with an earlier
    traced run of the same seed and program, if one is there."""
    folder = OUT / "traces"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{args.workload}-seed{args.seed}-{source_digest()}.json"
    previous = json.loads(path.read_text())["counts"] if path.exists() else None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "counts": result["counts"],
        "span_fields": ["query", "layer", "start", "end", "parent"],
        "spans_per_traced_pass": result["spans"],
    }
    path.write_text(json.dumps(record))
    return path, previous


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    workdir = OUT / f"run-{os.getpid()}"
    try:
        run, first_plan = setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - STARTED
        if args.setup_probe:
            print("\n".join(run.failures), file=sys.stderr)
            print(json.dumps({"setup_s": setup_s}))
            return 0 if not run.failures else 1
        warm_up(run)
        env = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        }
        detail = {"workload": args.workload, "seed": args.seed, "env": env}
        if args.trace:
            result = measure_traced(run, first_plan, args.seconds)
            path, previous = write_trace(args, result, env)
            if previous is not None and previous != result["counts"]:
                run.failures.append(f"trace: counts differ from the earlier traced run in {path.name}")
            detail.update(
                trace_file=str(path.relative_to(ROOT)),
                counts_repeat_checked=previous is not None,
                missing_hooks=result["missing_hooks"],
                counts=result["counts"],
            )
        else:
            samples = FreshSamples(run, args)
            result = measure(run, first_plan, args.seconds, samples)
            setup_samples = [setup_s] + samples.setup_s
            result["metrics"]["setup_s"] = metric(statistics.median(setup_samples), "s")
            # The fastest start: contention on the machine only adds time,
            # and it comes in phases that a median of the samples does not outvote.
            result["metrics"]["cold_start_ms"] = metric(min(samples.cold_ms), "ms")
            detail.update(
                latency_tail_pct=result["tail_pct"],
                latency_samples=len(result["latencies"]),
                setup_samples_s=setup_samples,
                cold_start_samples_ms=samples.cold_ms,
            )
        attempted = run.checked
        failed = len(run.failures)
        detail.update(
            passes=result["passes"],
            pass_walls_s=result["walls"],
            queries_per_pass=len(first_plan),
            output_sha256=result["digest"],
            error_rate=failed / attempted,
            failures=run.failures[:20],
        )
        print(json.dumps({"detail": detail}))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": result["metrics"],
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
