"""Command-line surface.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 for a
determination, 1 when `verify` rejects a decomposition, 2 for usage or
parse errors, 3 when only an interval could be certified, 4 for infinite
rank (a determination scripts can branch on), 5 when an internal check
fails (any `RuntimeError`: `CertificateError`, `ConstructionError`,
`RecursionError`) or memory runs out (`MemoryError`), with `error: ...` on
stderr.

`rank` only parses and emits; the file-kind check and the method dispatch
live in `troprank.rank.compute_rank`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Optional

from . import __version__
from .core import INFINITE, Matrix, SymmetricMatrix, project
from .decomposition import NOTIONS, SYM, TREE, space_for, verify_matrices
from .deficiency import build_deficiency, chromatic_number
from .dimension import dimension_formula, dimension_report
from .generators import GENERATORS, generate, random_matrix
from .matrixio import MatrixFormatError, load_matrix, parse_matrix, serialize_matrix
from .membership import BASES
from .rank import (
    METHODS,
    _upper_for_search,
    check_space,
    compute_rank,
    exact_rank,
    finiteness_violation,
    tree_upper_decomposition,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERVAL = 3
EXIT_INFINITE = 4
EXIT_INTERNAL = 5


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load(path: str) -> Matrix:
    return parse_matrix(sys.stdin.read()) if path == "-" else load_matrix(path)


def cmd_rank(args) -> int:
    m = _load(args.file)
    result = compute_rank(m, args.notion, args.method, args.budget)
    payload = result.to_json_dict()
    if args.no_certificates:
        payload.pop("decomposition", None)
    _emit(payload)
    return {"infinite": EXIT_INFINITE, "interval": EXIT_INTERVAL}.get(result.status, EXIT_OK)


def cmd_decompose(args) -> int:
    m = _load(args.file)
    notion = args.notion
    check_space(m, notion)
    # The pair `exact_rank` reports as its infinite witness.
    violation = finiteness_violation(m) if notion == SYM else None
    if violation is not None:
        _emit({"error": "infinite rank", "violating_pair": list(violation)})
        return EXIT_INFINITE
    if args.minimize:
        dec = exact_rank(m, notion).decomposition
    elif notion == TREE:
        dec = tree_upper_decomposition(m)
    else:
        dec = _upper_for_search(m, notion)
    _emit(dec.to_json_dict())
    return EXIT_OK


def cmd_deficiency(args) -> int:
    m = _load(args.file)
    h = build_deficiency(m, args.basis)
    chi = chromatic_number(h)
    if args.format == "dot":
        sys.stdout.write(h.to_dot() + "\n")
        chi_text = "infinity" if chi == INFINITE else str(int(chi))
        sys.stdout.write(f"// chromatic number: {chi_text}\n")
        return EXIT_OK
    payload = h.to_json_dict()
    payload["chromatic_number"] = "infinity" if chi == INFINITE else int(chi)
    _emit(payload)
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.name == "random":
        if args.size is None:
            raise MatrixFormatError("random needs a size")
        m = random_matrix(args.kind, args.size, args.low, args.high, args.seed)
    else:
        m = generate(args.name, args.size)
    if args.project:
        if not isinstance(m, SymmetricMatrix):
            raise MatrixFormatError("--project applies to symmetric generators")
        m = project(m)
    sys.stdout.write(serialize_matrix(m))
    return EXIT_OK


def cmd_dimension(args) -> int:
    notion = args.notion
    if args.grid:
        dimension_formula(notion, args.n, 1)  # the --r mode's "need n >= ..." check
        rows = []
        for n in range(space_for(notion).min_n, args.n + 1):
            top = n // 2 if notion == TREE else n
            for r in range(1, top + 1):
                report = dimension_report(notion, n, r, args.sample, args.seed)
                rows.append(report.to_json_dict())
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=["notion", "n", "r", "formula", "sampled", "match", "trials", "seed"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buffer.getvalue()
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    if args.r is None:
        raise MatrixFormatError("--r is required without --grid")
    if args.csv:
        raise MatrixFormatError("--csv writes the grid; it needs --grid")
    report = dimension_report(notion, args.n, args.r, args.sample, args.seed)
    _emit(report.to_json_dict())
    return EXIT_OK


def cmd_verify(args) -> int:
    m = _load(args.matrix)
    with open(args.decomposition, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise MatrixFormatError("decomposition file must hold a JSON object")
    notion = data.get("notion")
    if notion not in NOTIONS:
        raise MatrixFormatError(f"decomposition file has unknown notion {notion!r}")
    summands = data.get("summands", [])
    if not isinstance(summands, list) or not all(isinstance(s, dict) for s in summands):
        raise MatrixFormatError("decomposition 'summands' must be a list of objects")
    matrices = []
    for s in summands:
        rows = s.get("matrix")
        if rows is None:
            raise MatrixFormatError("summand without a matrix")
        matrices.append(space_for(notion).from_rows(rows))
    report = verify_matrices(m, matrices, notion)
    _emit(report.to_json_dict())
    return EXIT_OK if report.ok else 1


def cmd_experiment(args) -> int:
    # Imported here so that other commands do not load the experiment and
    # cover modules, about 17 ms of import without bytecode caches.
    from .experiments import rank7_search, submatrix_conjecture

    if args.which == "rank7-search":
        candidates, best = rank7_search(args.trials, args.seed)
        _emit(
            {
                "trials": args.trials,
                "best_chromatic_bound": best,
                "candidates": [c.to_json_dict() for c in candidates],
            }
        )
        return EXIT_OK
    report = submatrix_conjecture(args.trials, args.seed)
    _emit(report.to_json_dict())
    return EXIT_OK


@functools.cache  # built on the first call, not at import; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troprank",
        description="Exact tropical rank computations for symmetric and dissimilarity matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="compute a rank with certificates")
    p.add_argument("file", help="matrix file ('-' for stdin)")
    p.add_argument("--notion", required=True, choices=sorted(NOTIONS))
    p.add_argument("--method", default="auto", choices=METHODS)
    p.add_argument("--budget", type=int, default=None, help="largest rank to search")
    p.add_argument(
        "--no-certificates",
        action="store_true",
        help="omit the witness decomposition from the output",
    )
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("decompose", help="emit a verified decomposition")
    p.add_argument("file")
    p.add_argument("--notion", required=True, choices=sorted(NOTIONS))
    p.add_argument(
        "--minimize",
        action="store_true",
        help="run the exact solver instead of the constructive upper bound",
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("deficiency", help="deficiency graph and chromatic number")
    p.add_argument("file")
    p.add_argument("--basis", required=True, choices=sorted(BASES))
    p.add_argument("--format", default="json", choices=["json", "dot"])
    p.set_defaults(func=cmd_deficiency)

    p = sub.add_parser("generate", help="emit a named example matrix")
    p.add_argument("name", help=f"one of: {', '.join(sorted(GENERATORS))}, random")
    p.add_argument("size", nargs="?", type=int, default=None)
    p.add_argument("--project", action="store_true", help="drop the diagonal")
    p.add_argument("--kind", default="dissimilarity", choices=["symmetric", "dissimilarity"])
    p.add_argument("--low", type=int, default=0)
    p.add_argument("--high", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("dimension", help="dimension formula vs sampled local dimension")
    p.add_argument("--notion", required=True, choices=sorted(NOTIONS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--sample", type=int, default=10, help="sampling trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", action="store_true", help="CSV over all (n, r) up to --n")
    p.add_argument("--csv", default=None, help="write the grid CSV to this path")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("verify", help="check a decomposition file against a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--decomposition", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="open-question search harnesses")
    p.add_argument("which", choices=["rank7-search", "submatrix-conjecture"])
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, TypeError) as exc:  # MatrixFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
