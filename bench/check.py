"""Answer extraction and certificate re-checks shared by the run and by the
expected-answer builder."""

from __future__ import annotations

import contextlib
import io
from typing import Optional

RANK_FIELDS = ("status", "rank", "lower", "upper", "chromatic_bound")


def invoke(main, argv) -> tuple[object, str, str]:
    """(exit code or exception text, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an answer the run counts as failed
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def answer_of(args, payload: dict) -> dict:
    """The fields of one CLI answer that expected.json pins down."""
    command = args[0]
    if command == "rank":
        return {k: payload.get(k) for k in RANK_FIELDS}
    if command == "deficiency":
        return {"chromatic_number": payload["chromatic_number"]}
    if command == "experiment":
        return {
            "best_chromatic_bound": payload["best_chromatic_bound"],
            "candidates": len(payload["candidates"]),
        }
    raise ValueError(f"no answer fields for command {command!r}")


def target_matrix(kind: str, rows):
    from troprank.core import DissimilarityMatrix, SymmetricMatrix

    cls = SymmetricMatrix if kind == "symmetric" else DissimilarityMatrix
    return cls.from_rows([list(r) for r in rows])


def recheck_decomposition(kind: str, rows, payload: dict, verify_matrices) -> Optional[str]:
    """None when the emitted decomposition (if any) is a valid certificate
    for the reported upper bound; otherwise why not.

    `verify_matrices` is passed in so that a traced run can hand over the
    untraced original.
    """
    from troprank.core import DissimilarityMatrix, SymmetricMatrix

    dec = payload.get("decomposition")
    if dec is None:
        if payload.get("status") in ("finite", "interval"):
            return "finite answer without a decomposition"
        return None
    summands = dec.get("summands", [])
    if dec.get("size") != len(summands) or len(summands) != payload.get("upper"):
        return f"decomposition size {dec.get('size')} does not match upper {payload.get('upper')}"
    cls = SymmetricMatrix if dec.get("notion") == "sym" else DissimilarityMatrix
    matrices = [cls.from_rows(s["matrix"]) for s in summands]
    report = verify_matrices(target_matrix(kind, rows), matrices, dec.get("notion"))
    if not report.ok:
        return f"decomposition fails verify: {report.failure}"
    return None
