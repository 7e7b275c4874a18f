"""Per-layer spans recorded from outside the program.

The tracer replaces module attributes with wrappers on every name a caller
looks up: modules import functions by name, so `troprank.cli.build_deficiency`
and `troprank.rank.build_deficiency` are both rebound, along with the
defining module's own attribute.  Methods are wrapped on their class.

Each wrapper records a span (query, layer, start, end, parent span).  A call
into a layer from inside a span of the same layer is not a new span, so
`calls` counts entries into a layer and nested helpers add to its self time.
Self time is a span's duration minus the durations of its child spans.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

LAYERS = (
    "cli.main",
    "matrixio.parse",
    "deficiency.build",
    "deficiency.color",
    "rank.upper",
    "decomposition.verify",
    "rank.search",
    "exactlp.lp",
    "exactlp.twovar",
    "small_cases.closed",
    "covers.zero_one",
    "cli.emit",
)

# (layer, module, attribute, outcome counter or None).  An outcome counter
# c counts c.tries and c.hits, a hit being a result other than None.
HOOKS = (
    ("matrixio.parse", "troprank.matrixio", "parse_matrix", None),
    ("deficiency.build", "troprank.deficiency", "build_deficiency", None),
    ("deficiency.color", "troprank.deficiency", "optimal_coloring", None),
    ("rank.upper", "troprank.rank", "_upper_for_search", None),
    ("rank.upper", "troprank.rank", "symmetric_upper_decomposition", None),
    ("rank.upper", "troprank.rank", "star_upper_decomposition", None),
    ("rank.upper", "troprank.rank", "tree_upper_decomposition", None),
    ("decomposition.verify", "troprank.decomposition", "verify", None),
    ("decomposition.verify", "troprank.decomposition", "verify_matrices", None),
    ("rank.search", "troprank.rank", "exact_rank", None),
    ("rank.search", "troprank.rank", "_AssignmentSearcher.search", "rank.search"),
    ("exactlp.lp", "troprank.exactlp", "solve_linear_feasibility", "exactlp.lp"),
    ("exactlp.twovar", "troprank.exactlp", "TwoVarSystem.solve", "exactlp.twovar"),
    ("small_cases.closed", "troprank.small_cases", "sym3_rank", None),
    ("small_cases.closed", "troprank.small_cases", "star5_rank2_test", None),
    ("small_cases.closed", "troprank.small_cases", "star5_rank2_decompose", None),
    ("small_cases.closed", "troprank.small_cases", "tree5_rank", None),
    ("covers.zero_one", "troprank.covers", "symmetric_rank_01", None),
    ("covers.zero_one", "troprank.covers", "star_tree_rank_01", None),
    ("covers.zero_one", "troprank.covers", "tree_rank_01", None),
    ("cli.emit", "troprank.cli", "_emit", None),
)

# Slot checks of the assignment search: a lookup is a `_class_witness`
# call, a solve is a call it makes to `_sum_witness` or `_tree_witness`
# (a miss of its cache).  These add counts, not spans.
SLOT_LOOKUP = ("troprank.rank", "_AssignmentSearcher._class_witness")
SLOT_SOLVES = (
    ("troprank.rank", "_AssignmentSearcher._sum_witness"),
    ("troprank.rank", "_AssignmentSearcher._tree_witness"),
)


def _resolve(module: str, attribute: str):
    """(owner, name, original) for a module function or a Class.method."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if path else getattr(owner, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [query, layer, start, end, parent index]
        self.counts: Counter = Counter()
        self.query = 0
        self.missing: list[str] = []
        self._open: list[int] = []  # indices of open spans, innermost last
        self._probes: list[str] = []
        self._restore: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    # -- recording --------------------------------------------------------

    def _enter(self, layer: str):
        if self._open and self.spans[self._open[-1]][1] == layer:
            return None
        parent = self._open[-1] if self._open else None
        self.spans.append([self.query, layer, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, index) -> None:
        if index is not None:
            self.spans[index][3] = time.perf_counter()
            self._open.pop()

    def call(self, layer: str, fn, *args):
        """Run fn(*args) inside a span of `layer` (used for the query root)."""
        index = self._enter(layer)
        try:
            return fn(*args)
        finally:
            self._exit(index)

    def _layer_wrapper(self, layer: str, fn, outcome):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if outcome is not None:
                tracer.counts[outcome + ".tries"] += 1
                tracer.counts[outcome + ".hits"] += result is not None
            return result

        return wrapper

    def _probe_wrapper(self, probe: str, fn, counter, only_under=None):
        """Count calls of fn, or only those made directly by probe `only_under`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_under is None or (tracer._probes and tracer._probes[-1] == only_under):
                tracer.counts[counter] += 1
            tracer._probes.append(probe)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._probes.pop()

        return wrapper

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook at every troprank module attribute bound to it."""
        self.missing = []
        plans = [
            (module, attribute, functools.partial(self._layer_wrapper, layer, outcome=outcome))
            for layer, module, attribute, outcome in HOOKS
        ]
        lookup = functools.partial(self._probe_wrapper, "lookup", counter="rank.slot.lookups")
        plans.append((*SLOT_LOOKUP, lookup))
        solve = functools.partial(
            self._probe_wrapper, "solve", counter="rank.slot.solves", only_under="lookup"
        )
        plans += [(module, attribute, solve) for module, attribute in SLOT_SOLVES]
        resolved = []
        for module, attribute, make in plans:
            try:
                resolved.append((attribute, *_resolve(module, attribute), make))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{attribute}")
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("troprank") and m]
        for attribute, owner, name, original, make in resolved:
            wrapper = make(original)
            sites = [owner] if "." in attribute else modules
            for site in sites:
                if site.__dict__.get(name) is original:
                    self._restore.append((site, name, original))
                    setattr(site, name, wrapper)

    def uninstall(self) -> None:
        for site, name, original in reversed(self._restore):
            setattr(site, name, original)
        self._restore = []

    # -- summarizing ------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls and self seconds, plus outcome and slot counts."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        verify_in_upper = 0
        for index, (_, layer, start, end, parent) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (end - start) - covered[index]
            if layer == "decomposition.verify" and parent is not None:
                verify_in_upper += self.spans[parent][1] == "rank.upper"
        counts = {f"{layer}.calls": calls[layer] for layer in LAYERS}
        counts.update(self.counts)
        counts["rank.upper.verify_calls"] = verify_in_upper
        return {"counts": counts, "self_s": {layer: self_s[layer] for layer in LAYERS}}
