"""In-memory span tracing around seprep's cross-module calls.

The tracer patches module attributes from the outside. Each target names a
module, the attribute another module (or the benchmark) calls it through,
and the span name to record, so nothing in the library changes. A target
whose attribute no longer exists is skipped; its metrics then read 0.

Spans are properly nested because the library is single-threaded, so a
span's self time is its duration minus the summed durations of its direct
children.
"""
from __future__ import annotations

import gzip
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    op: str      # operation id: one per selection, batch or evaluation pass
    items: int = 0
    info: object = None


def _rows(args, kwargs):
    points = args[1] if len(args) > 1 else kwargs["points"]
    return len(points)


def _observe_fit(span, args, kwargs, result):
    """Winner sweeps and sweep-cap hits, read from FitDiagnostics."""
    config = args[2] if len(args) > 2 else kwargs["config"]
    _, diag = result
    records = diag.per_rank
    span.info = (
        sum(rec.sweeps for rec in records),
        sum(rec.sweeps >= config.max_sweeps_per_rank for rec in records),
    )


def _observe_gcv(span, args, kwargs, result):
    """Where the chosen lambda sits on its grid."""
    if result.lambda_ <= result.grid[0]:
        span.info = "floor"
    elif result.lambda_ >= result.grid[-1]:
        span.info = "ceiling"
    else:
        span.info = "interior"


# (module, attribute called across a module boundary, span name, items, observer)
TARGETS = [
    ("seprep.selection", "fit_fixed", "als.fit_fixed", None, _observe_fit),
    ("seprep.als", "TikhonovPath", "regularize.TikhonovPath", None, None),
    ("seprep.als", "gcv_select_lambda", "regularize.gcv_select_lambda", None, _observe_gcv),
    ("seprep.als", "eval_basis_batch", "basis.eval_basis_batch", None, None),
    ("seprep.model", "eval_basis_batch", "basis.eval_basis_batch", None, None),
    ("seprep.problems", "eval_basis_batch", "basis.eval_basis_batch", None, None),
    ("seprep.problems", "kl_decompose", "problems.kl_decompose", None, None),
    ("seprep.problems", "elliptic_solve_batch", "problems.elliptic_solve_batch", _rows, None),
    ("seprep.problems", "coefficient_at_gauss_points",
     "problems.coefficient_at_gauss_points", None, None),
    # entry points the benchmark itself calls
    ("seprep.selection", "select_model", "selection.select_model", None, None),
    ("seprep.model", "evaluate_batch", "model.evaluate_batch", None, None),
]

# Failures of an observer leave the span without info instead of ending the run.
_OBSERVER_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class Tracer:
    """Records spans while active; patches and restores the target attributes."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.op = ""
        self.active = False
        self._stack: list[int] = []
        self._patches: list = []

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, fn, name, items, observe):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if items is not None:
                span.items = items(args, kwargs)
            if observe is not None:
                try:
                    observe(span, args, kwargs, result)
                except _OBSERVER_ERRORS:
                    span.info = None
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            return
        for module_name, attr, name, items, observe in self.targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, items, observe))
        self.active = True

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()
        self.active = False

    def write(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.items] for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op", "items"],
                       "spans": rows}, fh)


UNITS = {
    "selection.fit_fixed_calls": "count",
    "selection.slowest_fit_share": "ratio",
    "als.direction_solves": "count",
    "als.sweeps": "count",
    "als.candidate_waste_share": "ratio",
    "als.cap_hits": "count",
    "als.us_per_direction_solve": "us",
    "als.self_s": "s",
    "regularize.path_s": "s",
    "regularize.gcv_s": "s",
    "regularize.gcv_floor_share": "ratio",
    "regularize.gcv_ceiling_share": "ratio",
    "basis.eval_calls": "count",
    "basis.eval_s": "s",
    "model.evaluate_self_s": "s",
    "problems.fem_solves": "count",
    "problems.coeff_s": "s",
    "problems.fem_self_s": "s",
    "problems.kl_s": "s",
    "trace_overhead_share": "ratio",
}


def direction_solves_by_op(spans: list[Span]) -> dict:
    """als.direction_solves of each operation, for example of one selection."""
    out: dict = {}
    for s in spans:
        if s.name == "regularize.TikhonovPath":
            out[s.op] = out.get(s.op, 0) + 1
    return out


def layer_metrics(spans: list[Span], dims: int) -> dict:
    """Per-layer counts and times from one traced pass (plus its set-up)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start

    def named(name):
        return [(i, s) for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return sum(s.end - s.start for _, s in named(name))

    def self_time(name):
        return sum(s.end - s.start - child_time[i] for i, s in named(name))

    fits = named("als.fit_fixed")
    solves = len(named("regularize.TikhonovPath"))
    sweeps = solves / dims if dims else 0.0
    winner_sweeps = sum(s.info[0] for _, s in fits if s.info)
    gcv = [s.info for _, s in named("regularize.gcv_select_lambda")]

    fit_times: dict = {}
    for _, s in fits:
        fit_times.setdefault(s.op, []).append(s.end - s.start)
    slowest = [max(t) / sum(t) for t in fit_times.values() if sum(t) > 0.0]

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "selection.fit_fixed_calls": len(fits),
        "selection.slowest_fit_share": statistics.median(slowest) if slowest else 0.0,
        "als.direction_solves": solves,
        "als.sweeps": sweeps,
        "als.candidate_waste_share": share(sweeps - winner_sweeps, sweeps),
        "als.cap_hits": sum(s.info[1] for _, s in fits if s.info),
        "als.us_per_direction_solve": share(total("als.fit_fixed"), solves) * 1e6,
        "als.self_s": self_time("als.fit_fixed"),
        "regularize.path_s": total("regularize.TikhonovPath"),
        "regularize.gcv_s": total("regularize.gcv_select_lambda"),
        "regularize.gcv_floor_share": share(gcv.count("floor"), len(gcv)),
        "regularize.gcv_ceiling_share": share(gcv.count("ceiling"), len(gcv)),
        "basis.eval_calls": len(named("basis.eval_basis_batch")),
        "basis.eval_s": total("basis.eval_basis_batch"),
        "model.evaluate_self_s": self_time("model.evaluate_batch"),
        "problems.fem_solves": sum(s.items for _, s in named("problems.elliptic_solve_batch")),
        "problems.coeff_s": total("problems.coefficient_at_gauss_points"),
        "problems.fem_self_s": self_time("problems.elliptic_solve_batch"),
        "problems.kl_s": total("problems.kl_decompose"),
    }
