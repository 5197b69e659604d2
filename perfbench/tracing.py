"""Outside-in tracing for the benchmark.

Timing wrappers are rebound at every ``signalnorm`` module attribute that
holds one of the traced public functions, so a call is recorded whichever
import site it goes through, and nothing in the package changes.  Spans
stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


def now() -> float:
    """Seconds on CLOCK_MONOTONIC.  Every process on a Linux host reads the
    same clock, so spans recorded in CLI child processes line up with the
    parent's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    op: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Nested spans of one thread.  Every span opened while `op` is set
    carries that op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, now(), op=self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = now()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def record(self, name: str, start: float, end: float) -> Span:
        """Add a finished span under the innermost open one."""
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, start, end, op=self.op)
        self.spans.append(span)
        return span

    def adopt(self, records: list[dict], parent: Span) -> None:
        """Append spans written by another process under `parent`.  Their ids
        are renumbered; those without a parent become children of `parent`."""
        base = len(self.spans)
        for rec in records:
            self.spans.append(
                Span(
                    id=base + rec["id"],
                    parent=parent.id if rec["parent"] is None else base + rec["parent"],
                    name=rec["name"],
                    start=rec["start"],
                    end=rec["end"],
                    op=parent.op,
                    attrs=rec["attrs"],
                )
            )

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _fit_attrs(args, kwargs, fit):
    return {"iterations": int(fit.iterations), "converged": bool(fit.converged)}


def _synthesize_attrs(args, kwargs, sample):
    N, p = sample.X.shape
    return {"bytes": 8 * N * (p + 1)}  # computed from the shapes, not measured


def _written_attrs(args, kwargs, path):
    return {"bytes": os.path.getsize(path)}


def _read_attrs(args, kwargs, sample):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _report_attrs(args, kwargs, paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths.values())}


def _trial_attrs(args, kwargs, record):
    return {"error": record.error is not None}


# Traced public functions, by defining module, with the function that turns
# a call's result into span attributes.
TRACED = {
    "signalnorm.cli": {"main": None},
    "signalnorm.model": {
        "synthesize": _synthesize_attrs,
        "write_sample": _written_attrs,
        "read_sample": _read_attrs,
    },
    "signalnorm.slope": {"sqrt_slope_fit": _fit_attrs, "prox_sorted_l1": None},
    "signalnorm.quadratic": {"component_estimates": None, "debias": None},
    "signalnorm.lowdim": {"ols_fit": None, "estimate_lowdim": None},
    "signalnorm.highdim": {"estimate_highdim": None},
    "signalnorm.calibration": {"calibrate_beta": None},
    "signalnorm.harness": {
        "run_trials": None,
        "run_single_trial": _trial_attrs,
        "report": _report_attrs,
    },
}


def _timed(tracer: Tracer, name: str, fn, annotate):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if annotate is not None:
            span.attrs.update(annotate(args, kwargs, result))
        return result

    return timed


def install(tracer: Tracer):
    """Rebind each traced function at every ``signalnorm`` module attribute
    that holds it.  Returns a function that restores the originals."""
    wrappers = {}
    for modname, funcs in TRACED.items():
        module = importlib.import_module(modname)
        for fname, annotate in funcs.items():
            original = getattr(module, fname)
            name = f"{modname.rsplit('.', 1)[1]}.{fname}"
            wrappers[id(original)] = (original, _timed(tracer, name, original, annotate))
    rebound = []
    for modname, module in list(sys.modules.items()):
        if modname != "signalnorm" and not modname.startswith("signalnorm."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                rebound.append((module, attr, value))

    def uninstall():
        for module, attr, value in rebound:
            setattr(module, attr, value)

    return uninstall


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.
    Children that overlap each other are counted once."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        span.id: (span.end - span.start)
        - covered((max(c.start, span.start), min(c.end, span.end)) for c in children[span.id])
        for span in spans
    }
