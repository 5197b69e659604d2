"""Metrics computed from op timings and spans, workload-stress gates, and
the environment record."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracing import now, self_times

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10
ESTIMATES = ("lowdim.estimate_lowdim", "highdim.estimate_highdim")
CSV_IO = {"model.read_sample", "model.write_sample"}
# Layer self times plus unattributed time must add up to the op's wall time.
ADD_UP_TOLERANCE_S = 1e-6


# The host's speed drifts by tens of percent over minutes as other tenants
# come and go.  A fixed reference kernel, timed between the ops of a run,
# tracks it where ops are short: their times are scaled by
# REF_NOMINAL_S / (the kernel's median time in the run), which gives
# seconds on a host where the kernel takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.01
_REF_ARRAY = np.ones(1_000_000)


def reference_kernel() -> None:
    """Fixed work that mixes interpreter-bound and memory-bound steps, as
    the workloads do."""
    total = 0.0
    for i in range(80_000):
        total += i * 0.5
    for _ in range(8):
        _REF_ARRAY.sum()


def time_reference(reps: int) -> list[float]:
    samples = []
    for _ in range(reps):
        start = now()
        reference_kernel()
        samples.append(now() - start)
    return samples


def percentiles(values: list[float]) -> dict:
    """The median, and the 90th percentile when at least 100 samples give it
    ten beyond."""
    out = {"p50": statistics.median(values)}
    if len(values) >= 10 * TAIL_SAMPLES:
        out["p90"] = statistics.quantiles(values, n=10)[8]
    return out


class LayerTrace:
    """Per-op layer numbers from the spans of a run's traced ops."""

    def __init__(self, spans):
        self.spans = spans
        self.selfs = self_times(spans)
        self.roots = [s for s in spans if s.name == "op"]
        self.by_id = {s.id: s for s in spans}
        self.by_name = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)

    def per_op(self, total: float) -> float:
        return total / len(self.roots)

    def calls(self, name: str) -> float:
        return self.per_op(len(self.by_name[name]))

    def self_s(self, name: str) -> float:
        return self.per_op(sum(self.selfs[s.id] for s in self.by_name[name]))

    def attr(self, name: str, key: str) -> float:
        return self.per_op(sum(s.attrs.get(key, 0) for s in self.by_name[name]))

    def layers(self) -> dict[str, float]:
        """Mean self time per op of each layer; the op span's own self time
        is the unattributed rest."""
        totals = defaultdict(float)
        for span in self.spans:
            layer = "unattributed" if span.name == "op" else span.layer
            totals[layer] += self.selfs[span.id]
        return {layer: self.per_op(t) for layer, t in sorted(totals.items())}

    def add_up_error(self) -> float:
        """Largest gap, over ops, between the summed self times of an op's
        spans and the op's wall time."""
        totals = defaultdict(float)
        for span in self.spans:
            totals[span.op] += self.selfs[span.id]
        return max(abs(totals[r.op] - (r.end - r.start)) for r in self.roots)

    def _inside(self, span, name: str) -> bool:
        while span.parent is not None:
            span = self.by_id[span.parent]
            if span.name == name:
                return True
        return False

    def metrics(self) -> dict[str, float]:
        fits = self.by_name["slope.sqrt_slope_fit"]
        prox = self.by_name["slope.prox_sorted_l1"]
        calib = self.by_name["calibration.calibrate_beta"]
        parents = {s.parent for s in self.spans}
        iterations = sum(s.attrs.get("iterations", 0) for s in fits)
        return {
            "slope.prox_sorted_l1.calls": self.calls("slope.prox_sorted_l1"),
            "slope.prox_sorted_l1.self_s": self.self_s("slope.prox_sorted_l1"),
            "slope.sqrt_slope_fit.calls": self.calls("slope.sqrt_slope_fit"),
            "slope.sqrt_slope_fit.self_s": self.self_s("slope.sqrt_slope_fit"),
            "slope.iterations": self.per_op(iterations),
            "slope.nonconverged": self.per_op(
                sum(1 for s in fits if s.attrs.get("converged") is False)),
            "slope.step_accept_ratio": iterations / len(prox) if prox else 0.0,
            "lowdim.ols_fit.calls": self.calls("lowdim.ols_fit"),
            "lowdim.ols_fit.self_s": self.self_s("lowdim.ols_fit"),
            "lowdim.estimate_lowdim.self_s": self.self_s("lowdim.estimate_lowdim"),
            "calibration.calibrate_beta.calls": self.calls("calibration.calibrate_beta"),
            "calibration.calibrate_beta.self_s": self.self_s("calibration.calibrate_beta"),
            "calibration.null_trials": self.per_op(sum(
                1 for s in self.spans
                if s.name in ESTIMATES and self._inside(s, "calibration.calibrate_beta"))),
            "calibration.cache_hit_ratio": (
                sum(1 for s in calib if s.id not in parents) / len(calib) if calib else 0.0),
            "model.synthesize.calls": self.calls("model.synthesize"),
            "model.synthesize.self_s": self.self_s("model.synthesize"),
            "model.synthesize.bytes": self.attr("model.synthesize", "bytes"),
            "model.write_sample.self_s": self.self_s("model.write_sample"),
            "model.read_sample.self_s": self.self_s("model.read_sample"),
            "model.csv_bytes": (self.attr("model.write_sample", "bytes")
                                + self.attr("model.read_sample", "bytes")),
            "quadratic.component_estimates.calls": self.calls("quadratic.component_estimates"),
            "quadratic.component_estimates.self_s": self.self_s("quadratic.component_estimates"),
            "quadratic.debias.calls": self.calls("quadratic.debias"),
            "quadratic.debias.self_s": self.self_s("quadratic.debias"),
            "highdim.estimate_highdim.self_s": self.self_s("highdim.estimate_highdim"),
            "harness.run_trials.self_s": self.self_s("harness.run_trials"),
            "harness.run_single_trial.calls": self.calls("harness.run_single_trial"),
            "harness.trial_errors": self.attr("harness.run_single_trial", "error"),
            "harness.report.self_s": self.self_s("harness.report"),
            "harness.report.bytes": self.attr("harness.report", "bytes"),
            "cli.main.self_s": self.self_s("cli.main"),
            "process.import_s": self.self_s("process.import"),
            "trace.unattributed_s": self.layers().get("unattributed", 0.0),
        }

    def gates(self, workload: str) -> list[str]:
        """Failures of the checks that a workload still stresses what it claims."""
        failures = []
        names = {s.name for s in self.spans}
        layers = self.layers()
        op_s = self.per_op(sum(r.end - r.start for r in self.roots))
        if workload == "wide-estimate":
            slope = layers.get("slope", 0.0)
            if not slope > 0.5 * op_s:
                failures.append(f"slope self time is {slope / op_s:.0%} of op time, not the majority")
            if "calibration" in layers:
                failures.append("calibration spans present")
        if workload == "tall-simulate" and "slope" in layers:
            failures.append("slope spans present")
        if workload == "cli-session":
            if not CSV_IO <= names:
                failures.append(f"missing spans: {sorted(CSV_IO - names)}")
        elif names & CSV_IO:
            failures.append(f"spans present outside cli-session: {sorted(names & CSV_IO)}")
        gap = self.add_up_error()
        if gap > ADD_UP_TOLERANCE_S:
            failures.append(f"layer self times miss the op wall time by {gap:.3g} s")
        return failures


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None when none is found."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(root: Path) -> dict:
    """Recorded with every result, never gated."""
    import numpy
    import scipy

    import signalnorm

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "src_loc": sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py")),
        "all_count": len(signalnorm.__all__),
    }
