"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench -q"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import signalnorm.highdim
import signalnorm.slope
from metrics import LayerTrace, percentiles
from signalnorm.model import Dimensions, ModelSpec, sample_sparse_theta, synthesize
from tracing import Span, Tracer, covered, install, self_times
from workloads import GOLDEN_DIR, SPEC, CliSession, TallSimulate, WideEstimate, compare

HERE = Path(__file__).resolve().parent
RTOL, ATOL = SPEC["golden"]["rtol"], SPEC["golden"]["atol"]


def _span(id, parent, name, start, end):
    return Span(id, parent, name, float(start), float(end), op=0)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, None, "op", 0, 10),
        _span(1, 0, "highdim.estimate_highdim", 1, 9),
        _span(2, 1, "slope.sqrt_slope_fit", 2, 8),
        _span(3, 2, "slope.prox_sorted_l1", 3, 4),
        _span(4, 2, "slope.prox_sorted_l1", 5, 7),
    ]
    assert self_times(spans) == {0: 2.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 2.0}
    trace = LayerTrace(spans)
    assert trace.layers() == {"highdim": 2.0, "slope": 6.0, "unattributed": 2.0}
    assert trace.add_up_error() == 0.0
    assert trace.metrics()["slope.prox_sorted_l1.calls"] == 2


def test_self_time_counts_overlapping_siblings_once():
    spans = [
        _span(0, None, "op", 0, 10),
        _span(1, 0, "model.synthesize", 1, 5),
        _span(2, 0, "model.synthesize", 3, 8),
        _span(3, 0, "model.synthesize", 9, 12),  # clipped at the parent's end
    ]
    # Children cover [1, 8] and [9, 10]: 8 of the parent's 10 seconds.
    assert self_times(spans)[0] == 2.0
    # Overlap makes the self times sum past the op's wall time; the gate says so.
    trace = LayerTrace(spans)
    assert trace.add_up_error() == 4.0
    assert any("miss the op wall time" in g for g in trace.gates("tall-simulate"))


def test_covered_merges_and_skips_empty_intervals():
    assert covered([]) == 0.0
    assert covered([(0, 4), (1, 2), (3, 6), (7, 7), (8, 9)]) == 7.0


def test_install_traces_calls_and_restores():
    rng = np.random.default_rng(0)
    theta = sample_sparse_theta(40, 2, 1.0, rng=rng)
    sample = synthesize(ModelSpec(theta=theta, sigma=1.0), Dimensions(N=90, p=40, s=2), 3)
    original = signalnorm.highdim.sqrt_slope_fit
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        tracer.op = 0
        with tracer.span("op"):
            signalnorm.highdim.estimate_highdim(sample, 2)
    finally:
        uninstall()
    assert signalnorm.highdim.sqrt_slope_fit is original is signalnorm.slope.sqrt_slope_fit
    names = {s.name for s in tracer.spans}
    assert {"highdim.estimate_highdim", "slope.sqrt_slope_fit", "slope.prox_sorted_l1",
            "quadratic.component_estimates", "quadratic.debias"} <= names
    trace = LayerTrace(tracer.spans)
    assert trace.add_up_error() < 1e-9
    metrics = trace.metrics()
    assert metrics["slope.iterations"] >= 1
    assert metrics["slope.step_accept_ratio"] > 0


def test_percentile_rule():
    assert "p90" not in percentiles([1.0] * 99)
    pct = percentiles([float(v) for v in range(100)])
    assert pct["p50"] == 49.5 and 89 < pct["p90"] < 91


def _golden(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())["ops"]


def test_golden_check_rejects_a_perturbed_q_hat():
    golden = _golden("wide-estimate")[0]
    assert compare(golden, dict(golden), RTOL, ATOL) == ([], 0)
    near = dict(golden, q_hat=golden["q_hat"] * (1 + RTOL / 10) + ATOL)
    assert compare(golden, near, RTOL, ATOL)[0] == []
    far = dict(golden, q_hat=golden["q_hat"] * (1 + 1e-6) + 1e-6)
    mismatches, _ = compare(golden, far, RTOL, ATOL)
    assert mismatches and "q_hat" in mismatches[0]


def test_golden_check_rejects_a_flipped_decision():
    golden = _golden("tall-simulate")[0]
    flipped = dict(golden, digest="changed", decision=list(golden["decision"]))
    flipped["decision"][0] = 1 - flipped["decision"][0]
    mismatches, _ = compare(golden, flipped, RTOL, ATOL)
    assert mismatches == [f".decision[0]: {flipped['decision'][0]} != golden {golden['decision'][0]}"]

    session = _golden("cli-session")[0]
    changed = copy.deepcopy(session)
    changed[3]["stdout"]["decision"] = 1 - session[3]["stdout"]["decision"]
    assert compare(session, changed, RTOL, ATOL)[0]


def test_fixed_seed_regenerates_identical_inputs(tmp_path):
    for k in (0, 1):
        (s1, a), (s2, b) = WideEstimate.pool_sample(7, k), WideEstimate.pool_sample(7, k)
        assert s1 == s2 and np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
    assert not np.array_equal(WideEstimate.pool_sample(8, 1)[1].Y, a.Y)
    configs = [(TallSimulate(7, tmp_path / str(r)).inputs(3) / "config.json").read_text()
               for r in (0, 1)]
    assert configs[0] == configs[1]
    assert CliSession(7, tmp_path / "a").inputs(2)[1] == CliSession(7, tmp_path / "b").inputs(2)[1]
    assert CliSession(7, tmp_path / "c").inputs(2)[1] != CliSession(8, tmp_path / "d").inputs(2)[1]


def test_spec_agrees_with_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}
        specced = {name: (m["unit"], m["better"])
                   for name, m in SPEC[kind].items() if m["in_result_line"]}
        assert listed == specced
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w["why"] for name, w in SPEC["workloads"].items()}


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-estimate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
