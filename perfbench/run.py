"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload wide-estimate --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it alternates pairs of untraced and traced ops and reports the
per-layer metrics, with the tracing overhead.  Every line but the last is a
readable report; the last is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status: 0 when every op passed its
checks (and, traced, every workload-stress gate held), 1 otherwise, 2 when
the package source is missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((HERE / "spec.json").read_text())
# Set-up is measured this many times, in fresh processes, per run.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# Between the ops of an untraced host-scaled run the reference kernel runs
# for about this share of the previous op's time, at least once, so that
# its samples spread over the run as the ops do.
REF_SHARE = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="set up once, print the monotonic clock and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def cpu_seconds() -> float:
    """User plus system time of this process, its threads and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(in_process: bool) -> float:
    """Peak resident memory of this process, or of its largest child."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the point where it could
    start its first timed op, once per repeat.  For a workload of CLI
    processes that point is the end of ``import signalnorm.cli``."""
    from tracing import now
    from workloads import WORKLOADS, child_env

    if WORKLOADS[workload].in_process:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--probe-setup"]
    else:
        cmd = [sys.executable, "-c",
               "import signalnorm.cli, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = now()
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def run_op(wl, i: int, traced: bool, tracer, tolerance: dict) -> dict:
    """Run op `i`, timed, then check its outputs outside the timed region."""
    from tracing import install, now
    from workloads import compare

    rec = {"op": i, "traced": traced, "problems": [], "extras": {}, "golden": None}
    inputs = wl.inputs(i)
    uninstall = install(tracer) if traced else None
    tracer.op = i if traced else None
    raw = root = None
    cpu_start, start = cpu_seconds(), now()
    try:
        if traced:
            with tracer.span("op") as root:
                raw = wl.op(inputs, True)
        else:
            raw = wl.op(inputs, False)
        end = now()
    except Exception:
        end = now()
        rec["problems"].append(traceback.format_exc())
    finally:
        rec["cpu_s"] = cpu_seconds() - cpu_start
        tracer.op = None
        if uninstall is not None:
            uninstall()
    rec["seconds"] = root.end - root.start if traced else end - start
    try:
        if raw is not None:
            out = wl.output(inputs, raw)
            rec["problems"] += wl.invariants(inputs, out)
            golden = wl.golden(i)
            if golden is not None:
                mismatches, inexact = compare(golden, wl.golden_view(out),
                                              tolerance["rtol"], tolerance["atol"])
                rec["problems"] += [f"golden {m}" for m in mismatches]
                rec["golden"] = ("mismatch" if mismatches
                                 else "within_tol" if inexact else "exact")
            rec["extras"] = wl.extras(raw, out)
            for path in wl.span_files(raw) if traced else []:
                tracer.adopt(json.loads(path.read_text()), root)
    except (OSError, ValueError, KeyError) as exc:
        rec["problems"].append(f"output unreadable: {exc!r}")
    finally:
        wl.cleanup(inputs)
    rec["failed"] = bool(rec["problems"])
    return rec


def result_line(correct: bool, attempted: int, failed: int, values: dict, kind: str) -> str:
    metrics = {name: {"value": values[name][0], "unit": SPEC[kind][name]["unit"]}
               for name, entry in SPEC[kind].items() if entry["in_result_line"]}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run(args, workdir: Path) -> int:
    from metrics import REF_NOMINAL_S, LayerTrace, environment, percentiles, time_reference
    from tracing import Tracer, now
    from workloads import WORKLOADS

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.warm_up()
    tracer = Tracer()
    ops = []
    refs = []  # reference-kernel times, sampled between ops
    start = now()
    # Closed loop, one caller.  A traced run goes on until it has traced an op.
    while (not ops or now() - start < args.seconds
           or (args.trace and not any(o["traced"] for o in ops))):
        i = len(ops)
        ops.append(run_op(wl, i, bool(args.trace) and (i // 2) % 2 == 1, tracer,
                          SPEC["golden"]))
        if wl.host_scaled and not args.trace:
            refs += time_reference(1 + int(REF_SHARE * ops[-1]["seconds"] / REF_NOMINAL_S))

    attempted = len(ops)
    failed = sum(o["failed"] for o in ops)
    values = {}  # name -> (value, sample count)
    gates = []
    if args.trace:
        traced = [o for o in ops if o["traced"]]
        untraced = [o for o in ops if not o["traced"]]
        trace = LayerTrace(tracer.spans)
        values = {name: (v, len(traced)) for name, v in trace.metrics().items()}
        values["process.cpu_s"] = (statistics.median(o["cpu_s"] for o in untraced), len(untraced))
        values["trace.overhead_frac"] = (
            statistics.median(o["seconds"] for o in traced)
            / statistics.median(o["seconds"] for o in untraced) - 1.0, len(ops))
        gates = trace.gates(args.workload)
    else:
        walls = [o["seconds"] for o in ops]
        scale = REF_NOMINAL_S / statistics.median(refs) if refs else 1.0
        values = {f"op_s.{k}": (v * scale, len(walls)) for k, v in percentiles(walls).items()}
        values["setup_s"] = (statistics.median(setup), len(setup))
        values["peak_rss_mb"] = (peak_rss_mb(wl.in_process), 1)
        values.update(wl.report_metrics(ops))
    values["failed_frac"] = (failed / attempted, attempted)
    correct = failed == 0 and not gates

    env = environment(ROOT)
    kind = "per_layer" if args.trace else "end_to_end"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={attempted}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, n) in values.items():
        unit = (SPEC["end_to_end"].get(name) or SPEC["per_layer"].get(name))["unit"]
        print(f"  {name:40s} {value:>14.6g} {unit:6s} n={n}")
    if refs:
        print(f"host: reference kernel median {statistics.median(refs):.6g} s (n={len(refs)}); "
              f"op times above are wall times x {scale:.6g}")
    checked = [o["golden"] for o in ops if o["golden"] is not None]
    print(f"golden: {len(checked)} ops checked, {checked.count('exact')} bit-exact, "
          f"{checked.count('within_tol')} within tolerance, {checked.count('mismatch')} mismatched")
    if args.trace:
        layers = LayerTrace(tracer.spans).layers()
        print("layer self s per traced op: "
              + " ".join(f"{k}={v:.4g}" for k, v in layers.items()))
        print("gates: " + ("held" if not gates else "FAILED: " + "; ".join(gates)))
    for o in ops:
        for problem in o["problems"][:3]:
            print(f"op {o['op']}: {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct, "gates": gates,
              "reference_s": refs, "setup_wall_s": setup,
              "metrics": {k: {"value": v, "n": n} for k, (v, n) in values.items()},
              "ops": [{k: o[k] for k in ("op", "traced", "seconds", "cpu_s", "failed",
                                         "golden", "extras")} for o in ops]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.records()))
    print(result_line(correct, attempted, failed, values, kind))
    return 0 if correct else 1


def probe_setup(args, workdir: Path) -> int:
    from tracing import now
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, workdir).warm_up()
    print(now())
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "signalnorm" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'signalnorm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        return probe_setup(args, workdir) if args.probe_setup else run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
