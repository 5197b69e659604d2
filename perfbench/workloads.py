"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed, runs one op at a
time for a single caller (closed loop), and turns an op's result into the
outputs that are checked: invariants always, and golden values recorded
from the seed commit when the seed is the default one.  The program only
ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import signalnorm.cli as cli
from signalnorm import highdim
from signalnorm.model import Dimensions, ModelSpec, sample_sparse_theta, synthesize
from tracing import now

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN_DIR = HERE / "goldens"
SPEC = json.loads((HERE / "spec.json").read_text())
DEFAULT_SEED = SPEC["default_seed"]

# Top-level spawn keys, so that no two input streams share a seed.
_WIDE, _TALL, _CLI, _WARM_UP = 1, 2, 3, 9
# A CLI child normally ends within seconds; a hung one fails its op.
CHILD_TIMEOUT_S = 60


def child_seed(seed: int, *key: int) -> int:
    """An integer seed derived from the workload seed and a spawn key."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint32)[0])


def child_env() -> dict:
    """Environment for CLI children: the package from this checkout's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _finite(out: dict, keys) -> list[str]:
    return [f"{k} is not finite: {out[k]!r}" for k in keys
            if not (isinstance(out[k], (int, float)) and math.isfinite(out[k]))]


def compare(expected, actual, rtol: float, atol: float, where: str = "") -> tuple[list[str], int]:
    """Check `actual` against a golden value.

    Returns the mismatches and the number of floats that differ within
    ``atol + rtol * |expected|``.  Every other value, `decision` and
    `branch` included, must be equal.  An object whose `digest` matches is
    bit-for-bit equal and is not compared further.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {actual!r}"], 0
        if "digest" in expected and expected["digest"] == actual.get("digest"):
            return [], 0
        problems, inexact = [], 0
        for key, value in expected.items():
            if key == "digest":
                continue
            if key not in actual:
                problems.append(f"{where}.{key}: missing")
                continue
            p, n = compare(value, actual[key], rtol, atol, f"{where}.{key}")
            problems += p
            inexact += n
        return problems, inexact
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected {len(expected)} items"], 0
        problems, inexact = [], 0
        for k, (e, a) in enumerate(zip(expected, actual)):
            p, n = compare(e, a, rtol, atol, f"{where}[{k}]")
            problems += p
            inexact += n
        return problems, inexact
    if isinstance(expected, float) and isinstance(actual, float) and expected != actual:
        if math.isfinite(actual) and abs(actual - expected) <= atol + rtol * abs(expected):
            return [], 1
        return [f"{where}: {actual!r} != golden {expected!r}"], 0
    if expected != actual or isinstance(expected, str) != isinstance(actual, str):
        return [f"{where}: {actual!r} != golden {expected!r}"], 0
    return [], 0


class Workload:
    """One workload: seeded inputs, a timed op, and its output checks."""

    name = ""
    golden_keys: tuple = ()
    # Whether the op's work runs in the benchmark's own process.
    in_process = True
    # Whether op times are scaled by host speed (see metrics.REF_NOMINAL_S).
    host_scaled = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        path = GOLDEN_DIR / f"{self.name}.json"
        goldens = json.loads(path.read_text()) if path.exists() else None
        self.goldens = goldens["ops"] if goldens and goldens["seed"] == seed else []

    def inputs(self, i: int):
        raise NotImplementedError

    def op(self, inputs, traced: bool):
        raise NotImplementedError

    def output(self, inputs, raw) -> dict:
        raise NotImplementedError

    def invariants(self, inputs, out) -> list[str]:
        raise NotImplementedError

    def golden_index(self, i: int) -> int:
        return i

    def golden(self, i: int):
        k = self.golden_index(i)
        return self.goldens[k] if k < len(self.goldens) else None

    def golden_view(self, out):
        """The part of an op's outputs that goldens record."""
        return {k: out[k] for k in self.golden_keys}

    def warm_up(self) -> None:
        inputs = self.inputs(0)
        try:
            self.op(inputs, False)
        finally:
            self.cleanup(inputs)

    def cleanup(self, inputs) -> None:
        pass

    def extras(self, raw, out) -> dict:
        """Per-op values behind this workload's own report metrics."""
        return {}

    def span_files(self, raw) -> list[Path]:
        """Span files written by child processes during a traced op."""
        return []

    def report_metrics(self, ops: list[dict]) -> dict:
        """Report-only end-to-end metrics: name -> (value, sample count)."""
        return {}


class WideEstimate(Workload):
    """In-process ``estimate_highdim`` on a pool of wide samples."""

    name = "wide-estimate"
    golden_keys = ("branch", "q_hat", "lambda_hat", "sigma_hat")
    N, p, magnitude = 1500, 3000, 2.0
    # s = 8 takes the sparse three-way split (s^2 <= p); s = 80 the dense two-way one.
    sparsities = (8, 80)
    pool_size = 8
    # Ops of about 0.2 s leave room for a reference sample after each one,
    # so the samples follow the host's speed through the run.  Over ten
    # seeds this cut the spread of op_s.p50 from 0.22 to 0.07.  With ops of
    # seconds (tall-simulate, cli-session) the samples bunch between ops and
    # scaling widened the spread (0.04 to 0.13 on tall-simulate).
    host_scaled = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pool = [self.pool_sample(seed, k) for k in range(self.pool_size)]

    @classmethod
    def pool_sample(cls, seed: int, k: int):
        s = cls.sparsities[k % len(cls.sparsities)]
        ss_theta, ss_data = np.random.SeedSequence(entropy=seed, spawn_key=(_WIDE, k)).spawn(2)
        theta = sample_sparse_theta(cls.p, s, cls.magnitude, rng=np.random.default_rng(ss_theta))
        dims = Dimensions(N=cls.N, p=cls.p, s=s)
        return s, synthesize(ModelSpec(theta=theta, sigma=1.0), dims, ss_data)

    def golden_index(self, i):
        return i % self.pool_size

    def inputs(self, i):
        return self.pool[i % self.pool_size]

    def op(self, inputs, traced):
        s, sample = inputs
        return highdim.estimate_highdim(sample, s)

    def output(self, inputs, est):
        return {"branch": est.branch, "q_hat": est.q_hat,
                "lambda_hat": est.lambda_hat, "sigma_hat": est.sigma_hat}

    def invariants(self, inputs, out):
        s, sample = inputs
        problems = _finite(out, ("q_hat", "lambda_hat", "sigma_hat"))
        if not problems and out["sigma_hat"] <= 0:
            problems.append(f"sigma_hat {out['sigma_hat']!r} is not positive")
        branch = "sparse" if s * s <= sample.p else "dense"
        if out["branch"] != branch:
            problems.append(f"branch {out['branch']!r}, expected {branch!r} for s={s}")
        return problems


class TallSimulate(Workload):
    """In-process ``signalnorm.cli.main(["simulate", ...])`` on a tall grid."""

    name = "tall-simulate"
    golden_keys = ("exit", "digest", "q_hat", "decision", "errors", "rejection_rate")
    # alpha = 1.0: at the default alpha = 4 every null statistic at this
    # shape is 0 and calibration falls back to beta = 1.0.
    config = {
        "task": "detect", "regime": "low", "n": [100, 200], "p_rule": "n/2",
        "s_rule": "3", "alpha": 1.0, "magnitude": [0.0, 1.0],
        "replications": 100, "beta": None, "calib_trials": 500,
    }
    trials_per_op = 400
    # Touches every code path of an op once, at a fraction of its cost.
    warm_up_config = dict(config, replications=2, calib_trials=20)

    def _write(self, label: str, config: dict) -> Path:
        d = self.workdir / label
        d.mkdir(parents=True)
        (d / "config.json").write_text(json.dumps(config))
        return d

    def inputs(self, i):
        # A fresh config seed per op: both calibrations of an op are cold.
        return self._write(f"simulate-{i}", dict(self.config, seed=child_seed(self.seed, _TALL, i)))

    def warm_up(self):
        d = self._write("warm-up", dict(self.warm_up_config, seed=child_seed(self.seed, _WARM_UP)))
        try:
            self.op(d, False)
        finally:
            self.cleanup(d)

    def op(self, d, traced):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["simulate", "--config", str(d / "config.json"),
                             "--out-dir", str(d / "out")])
        return code, printed.getvalue()

    def output(self, d, raw):
        code, printed = raw
        text = (d / "out" / "records.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(text.decode())))
        summary = json.loads((d / "out" / "summary.json").read_text())
        cell = lambda v, kind: kind(v) if v else None  # noqa: E731
        return {
            "exit": code,
            "printed": printed,
            "digest": hashlib.sha256(text).hexdigest(),
            "q_hat": [cell(r["q_hat"], float) for r in rows],
            "lambda_hat": [cell(r["lambda_hat"], float) for r in rows],
            "decision": [cell(r["decision"], int) for r in rows],
            "errors": sum(1 for r in rows if r["error"]),
            "rejection_rate": [pt.get("rejection_rate") for pt in summary["points"]],
        }

    def invariants(self, d, out):
        problems = []
        if out["exit"] != 0:
            problems.append(f"simulate exited {out['exit']}")
        try:
            if set(json.loads(out["printed"])) != {"records", "summary"}:
                problems.append(f"simulate printed {out['printed']!r}")
        except json.JSONDecodeError:
            problems.append(f"simulate printed no JSON: {out['printed']!r}")
        if len(out["q_hat"]) != self.trials_per_op:
            problems.append(f"{len(out['q_hat'])} records, expected {self.trials_per_op}")
        if out["errors"]:
            problems.append(f"{out['errors']} trials recorded an error")
        for k, (q, lam, dec) in enumerate(zip(out["q_hat"], out["lambda_hat"], out["decision"])):
            if q is None or lam is None or not (math.isfinite(q) and math.isfinite(lam)):
                problems.append(f"record {k}: non-finite estimate")
            elif lam != math.sqrt(abs(q)):
                problems.append(f"record {k}: lambda_hat != sqrt(|q_hat|)")
            if dec not in (0, 1):
                problems.append(f"record {k}: decision {dec!r}")
        for rate in out["rejection_rate"]:
            if rate is None or not 0.0 <= rate <= 1.0:
                problems.append(f"rejection rate {rate!r}")
        return problems

    def cleanup(self, d):
        shutil.rmtree(d, ignore_errors=True)

    def extras(self, raw, out):
        return {"trials": len(out["q_hat"])}

    def report_metrics(self, ops):
        ok = [o for o in ops if "trials" in o["extras"]]
        if not ok:
            return {}
        rate = sum(o["extras"]["trials"] for o in ok) / sum(o["seconds"] for o in ok)
        return {"trials_per_s": (rate, len(ok))}


class CliSession(Workload):
    """One session of fresh ``python -m signalnorm.cli`` processes, run in turn."""

    name = "cli-session"
    in_process = False
    kinds = ("gen", "estimate", "gen", "detect")

    def inputs(self, i):
        d = self.workdir / f"session-{i}"
        d.mkdir(parents=True)
        wide_seed = child_seed(self.seed, _CLI, i, 0)
        tall_seed = child_seed(self.seed, _CLI, i, 1)
        argvs = [
            ["gen", "--N", "600", "--p", "1200", "--s", "6", "--magnitude", "2",
             "--seed", str(wide_seed), "--out", "wide.csv"],
            ["estimate", "--regime", "high", "--s", "6", "--input", "wide.csv"],
            ["gen", "--N", "400", "--p", "100", "--s", "3", "--magnitude", "1",
             "--seed", str(tall_seed), "--out", "tall.csv"],
            ["detect", "--regime", "low", "--s", "3", "--alpha", "1.0",
             "--calib-trials", "200", "--input", "tall.csv"],
        ]
        return d, argvs

    def op(self, inputs, traced):
        d, argvs = inputs
        steps = []
        for k, argv in enumerate(argvs):
            env = child_env()
            spans = None
            if traced:
                spans = d / f"spans-{k}.json"
                env["PERFBENCH_SPANS"] = str(spans)
                cmd = [sys.executable, str(HERE / "launcher.py"), *argv]
            else:
                cmd = [sys.executable, "-m", "signalnorm.cli", *argv]
            start = now()
            proc = subprocess.run(cmd, cwd=d, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            steps.append({"exit": proc.returncode, "stdout": proc.stdout,
                          "stderr": proc.stderr, "seconds": now() - start, "spans": spans})
        return steps

    def output(self, inputs, steps):
        out = []
        for step in steps:
            try:
                printed = json.loads(step["stdout"])
            except json.JSONDecodeError:
                printed = step["stdout"] + step["stderr"]
            out.append({"exit": step["exit"], "stdout": printed})
        return out

    def golden_view(self, out):
        return out  # every command's exit code and printed JSON

    def invariants(self, inputs, out):
        problems = []
        for kind, step in zip(self.kinds, out):
            if step["exit"] != 0:
                problems.append(f"{kind} exited {step['exit']}: {step['stdout']!r}")
            elif not isinstance(step["stdout"], dict):
                problems.append(f"{kind} printed no JSON")
        if problems:
            return problems
        gen_wide, est, gen_tall, det = (step["stdout"] for step in out)
        for gen, (N, p) in ((gen_wide, (600, 1200)), (gen_tall, (400, 100))):
            if (gen["N"], gen["p"]) != (N, p):
                problems.append(f"gen wrote N={gen['N']}, p={gen['p']}")
        problems += _finite(est, ("q_hat", "lambda_hat", "sigma_hat"))
        if not problems and est["sigma_hat"] <= 0:
            problems.append(f"sigma_hat {est['sigma_hat']!r} is not positive")
        if est["branch"] != ("sparse" if 6 * 6 <= 1200 else "dense"):
            problems.append(f"estimate took the {est['branch']!r} branch")
        problems += _finite(det, ("lambda_hat", "threshold"))
        if det["decision"] not in (0, 1):
            problems.append(f"decision {det['decision']!r}")
        return problems

    def cleanup(self, inputs):
        shutil.rmtree(inputs[0], ignore_errors=True)

    def extras(self, steps, out):
        seconds = {"gen": 0.0, "estimate": 0.0, "detect": 0.0}
        for kind, step in zip(self.kinds, steps):
            seconds[kind] += step["seconds"]
        return {f"cli.{kind}_s": value for kind, value in seconds.items()}

    def span_files(self, steps):
        return [step["spans"] for step in steps if step["spans"] is not None]

    def report_metrics(self, ops):
        out = {}
        for name in ("cli.gen_s", "cli.estimate_s", "cli.detect_s"):
            values = [o["extras"][name] for o in ops if name in o["extras"]]
            if values:
                out[name] = (float(np.median(values)), len(values))
        return out


WORKLOADS = {w.name: w for w in (WideEstimate, TallSimulate, CliSession)}
