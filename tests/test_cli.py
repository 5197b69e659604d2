"""End-to-end tests of the command line interface and its exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from signalnorm import _workers
from signalnorm.calibration import calibrate_beta
from signalnorm.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, _build_parser, main
from signalnorm.harness import CSV_COLUMNS, ExperimentConfig, read_records, run_trials
from signalnorm.model import (
    Dimensions,
    ModelSpec,
    RegressionSample,
    read_sample,
    synthesize,
    write_sample,
)
from signalnorm.pipeline import detect, detection_threshold, estimate
from signalnorm.quadratic import sparse_branch
from signalnorm.slope import sqrt_slope_fit
from test_pipeline import _children

# Seeded `simulate` files, `rates` and `lower-bound` stdout and detection
# thresholds, recorded before the rate and the report helpers were folded; the
# last three `REPORT_CONFIGS` and every calibrated beta were recorded before
# calibration moved into `pipeline.decide`.  The `simulate` files of
# "high-sparse", "high-sparse-detect" and "high-dense-detect" were re-recorded
# when the sorted-L1 residuals came to run over the iterate's support: their
# estimates moved in the last bits (q_hat by at most 7.8e-16 relative), with
# the same decisions and error tags.  Any change to the bytes of a report or a
# beta shows here.
REPORT_GOLDENS = json.loads((Path(__file__).parent / "goldens" / "reports.json").read_text())

# `gen` arguments for a wide, a tall and a small sample, with the sha256 of the
# CSV and truth sidecar each wrote, and the small pair in full; recorded before
# the CSV writer moved off the csv module.
GEN_GOLDENS = json.loads((Path(__file__).parent / "goldens" / "gen.json").read_text())

# Small `simulate` configs: low-regime detection with a calibrated beta, the
# high regime's sparse branch over 2 noise levels x 2 magnitudes, and its dense
# branch over 3 sizes, which writes `rate_fits`; then detection with a calibrated
# beta on each high-regime branch (the sparse one at N = 3n) and in the low
# regime under non-Gaussian laws, each beta a real null quantile, not the 1.0
# fallback.
REPORT_CONFIGS = {
    "low-detect": {
        "seed": 3, "task": "detect", "regime": "low", "replications": 4, "n": [40],
        "p_rule": "n/4", "s_rule": "2", "sigma": [1.0], "magnitude": [0.0, 2.0],
        "alpha": 1.0, "calib_trials": 40,
    },
    "high-sparse": {
        "seed": 5, "task": "estimate-norm", "regime": "high", "replications": 2, "n": [30],
        "p_rule": "2*n", "s_rule": "2", "sigma": [0.5, 1.0], "magnitude": [0.0, 4.0],
        "alpha": 1.0,
    },
    "high-dense": {
        "seed": 7, "task": "estimate-norm", "regime": "high", "replications": 2,
        "n": [16, 24, 32], "p_rule": "n", "s_rule": "p", "sigma": [1.0], "magnitude": [1.0],
    },
    "high-sparse-detect": {
        "seed": 9, "task": "detect", "regime": "high", "replications": 2, "n": [30],
        "p_rule": "2*n", "s_rule": "2", "magnitude": [0.0, 4.0], "alpha": 1.0,
        "calib_trials": 40,
    },
    "high-dense-detect": {
        "seed": 13, "task": "detect", "regime": "high", "replications": 2, "n": [16],
        "p_rule": "n", "s_rule": "p", "magnitude": [0.0, 2.0], "calib_trials": 40,
    },
    "low-detect-laws": {
        "seed": 17, "task": "detect", "regime": "low", "replications": 2, "n": [40],
        "p_rule": "n/4", "s_rule": "2", "magnitude": [0.0, 2.0], "alpha": 1.0,
        "calib_trials": 40, "design": "uniform-scaled", "noise": "scaled-rademacher-mixture",
    },
}

LOWER_BOUND_ARGS = {
    "kappa": ["--p", "100", "--N", "400", "--s", "5", "--delta", "0.5", "--kappa", "1.0"],
    "no-kappa": ["--p", "500", "--N", "1000", "--s", "30", "--delta", "0.1"],
    "sigma": ["--p", "64", "--N", "50", "--s", "2", "--delta", "0.3", "--kappa", "0.2",
              "--sigma", "2.0"],
}

# The flags each command accepts, besides -h/--help.
COMMAND_FLAGS = {
    "gen": {"--N", "--p", "--s", "--sigma", "--magnitude", "--pattern", "--design", "--noise",
            "--seed", "--out"},
    "estimate": {"--regime", "--s", "--alpha", "--c1", "--prelim", "--input"},
    "detect": {"--regime", "--s", "--alpha", "--c1", "--beta", "--delta", "--calib-trials",
               "--calib-seed", "--input"},
    "slope-fit": {"--c1", "--max-iter", "--tol", "--input"},
    "simulate": {"--config", "--out-dir"},
    "rates": {"--from", "--metric"},
    "lower-bound": {"--p", "--N", "--s", "--delta", "--kappa", "--sigma"},
}

THRESHOLD_SHAPES = [(2.0, 1.3, 3, 30, 200), (1.0, 1.0, 1, 400, 300), (0.7, 2.5, 40, 100, 90)]


def _stdout_of(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == EXIT_OK, argv
    return buf.getvalue()


def _simulate(tmp_path, name):
    """Run `simulate` on `REPORT_CONFIGS[name]`; the directory it wrote to."""
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(REPORT_CONFIGS[name]))
    run_dir = tmp_path / name
    _stdout_of("simulate", "--config", str(cfg_path), "--out-dir", str(run_dir))
    return run_dir


def _report_outputs(tmp_path):
    """The bytes of every output the golden `reports.json` holds."""
    out = {"simulate": {}, "rates": {}, "lower_bound": {}}
    for name in REPORT_CONFIGS:
        run_dir = _simulate(tmp_path, name)
        out["simulate"][name] = {f: (run_dir / f).read_text()
                                 for f in ("records.csv", "summary.json")}
    records = str(tmp_path / "high-dense" / "records.csv")
    for metric in ("mse_lambda", "mse_q", "mean_abs_err_q", "mean_abs_err_lambda"):
        out["rates"][metric] = _stdout_of("rates", "--from", records, "--metric", metric)
    for name, argv in LOWER_BOUND_ARGS.items():
        out["lower_bound"][name] = _stdout_of("lower-bound", *argv)
    out["detection_threshold"] = [detection_threshold(*shape).hex()
                                  for shape in THRESHOLD_SHAPES]
    # The decisions show a beta only where one flips; its bits, by n, show it all.
    out["calibrated_beta"] = {}
    for name, config in REPORT_CONFIGS.items():
        cfg = ExperimentConfig.from_dict(config)
        if cfg.task == "detect" and cfg.beta is None:
            out["calibrated_beta"][name] = {
                str(pt["n"]): calibrate_beta(
                    p=pt["p"], N=pt["n_used"], s=pt["s"], regime=pt["regime"], delta=cfg.delta,
                    alpha=cfg.alpha, c1=cfg.c1, trials=cfg.calib_trials, seed=cfg.seed,
                    design=cfg.design, noise=cfg.noise).hex()
                for pt in cfg.grid_points()}
    return out


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


@pytest.fixture
def sample_csv(tmp_path, capsys):
    path = tmp_path / "sample.csv"
    code = main([
        "gen", "--N", "40", "--p", "4", "--s", "2", "--sigma", "1.0",
        "--magnitude", "3.0", "--seed", "7", "--out", str(path),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    return path


def test_gen_writes_csv_and_sidecar(tmp_path, capsys):
    """The sidecar holds the theta, sigma and seed that generated the CSV."""
    path = tmp_path / "s.csv"
    code, out = run_cli(capsys, "gen", "--N", "10", "--p", "3", "--s", "1", "--sigma", "0.7",
                        "--magnitude", "1.0", "--seed", "3", "--out", str(path))
    assert code == EXIT_OK
    header = path.read_text().splitlines()[0]
    assert header == "y,x1,x2,x3"
    truth = json.loads(path.with_suffix(".csv.truth.json").read_text())
    assert list(truth) == ["theta", "sigma", "seed"]
    assert truth["sigma"] == 0.7 and truth["seed"] == 3
    assert sorted(truth["theta"]) == [0.0, 0.0, 1.0]
    regenerated = synthesize(ModelSpec(theta=truth["theta"], sigma=truth["sigma"]),
                             Dimensions(N=10, p=3, s=1), truth["seed"])
    sample = read_sample(path)
    np.testing.assert_array_equal(sample.X, regenerated.X)
    np.testing.assert_array_equal(sample.Y, regenerated.Y)


def test_gen_goldens(tmp_path, capsys):
    """`gen` writes the recorded CSV and sidecar bytes, CRLF line ends included."""
    for name, argv in GEN_GOLDENS["args"].items():
        path = tmp_path / f"{name}.csv"
        code, _ = run_cli(capsys, "gen", *argv, "--out", str(path))
        assert code == EXIT_OK
        files = {"csv": path.read_bytes(), "truth": (tmp_path / f"{name}.csv.truth.json").read_bytes()}
        assert {k: hashlib.sha256(v).hexdigest() for k, v in files.items()} == \
            GEN_GOLDENS["sha256"][name], name
    assert {k: v.decode() for k, v in files.items()} == GEN_GOLDENS["small"]


@pytest.mark.xfail(strict=True, reason="gen draws theta from SeedSequence(seed)'s second "
                   "child, the stream synthesize draws the noise from; a fix changes gen's data")
def test_gen_noise_is_not_the_theta_stream(tmp_path, capsys):
    """`gen` draws theta's support from a stream of its own, not from the one
    `synthesize` draws the noise from, so the support and the noise are independent."""
    path = tmp_path / "s.csv"
    code, _ = run_cli(capsys, "gen", "--N", "50", "--p", "20", "--s", "3", "--magnitude", "1",
                      "--seed", "7", "--out", str(path))
    assert code == EXIT_OK
    sample = read_sample(path)
    truth = json.loads(path.with_suffix(".csv.truth.json").read_text())
    noise = (sample.Y - sample.X @ np.array(truth["theta"])) / truth["sigma"]
    theta_stream = np.random.SeedSequence(entropy=7, spawn_key=(1,))
    assert not np.allclose(noise, np.random.default_rng(theta_stream).standard_normal(50),
                           rtol=0, atol=1e-12)


def test_estimate_low(sample_csv, capsys):
    code, out = run_cli(capsys, "estimate", "--regime", "low", "--s", "2",
                        "--input", str(sample_csv))
    assert code == EXIT_OK
    assert list(out) == ["q_hat", "lambda_hat", "sigma_hat", "branch", "regime",
                         "n_per_split", "parts", "threshold"]  # the README's order
    assert out["regime"] == "low" and out["parts"] == 2
    assert np.isfinite(out["q_hat"]) and out["lambda_hat"] >= 0


def test_estimate_high_and_prelim_zero(sample_csv, capsys):
    code, out = run_cli(capsys, "estimate", "--regime", "high", "--s", "2",
                        "--input", str(sample_csv))
    assert code == EXIT_OK and out["regime"] == "high"
    code, out = run_cli(capsys, "estimate", "--regime", "high", "--s", "2",
                        "--prelim", "zero", "--input", str(sample_csv))
    assert code == EXIT_OK and out["parts"] == 1 and out["sigma_hat"] is None


def test_detect_with_explicit_beta(sample_csv, capsys):
    code, out = run_cli(capsys, "detect", "--regime", "low", "--s", "2",
                        "--alpha", "1.0", "--beta", "2.0", "--input", str(sample_csv))
    assert code == EXIT_OK
    assert out["decision"] in (0, 1)
    assert out["threshold"] > 0
    assert (out["lambda_hat"] >= out["threshold"]) == bool(out["decision"])


def test_detect_with_calibration(sample_csv, capsys):
    code, out = run_cli(capsys, "detect", "--regime", "low", "--s", "2", "--alpha", "1.0",
                        "--delta", "0.2", "--calib-trials", "60", "--input", str(sample_csv))
    assert code == EXIT_OK and out["decision"] in (0, 1)


def test_slope_fit_output_schema(sample_csv, capsys):
    code, out = run_cli(capsys, "slope-fit", "--c1", "1.5", "--input", str(sample_csv))
    assert code == EXIT_OK
    assert list(out) == ["theta_hat", "sigma_hat", "objective", "iterations", "converged"]
    assert len(out["theta_hat"]) == 4


def _fit_dict(fit):
    return {**asdict(fit), "theta_hat": fit.theta_hat.tolist()}


@pytest.mark.parametrize("argv, call", [
    (["estimate", "--regime", "low", "--s", "2"], lambda x: asdict(estimate(x, 2, "low"))),
    (["estimate", "--regime", "high", "--s", "2"], lambda x: asdict(estimate(x, 2, "high"))),
    (["detect", "--regime", "low", "--s", "2", "--beta", "2.0"],
     lambda x: dict(zip(["decision", "lambda_hat", "threshold"], detect(x, 2, "low", beta=2.0)))),
    (["slope-fit"], lambda x: _fit_dict(sqrt_slope_fit(x.X, x.Y))),
    (["slope-fit", "--max-iter", "1"], lambda x: _fit_dict(sqrt_slope_fit(x.X, x.Y, max_iter=1))),
    (["estimate", "--regime", "low", "--s", "2", "--alpha", "1.0"],
     lambda x: asdict(estimate(x, 2, "low", alpha=1.0))),
], ids=["estimate-low", "estimate-high", "detect-low", "slope-fit", "slope-fit-max-iter",
        "estimate-alpha"])
def test_cli_forwards_to_library_call(sample_csv, capsys, argv, call):
    """A tuning flag left out takes the library's default, and one that is given
    reaches the call: each command prints the JSON of its library call."""
    code, out = run_cli(capsys, *argv, "--input", str(sample_csv))
    assert code == EXIT_OK
    assert out == call(read_sample(sample_csv))
    if "--max-iter" in argv:
        assert out["iterations"] == 1


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_command_surface(tmp_path, capsys, sample_csv, command):
    """Each command accepts its recorded flags, and a run that succeeds prints
    exactly one stdout line, which parses to a JSON object."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {flag for action in sub.choices[command]._actions for flag in action.option_strings}
    assert accepted == {"-h", "--help", *COMMAND_FLAGS[command]}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(REPORT_CONFIGS["high-dense"]))
    records = tmp_path / "run" / "records.csv"
    argv = {
        "gen": ["--N", "10", "--p", "3", "--s", "1", "--out", str(tmp_path / "gen.csv")],
        "estimate": ["--regime", "low", "--s", "2", "--input", str(sample_csv)],
        "detect": ["--regime", "low", "--s", "2", "--beta", "2.0", "--input", str(sample_csv)],
        "slope-fit": ["--input", str(sample_csv)],
        "simulate": ["--config", str(config), "--out-dir", str(records.parent)],
        "rates": ["--from", str(records)],
        "lower-bound": LOWER_BOUND_ARGS["kappa"],
    }
    if command == "rates":
        _stdout_of("simulate", *argv["simulate"])
    code = main([command, *argv[command]])
    out = capsys.readouterr().out
    assert code == EXIT_OK and out.endswith("\n") and out.count("\n") == 1, out
    assert isinstance(json.loads(out), dict)


def test_simulate_and_rates(tmp_path, capsys):
    config = {
        "seed": 9,
        "task": "estimate-norm",
        "regime": "low",
        "replications": 3,
        "n": [16, 32],
        "p_rule": "n/4",
        "s_rule": "p",  # dense branch: null estimates are a.s. nonzero
        "sigma": [1.0],
        "magnitude": [0.0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out = run_cli(capsys, "simulate", "--config", str(cfg_path),
                        "--out-dir", str(tmp_path / "run"))
    assert code == EXIT_OK
    records_path = tmp_path / "run" / "records.csv"
    assert records_path.exists() and (tmp_path / "run" / "summary.json").exists()
    assert len(records_path.read_text().splitlines()) == 1 + 6

    code, out = run_cli(capsys, "rates", "--from", str(records_path), "--metric", "mse_lambda")
    assert code == EXIT_OK
    assert np.isfinite(out["slope"]) and len(out["points"]) == 2


def test_simulate_error_messages_with_commas_read_back(tmp_path, capsys):
    """Every n=16 trial fails with a message holding commas (n = p); `records.csv`
    quotes it, reads back equal to the records, and `rates` fits the other sizes."""
    config = {"seed": 1, "regime": "low", "n": [16, 40, 60], "p_rule": "min(n, 20)",
              "s_rule": "5", "magnitude": [1.0], "replications": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                      "--out-dir", str(tmp_path / "run"))
    assert code == EXIT_OK
    records = run_trials(ExperimentConfig.from_dict(config))
    assert [r.error is not None and ", " in r.error for r in records] == [True] * 2 + [False] * 4
    records_path = tmp_path / "run" / "records.csv"
    assert read_records(records_path) == records
    code, out = run_cli(capsys, "rates", "--from", str(records_path))
    assert code == EXIT_OK and len(out["points"]) == 2


def test_report_goldens(tmp_path):
    """`simulate` files, `rates` and `lower-bound` stdout and detection
    thresholds replay the recorded bytes exactly."""
    got = _report_outputs(tmp_path)
    assert "rate_fits" in got["simulate"]["high-dense"]["summary.json"]
    assert got == REPORT_GOLDENS


@pytest.mark.parametrize("workers", [2, 3])
def test_split_simulate_writes_the_in_process_bytes(workers, tmp_path, monkeypatch):
    """Forced over 2 or 3 worker interpreters, every golden `simulate` config
    writes the `records.csv` and `summary.json` bytes of its run in this
    process, leaves the environment as it was and no child process behind."""
    environ, before = dict(os.environ), _children()

    def outputs(label):
        (tmp_path / label).mkdir()
        return {name: {f: (_simulate(tmp_path / label, name) / f).read_bytes()
                       for f in ("records.csv", "summary.json")} for name in REPORT_CONFIGS}

    alone = outputs("alone")
    with monkeypatch.context() as patch:
        patch.setattr(_workers, "worker_count", lambda draws, items: workers)
        split = outputs("split")
    assert split == alone
    assert _children() == before
    assert dict(os.environ) == environ


def test_lower_bound_matches_library(capsys):
    import signalnorm as sn

    code, out = run_cli(capsys, "lower-bound", "--p", "100", "--N", "400", "--s", "5",
                        "--delta", "0.5", "--kappa", "1.0")
    assert code == EXIT_OK
    bundle = sn.minimax_testing_lower_radius(100, 400, 5, 0.5)
    assert out["A"] == pytest.approx(bundle.A)
    assert out["r"] == pytest.approx(bundle.r)
    assert out["rho"] == pytest.approx(bundle.rho)
    assert out["q_bar"] == pytest.approx(sn.q_lower_bound(100, 400, 5, 1.0, 1.0))
    assert out["bayes_risk_bound"] >= 0.5 - 1e-9


def test_lower_bound_evaluates_the_overlap_mgf_once(monkeypatch, capsys):
    """`mgf` and `bayes_risk_bound` come from one evaluation of the overlap MGF."""
    from signalnorm import lower_bounds

    calls = []
    real = lower_bounds.hypergeometric_mgf_bound

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lower_bounds, "hypergeometric_mgf_bound", counting)
    for name, argv in LOWER_BOUND_ARGS.items():
        calls.clear()
        assert run_cli(capsys, "lower-bound", *argv)[0] == EXIT_OK
        assert len(calls) == 1, name


def test_exit_code_config_errors(tmp_path, capsys):
    # missing input file
    code = main(["estimate", "--regime", "low", "--s", "1", "--input", str(tmp_path / "nope.csv")])
    capsys.readouterr()
    assert code == EXIT_CONFIG
    # malformed config JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["simulate", "--config", str(bad)])
    capsys.readouterr()
    assert code == EXIT_CONFIG
    # unknown config key
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"seed": 1, "bogus": True}))
    code = main(["simulate", "--config", str(bad2)])
    capsys.readouterr()
    assert code == EXIT_CONFIG
    # argparse usage error
    code = main(["no-such-command"])
    capsys.readouterr()
    assert code == EXIT_CONFIG
    # tuning, data laws and tasks that the config rejects when it loads, rather than
    # tagging every trial with the same error; values of the wrong type, rather
    # than a TypeError traceback; empty grids, rather than a run of no trials
    for key, value in (("alpha", -1.0), ("beta", 0.0), ("delta", 1.5), ("calib_trials", 0),
                       ("sigma", [-1.0]), ("sigma", ["a"]), ("design", "bogus"),
                       ("noise", "bogus"), ("replications", "3"), ("sigma", [None]),
                       ("sigma", []), ("magnitude", []), ("alpha", float("nan")),
                       ("alpha", float("inf")), ("beta", float("nan")), ("c1", -1.0),
                       ("c1", float("nan")), ("sigma", [float("nan")]),
                       ("magnitude", [float("nan")]), ("magnitude", [float("inf")]),
                       ("replications", 0), ("n", 64), ("task", "estimate-q")):
        bad3 = tmp_path / f"bad-{key}.json"
        bad3.write_text(json.dumps({"seed": 1, "task": "detect", key: value}))
        code = main(["simulate", "--config", str(bad3), "--out-dir", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == EXIT_CONFIG, (key, value)
    high = tmp_path / "bad-high.json"
    high.write_text(json.dumps({"seed": 1, "regime": "high", "s_rule": "p", "alpha": -3.0}))
    code = main(["simulate", "--config", str(high), "--out-dir", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == EXIT_CONFIG
    # config fields a run would ignore, the config-side twins of the flag rules below
    for extra, message in (
        ({"task": "detect", "beta": 2.0, "calib_trials": 3},
         "calib_trials: for calibration, not a given beta"),
        ({"beta": 2.0, "calib_trials": 2000}, "calib_trials: for calibration, not a given beta"),
        ({"regime": "low", "c1": 9.0}, "c1: for the high regime, not regime low"),
        ({"task": "estimate-norm", "beta": 2.0}, "beta: for task detect only"),
        ({"calib_trials": 20}, "calib_trials: for task detect only"),
        ({"task": "estimate-norm", "beta": 2.0, "delta": 0.2}, "beta: for task detect only"),
    ):
        ignored = tmp_path / "ignored.json"
        ignored.write_text(json.dumps({"seed": 1, **extra}))
        code = main(["simulate", "--config", str(ignored), "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and message in captured.err, extra
    # options of the high regime given to the low one, and calibration options
    # given with a beta, which would be ignored; rejected before the sample is read
    good_csv = tmp_path / "good.csv"
    good_csv.write_text("y,x1\n" + "\n".join(f"{i % 5},{i % 3}" for i in range(12)) + "\n")
    for argv, message in (
        (["estimate", "--c1", "2.0"], "--c1: for --regime high only"),
        (["estimate", "--prelim", "zero"], "--prelim: for --regime high only"),
        (["detect", "--c1", "2.0", "--beta", "1.0"], "--c1: for --regime high only"),
        (["detect", "--beta", "2", "--delta", "0.2"], "--delta: for calibration, not --beta"),
        (["detect", "--beta", "2", "--calib-trials", "0", "--delta", "7", "--calib-seed", "-5"],
         "--delta, --calib-trials, --calib-seed: for calibration, not --beta"),
    ):
        for path in (good_csv, tmp_path / "nope.csv"):
            code = main([*argv, "--regime", "low", "--s", "1", "--input", str(path)])
            assert code == EXIT_CONFIG and message in capsys.readouterr().err, (argv, path)
    # a negative seed, named, rather than numpy's bare "expected non-negative integer",
    # and for simulate at load rather than at the first trial
    negative = tmp_path / "negative-seed.json"
    negative.write_text(json.dumps({"seed": -1}))
    for argv in (["simulate", "--config", str(negative), "--out-dir", str(tmp_path / "out")],
                 ["gen", "--N", "10", "--p", "3", "--s", "1", "--seed", "-1",
                  "--out", str(tmp_path / "negative.csv")],
                 ["detect", "--regime", "low", "--s", "1", "--calib-seed", "-1",
                  "--input", str(good_csv)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == "", argv
        assert "seed must be a non-negative integer, got -1" in captured.err, argv
    # non-finite or out-of-range tuning constants or sparsity, rather than a NaN
    # threshold or decision, or a fit that never ran
    finite = "must be finite and positive"
    for argv, message in (
        (["estimate", "--regime", "low", "--s", "1", "--alpha", "nan"], f"alpha {finite}"),
        (["estimate", "--regime", "low", "--s", "1", "--alpha", "inf"], f"alpha {finite}"),
        (["detect", "--regime", "low", "--s", "1", "--beta", "nan"], f"beta {finite}"),
        (["slope-fit", "--c1", "nan"], f"c1 {finite}"),
        (["slope-fit", "--tol", "nan"], f"tol {finite}"),
        (["slope-fit", "--tol", "0"], f"tol {finite}"),
        (["slope-fit", "--tol", "inf"], f"tol {finite}"),
        (["slope-fit", "--max-iter", "0"], "max_iter must be >= 1"),
        (["detect", "--regime", "low", "--s", "1", "--delta", "1.5"], "delta must lie in (0, 1)"),
        (["detect", "--regime", "low", "--s", "1", "--calib-trials", "0"], "trials must be >= 1"),
        (["estimate", "--regime", "high", "--s", "2"], "s must satisfy 1 <= s <= p"),
    ):
        code = main([*argv, "--input", str(good_csv)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == "", argv
        assert message in captured.err, argv
    for magnitude in ("nan", "inf"):
        code = main(["gen", "--N", "10", "--p", "3", "--s", "1", "--magnitude", magnitude,
                     "--out", str(tmp_path / "gen.csv")])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and "magnitude must be finite and >= 0" in captured.err
    # lower-bound's out-of-range values, and a --sigma that no q_bar would use
    for extra, message in (
        (["--kappa", "nan"], "kappa must be finite"),
        (["--kappa", "1.0", "--sigma", "nan"], "sigma must be finite"),
        (["--sigma", "nan"], "--sigma: for q_bar, which needs --kappa"),
        (["--sigma", "2"], "--sigma: for q_bar, which needs --kappa"),
        (["--s", "0"], "s must satisfy 1 <= s <= p"),
        (["--N", "0"], "N must be >= 1"),
    ):
        code = main(["lower-bound", "--p", "100", "--N", "400", "--s", "5", "--delta", "0.5",
                     *extra])
        assert code == EXIT_CONFIG and message in capsys.readouterr().err, extra
    # a NaN in the sample, in either regime
    nan_csv = tmp_path / "nan.csv"
    rows = [f"{i},{i % 3},1.5" for i in range(12)] + ["nan,1,2"]
    nan_csv.write_text("y,x1,x2\n" + "\n".join(rows) + "\n")
    for regime in ("low", "high"):
        code = main(["estimate", "--regime", regime, "--s", "1", "--input", str(nan_csv)])
        assert code == EXIT_CONFIG and "finite" in capsys.readouterr().err
    # an empty sample file, rather than a StopIteration traceback
    empty_csv = tmp_path / "empty.csv"
    empty_csv.write_text("")
    for command, regime in (("estimate", "low"), ("estimate", "high"), ("detect", "low"),
                            ("detect", "high")):
        code = main([command, "--regime", regime, "--s", "1", "--input", str(empty_csv)])
        assert code == EXIT_CONFIG and "configuration error" in capsys.readouterr().err, \
            (command, regime)
    # a config that is not a JSON object, and size rules that fail arithmetically,
    # rather than a TypeError traceback (exit 1) or a numeric failure (exit 3)
    for i, (text, named) in enumerate((
        ("null", "JSON object"), ("123", "JSON object"), ('["seed"]', "JSON object"),
        (json.dumps({"seed": 1, "p_rule": "n/0"}), "rule 'n/0'"),
        (json.dumps({"seed": 1, "p_rule": "1e308*10"}), "rule '1e308*10'"),
        (json.dumps({"seed": 1, "s_rule": "min()"}), "rule 'min()'"),
        (json.dumps({"seed": 1, "p_rule": "(-1)**0.5"}), "rule '(-1)**0.5'"),
        (json.dumps({"seed": 1, "n": [0, -4], "p_rule": "4", "s_rule": "1"}),
         "every n entry must be >= 2"),
        (json.dumps({"seed": 1, "p_rule": "n/"}), "cannot parse rule 'n/'"),
        (json.dumps({"seed": 1, "s_rule": "p+1"}), "rule 'p+1' gave 33, outside [1, 32]"),
    )):
        cfg = tmp_path / f"cfg-{i}.json"
        cfg.write_text(text)
        code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and "configuration error: " in err and named in err, text


@pytest.mark.parametrize("bad_row,match", [
    ("c:1,2,32,8,2,1.0", "line 4 is not as wide as the header"),
    ("c:1,2,32,8,2,1.0,0.0,0.05,0.2,,0.05,,,64", "line 4 has no error tag but misses an estimate"),
    ("c:1,,32,8,2,1.0,0.0,0.05,0.2,,0.05,0.2,,64",
     "line 4, column seed: invalid literal for int() with base 10: ''"),
], ids=["short-row", "no-error-tag-empty-err-lambda", "empty-seed"])
def test_rates_rejects_bad_records(tmp_path, capsys, bad_row, match):
    """A cut-short row, a row without an error tag that misses an estimate, and a
    cell that does not parse exit 2 with the file and line named (and the column
    of the cell), rather than with a TypeError traceback."""
    rows = ["c:0,1,16,4,2,1.0,0.0,0.1,0.3,,0.1,0.3,,32",
            "c:0,2,16,4,2,1.0,0.0,0.2,0.4,,0.2,0.4,,32",
            bad_row, "c:1,3,32,8,2,1.0,0.0,0.05,0.2,,0.05,0.2,,64"]
    path = tmp_path / "records.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n")
    code = main(["rates", "--from", str(path)])
    assert code == EXIT_CONFIG and f"{path}: {match}" in capsys.readouterr().err


def test_rates_rejects_records_without_n_used(tmp_path, capsys):
    """A `records.csv` written before rows carried their row budget has no
    `n_used` column; it is rejected rather than read at a guessed budget."""
    path = tmp_path / "records.csv"
    old_columns = [c for c in CSV_COLUMNS if c != "n_used"]
    path.write_text(",".join(old_columns) + "\n" + "c:0,1,16,4,2,1.0,0.0,0.1,0.3,,0.1,0.3,\n")
    code = main(["rates", "--from", str(path)])
    assert code == EXIT_CONFIG and f"{path}: missing columns ['n_used']" in capsys.readouterr().err


def test_exit_code_numeric_failure(tmp_path, capsys):
    """A collinear design makes the least squares step fail with exit code 3."""
    rng = np.random.default_rng(0)
    col = rng.standard_normal(12)
    path = tmp_path / "singular.csv"
    lines = ["y,x1,x2"]
    for i in range(12):
        lines.append(f"{rng.standard_normal()},{col[i]},{col[i]}")
    path.write_text("\n".join(lines) + "\n")
    code = main(["estimate", "--regime", "low", "--s", "1", "--input", str(path)])
    capsys.readouterr()
    assert code == EXIT_NUMERIC
    # an all-zero design is singular too, and is reported as such
    zero = tmp_path / "zero.csv"
    zero.write_text("y,x1,x2\n" + "\n".join(f"{i},0,0" for i in range(12)) + "\n")
    code = main(["estimate", "--regime", "low", "--s", "1", "--input", str(zero)])
    assert code == EXIT_NUMERIC
    assert "design is numerically singular" in capsys.readouterr().err


@pytest.mark.parametrize("regime", ["low", "high"])
@pytest.mark.parametrize("s, branch", [(1, "sparse"), (3, "dense")])
def test_zero_residuals_are_numeric_failures(tmp_path, capsys, regime, s, branch):
    """An all-zero response leaves the preliminary fit no residual, so the noise
    estimate is exactly 0: estimating and testing fail with exit 3 and one
    message in both regimes and on both branches, rather than a threshold of 0
    that rejects theta = 0."""
    X = np.random.default_rng(0).standard_normal((24, 4))
    sample = RegressionSample(X=X, Y=np.zeros(24))
    with pytest.raises(ArithmeticError, match="sigma_hat is 0"):
        estimate(sample, s, regime)
    assert sparse_branch(s, 4) == (branch == "sparse")
    path = write_sample(sample, tmp_path / "zero-y.csv")
    for command in (["estimate"], ["detect", "--beta", "2"]):
        code = main([*command, "--regime", regime, "--s", str(s), "--input", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC and captured.out == "", command
        assert "numeric failure: noise estimate sigma_hat is 0" in captured.err, command


def test_import_does_not_load_scipy(tmp_path):
    """Every CLI process pays for what `import signalnorm.cli` loads: scipy.optimize
    alone measured about 0.2 s and 24 MB there, scipy.linalg 55 ms and
    scipy.special most of the rest.  The package needs no scipy at all: with
    scipy blocked, the import loads no scipy module and `lower-bound` still runs.
    Nor does it load `subprocess`, which only a split run imports."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    child = (
        "import sys; sys.modules['scipy'] = None\n"
        "import signalnorm.cli\n"
        "print(*[name for name, mod in sys.modules.items() if mod is not None])\n"
        f"sys.exit(signalnorm.cli.main(['lower-bound', *{LOWER_BOUND_ARGS['no-kappa']!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[0].split()
    assert "signalnorm.slope" in loaded and "signalnorm.lower_bounds" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]
    assert "subprocess" not in loaded
