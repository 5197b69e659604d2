"""Command line interface.

Subcommands: gen, estimate, detect, slope-fit, simulate, rates, lower-bound.
Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import harness, lower_bounds, pipeline
from .model import (
    Dimensions,
    ModelSpec,
    read_sample,
    sample_sparse_theta,
    synthesize,
    write_sample,
)
from .slope import sqrt_slope_fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signalnorm",
        description="Signal-norm estimation and detection for sparse linear regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic sample as CSV + truth sidecar")
    gen.add_argument("--N", type=int, required=True, help="number of rows")
    gen.add_argument("--p", type=int, required=True, help="ambient dimension")
    gen.add_argument("--s", type=int, required=True, help="sparsity of the signal")
    gen.add_argument("--sigma", type=float, default=1.0)
    gen.add_argument("--magnitude", type=float, default=0.0, help="Euclidean norm of theta")
    gen.add_argument("--pattern", default="equal", choices=["equal", "random-signs"])
    gen.add_argument("--design", default="standard-normal")
    gen.add_argument("--noise", default="standard-normal")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output CSV path")

    est = sub.add_parser("estimate", help="estimate the signal norm and squared norm")
    est.add_argument("--regime", required=True, choices=["low", "high"])
    est.add_argument("--s", type=int, required=True)
    est.add_argument("--alpha", type=float, default=4.0)
    est.add_argument("--c1", type=float, help="high regime only (default 1.5)")
    est.add_argument("--prelim", choices=["srs", "zero"],
                     help="high regime only: 'zero' skips the preliminary fit (default 'srs')")
    est.add_argument("--input", required=True, help="sample CSV")

    det = sub.add_parser("detect", help="test whether the signal is null")
    det.add_argument("--regime", required=True, choices=["low", "high"])
    det.add_argument("--s", type=int, required=True)
    det.add_argument("--alpha", type=float, default=4.0)
    det.add_argument("--c1", type=float, help="high regime only (default 1.5)")
    det.add_argument("--beta", type=float, default=None, help="test constant; omit to calibrate")
    det.add_argument("--delta", type=float, default=0.1, help="target level for calibration")
    det.add_argument("--calib-trials", type=int, default=2000)
    det.add_argument("--calib-seed", type=int, default=0)
    det.add_argument("--input", required=True)

    slp = sub.add_parser("slope-fit", help="square-root sorted-L1 regression fit")
    slp.add_argument("--c1", type=float, default=1.5)
    slp.add_argument("--max-iter", type=int, default=10000)
    slp.add_argument("--tol", type=float, default=1e-8)
    slp.add_argument("--input", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a JSON config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out-dir", default=".")

    rates = sub.add_parser("rates", help="log-log rate fit from a records CSV")
    rates.add_argument("--from", dest="source", required=True, help="records.csv path")
    rates.add_argument("--metric", default="mse_lambda",
                       choices=["mse_lambda", "mse_q", "mean_abs_err_q", "mean_abs_err_lambda"])

    low = sub.add_parser("lower-bound", help="closed-form detection/estimation limits")
    low.add_argument("--p", type=int, required=True)
    low.add_argument("--N", type=int, required=True)
    low.add_argument("--s", type=int, required=True)
    low.add_argument("--delta", type=float, required=True)
    low.add_argument("--kappa", type=float, default=None)
    low.add_argument("--sigma", type=float, default=1.0)

    return parser


def _cmd_gen(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(1,)))
    theta = sample_sparse_theta(args.p, args.s, args.magnitude, pattern=args.pattern, rng=rng)
    spec = ModelSpec(theta=theta, sigma=args.sigma, design=args.design, noise=args.noise)
    sample = synthesize(spec, Dimensions(N=args.N, p=args.p, s=args.s), args.seed)
    path = write_sample(sample, args.out)
    truth = {"theta": spec.theta.tolist(), "sigma": spec.sigma, "seed": args.seed}
    path.with_suffix(path.suffix + ".truth.json").write_text(json.dumps(truth))
    print(json.dumps({"written": str(path), "N": sample.N, "p": sample.p}))
    return EXIT_OK


def _high_regime_options(args) -> dict:
    """The high-regime-only options given on the command line; the low regime,
    which would ignore them, rejects them."""
    given = {k: v for k in ("c1", "prelim") if (v := getattr(args, k, None)) is not None}
    if given and args.regime == "low":
        flags = ", ".join(f"--{k}" for k in given)
        raise ValueError(f"{flags}: for --regime high only")
    return given


def _cmd_estimate(args) -> int:
    options = _high_regime_options(args)
    sample = read_sample(args.input)
    est = pipeline.estimate(sample, args.s, args.regime, args.alpha, **options)
    print(json.dumps(asdict(est)))
    return EXIT_OK


def _cmd_detect(args) -> int:
    options = _high_regime_options(args)
    sample = read_sample(args.input)
    decision, lambda_hat, threshold, _ = pipeline.detect(
        sample, args.s, args.regime, args.alpha, args.beta,
        delta=args.delta, calib_trials=args.calib_trials, calib_seed=args.calib_seed, **options,
    )
    print(json.dumps({"decision": decision, "lambda_hat": lambda_hat, "threshold": threshold}))
    return EXIT_OK


def _cmd_slope_fit(args) -> int:
    sample = read_sample(args.input)
    fit = sqrt_slope_fit(sample.X, sample.Y, c1=args.c1, max_iter=args.max_iter, tol=args.tol)
    print(json.dumps({**asdict(fit), "theta_hat": fit.theta_hat.tolist()}))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = harness.ExperimentConfig.from_json(args.config)
    records = harness.run_trials(config)
    paths = harness.report(records, out_dir=args.out_dir, delta=config.delta)
    print(json.dumps({k: str(v) for k, v in paths.items()}))
    return EXIT_OK


def _cmd_rates(args) -> int:
    records = harness.read_records(args.source)
    fit = harness.fit_rate(harness.metric_points(records, args.metric))
    print(json.dumps({"metric": args.metric, **asdict(fit)}))
    return EXIT_OK


def _cmd_lower_bound(args) -> int:
    bundle = lower_bounds.minimax_testing_lower_radius(args.p, args.N, args.s, args.delta)
    tau = lower_bounds.tau_from_rho(bundle.r)
    s_prior = min(args.s, int(np.floor(np.sqrt(args.p))))
    mgf = lower_bounds.hypergeometric_mgf_bound(args.p, s_prior, args.N, tau)
    q_bar = (
        lower_bounds.q_lower_bound(args.p, args.N, args.s, args.sigma, args.kappa)
        if args.kappa is not None
        else None
    )
    print(json.dumps({
        "A": bundle.A,
        "r": bundle.r,
        "rho": bundle.rho,
        "q_bar": q_bar,
        "mgf": mgf,
        "bayes_risk_bound": lower_bounds.bayes_testing_risk_bound(args.p, s_prior, args.N, tau),
    }))
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "estimate": _cmd_estimate,
    "detect": _cmd_detect,
    "slope-fit": _cmd_slope_fit,
    "simulate": _cmd_simulate,
    "rates": _cmd_rates,
    "lower-bound": _cmd_lower_bound,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other codes
        return EXIT_CONFIG if exc.code not in (0,) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
