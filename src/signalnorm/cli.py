"""Command line interface.

Subcommands: gen, estimate, detect, slope-fit, simulate, rates, lower-bound.
Each maps its parsed arguments to a JSON object, which `main` prints as one line.
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
    _checked_seed,
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

    # estimate, detect and slope-fit pass on only the flags given (see _given)
    forward = {"argument_default": argparse.SUPPRESS}
    shared = argparse.ArgumentParser(add_help=False, **forward)  # estimate's and detect's
    shared.add_argument("--regime", required=True, choices=["low", "high"])
    shared.add_argument("--s", type=int, required=True)
    shared.add_argument("--alpha", type=float)
    shared.add_argument("--c1", type=float, help="high regime only")
    shared.add_argument("--input", required=True, help="sample CSV")

    est = sub.add_parser("estimate", parents=[shared], **forward,
                         help="estimate the signal norm and squared norm")
    est.add_argument("--prelim", choices=["srs", "zero"],
                     help="high regime only: 'zero' skips the preliminary fit")

    det = sub.add_parser("detect", parents=[shared], **forward,
                         help="test whether the signal is null")
    det.add_argument("--beta", type=float, help="test constant; omit to calibrate")
    det.add_argument("--delta", type=float, help="target level for calibration")
    det.add_argument("--calib-trials", type=int)
    det.add_argument("--calib-seed", type=int)

    slp = sub.add_parser("slope-fit", help="square-root sorted-L1 regression fit", **forward)
    slp.add_argument("--c1", type=float)
    slp.add_argument("--max-iter", type=int)
    slp.add_argument("--tol", type=float)
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
    low.add_argument("--kappa", type=float)
    low.add_argument("--sigma", type=float, help="with --kappa only (default 1.0)")

    return parser


def _cmd_gen(args) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence(_checked_seed(args.seed), spawn_key=(1,)))
    theta = sample_sparse_theta(args.p, args.s, args.magnitude, pattern=args.pattern, rng=rng)
    spec = ModelSpec(theta=theta, sigma=args.sigma, design=args.design, noise=args.noise)
    sample = synthesize(spec, Dimensions(N=args.N, p=args.p, s=args.s), args.seed)
    path = write_sample(sample, args.out)
    truth = {"theta": spec.theta.tolist(), "sigma": spec.sigma, "seed": args.seed}
    path.with_suffix(path.suffix + ".truth.json").write_text(json.dumps(truth))
    return {"written": str(path), "N": sample.N, "p": sample.p}


def _given(args) -> dict:
    """The options given on the command line, as keyword arguments of the library
    call, so a flag left out takes the library's default; a flag the call would
    ignore (c1 and prelim in the low regime, calibration flags with beta) is rejected."""
    given = {k: v for k, v in vars(args).items() if k not in ("command", "input")}
    for applies, names, rule in (
        (given.get("regime") == "low", ("c1", "prelim"), "for --regime high only"),
        ("beta" in given, ("delta", "calib_trials", "calib_seed"), "for calibration, not --beta"),
    ):
        flags = [f"--{k.replace('_', '-')}" for k in names if k in given]
        if applies and flags:
            raise ValueError(f"{', '.join(flags)}: {rule}")
    return given


def _cmd_estimate(args) -> dict:
    given = _given(args)
    return asdict(pipeline.estimate(read_sample(args.input), **given))


def _cmd_detect(args) -> dict:
    given = _given(args)
    decision, lambda_hat, threshold, _ = pipeline.detect(read_sample(args.input), **given)
    return {"decision": decision, "lambda_hat": lambda_hat, "threshold": threshold}


def _cmd_slope_fit(args) -> dict:
    given = _given(args)
    sample = read_sample(args.input)
    fit = sqrt_slope_fit(sample.X, sample.Y, **given)
    return {**asdict(fit), "theta_hat": fit.theta_hat.tolist()}


def _cmd_simulate(args) -> dict:
    config = harness.ExperimentConfig.from_json(args.config)
    records = harness.run_trials(config)
    paths = harness.report(records, out_dir=args.out_dir, delta=config.delta)
    return {k: str(v) for k, v in paths.items()}


def _cmd_rates(args) -> dict:
    records = harness.read_records(args.source)
    fit = harness.fit_rate(harness.metric_points(records, args.metric))
    return {"metric": args.metric, **asdict(fit)}


def _cmd_lower_bound(args) -> dict:
    if args.sigma is not None and args.kappa is None:
        raise ValueError("--sigma: for q_bar, which needs --kappa")
    bundle = lower_bounds.minimax_testing_lower_radius(args.p, args.N, args.s, args.delta)
    tau = lower_bounds.tau_from_rho(bundle.r)
    sigma = 1.0 if args.sigma is None else args.sigma
    q_bar = None if args.kappa is None else lower_bounds.q_lower_bound(
        args.p, args.N, args.s, sigma, args.kappa)
    mgf = lower_bounds.hypergeometric_mgf_bound(args.p, bundle.s_prior, args.N, tau)
    return {
        "A": bundle.A,
        "r": bundle.r,
        "rho": bundle.rho,
        "q_bar": q_bar,
        "mgf": mgf,
        "bayes_risk_bound": lower_bounds.risk_from_mgf(mgf),
    }


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
        print(json.dumps(_COMMANDS[args.command](args)))
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
