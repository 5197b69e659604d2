"""One entry point per task for both regimes, and the one detection rule.

Both regimes run the same split-sample pipeline and differ only in the
preliminary stage: least squares for n > p (:mod:`signalnorm.lowdim`), the
square-root sorted-L1 fit for p >~ n (:mod:`signalnorm.highdim`).  The test
compares the norm estimate with :func:`detection_threshold`, where N counts
the rows the estimate consumed.  Given no beta, :func:`decide` calibrates
one on simulated nulls (:mod:`signalnorm.calibration`); a harness run
calibrates once per n through the same steps and decides at that beta.
"""

from __future__ import annotations

import numpy as np

from . import calibration, highdim, lowdim, lower_bounds
from .model import RegressionSample
from .quadratic import FunctionalEstimate

__all__ = ["estimate", "detect", "decide", "detection_threshold"]


def detection_threshold(beta: float, sigma_hat: float, s: int, p: int, N: int) -> float:
    """Detection boundary beta * sigma_hat * sqrt(s * log(1 + sqrt(p)/s) / N)."""
    if sigma_hat is None:
        raise ValueError("the estimate carries no noise estimate (sigma_hat is None) to test with")
    return float(beta * sigma_hat * np.sqrt(lower_bounds.rate_sq(s, p, N)))


def estimate(
    sample: RegressionSample,
    s: int,
    regime: str,
    alpha: float = 4.0,
    c1: float = 1.5,
    prelim: str = "srs",
) -> FunctionalEstimate:
    """Estimate the squared norm and the norm; `regime` is "low" (n > p) or
    "high" (p >~ n).  `c1` and `prelim` apply to the high regime only.  The
    low regime always fits least squares, so it rejects any `prelim` but
    "srs"; it still accepts `c1`, because the harness passes a run's config
    `c1` in both regimes."""
    if regime == "low":
        if prelim != "srs":
            raise ValueError(f"prelim {prelim!r}: the low regime takes only 'srs'")
        return lowdim.estimate_lowdim(sample, s, alpha=alpha)
    if regime == "high":
        return highdim.estimate_highdim(sample, s, alpha=alpha, c1=c1, prelim=prelim)
    raise ValueError(f"unknown regime {regime!r}; expected 'low' or 'high'")


def decide(est: FunctionalEstimate, s: int, p: int, beta: float | None,
           **calibration_args) -> tuple[int, float, float]:
    """The detection rule applied to an estimate: ``(decision, threshold, beta)``,
    with decision 1 when the norm estimate reaches the threshold.  A None `beta`
    is calibrated on nulls of the estimate's regime and row count, by
    :func:`signalnorm.calibration.calibrate_beta` with `calibration_args`."""
    if beta is None:
        beta = calibration.calibrate_beta(p=p, N=est.n_used, s=s, regime=est.regime,
                                          **calibration_args)
    if not 0 < beta < np.inf:
        raise ValueError(f"beta must be finite and positive, got {beta}")
    threshold = detection_threshold(beta, est.sigma_hat, s, p, est.n_used)
    return int(est.lambda_hat >= threshold), threshold, beta


def detect(
    sample: RegressionSample,
    s: int,
    regime: str,
    alpha: float = 4.0,
    beta: float | None = None,
    c1: float = 1.5,
    delta: float = 0.1,
    calib_trials: int = 2000,
    calib_seed: int = 0,
) -> tuple[int, float, float, float]:
    """Test theta = 0: ``(decision, lambda_hat, threshold, beta)``.

    When `beta` is None, :func:`decide` calibrates it at level `delta` on
    `calib_trials` nulls of the estimate's regime, with the same `alpha` and `c1`.
    """
    est = estimate(sample, s, regime, alpha, c1)
    decision, threshold, beta = decide(est, s, sample.p, beta, delta=delta, alpha=alpha, c1=c1,
                                       trials=calib_trials, seed=calib_seed)
    return decision, est.lambda_hat, threshold, beta
