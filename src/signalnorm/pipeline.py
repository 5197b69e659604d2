"""One entry point per task for both regimes, and the one detection rule.

Both regimes run one split-sample pipeline, :func:`estimate`, that differs
only in the preliminary stage it calls: least squares for n > p
(:mod:`signalnorm.lowdim`), the square-root sorted-L1 fit for p >~ n
(:mod:`signalnorm.highdim`).  The test compares the norm estimate with
:func:`detection_threshold`, where N counts the rows the estimate consumed.
Given no beta, :func:`decide` calibrates one on simulated nulls
(:mod:`signalnorm.calibration`); a harness run calibrates once per n through
the same steps and decides at that beta.
"""

from __future__ import annotations

import numpy as np

from . import calibration, highdim, lowdim, lower_bounds
from .model import RegressionSample, split_sample
from .quadratic import FunctionalEstimate, quadratic_stage, split_parts

__all__ = ["estimate", "detect", "decide", "detection_threshold"]


def detection_threshold(beta: float, sigma_hat: float, s: int, p: int, N: int) -> float:
    """Detection boundary beta * sigma_hat * sqrt(s * log(1 + sqrt(p)/s) / N)."""
    if sigma_hat is None:
        raise ValueError("the estimate carries no noise estimate (sigma_hat is None) to test with")
    return float(beta * sigma_hat * np.sqrt(lower_bounds.rate_sq(s, p, N)))


def estimate(sample: RegressionSample, s: int, regime: str, alpha: float = 4.0,
             c1: float = 1.5, prelim: str = "srs") -> FunctionalEstimate:
    """Estimate the squared norm and the norm; `regime` is "low" (n > p) or
    "high" (p >~ n).  The regime's preliminary stage runs on block 1 of the
    split (and screens on block 3), the shared quadratic stage on block 2.
    `c1` and `prelim` apply to the high regime only; its ``prelim="zero"``
    runs the dense estimator at the zero vector on the full sample, with no
    noise estimate.  The low regime rejects any `prelim` but "srs"; it still
    accepts `c1`, because the harness passes a run's config `c1` in both
    regimes.  A sorted-L1 fit that does not converge raises ``ArithmeticError``."""
    if regime not in ("low", "high"):
        raise ValueError(f"unknown regime {regime!r}; expected 'low' or 'high'")
    if regime == "low" and prelim != "srs":
        raise ValueError(f"prelim {prelim!r}: the low regime takes only 'srs'")
    p = sample.p
    if not 1 <= s <= p:
        raise ValueError(f"s must satisfy 1 <= s <= p, got s={s}, p={p}")
    if prelim == "zero":  # a deterministic preliminary needs no split
        parts, (X2, Y2) = 1, (sample.X, sample.Y)
        theta, sigma_hat, screening = np.zeros(p), None, None
    elif prelim == "srs":
        parts = split_parts(regime, s, p)
        blocks = split_sample(sample, parts)
        X2, Y2 = blocks[1]
        theta, sigma_hat, screening = (lowdim._preliminary(blocks) if regime == "low"
                                       else highdim._preliminary(blocks, c1))
    else:
        raise ValueError(f"unknown preliminary {prelim!r}; expected 'srs' or 'zero'")
    return quadratic_stage(theta, sigma_hat, X2, Y2, s, alpha, screening, regime, parts)


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
