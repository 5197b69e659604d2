"""Null calibration of the detection constant beta.

The detection statistic is scale-free (the norm estimate, the noise
estimate, and the threshold all scale linearly in the data), so beta can be
calibrated once per configuration and pair of entry laws by simulating the
null with unit noise and taking the upper-delta quantile of

    T = lambda_hat / (sigma_hat * sqrt(s log(1 + sqrt(p)/s) / N)).

:func:`calibrate_beta` is a pure function of its arguments.  The library calls
it only from :func:`signalnorm.pipeline.decide`, when no beta is given; a caller
that needs one beta many times keeps the one `decide` returns (see
:func:`signalnorm.harness.run_single_trial`).
"""

from __future__ import annotations

import numpy as np

from . import pipeline
from .model import Dimensions, ModelSpec, synthesize
from .quadratic import FunctionalEstimate

__all__ = ["calibrate_beta", "statistic"]


def statistic(est: FunctionalEstimate, s: int, p: int) -> float:
    """The scale-free statistic lambda_hat / (sigma_hat * rate), with the rate
    of the detection threshold: up to rounding, it reaches beta exactly when
    the detection rule rejects at beta."""
    return est.lambda_hat / pipeline.detection_threshold(1.0, est.sigma_hat, s, p, est.n_used)


def calibrate_beta(
    p: int,
    N: int,
    s: int,
    delta: float = 0.1,
    regime: str = "low",
    alpha: float = 4.0,
    c1: float = 1.5,
    trials: int = 2000,
    seed: int = 0,
    design: str = "standard-normal",
    noise: str = "standard-normal",
) -> float:
    """Upper-delta null quantile of the scale-free detection statistic.

    `N` is the total number of rows the detector consumes; the null draws
    its design and noise entries from the laws `design` and `noise` (see
    :class:`signalnorm.model.ModelSpec`).  When the null
    statistic has an atom at zero heavier than 1 - delta (sparse branches
    often yield an exactly-zero estimate), the quantile lands at 0 and any
    positive beta keeps the level below delta; half the smallest positive
    observation is used, or 1.0 if every trial was zero.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spec = ModelSpec(theta=np.zeros(p), sigma=1.0, design=design, noise=noise)
    dims = Dimensions(N=N, p=p, s=s)
    root = np.random.SeedSequence(entropy=seed, spawn_key=(0xCA11B,))
    stats = np.empty(trials)
    for i, child in enumerate(root.spawn(trials)):
        est = pipeline.estimate(synthesize(spec, dims, child), s, regime, alpha, c1)
        stats[i] = statistic(est, s, p)
    beta = float(np.quantile(stats, 1.0 - delta, method="higher"))
    if beta <= 0:
        positive = stats[stats > 0]
        beta = float(positive.min() / 2.0) if positive.size else 1.0
    return beta
