"""Null calibration of the detection constant beta.

The detection statistic is scale-free (the norm estimate, the noise
estimate, and the threshold all scale linearly in the data), so beta can be
calibrated once per configuration and pair of entry laws by simulating the
null with unit noise and taking the upper-delta quantile of

    T = lambda_hat / (sigma_hat * sqrt(s log(1 + sqrt(p)/s) / N)).

:func:`calibrate_beta` is a pure function of its arguments.  The library calls
it only from :func:`signalnorm.pipeline.decide`, when no beta is given; a detect
run of :func:`signalnorm.harness.run_trials` calibrates once per n, through the
same job, call and quantile (:func:`_job`, :func:`_call`, :func:`_beta`).

Trial i draws its null from its own seed,
``SeedSequence(seed, spawn_key=(0xCA11B, i))``, so where it runs cannot change
what it computes.  A large calibration uses the usable cores: it splits its
trials into contiguous ranges, at most one per core, over workers that
:mod:`signalnorm._workers` forks from the caller, each of which sets its own
OpenBLAS to one thread.  Where no worker can be forked safely and made
single-threaded, it runs serially.  The statistics, joined in trial order,
and beta are those of a serial run, bit for bit, with no option for it:
:func:`signalnorm.lowdim.ols_fit` and the Gram rows of :mod:`signalnorm.slope`
run on one BLAS thread in the caller as in a worker.  The caller's
environment and thread count are left as they are.
"""

from __future__ import annotations

import numpy as np

from . import _workers, pipeline
from .model import Dimensions, ModelSpec, _checked_seed, synthesize
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
    regime: str,
    delta: float = 0.1,
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
    job = _job(p=p, N=N, s=s, regime=regime, delta=delta, alpha=alpha, c1=c1, trials=trials,
               seed=seed, design=design, noise=noise)
    (stats,) = _workers.run([_call(job)])
    if isinstance(stats, Exception):
        raise stats
    return _beta(job, stats)


def _job(*, p, N, s, regime, delta, alpha, c1, trials, seed, design, noise) -> dict:
    """The arguments of :func:`calibrate_beta` as one calibration job, checked."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return dict(p=p, N=N, s=s, regime=regime, delta=delta, alpha=alpha, c1=c1, trials=trials,
                seed=_checked_seed(seed), design=design, noise=noise)


def _call(job: dict) -> tuple:
    """The :func:`signalnorm._workers.run` call of the job's null statistics:
    one item per trial, each drawing the N * (p + 1) entries of X and xi."""
    return (_null_statistics, (job,), job["trials"], job["N"] * (job["p"] + 1))


def _beta(job: dict, stats: list) -> float:
    """Beta from the statistics of all the job's trials, in trial order."""
    stats = np.array(stats)
    beta = float(np.quantile(stats, 1.0 - job["delta"], method="higher"))
    if beta <= 0:
        positive = stats[stats > 0]
        beta = float(positive.min() / 2.0) if positive.size else 1.0
    return beta


def _null_statistics(job: dict, lo: int, hi: int) -> list[float]:
    """The statistics of trials lo..hi-1 of the calibration `job`, wherever
    they run.  Trial i's seed is the i-th child of
    ``SeedSequence(seed, spawn_key=(0xCA11B,))``."""
    p, s = job["p"], job["s"]
    spec = ModelSpec(theta=np.zeros(p), sigma=1.0, design=job["design"], noise=job["noise"])
    dims = Dimensions(N=job["N"], p=p, s=s)
    stats = []
    for i in range(lo, hi):
        child = np.random.SeedSequence(entropy=job["seed"], spawn_key=(0xCA11B, i))
        est = pipeline.estimate(synthesize(spec, dims, child), s, job["regime"],
                                job["alpha"], job["c1"])
        stats.append(statistic(est, s, p))
    return stats
