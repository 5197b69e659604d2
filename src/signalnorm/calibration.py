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

Trial i draws its null from its own seed,
``SeedSequence(seed, spawn_key=(0xCA11B, i))``, so where it runs cannot change
what it computes.  A large calibration uses the usable cores: it splits its
trials into contiguous ranges, at most one per core, and runs each range in a
fresh worker interpreter (:mod:`signalnorm._calibration_worker`) with
single-threaded BLAS.  The statistics, joined in trial order, and beta are
those of a serial run: bit for bit where BLAS gives the same bits with one
thread as with the caller's count, and otherwise within rounding.  With
OpenBLAS on 2 cores, the low regime at p=100, N=400 and the high regime at
p=400, N=600 and at p=3000, N=1500 were bit-identical, while the low regime
at p=400, N=2000 differed by up to 2.9e-15 relative, as least squares on its
1000 x 400 blocks rounds with the thread count.  There is no option for it,
and the caller's environment and BLAS threads are left as they are.
"""

from __future__ import annotations

import os
import pickle
import sys
import warnings
from pathlib import Path

import numpy as np

from . import pipeline
from .model import Dimensions, ModelSpec, synthesize
from .quadratic import FunctionalEstimate

__all__ = ["calibrate_beta", "statistic"]

# Draws, trials * N * (p + 1), that each worker must have before a calibration
# splits; a worker costs about 0.25 s to start.  Serial against 2 workers on 2
# cores (numpy 2.4, OpenBLAS 0.3.31 with 2 threads), medians of 3-4 runs:
#   low regime, N=200, p=50, 500 trials (5.1M draws):  0.32 s against 0.41 s;
#   low regime, N=400, p=100, 200 trials (8.1M):       0.66 s against 0.56 s;
#                            420 trials (17.0M):       1.20 s against 0.85 s;
#   high regime, N=600, p=400, s=3, 60 trials (14.4M): 0.35 s against 0.44 s;
#                            85 trials (20.5M):        0.51 s against 0.53 s;
#                            125 trials (30.1M):       0.65 s against 0.58 s.
# Break-even is near 3.5M draws per worker in the low regime and 11M in the
# high one, whose draws cost a third as much; 2**23 = 8.4M lies between.
_DRAWS_PER_WORKER = 1 << 23
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    job = dict(p=p, N=N, s=s, regime=regime, alpha=alpha, c1=c1, seed=seed,
               design=design, noise=noise)
    stats = _statistics(job, trials, _worker_count(trials, N, p))
    beta = float(np.quantile(stats, 1.0 - delta, method="higher"))
    if beta <= 0:
        positive = stats[stats > 0]
        beta = float(positive.min() / 2.0) if positive.size else 1.0
    return beta


def _null_statistics(job: dict, lo: int, hi: int) -> np.ndarray:
    """The statistics of trials lo..hi-1 of the calibration `job` (the arguments
    of :func:`calibrate_beta` but `delta` and `trials`), for the serial path and
    the workers alike.  Trial i's seed is the i-th child of
    ``SeedSequence(seed, spawn_key=(0xCA11B,))``."""
    p, s = job["p"], job["s"]
    spec = ModelSpec(theta=np.zeros(p), sigma=1.0, design=job["design"], noise=job["noise"])
    dims = Dimensions(N=job["N"], p=p, s=s)
    stats = np.empty(hi - lo)
    for i in range(lo, hi):
        child = np.random.SeedSequence(entropy=job["seed"], spawn_key=(0xCA11B, i))
        est = pipeline.estimate(synthesize(spec, dims, child), s, job["regime"],
                                job["alpha"], job["c1"])
        stats[i - lo] = statistic(est, s, p)
    return stats


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(trials: int, N: int, p: int) -> int:
    """Workers for a calibration: at most one per usable core and per trial,
    and none with fewer than _DRAWS_PER_WORKER draws; below 2 it runs serially."""
    return min(_usable_cores(), trials, trials * N * (p + 1) // _DRAWS_PER_WORKER)


def _statistics(job: dict, trials: int, workers: int) -> np.ndarray:
    """The statistics of all `trials` of `job`, in trial order: in this process
    when `workers` is below 2, else split over that many worker interpreters.

    Each worker gets a contiguous range and the caller's warning filters, and
    stops at its first failing trial; the exception of the lowest failing range
    is raised here, as the serial loop would raise it.  No worker outlives the
    call.
    """
    if workers < 2:
        return _null_statistics(job, 0, trials)
    import subprocess  # only a split calibration starts processes

    env = dict(os.environ, **dict.fromkeys(_BLAS_THREADS, "1"))
    root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    bounds = [trials * k // workers for k in range(workers + 1)]
    procs = []
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            proc = subprocess.Popen([sys.executable, "-m", "signalnorm._calibration_worker"],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
            procs.append(proc)
            task = dict(job=job, lo=lo, hi=hi, filters=warnings.filters)
            try:
                proc.stdin.write(pickle.dumps(task))
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the worker died before reading its task; its exit code says so
        parts = []
        for proc in procs:
            out = proc.stdout.read()
            code = proc.wait()
            if code != 0 or not out:
                raise RuntimeError(f"a calibration worker exited with code {code} and no result")
            stats, error = pickle.loads(out)
            if error is not None:
                raise error
            parts.append(stats)
        return np.concatenate(parts)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                try:
                    pipe.close()
                except OSError:  # unflushed bytes to a worker that is gone
                    pass
