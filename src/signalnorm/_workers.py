"""One batch of range calls, split over worker interpreters when it is large.

A call ``(function, args, n, draws_per_item)`` asks for items 0..n-1 of a list,
which ``function(*args, lo, hi)`` computes lo..hi-1 of: the estimates of one
grid point's replications (:func:`signalnorm.harness.run_trials`) or the
statistics of one null calibration (:func:`signalnorm.calibration.calibrate_beta`).
Item i depends only on i and `args`, so :func:`run` may split each call's
items into one contiguous range per worker and join the ranges in order.

The workers are fresh interpreters with single-threaded BLAS, started by each
split :func:`run` and killed when it returns.  Each reads one pickled request,
the caller's warning filters and its range of every call, named by module and
function; it answers with one pickled result per call, the items or the
exception the range raised, and exits.
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys
import warnings
from pathlib import Path

# Draws, rows * (p + 1) summed over every estimate a run makes, that each
# worker must have before the run splits; a worker costs about 0.25 s to
# start.  One calibration, serial against 2 workers on 2 cores (numpy 2.4,
# OpenBLAS 0.3.31 with 2 threads), medians of 5 runs for the low regime, whose
# least squares takes the Cholesky factor, and of 3-4 for the high one:
#   low regime, N=200, p=50, 500 trials (5.1M draws):  0.41 s against 0.44 s;
#   low regime, N=400, p=100, 200 trials (8.1M):       0.36 s against 0.48 s;
#                            420 trials (17.0M):       0.83 s against 0.64 s;
#   high regime, N=600, p=400, s=3, 60 trials (14.4M): 0.35 s against 0.44 s;
#                            85 trials (20.5M):        0.51 s against 0.53 s;
#                            125 trials (30.1M):       0.65 s against 0.58 s.
# Break-even is near 5.7M draws per worker in the low regime (3.5M when each
# fit ran a Householder QR) and 11M in the high one; 2**23 = 8.4M lies between.
_DRAWS_PER_WORKER = 1 << 23
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_WORKER = "from signalnorm._workers import main; main()"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(draws: int, items: int) -> int:
    """Workers for a run of `draws` draws whose largest call has `items` items:
    at most one per usable core and per item, and none with fewer than
    _DRAWS_PER_WORKER draws.  Below 2 the run stays in this process."""
    return min(_usable_cores(), items, draws // _DRAWS_PER_WORKER)


def _run(function, args: tuple, lo: int, hi: int):
    try:
        return function(*args, lo, hi)
    except Exception as exc:  # the caller decides what a raise means
        return exc


def _joined(parts: tuple):
    """One call's result from its ranges' results, in range order: the first
    exception, else every item."""
    for part in parts:
        if isinstance(part, Exception):
            return part
    return [item for part in parts for item in part]


def run(calls: list) -> list:
    """For each call ``(function, args, n, draws_per_item)``, the items 0..n-1
    of ``function(*args, lo, hi)`` as one list, or the exception raised by the
    lowest range that raised.  The batch splits over :func:`worker_count` of
    its draws, n * draws_per_item summed over the calls, and its largest n;
    below 2 workers every call runs whole in this process.  A worker that dies
    without answering raises `RuntimeError` with its exit code."""
    k = worker_count(sum(n * draws for _, _, n, draws in calls), max(n for _, _, n, _ in calls))
    if k < 2:
        return [_run(function, args, 0, n) for function, args, n, _ in calls]
    import subprocess  # only a split run starts processes

    env = dict(os.environ, **dict.fromkeys(_BLAS_THREADS, "1"))
    root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    procs = []
    try:
        for _ in range(k):
            procs.append(subprocess.Popen([sys.executable, "-c", _WORKER],
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env))
        for j, proc in enumerate(procs):
            ranges = [(function.__module__, function.__name__, args, n * j // k, n * (j + 1) // k)
                      for function, args, n, _ in calls]
            try:
                proc.stdin.write(pickle.dumps((warnings.filters, ranges)))
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the worker is gone; reading its answer reports its exit code
        answers = []
        for proc in procs:
            try:
                answers.append(pickle.load(proc.stdout))
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"a worker exited with code {proc.wait()} and no result") from None
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                try:
                    pipe.close()
                except OSError:  # unflushed bytes to a worker that is gone
                    pass
    return [_joined(parts) for parts in zip(*answers)]


def main() -> None:
    """Answer one request read from stdin on stdout."""
    filters, ranges = pickle.load(sys.stdin.buffer)
    warnings.resetwarnings()  # voids what start-up registered under the old filters
    warnings.filters[:] = filters
    results = [_run(getattr(importlib.import_module(module), name), args, lo, hi)
               for module, name, args, lo, hi in ranges]
    sys.stdout.buffer.write(pickle.dumps(results))
