"""Worker interpreters that run range calls, and the pool that holds them.

A range call ``(function, args, lo, hi)`` computes items lo..hi-1 of a list of
n items: the estimates of one grid point's replications
(:func:`signalnorm.harness.run_trials`) or the statistics of one null
calibration (:func:`signalnorm.calibration.calibrate_beta`).  Item i depends
only on i and `args`, so a :class:`Pool` may split each call's items into one
contiguous range per worker and join the ranges in order.  With fewer than 2
workers it runs each call whole, in this process.

The workers are fresh interpreters, ``python -m signalnorm._workers``, started
once per pool with single-threaded BLAS and killed when it closes.  Each reads
the caller's warning filters, then pickled lists of calls, each named by its
module and function, until EOF, and answers every list with one pickled result
per call: the items, or the exception the call raised.  The package does not
import this module, as ``-m`` on an imported module warns: the harness and the
calibration import it when they first run.
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
# OpenBLAS 0.3.31 with 2 threads), medians of 3-4 runs:
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


def _joined(parts: list):
    """One call's result from its ranges' results, in range order: the first
    exception, else every item."""
    for part in parts:
        if isinstance(part, Exception):
            return part
    return [item for part in parts for item in part]


class Pool:
    """`workers` worker interpreters, started at the first :meth:`map` when
    there are at least 2, and killed and reaped when the ``with`` block ends."""

    def __init__(self, workers: int):
        self.workers = workers
        self._procs = []

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self._procs:
            proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                try:
                    pipe.close()
                except OSError:  # unflushed bytes to a worker that is gone
                    pass

    def map(self, calls: list) -> list:
        """For each call ``(function, args, n)``, the items 0..n-1 of
        ``function(*args, lo, hi)`` as one list, or the exception raised by the
        lowest range that raised.  A worker that dies without answering raises
        `RuntimeError` with its exit code."""
        if self.workers < 2:
            return [_joined([_run(function, args, 0, n)]) for function, args, n in calls]
        if not self._procs:
            self._start()
        k = len(self._procs)
        requests = [[] for _ in range(k)]
        for function, args, n in calls:
            for j in range(k):
                requests[j].append((function.__module__, function.__name__, args,
                                    n * j // k, n * (j + 1) // k))
        for proc, request in zip(self._procs, requests):
            _send(proc, pickle.dumps(request))
        answers = []
        for proc in self._procs:
            try:
                answers.append(pickle.load(proc.stdout))
            except (EOFError, pickle.UnpicklingError):
                code = proc.wait()
                raise RuntimeError(f"a worker exited with code {code} and no result") from None
        return [_joined(list(parts)) for parts in zip(*answers)]

    def _start(self) -> None:
        import subprocess  # only a split run starts processes

        env = dict(os.environ, **dict.fromkeys(_BLAS_THREADS, "1"))
        root = str(Path(__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        filters = pickle.dumps(warnings.filters)
        for _ in range(self.workers):
            proc = subprocess.Popen([sys.executable, "-m", "signalnorm._workers"],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
            self._procs.append(proc)
            _send(proc, filters)


def _send(proc, payload: bytes) -> None:
    try:
        proc.stdin.write(payload)
        proc.stdin.flush()
    except BrokenPipeError:
        pass  # the worker is gone; reading its answer reports its exit code


def main() -> None:
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    filters = pickle.load(stdin)
    warnings.resetwarnings()  # voids what start-up registered under the old filters
    warnings.filters[:] = filters
    while True:
        try:
            calls = pickle.load(stdin)
        except EOFError:
            return
        results = [_run(getattr(importlib.import_module(module), name), args, lo, hi)
                   for module, name, args, lo, hi in calls]
        stdout.write(pickle.dumps(results))
        stdout.flush()


if __name__ == "__main__":
    main()
