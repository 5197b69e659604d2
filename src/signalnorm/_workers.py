"""One batch of range calls, split over forked workers when it is large.

A call ``(function, args, n, draws_per_item)`` asks for items 0..n-1 of a list,
which ``function(*args, lo, hi)`` computes lo..hi-1 of: the estimates of one
grid point's replications (:func:`signalnorm.harness.run_trials`) or the
statistics of one null calibration (:func:`signalnorm.calibration.calibrate_beta`).
Item i depends only on i and `args`, so :func:`run` may split each call's
items into one contiguous range per worker and join the ranges in order.

The workers are children that each split :func:`run` forks from the calling
process, so they inherit its functions, arguments and warning filters; nothing
is sent to them.  A child sets its own OpenBLAS to one thread, computes its
range of every call, writes one pickled result per call, the items or the
exception the range raised, to a pipe and ends with ``os._exit``.  A batch
splits only where that is safe: with ``os.fork``, ``os.sched_getaffinity`` and
numpy's OpenBLAS, and with no other Python thread in the caller.  Elsewhere it
runs in the calling process.

:func:`one_blas_thread` runs a block in the calling process on one OpenBLAS
thread, for a product whose bits would otherwise depend on the thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import sys
import threading
import warnings

# Draws, rows * (p + 1) summed over every estimate a run makes, that each
# worker must have before the run splits.  Forking 2 workers and reading their
# answers costs about 0.02 s, but with both cores busy a worker's trial takes
# up to twice as long as a serial one.  One calibration, serial against 2
# workers on 2 cores (numpy 2.4, OpenBLAS 0.3.31 with 2 threads), medians of 7
# alternating runs:
#   low regime, N=200, p=50, 200 trials (2.0M draws):  0.12 s against 0.19 s;
#                            500 trials (5.1M):        0.33 s against 0.29 s;
#   low regime, N=400, p=100, 100 trials (4.0M):       0.14 s against 0.16 s;
#                            200 trials (8.1M):        0.34 s against 0.25 s;
#                            420 trials (17.0M):       0.68 s against 0.49 s;
#   high regime, N=600, p=400, s=3, 15 trials (3.6M):  0.085 s against 0.095 s;
#                            30 trials (7.2M):         0.17 s against 0.17 s;
#                            60 trials (14.4M):        0.31 s against 0.25 s.
# Break-even lies between 2.0M and 2.6M draws per worker in the low regime and
# near 3.6M in the high one; 2**21 = 2.1M is at its low end.
_DRAWS_PER_WORKER = 1 << 21


@functools.cache
def _openblas():
    """The ``(set_num_threads, get_num_threads)`` pair of the OpenBLAS that
    numpy loaded, found together under one symbol prefix, or None."""
    from pathlib import Path

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        pair = _thread_pair(ctypes.CDLL(str(lib)))
        if pair is not None:
            return pair
    return None


def _thread_pair(handle):
    """The ``(set_num_threads, get_num_threads)`` pair of one loaded OpenBLAS,
    found together under one symbol prefix, or None when the library lacks
    either half under every prefix."""
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        setter, getter = (getattr(handle, name.format(verb), None) for verb in ("set", "get"))
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, for a product whose
    bits would otherwise depend on the thread count, and restore the caller's
    count afterwards, also after a raise.  Without numpy's OpenBLAS it changes
    nothing.  The count belongs to the process, so BLAS calls of other Python
    threads inside the block run on one thread too."""
    blas = _openblas()
    if blas is None:
        yield
        return
    setter, getter = blas
    threads = getter()
    setter(1)
    try:
        yield
    finally:
        setter(threads)


def _usable_cores() -> int:
    """The cores of this process's affinity mask, or 1 where a child cannot be
    forked safely or made single-threaded."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1 or _openblas() is None):
        return 1
    return len(os.sched_getaffinity(0))


def worker_count(draws: int, items: int) -> int:
    """Workers for a run of `draws` draws whose largest call has `items` items:
    at most one per usable core and per item, and none with fewer than
    _DRAWS_PER_WORKER draws.  Below 2 the run stays in this process.  Only a
    run large enough to split looks up the cores, and with them numpy's
    OpenBLAS."""
    workers = min(items, draws // _DRAWS_PER_WORKER)
    return min(workers, _usable_cores()) if workers > 1 else workers


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


def _flush() -> None:
    """Write out what sys.stdout and sys.stderr buffer."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # no stream, or a closed one
            pass


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12 and later warn on a fork while other threads run, as
        # OpenBLAS's pool threads do.  This fork is safe all the same: OpenBLAS
        # stops its pool in a pthread_atfork handler before the fork, and the
        # child runs BLAS on one thread.
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, use of "
                                r"fork\(\) may lead to deadlocks in the child\.", DeprecationWarning)
        return os.fork()


def _answer(calls: list, j: int, k: int, pipe):
    """In the forked worker j of k: write to `pipe` the pickled results of
    range j of every call, then exit.  Every path ends in os._exit, so nothing
    unwinds into the caller's stack, its finally blocks or its atexit handlers."""
    code = 1
    try:
        blas = _openblas()
        if blas is not None:
            blas[0](1)  # set_num_threads(1)
        # glibc's M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1) at their dynamic maxima: a
        # trial's arrays reuse freed heap instead of faulting fresh pages in each time
        for param, value in ((-3, 1 << 25), (-1, 1 << 26)):
            getattr(ctypes.CDLL(None), "mallopt", lambda *_: 0)(param, value)
        answer = pickle.dumps([_run(function, args, n * j // k, n * (j + 1) // k)
                               for function, args, n, _ in calls])
        _flush()  # before the caller, having read the answer, kills this worker
        pipe.write(answer)
        pipe.flush()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:
        import traceback

        traceback.print_exc()
    finally:
        _flush()
        os._exit(code)


def run(calls: list) -> list:
    """For each call ``(function, args, n, draws_per_item)``, the items 0..n-1
    of ``function(*args, lo, hi)`` as one list, or the exception raised by the
    lowest range that raised.  The batch splits over :func:`worker_count` of
    its draws, n * draws_per_item summed over the calls, and its largest n;
    below 2 workers every call runs whole in this process.  A worker that ends
    without answering raises `RuntimeError` with its exit code."""
    k = worker_count(sum(n * draws for _, _, n, draws in calls), max(n for _, _, n, _ in calls))
    if k < 2:
        return [_run(function, args, 0, n) for function, args, n, _ in calls]
    import signal

    _flush()  # else each worker would write again what this process buffered
    pids, pipes = [], []  # the live workers, and the read ends of their answers
    try:
        for j in range(k):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as pipe:
                pid = _fork()
                if pid == 0:
                    _answer(calls, j, k, pipe)
            pids.append(pid)
        answers = []
        for pid, pipe in zip(list(pids), pipes):
            try:
                answers.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                pids.remove(pid)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"a worker exited with code {code} and no result") from None
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [_joined(parts) for parts in zip(*answers)]
