"""Property tests of the split-sample pipeline that both regimes share."""

import os
import platform
import subprocess
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from signalnorm import ExperimentConfig, _workers, calibration, harness
from signalnorm import (
    Dimensions,
    ModelSpec,
    RegressionSample,
    detect,
    detection_threshold,
    estimate,
    sample_sparse_theta,
    synthesize,
)
from signalnorm.calibration import calibrate_beta, statistic
from signalnorm.highdim import estimate_highdim
from signalnorm.lowdim import estimate_lowdim
from signalnorm.pipeline import decide

ROOT = Path(__file__).resolve().parents[1]

# (N, p, s) per regime, one shape on each branch: sparse when s^2 <= p.
SHAPES = {
    "low": [(60, 9, 3), (60, 9, 5)],
    "high": [(45, 30, 2), (40, 30, 8)],
}

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def cases(draw):
    """A seeded sample in either regime, on either branch, null or not."""
    regime = draw(st.sampled_from(sorted(SHAPES)))
    N, p, s = draw(st.sampled_from(SHAPES[regime]))
    seed = draw(st.integers(0, 2**32 - 1))
    magnitude = draw(st.sampled_from([0.0, 0.5, 2.0]))
    alpha = draw(st.sampled_from([0.5, 1.0, 4.0]))
    rng = np.random.default_rng(seed)
    theta = sample_sparse_theta(p, s, magnitude, rng=rng)
    sample = synthesize(ModelSpec(theta=theta, sigma=1.0), Dimensions(N=N, p=p, s=s), seed)
    return regime, sample, s, alpha


@PROPERTY
@given(case=cases(), beta=st.floats(0.1, 20.0))
def test_decision_is_the_detection_rule(case, beta):
    regime, sample, s, alpha = case
    est = estimate(sample, s, regime, alpha=alpha)
    decision, lambda_hat, threshold, beta_used = detect(sample, s, regime, alpha=alpha, beta=beta)
    assert beta_used == beta and lambda_hat == est.lambda_hat
    assert est.n_used == est.parts * est.n_per_split
    assert threshold == detection_threshold(beta, est.sigma_hat, s, sample.p, est.n_used)
    assert decision == int(lambda_hat >= threshold)


@PROPERTY
@given(case=cases(), beta=st.floats(0.1, 20.0))
def test_null_statistic_reaches_beta_exactly_when_detect_rejects(case, beta):
    regime, sample, s, alpha = case
    stat = statistic(estimate(sample, s, regime, alpha=alpha), s, sample.p)
    assume(abs(stat - beta) > 1e-9 * beta)  # off the rounding boundary
    decision = detect(sample, s, regime, alpha=alpha, beta=beta)[0]
    assert decision == int(stat >= beta)


@PROPERTY
@given(
    case=cases(),
    k=st.integers(-3, 3).filter(bool),
    sign=st.sampled_from([-1.0, 1.0]),
    beta=st.floats(0.5, 5.0),
)
def test_scale_equivariance(case, k, sign, beta):
    """Y -> cY scales lambda_hat and sigma_hat by |c| and keeps the decision:
    exactly in the low regime, to solver tolerance in the high one."""
    regime, sample, s, alpha = case
    c = sign * 2.0**k
    scaled = RegressionSample(X=sample.X, Y=c * sample.Y)
    base = estimate(sample, s, regime, alpha=alpha)
    other = estimate(scaled, s, regime, alpha=alpha)
    base_thr = detection_threshold(beta, base.sigma_hat, s, sample.p, base.n_used)
    if regime == "low":
        assert other.lambda_hat == abs(c) * base.lambda_hat
        assert other.sigma_hat == abs(c) * base.sigma_hat
    else:
        assert other.sigma_hat == pytest.approx(abs(c) * base.sigma_hat, rel=1e-4)
        # The sparse branch selects coordinates against a threshold; away
        # from it the selection, and so the estimate, follows the scaling.
        assert other.lambda_hat == pytest.approx(abs(c) * base.lambda_hat, rel=1e-3, abs=1e-6)
        assume(abs(base.lambda_hat - base_thr) > 1e-2 * base_thr)
    assert (
        detect(scaled, s, regime, alpha=alpha, beta=beta)[0]
        == detect(sample, s, regime, alpha=alpha, beta=beta)[0]
    )


def test_alpha_and_beta_must_be_positive_in_both_regimes():
    low = synthesize(ModelSpec(theta=np.zeros(4), sigma=1.0), Dimensions(N=40, p=4, s=3), 1)
    high = synthesize(ModelSpec(theta=np.zeros(30), sigma=1.0), Dimensions(N=40, p=30, s=8), 2)
    # s = 3 > sqrt(4) and s = 8 > sqrt(30): alpha is checked on the dense branch too
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            estimate_lowdim(low, 3, alpha=bad)
        with pytest.raises(ValueError, match="alpha"):
            estimate_highdim(high, 8, alpha=bad)
        with pytest.raises(ValueError, match="beta"):
            detect(low, 3, "low", beta=bad)
        with pytest.raises(ValueError, match="beta"):
            detect(high, 8, "high", beta=bad)


@pytest.mark.parametrize("prelim", ["zero", "bogus"])
def test_low_regime_rejects_a_preliminary(prelim):
    """The low regime always fits least squares, so any `prelim` but "srs"
    raises instead of being ignored.  `c1` stays accepted: a run passes its
    config's `c1` in both regimes."""
    sample = synthesize(ModelSpec(theta=np.zeros(4), sigma=1.0), Dimensions(N=40, p=4, s=3), 1)
    with pytest.raises(ValueError, match="low regime takes only 'srs'"):
        estimate(sample, 3, "low", prelim=prelim)
    assert estimate(sample, 3, "low", c1=9.0) == estimate(sample, 3, "low")


@pytest.mark.parametrize("regime, s, prelim, message", [
    ("mid", 0, "bogus", "unknown regime 'mid'; expected 'low' or 'high'"),
    ("low", 0, "zero", "prelim 'zero': the low regime takes only 'srs'"),
    ("low", 0, "srs", "s must satisfy 1 <= s <= p, got s=0, p=9"),
    ("high", 0, "bogus", "s must satisfy 1 <= s <= p, got s=0, p=9"),
    ("high", 10, "zero", "s must satisfy 1 <= s <= p, got s=10, p=9"),
    ("high", 2, "bogus", "unknown preliminary 'bogus'; expected 'srs' or 'zero'"),
], ids=["regime", "low-prelim", "low-s", "high-s", "high-zero-s", "high-prelim"])
def test_estimate_checks_in_order(regime, s, prelim, message):
    """The first check that fails names itself: the regime, then the low
    regime's `prelim`, then `s`, then the high regime's `prelim`; so also
    through `estimate_lowdim` and `estimate_highdim`."""
    sample = synthesize(ModelSpec(theta=np.zeros(9), sigma=1.0), Dimensions(N=40, p=9, s=2), 3)
    calls = [lambda: estimate(sample, s, regime, prelim=prelim)]
    if regime == "high":
        calls.append(lambda: estimate_highdim(sample, s, prelim=prelim))
    if regime == "low" and prelim == "srs":
        calls.append(lambda: estimate_lowdim(sample, s))
    for call in calls:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


def test_estimate_without_noise_estimate_cannot_be_tested():
    """prelim="zero" fits nothing, so its estimate has sigma_hat None: the
    detection rule and the null statistic both refuse it by name."""
    sample = synthesize(ModelSpec(theta=np.zeros(9), sigma=1.0), Dimensions(N=30, p=9, s=2), 11)
    est = estimate_highdim(sample, 2, prelim="zero")
    assert est.sigma_hat is None
    with pytest.raises(ValueError, match="no noise estimate"):
        decide(est, 2, 9, 1.0)
    with pytest.raises(ValueError, match="no noise estimate"):
        statistic(est, 2, 9)


@pytest.mark.parametrize("regime, shape", [("low", SHAPES["low"][0]), ("high", SHAPES["high"][0])],
                         ids=["low", "high-sparse"])
def test_decide_calibrates_at_the_estimates_rows_and_regime(regime, shape):
    """Without a beta, `decide` calibrates on nulls of the estimate's regime
    and rows, 3n on the sparse branch, and decides as at that beta given."""
    N, p, s = shape
    theta = sample_sparse_theta(p, s, 2.0, rng=np.random.default_rng(5))
    sample = synthesize(ModelSpec(theta=theta, sigma=1.0), Dimensions(N=N, p=p, s=s), 5)
    est = estimate(sample, s, regime, alpha=1.0)
    assert est.n_used == N and est.parts == {"low": 2, "high": 3}[regime]
    args = dict(trials=40, seed=3, alpha=1.0, c1=2.0)
    beta = calibrate_beta(p=p, N=est.n_used, s=s, regime=est.regime, **args)
    assert decide(est, s, p, None, **args) == (*decide(est, s, p, beta)[:2], beta)


def test_calibrate_beta_needs_a_regime():
    """The null's regime has no default, as in `estimate`: a call without one
    fails instead of calibrating on low-regime nulls."""
    with pytest.raises(TypeError, match="regime"):
        calibrate_beta(p=8, N=32, s=2, trials=10)


def _children() -> set[str]:
    """Process ids of the live children of this process, over all its threads."""
    return {pid for f in Path("/proc/self/task").glob("*/children") for pid in f.read_text().split()}


def _calibrate_over(workers, monkeypatch, **args):
    """`calibrate_beta(**args)` with its trials split over `workers` forked
    workers (1: the serial loop), whatever its size and the host's cores,
    and the null statistics it took the quantile of."""
    quantile, seen = calibration._beta, []

    def recording(job, stats):
        seen.append(np.array(stats))
        return quantile(job, stats)

    with monkeypatch.context() as patch:
        patch.setattr(_workers, "worker_count", lambda draws, items: workers)
        patch.setattr(calibration, "_beta", recording)
        beta = calibrate_beta(**args)
    return seen[0], beta


# Trial counts that neither 2 nor 3 workers divide evenly.
SPLIT_CASES = {
    "low": dict(p=10, N=60, s=2, regime="low", alpha=1.0, trials=37, seed=4),
    "high": dict(p=60, N=45, s=2, regime="high", alpha=1.0, trials=23, seed=6),
    "low-non-gaussian": dict(p=10, N=60, s=2, regime="low", alpha=1.0, trials=31, seed=8,
                             design="uniform-scaled", noise="scaled-rademacher-mixture"),
    # Every null statistic is 0 here, so beta is the 1.0 fallback.
    "zero-atom": dict(p=400, N=600, s=3, regime="high", alpha=4.0, trials=11, seed=0),
    # Sizes where the bits of the least squares products depend on the BLAS
    # thread count: the workers' single thread and the caller's count agree
    # because the fit runs on one thread either way.
    "low-p100": dict(p=100, N=400, s=3, regime="low", alpha=1.0, trials=6, seed=0),
    "low-p400": dict(p=400, N=2000, s=3, regime="low", alpha=1.0, trials=6, seed=0),
}


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
@pytest.mark.parametrize("case, workers",
                         [(case, 2) for case in sorted(SPLIT_CASES)] + [("high", 3), ("low", 3)])
def test_split_calibration_is_bit_identical(case, workers, monkeypatch):
    """Split over forked workers, a calibration gives the serial loop's
    statistics and beta bit for bit at every size, leaves the caller's
    environment as it was and no child process behind."""
    args = SPLIT_CASES[case]
    environ, before = dict(os.environ), _children()
    stats, beta = _calibrate_over(1, monkeypatch, **args)
    assert stats.shape == (args["trials"],)
    if case == "zero-atom":
        assert not stats.any() and beta == 1.0
    if case.startswith("low-p"):
        assert stats.all()
    split_stats, split_beta = _calibrate_over(workers, monkeypatch, **args)
    assert split_stats.tobytes() == stats.tobytes()
    assert np.float64(split_beta).tobytes() == np.float64(beta).tobytes()
    assert _children() == before
    assert dict(os.environ) == environ


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_split_calibration_raises_as_the_serial_loop(monkeypatch):
    """A trial that fails in a worker raises the serial loop's exception, type
    and message; a worker whose statistics cannot be pickled ends without a
    result and raises RuntimeError with its exit code.  Either way no child
    process is left behind."""
    args = dict(SPLIT_CASES["low"], s=11)  # s > p
    before = _children()
    with pytest.raises(ValueError) as serial:
        _calibrate_over(1, monkeypatch, **args)
    with pytest.raises(ValueError) as split:
        _calibrate_over(2, monkeypatch, **args)
    assert str(split.value) == str(serial.value) == "s must satisfy 1 <= s <= p, got s=11, p=10"
    assert _children() == before
    with monkeypatch.context() as patch, pytest.raises(
            RuntimeError, match="a worker exited with code 1 and no result"):
        patch.setattr(calibration, "_null_statistics",
                      lambda job, lo, hi: [lambda: None] * (hi - lo))
        _calibrate_over(2, monkeypatch, **SPLIT_CASES["low"])
    assert _children() == before


def test_split_calibration_ignores_the_fork_warning(monkeypatch):
    """A fork that warns as Python 3.12 and later do in a process with other
    threads, such as OpenBLAS's pool, fails no split calibration under the
    `error` filter: the statistics and beta are the serial loop's bits."""
    stats, beta = _calibrate_over(1, monkeypatch, **SPLIT_CASES["low"])
    fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may "
                      "lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        split_stats, split_beta = _calibrate_over(2, monkeypatch, **SPLIT_CASES["low"])
        with pytest.raises(DeprecationWarning, match="multi-threaded"):
            warning_fork()  # the filter is confined to the run's fork
    assert split_stats.tobytes() == stats.tobytes()
    assert np.float64(split_beta).tobytes() == np.float64(beta).tobytes()


def _blas_threads():
    """Thread count of numpy's OpenBLAS."""
    return _workers._openblas()[1]()


@pytest.mark.skipif(_workers._openblas() is None, reason="needs numpy's OpenBLAS")
def test_only_the_workers_run_blas_on_one_thread(monkeypatch):
    """A range that reads OpenBLAS's thread count reads 1 in a worker, and the
    caller's count is the same after the run as before."""
    before = _blas_threads()
    with monkeypatch.context() as patch:
        patch.setattr(_workers, "worker_count", lambda draws, items: 2)
        (threads,) = _workers.run([(lambda lo, hi: [_blas_threads()] * (hi - lo), (), 4, 1)])
    assert threads == [1] * 4
    assert _blas_threads() == before


@pytest.mark.skipif(_workers._openblas() is None, reason="needs numpy's OpenBLAS")
def test_one_blas_thread_restores_the_callers_count():
    """Inside `one_blas_thread` OpenBLAS runs on one thread, and the caller's
    count, here 2, is back after the block, also when the block raises."""
    set_threads = _workers._openblas()[0]
    before = _blas_threads()
    set_threads(2)
    try:
        with pytest.raises(ZeroDivisionError), _workers.one_blas_thread():
            assert _blas_threads() == 1
            1 / 0
        assert _blas_threads() == 2
    finally:
        set_threads(before)


def _faults_per_round(lo, hi):
    """Minor page faults of each of rounds lo..hi-1, which allocate and free
    arrays of 16 and 8 MB as a large trial does, after one round that warms
    the heap."""
    import resource

    faults = []
    for _ in range(lo, hi + 1):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = np.ones(2_000_000), np.ones(1_000_000)
        del arrays
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults[1:]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_workers_reuse_their_freed_heap(monkeypatch):
    """A worker serves a trial's arrays below 32 MB from heap that earlier
    trials freed.  Under glibc's default thresholds it can map fresh pages for
    every trial instead, hundreds of faults a round here."""
    with monkeypatch.context() as patch:
        patch.setattr(_workers, "worker_count", lambda draws, items: 2)
        (faults,) = _workers.run([(_faults_per_round, (), 8, 1)])
    assert len(faults) == 8 and max(faults) < 100, faults


@pytest.mark.parametrize("missing", [pytest.param("set", id="_blas_thread_setter"),
                                     pytest.param("get", id="_blas_thread_getter")])
def test_one_blas_thread_without_the_symbols_changes_nothing(missing, monkeypatch):
    """An OpenBLAS that lacks the thread setter or the thread getter under
    every symbol prefix gives no handle; the block then runs as it is, the
    half that is there is never called, and a raise in the block passes
    through."""
    calls = []
    present = "get" if missing == "set" else "set"
    lib = types.SimpleNamespace(**{
        name.format(present): lambda *args: calls.append(args) or 4
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads")})
    assert _workers._thread_pair(lib) is None
    monkeypatch.setattr(_workers, "_openblas", lambda: _workers._thread_pair(lib))
    ran = []
    with pytest.raises(ZeroDivisionError), _workers.one_blas_thread():
        ran.append(1)
        1 / 0
    assert ran == [1] and calls == []


def test_no_split_where_a_fork_is_unsafe(monkeypatch):
    """On 8 usable cores a large run gets 8 workers, and 1 when numpy's
    OpenBLAS is not found or another Python thread is alive."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    draws = 100 * _workers._DRAWS_PER_WORKER
    if _workers._openblas() is not None:
        assert _workers.worker_count(draws, 100) == 8
    with monkeypatch.context() as patch:
        patch.setattr(_workers, "_openblas", lambda: None)
        assert _workers.worker_count(draws, 100) == 1
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _workers.worker_count(draws, 100) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# The tall benchmark's `simulate` op: 400 trials and 2 calibrations of 500
# trials at n = 100 and 200, 35.4M draws in all.
TALL_SIMULATE = dict(seed=0, task="detect", regime="low", n=[100, 200], p_rule="n/2",
                     s_rule="3", alpha=1.0, magnitude=[0.0, 1.0], replications=100,
                     calib_trials=500)


def test_only_large_calibrations_split(monkeypatch):
    """At most one worker per usable core and per 2**21 draws: the tall
    benchmark's warm-up calibration stays serial, and its n=100 and n=200 ones,
    the CLI session's detect and the acceptance battery's split.  A run counts
    the draws of all its estimates and calibrations: the tall benchmark's
    warm-up and every golden `simulate` config stay in this process, and its op
    splits over every usable core."""
    from test_cli import REPORT_CONFIGS

    monkeypatch.setattr(_workers, "_usable_cores", lambda: 8)
    real = _workers.worker_count

    class Sized(Exception):
        """Raised with the worker count of a batch, in place of running it."""

    def sized(draws, items):
        raise Sized(real(draws, items))

    def workers_for(function, *args):
        """The workers that the one `_workers.run` batch of `function(*args)` gets."""
        with monkeypatch.context() as patch, pytest.raises(Sized) as sizing:
            patch.setattr(_workers, "worker_count", sized)
            function(*args)
        return sizing.value.args[0]

    def count(trials, N, p):
        return workers_for(_workers.run, [calibration._call(dict(trials=trials, N=N, p=p))])

    def run_count(config):
        return workers_for(harness.run_trials, ExperimentConfig.from_dict(config))

    assert count(20, 400, 100) == 0
    assert count(500, 200, 50) == 2
    assert count(200, 400, 100) == 3
    assert count(500, 400, 100) == count(2000, 400, 100) == 8
    assert count(3, 10**6, 10**4) == 3
    assert run_count(dict(TALL_SIMULATE, replications=2, calib_trials=20)) == 0
    assert [run_count(config) for config in REPORT_CONFIGS.values()] == [0] * 6
    assert run_count(TALL_SIMULATE) == 8
    monkeypatch.setattr(_workers, "_usable_cores", lambda: 2)
    assert run_count(TALL_SIMULATE) == 2


def test_unguarded_caller_runs_once(tmp_path):
    """A script without a ``__main__`` guard that makes a split calibration runs
    its body once: the workers never import the caller's main module.  Nor do
    they print a warning, such as the one ``python -m`` gives for a module
    that its package has imported."""
    script = tmp_path / "unguarded.py"
    script.write_text(
        "import signalnorm.calibration as calibration\n"
        "import signalnorm._workers as workers\n"
        "workers.worker_count = lambda draws, items: 2\n"
        "print('body')\n"
        f"print(repr(calibration.calibrate_beta(**{SPLIT_CASES['low']!r})))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["body", repr(calibrate_beta(**SPLIT_CASES["low"]))]
    assert "Warning" not in proc.stderr


def test_buffered_output_is_written_once(tmp_path):
    """What a caller has printed but not yet flushed when a split run forks
    its workers is written once, not once more by each worker."""
    script = tmp_path / "buffered.py"
    script.write_text(
        "import sys\n"
        "import signalnorm.calibration as calibration\n"
        "import signalnorm._workers as workers\n"
        "workers.worker_count = lambda draws, items: 2\n"
        "print('out', end='')\n"
        "print('err', end='', file=sys.stderr)\n"
        f"calibration.calibrate_beta(**{SPLIT_CASES['low']!r})\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("out", "err")


@pytest.mark.parametrize("regime, shape", [("low", (400, 100, 3)), ("high", (90, 40, 2)),
                                           ("high", (600, 1200, 6))])
def test_estimate_bits_do_not_depend_on_the_layout(regime, shape):
    """The same X column-major, or as a strided view of a wider array, gives
    the bits of the row-major X: a sample stores its arrays row-major.  Before
    it did, column-major X moved most component estimates by up to 4.6e-14,
    and a view moved high-regime q_hat in the last bit."""
    N, p, s = shape
    theta = sample_sparse_theta(p, s, 1.0, rng=np.random.default_rng(5))
    sample = synthesize(ModelSpec(theta=theta, sigma=1.0), Dimensions(N=N, p=p, s=s), 5)
    wide = np.zeros((N, 2 * p + 1))
    wide[:, 1::2] = sample.X
    wide[:, 0] = sample.Y
    layouts = {"F": (np.asfortranarray(sample.X), sample.Y),
               "every other column": (wide[:, 1::2], wide[:, 0]),
               "all but the first column": (np.hstack([sample.Y[:, None], sample.X])[:, 1:],
                                            sample.Y)}
    base = estimate(sample, s, regime, alpha=1.0)
    for name, (X, Y) in layouts.items():
        other = estimate(RegressionSample(X=X, Y=Y), s, regime, alpha=1.0)
        assert (other.q_hat, other.sigma_hat) == (base.q_hat, base.sigma_hat), name


def test_unknown_regime():
    sample = synthesize(ModelSpec(theta=np.zeros(4), sigma=1.0), Dimensions(N=40, p=4, s=1), 3)
    with pytest.raises(ValueError, match="regime"):
        estimate(sample, 1, "medium")


@pytest.mark.parametrize(
    "regime, shape", [(regime, shape) for regime in sorted(SHAPES) for shape in SHAPES[regime]]
)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    magnitude=st.sampled_from([0.0, 0.5, 2.0]),
    alpha=st.sampled_from([0.5, 1.0, 4.0]),
)
def test_column_permutation_equivariance(regime, shape, seed, magnitude, alpha):
    """Relabelling the coordinates keeps the branch, and changes the estimate,
    the noise estimate and the selection threshold only by summation order."""
    N, p, s = shape
    rng = np.random.default_rng(seed)
    theta = sample_sparse_theta(p, s, magnitude, rng=rng)
    sample = synthesize(ModelSpec(theta=theta, sigma=1.0), Dimensions(N=N, p=p, s=s), seed)
    permuted = RegressionSample(X=sample.X[:, rng.permutation(p)], Y=sample.Y)
    base = estimate(sample, s, regime, alpha=alpha)
    other = estimate(permuted, s, regime, alpha=alpha)
    assert other.branch == base.branch
    assert other.q_hat == pytest.approx(base.q_hat, rel=1e-9)
    assert other.sigma_hat == pytest.approx(base.sigma_hat, rel=1e-9)
    if base.branch == "dense":
        assert base.threshold is None and other.threshold is None
    else:
        assert other.threshold == pytest.approx(base.threshold, rel=1e-9)
