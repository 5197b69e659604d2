"""Tests for the Monte Carlo experiment engine and its reporting."""

import importlib
import json
import os
import sys

import numpy as np
import pytest

from signalnorm import ExperimentConfig, _workers, calibration, harness, pipeline, report, run_trials
from signalnorm.harness import (
    TrialRecord, _trial_seed, eval_rule, fit_rate, metric_points, read_records, run_single_trial,
    summarize,
)
from signalnorm.lower_bounds import q_lower_bound, rate_sq
from signalnorm.model import DESIGN_LAWS, NOISE_LAWS


def tiny_config(**overrides):
    base = dict(
        seed=1234,
        task="estimate-norm",
        regime="low",
        replications=2,
        n=[16, 24, 32],
        p_rule="n/4",
        s_rule="floor(sqrt(p))",
        sigma=[1.0],
        magnitude=[0.0],
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestEvalRule:
    def test_basic_rules(self):
        assert eval_rule("p = n/2", n=64) == 32
        assert eval_rule("floor(sqrt(p))", p=10) == 3
        assert eval_rule("min(n, 2*p)", n=7, p=2) == 4

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            eval_rule("n + q", n=1)

    def test_nasty_input_rejected(self):
        with pytest.raises(ValueError):
            eval_rule("__import__('os').system('true')")
        with pytest.raises(ValueError):
            eval_rule("(lambda: 1)()")

    def test_huge_power_fails_at_once(self):
        """Rules compute in floats, so a power past the float range raises
        OverflowError at once instead of building a big integer first."""
        with pytest.raises(ValueError, match="failed"):
            eval_rule("(n+1)**10**9", n=64)

    def test_non_integer_rule_rejected_in_grid(self):
        config = tiny_config(n=[15], p_rule="n/2")
        with pytest.raises(ValueError, match="non-integer"):
            config.grid_points()


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            ExperimentConfig.from_dict({"seed": 1, "replicas": 5})

    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig.from_dict({"task": "detect"})

    def test_task_regime_validation(self):
        with pytest.raises(ValueError):
            tiny_config(task="classify")
        with pytest.raises(ValueError, match="unknown task 'estimate-q'"):
            ExperimentConfig.from_dict({"seed": 1, "task": "estimate-q"})
        with pytest.raises(ValueError):
            tiny_config(regime="medium")

    @pytest.mark.parametrize("key, value, match", [
        ("magnitude", [float("nan")], "magnitude must be finite and >= 0, got nan"),
        ("magnitude", [-1.0], "magnitude must be finite and >= 0, got -1.0"),
        ("pattern", "bogus", "unknown pattern 'bogus'"),
    ], ids=["magnitude-nan", "magnitude-negative", "pattern-unknown"])
    def test_signal_checked_at_load(self, key, value, match):
        """The signal's magnitudes and pattern are checked by `sample_sparse_theta`'s
        own rule when the config loads, before any trial runs."""
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_dict({"seed": 1, key: value})

    def test_fields_a_run_reads_stay_valid(self):
        """Only fields a run would ignore are rejected: `"beta": null` beside
        `calib_trials`, `c1` with the auto regime, and `delta` with a given beta
        (it is also the level of the summary's quantiles) all load, as do
        `"beta": null` and `delta` in an estimate task."""
        for data in ({"task": "detect", "beta": None, "calib_trials": 20},
                     {"regime": "auto", "c1": 2.0},
                     {"task": "detect", "beta": 2.0, "delta": 0.2},
                     {"task": "estimate-norm", "beta": None, "delta": 0.2}):
            ExperimentConfig.from_dict({"seed": 1, **data})

    def test_grid_points_fix_regime_and_rows(self):
        """The "auto" regime is low iff p <= n/2, and each point's row budget is
        parts * n: 3n on the sparse branch of the high regime, else 2n."""
        low = tiny_config(regime="auto", n=[16], p_rule="n/2").grid_points()[0]
        high = tiny_config(regime="auto", n=[16], p_rule="n").grid_points()[0]
        assert (low["regime"], low["s"], low["n_used"]) == ("low", 2, 32)
        assert (high["regime"], high["s"], high["n_used"]) == ("high", 4, 48)

    def test_grid_cardinality(self):
        config = tiny_config(sigma=[0.5, 1.0], magnitude=[0.0, 1.0])
        assert len(config.grid_points()) == 3 * 2 * 2


class TestRunTrials:
    def test_deterministic(self):
        config = tiny_config()
        a = run_trials(config)
        b = run_trials(config)
        assert a == b

    def test_record_count(self):
        records = run_trials(tiny_config())
        assert len(records) == 3 * 2

    def test_order_independence(self):
        """Reversed execution order yields the identical multiset of records."""
        config = tiny_config()
        forward = run_trials(config)
        backward = []
        for point in reversed(config.grid_points()):
            for rep in reversed(range(config.replications)):
                seed = _trial_seed(config.seed, point["index"], rep)
                backward.append(run_single_trial(config, point, seed))
        key = lambda r: (r.config_id, r.seed)
        assert sorted(forward, key=key) == sorted(backward, key=key)

    def test_error_trials_tagged_not_fatal(self):
        """A grid that breaks the estimator is recorded, counted, excluded."""
        config = tiny_config(p_rule="n*2", n=[8])  # p > n: no least squares fit
        records = run_trials(config)
        assert len(records) == 2
        assert all(r.error is not None and r.q_hat is None for r in records)
        summary = summarize(records)
        assert summary["points"][0]["errors"] == 2
        assert "mse_q" not in summary["points"][0]

    def test_singular_design_tagged_not_fatal(self, monkeypatch):
        """A trial whose least squares design is singular is tagged with the
        `SingularDesignError` (a `LinAlgError`), and the next trial runs."""
        real, calls = harness.synthesize, []

        def duplicating(*args):
            sample = real(*args)
            calls.append(sample.N)
            if len(calls) == 1:  # the first trial's design repeats its first column
                sample.X[:, 1] = sample.X[:, 0]
            return sample

        monkeypatch.setattr(harness, "synthesize", duplicating)
        records = run_trials(tiny_config(n=[16]))
        assert len(records) == len(calls) == 2
        assert records[0].error.startswith(
            "SingularDesignError: design is numerically singular") and records[0].q_hat is None
        assert records[1].error is None and records[1].q_hat is not None

    def test_error_fields_recomputable(self):
        for rec in run_trials(tiny_config(magnitude=[1.0])):
            assert rec.error is None
            assert abs(rec.err_q - (rec.q_hat - rec.true_q)) <= 1e-12
            assert abs(rec.err_lambda - (rec.lambda_hat - rec.true_lambda)) <= 1e-12

    def test_detect_task_records_decisions(self):
        config = tiny_config(task="detect", beta=2.0, n=[16], replications=3)
        records = run_trials(config)
        assert all(r.decision in (0, 1) for r in records)

    def test_detect_calibrates_once_per_n(self, monkeypatch):
        """Without a beta, a detect run calibrates once for each n, whatever the
        noise levels, magnitudes and replications at it, and decides as if
        every trial had calibrated its own."""
        calls = []
        real = calibration._null_statistics

        def counting(job, lo, hi):
            calls.append(job)
            return real(job, lo, hi)

        monkeypatch.setattr(calibration, "_null_statistics", counting)
        config = tiny_config(task="detect", n=[16, 24], sigma=[0.5, 1.0], magnitude=[0.0, 1.0],
                             calib_trials=20)
        records = run_trials(config)
        assert len(records) == 2 * 2 * 2 * 2
        assert all(r.error is None and r.decision in (0, 1) for r in records)
        assert [(c["p"], c["N"]) for c in calls] == [(4, 32), (6, 48)]
        alone = [run_single_trial(config, point, _trial_seed(config.seed, point["index"], rep))
                 for point in config.grid_points() for rep in range(config.replications)]
        assert alone == records

    @pytest.mark.parametrize("overrides, parts", [
        (dict(regime="low", p_rule="n/4", s_rule="1"), 2),
        (dict(regime="high", p_rule="2*n", s_rule="2"), 3),
        (dict(regime="high", p_rule="n", s_rule="p"), 2),
    ], ids=["low", "high-sparse", "high-dense"])
    def test_record_n_used_is_the_rows_estimated(self, monkeypatch, overrides, parts):
        """Every trial draws `n_used` rows and its estimate consumes them all:
        2n in the low regime and on the dense branch, 3n on the sparse one."""
        seen = []
        real = pipeline.estimate

        def recording(sample, *args, **kwargs):
            est = real(sample, *args, **kwargs)
            seen.append((est.n_used, sample.N))
            return est

        monkeypatch.setattr(pipeline, "estimate", recording)
        records = run_trials(tiny_config(n=[16, 24], magnitude=[1.0], **overrides))
        assert len(seen) == len(records) == 4
        for (est_n_used, sample_N), rec in zip(seen, records):
            assert rec.error is None
            assert est_n_used == sample_N == rec.n_used == parts * rec.n

    def test_failing_calibration_tags_every_detect_trial(self, monkeypatch):
        """A calibration that raises tags every trial at its n whose estimate
        succeeded with its message.  It runs once per n, as any calibration
        of a run does, not again for each trial: 2 calls for 4 trials."""
        calls = []

        def failing(job, lo, hi):
            calls.append(job)
            raise ValueError("no null statistic")

        monkeypatch.setattr(calibration, "_null_statistics", failing)
        records = run_trials(tiny_config(task="detect", n=[16, 24]))
        assert len(records) == 4 and len(calls) == 2
        assert all(r.error == "ValueError: no null statistic" and r.q_hat is not None
                   and r.decision is None for r in records)

    def test_detect_calibrates_under_config_laws(self, monkeypatch):
        """A detect run's beta is the one `calibrate_beta` gives under the
        config's design and noise laws, not the Gaussian one."""
        laws = dict(design="uniform-scaled", noise="scaled-rademacher-mixture")
        config = tiny_config(task="detect", n=[24], s_rule="p", calib_trials=50, **laws)
        point = config.grid_points()[0]
        betas, real = [], calibration._beta

        def recording(job, stats):
            betas.append(real(job, stats))
            return betas[-1]

        with monkeypatch.context() as patch:
            patch.setattr(calibration, "_beta", recording)
            run_trials(config)
        args = dict(p=point["p"], N=point["n_used"], s=point["s"], delta=config.delta,
                    regime=point["regime"], alpha=config.alpha, c1=config.c1,
                    trials=config.calib_trials, seed=config.seed)
        assert betas == [calibration.calibrate_beta(**args, **laws)]
        assert betas[0] != calibration.calibrate_beta(**args)

    @pytest.mark.parametrize("design", sorted(DESIGN_LAWS))
    @pytest.mark.parametrize("noise", sorted(NOISE_LAWS))
    def test_calibrated_level_under_each_law(self, design, noise):
        """Null rejection rate of a low-regime detect run (N = 80, p = 10) with
        beta calibrated on 500 nulls of the same laws, over 500 trials: within
        0.057 of delta = 0.1, three binomial standard errors of the difference
        of two 500-trial rates, 3 sqrt(2 * 0.1 * 0.9 / 500)."""
        config = ExperimentConfig.from_dict(dict(
            seed=7, task="detect", regime="low", n=[40], p_rule="10", s_rule="p",
            magnitude=[0.0], replications=500, calib_trials=500, design=design, noise=noise))
        records = run_trials(config)
        assert all(r.error is None for r in records)
        rate = np.mean([r.decision for r in records])
        assert abs(rate - config.delta) <= 3 * np.sqrt(2 * 0.1 * 0.9 / 500)


# Stand-ins for the range functions of a run, in a module that worker
# interpreters import by name as they import the real ones.
STAND_INS = """
import os

from signalnorm.calibration import _null_statistics


def nulls_failing_at_48_rows(job, lo, hi):
    if job["N"] == 48:
        raise ValueError("no null statistic")
    return _null_statistics(job, lo, hi)


def estimates_raising(config, point, lo, hi):
    raise KeyError(f"n={point['n']} from replication {lo}")


def estimates_exiting(config, point, lo, hi):
    os._exit(3)
"""


@pytest.fixture
def stand_ins(tmp_path, monkeypatch):
    """The stand-in module, importable here and in the worker interpreters."""
    (tmp_path / "stand_ins.py").write_text(STAND_INS)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")])))
    monkeypatch.delitem(sys.modules, "stand_ins", raising=False)
    return importlib.import_module("stand_ins")


def run_over(workers, config, monkeypatch):
    """`run_trials(config)` with its estimates and calibrations split over
    `workers` worker interpreters (1: in this process), whatever its size."""
    with monkeypatch.context() as patch:
        patch.setattr(_workers, "worker_count", lambda draws, items: workers)
        return run_trials(config)


# Low-regime detection at p = 10: the least squares pipeline needs n > p, so
# every estimate at n = 8 fails, and at n = 16 and 24 none does.
MIXED = dict(task="detect", n=[8, 16, 24], p_rule="10", s_rule="2", magnitude=[0.0, 1.0],
             replications=3, calib_trials=7)


class TestSplitRun:
    """Runs forced onto worker interpreters where trials or calibrations fail.
    No test leaves a worker behind, as the autouse fixture checks."""

    def test_tagged_estimates_and_calibrations_as_in_process(self, stand_ins, monkeypatch):
        """Estimates tagged with errors come back tagged as in this process, and
        a failing calibration tags exactly the trials at its n whose estimate
        succeeded, with the message this process gives; the other n decides."""
        monkeypatch.setattr(calibration, "_null_statistics", stand_ins.nulls_failing_at_48_rows)
        config = tiny_config(**MIXED)
        alone = run_over(1, config, monkeypatch)
        for workers in (2, 3):
            assert run_over(workers, config, monkeypatch) == alone
        by_n = {n: [r for r in alone if r.n == n] for n in (8, 16, 24)}
        assert all(r.error.startswith("ValueError: need n > p") and r.q_hat is None
                   for r in by_n[8])
        assert all(r.error is None and r.decision in (0, 1) for r in by_n[16])
        assert all(r.error == "ValueError: no null statistic" and r.q_hat is not None
                   and r.decision is None for r in by_n[24])

    def test_no_calibration_where_every_estimate_failed(self, monkeypatch):
        """The second phase calibrates the n whose estimates succeeded, once
        each, and nothing for n = 8."""
        batches, real = [], _workers.Pool.map

        def recording(pool, calls):
            batches.append(calls)
            return real(pool, calls)

        monkeypatch.setattr(_workers.Pool, "map", recording)
        records = run_over(2, tiny_config(**MIXED), monkeypatch)
        estimates, nulls = batches
        assert [(f.__name__, args[1]["n"], n) for f, args, n in estimates] == [
            ("_estimates", n, 3) for n in (8, 8, 16, 16, 24, 24)]
        assert [(f.__name__, args[0]["N"], n) for f, args, n in nulls] == [
            ("_null_statistics", 32, 7), ("_null_statistics", 48, 7)]
        assert [r.decision is None for r in records] == [True] * 6 + [False] * 12

    def test_untagged_error_raised_from_earliest_trial(self, stand_ins, monkeypatch):
        """An exception that tags no trial ends the run, raised from the first
        trial that raised, in this process or over workers."""
        monkeypatch.setattr(harness, "_estimates", stand_ins.estimates_raising)
        for workers in (1, 2):
            with pytest.raises(KeyError, match="n=8 from replication 0"):
                run_over(workers, tiny_config(**MIXED), monkeypatch)

    def test_worker_that_dies_raises_its_exit_code(self, stand_ins, monkeypatch):
        monkeypatch.setattr(harness, "_estimates", stand_ins.estimates_exiting)
        with pytest.raises(RuntimeError, match="a worker exited with code 3 and no result"):
            run_over(2, tiny_config(**MIXED), monkeypatch)


class TestFitRate:
    def test_two_point_slope(self):
        fit = fit_rate([(100, 10), (400, 5)])
        assert fit.slope == pytest.approx(np.log(0.5) / np.log(4.0), rel=1e-12)

    def test_exact_power_law(self):
        xs = np.array([1.0, 2.0, 5.0, 11.0, 31.0])
        fit = fit_rate(list(zip(xs, 3 * xs**2)))
        assert fit.slope == pytest.approx(2.0, rel=1e-10)
        assert fit.intercept == pytest.approx(np.log(3.0), rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        fit = fit_rate([(1, 7.0), (2, 7.0), (3, 7.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="2 points"):
            fit_rate([(1, 1)])
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(1, 1), (2, -1)])


class TestTheoreticalRate:
    """The reference rates `summarize` reports, at the record's row budget
    `n_used` = N.  The records here have n = N/3, as on the sparse branch of
    the high regime, so a rate taken at 2n would miss the expected values."""

    @staticmethod
    def _rates(p, N, s, sigma, kappa):
        """(theoretical_phi, theoretical_q) of one grid point with n_used = N rows."""
        rec = TrialRecord(config_id="x:0", seed=0, n=N // 3, p=p, s=s, sigma=sigma,
                          true_q=kappa**2, q_hat=kappa**2, lambda_hat=kappa, err_q=0.0,
                          err_lambda=0.0, n_used=N)
        point = summarize([rec])["points"][0]
        return point["theoretical_phi"], point["theoretical_q"]

    def test_norm_rate_and_fourth_root_equivalence(self):
        assert rate_sq(10, 100, 1000) == pytest.approx(10 * np.log(2.0) / 1000, rel=1e-12)
        value = self._rates(100, 1000, 10, 1.0, 0.0)[0]
        assert value == pytest.approx(np.sqrt(10 * np.log(2.0) / 1000), rel=1e-12)
        # at s = sqrt(p) the rate equals p^(1/4)/sqrt(N) times sqrt(log 2)
        assert value / (100**0.25 / np.sqrt(1000)) == pytest.approx(np.sqrt(np.log(2.0)))

    def test_norm_rate_sparse(self):
        assert self._rates(100, 1000, 2, 1.0, 0.0)[0] == pytest.approx(
            np.sqrt(2 * np.log(6.0) / 1000), rel=1e-12
        )

    def test_q_rate_zero_kappa(self):
        assert self._rates(100, 1000, 5, 1.0, 0.0)[1] == 0.0

    def test_q_rate_is_the_q_lower_bound_with_its_clamp(self):
        """Where psi^2 exceeds 1 (s=10, p=10^6, n=16 gives 1.44) the q rate clamps
        it to 1, as `q_lower_bound` does."""
        assert rate_sq(10, 10**6, 32) > 1.4
        q_rate = self._rates(10**6, 32, 10, 1.0, 10.0)[1]
        assert q_rate == q_lower_bound(10**6, 32, 10, 1.0, 10.0) == 1.0 + 10.0 / np.sqrt(32)


class TestReport:
    def test_empty_records_valid_csv(self, tmp_path):
        paths = report([], out_dir=tmp_path)
        lines = paths["records"].read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config_id,seed,n,p,s,sigma,true_q,q_hat,lambda_hat,decision")

    def test_row_count_and_round_trip(self, tmp_path):
        records = run_trials(tiny_config(magnitude=[0.5]))
        paths = report(records, out_dir=tmp_path)
        lines = paths["records"].read_text().splitlines()
        assert len(lines) == 1 + len(records)
        back = read_records(paths["records"])
        for orig, rt in zip(records, back):
            assert rt.config_id == orig.config_id and rt.seed == orig.seed
            assert rt.q_hat == orig.q_hat and rt.err_q == orig.err_q

    def test_cell_with_comma_and_quote_round_trips(self, tmp_path):
        """A cell holding a comma, a double quote or a newline is quoted, so its
        row keeps the header's width and reads back unchanged."""
        records = run_trials(tiny_config(magnitude=[0.5]))
        records[1] = TrialRecord(config_id=records[1].config_id, seed=records[1].seed, n=16, p=4,
                                 s=2, sigma=1.0, true_q=0.25, n_used=32,
                                 error='ValueError: need n > p, got n=16, p=16; "a"\nb')
        paths = report(records, out_dir=tmp_path)
        assert read_records(paths["records"]) == records

    def test_summary_matches_recomputation_from_csv(self, tmp_path):
        records = run_trials(tiny_config(magnitude=[0.5], replications=4))
        paths = report(records, out_dir=tmp_path)
        with open(paths["summary"]) as fh:
            summary = json.load(fh)
        back = read_records(paths["records"])
        by_id = {}
        for rec in back:
            by_id.setdefault(rec.config_id, []).append(rec)
        for point in summary["points"]:
            group = [r for r in by_id[point["config_id"]] if r.error is None]
            mse_q = np.mean([r.err_q**2 for r in group])
            mse_lambda = np.mean([r.err_lambda**2 for r in group])
            assert abs(point["mse_q"] - mse_q) <= 1e-10 * max(1.0, abs(mse_q))
            assert abs(point["mse_lambda"] - mse_lambda) <= 1e-10

    def test_rate_fits_embedded(self, tmp_path):
        # dense branch (s = p) keeps the null estimates almost surely nonzero
        records = run_trials(tiny_config(s_rule="p"))
        fit = fit_rate(metric_points(records, "mse_lambda"))
        paths = report(records, out_dir=tmp_path)
        with open(paths["summary"]) as fh:
            summary = json.load(fh)
        assert summary["rate_fits"]["mse_lambda"]["slope"] == pytest.approx(fit.slope)

    def test_metric_points_pool_each_n_and_skip_errors(self):
        """One point per n over every sigma and magnitude, error-tagged trials left out."""
        records = run_trials(tiny_config(sigma=[0.5, 1.0], magnitude=[0.0, 1.0]))
        records[0].error = "ValueError: injected"
        pts = metric_points(records, "mse_q")
        assert [n for n, _ in pts] == [16, 24, 32]
        kept = [r.err_q**2 for r in records[1:] if r.n == 16]
        assert len(kept) == 7 and pts[0][1] == float(np.mean(kept))
        with pytest.raises(ValueError, match="unknown metric"):
            metric_points(records, "mse_theta")


def test_summary_ratio_positive_on_seeded_run():
    records = run_trials(tiny_config(magnitude=[1.0], replications=5))
    summary = summarize(records)
    for point in summary["points"]:
        ratio = point["ratio_lambda_mse_to_phi_sq"]
        assert ratio is not None and np.isfinite(ratio) and ratio > 0
