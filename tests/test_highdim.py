"""Tests for the square-root-penalized estimation and detection pipeline (p >~ n)."""

import dataclasses

import numpy as np
import pytest

from signalnorm import (
    Dimensions,
    ExperimentConfig,
    ModelSpec,
    RegressionSample,
    component_estimates,
    debias,
    detect,
    detection_threshold,
    estimate_highdim,
    highdim,
    run_trials,
    sample_sparse_theta,
    sparse_threshold,
    split_sample,
    sqrt_slope_fit,
    synthesize,
    write_sample,
)
from signalnorm.calibration import calibrate_beta
from signalnorm.cli import EXIT_NUMERIC, main


def _sample(N, p, theta=None, sigma=1.0, seed=0):
    theta = np.zeros(p) if theta is None else theta
    return synthesize(ModelSpec(theta=theta, sigma=sigma), Dimensions(N=N, p=p, s=1), seed)


class TestBranchRule:
    def test_dense_above_sqrt_p(self):
        est = estimate_highdim(_sample(40, 64, seed=1), s=10)
        assert est.branch == "dense" and est.parts == 2

    def test_sparse_at_or_below_sqrt_p(self):
        est = estimate_highdim(_sample(60, 64, seed=2), s=8)
        assert est.branch == "sparse" and est.parts == 3


class TestEstimateHighdim:
    def test_noiseless_interpolation_dense(self):
        """sigma = 0 with a determined system: the fit interpolates and the
        dense estimate equals the squared norm."""
        rng = np.random.default_rng(3)
        theta = np.array([1.0, -2.0])
        X = rng.standard_normal((24, 2))
        sample = RegressionSample(X=X, Y=X @ theta)
        est = estimate_highdim(sample, s=2, c1=1e-8)  # s=2 > sqrt(2): dense
        assert est.branch == "dense"
        assert est.q_hat == pytest.approx(theta @ theta, rel=1e-5)

    def test_nonconverged_fit_is_a_numeric_failure(self, monkeypatch, tmp_path, capsys):
        """A preliminary fit that stops short of convergence raises rather than
        feed its iterate to q_hat: the CLI exits 3 and the harness tags the trial."""

        def stalled(*args, **kwargs):
            return dataclasses.replace(sqrt_slope_fit(*args, **kwargs), converged=False)

        monkeypatch.setattr(highdim, "sqrt_slope_fit", stalled)
        sample = _sample(60, 64, seed=2)
        with pytest.raises(ArithmeticError, match="did not converge"):
            estimate_highdim(sample, s=8)
        path = write_sample(sample, tmp_path / "sample.csv")
        code = main(["estimate", "--regime", "high", "--s", "8", "--input", str(path)])
        assert code == EXIT_NUMERIC and "did not converge" in capsys.readouterr().err
        config = ExperimentConfig(seed=1, regime="high", n=[20], p_rule="2*n")
        (record,) = run_trials(config)
        assert record.error.startswith("ArithmeticError: sorted-L1 fit did not converge")

    def test_sparse_threshold_formula_locked(self):
        """threshold == alpha * sqrt(2) * sigma_hat * sqrt(log(1 + p/s^2) / n)."""
        alpha, s = 1.7, 3
        sample = _sample(90, 50, seed=4)
        est = estimate_highdim(sample, s=s, alpha=alpha)
        n = est.n_per_split
        expected = alpha * np.sqrt(2.0) * est.sigma_hat * np.sqrt(np.log1p(50 / s**2) / n)
        assert est.threshold == pytest.approx(expected, rel=1e-15)

    def test_split_provenance_disjoint(self):
        """The sparse branch adds a third, disjoint block for the debiased
        screening vector; the dense branch uses two."""
        sparse = estimate_highdim(_sample(90, 64, seed=5), s=4)
        assert (sparse.branch, sparse.parts, sparse.n_per_split) == ("sparse", 3, 30)
        dense = estimate_highdim(_sample(40, 16, seed=6), s=10)
        assert (dense.branch, dense.parts, dense.n_per_split) == ("dense", 2, 20)

    def test_pipeline_replay_small(self):
        """N=9, p=2, s=1: matches a scripted re-execution of the three splits."""
        rng = np.random.default_rng(7)
        theta = np.array([1.2, 0.0])
        X = rng.standard_normal((9, 2))
        Y = X @ theta + 0.4 * rng.standard_normal(9)
        sample = RegressionSample(X=X, Y=Y)
        alpha, c1 = 1.5, 1.5
        est = estimate_highdim(sample, s=1, alpha=alpha, c1=c1)

        (X1, Y1), (X2, Y2), (X3, Y3) = split_sample(sample, 3)
        fit = sqrt_slope_fit(X1, Y1, c1=c1)
        tilde = debias(fit.theta_hat, X3, Y3)
        sigma_used = np.sqrt(2.0) * fit.sigma_hat
        tau = sparse_threshold(sigma_used, np.full(2, 1.0 / 3), alpha, 2, 1)
        expected = component_estimates(fit.theta_hat, X2, Y2)[np.abs(tilde) > tau].sum()
        assert est.q_hat == pytest.approx(expected, rel=1e-12)
        assert est.sigma_hat == pytest.approx(fit.sigma_hat, rel=1e-12)

    def test_prelim_zero_fallback(self):
        """The no-preliminary variant runs on the full sample, dense branch."""
        rng = np.random.default_rng(10)
        theta = np.array([1.0] + [0.0] * 7)
        est_sum = 0.0
        reps = 200
        for i in range(reps):
            X = rng.standard_normal((60, 8))
            Y = X @ theta + rng.standard_normal(60)
            est = estimate_highdim(RegressionSample(X=X, Y=Y), s=1, prelim="zero")
            assert est.branch == "dense" and est.parts == 1 and est.sigma_hat is None
            assert est.n_per_split == 60
            est_sum += est.q_hat
        # unconditionally unbiased for the squared norm
        assert abs(est_sum / reps - 1.0) <= 0.1

    def test_prelim_zero_matches_q_dense(self):
        sample = _sample(30, 9, seed=11)
        est = estimate_highdim(sample, s=2, prelim="zero")
        dense = component_estimates(np.zeros(9), sample.X, sample.Y).sum()
        assert est.q_hat == pytest.approx(dense, rel=1e-12)

    def test_unknown_prelim(self):
        with pytest.raises(ValueError, match="prelim"):
            estimate_highdim(_sample(30, 9, seed=12), s=2, prelim="ols")


class TestDetectHighdim:
    def test_threshold_arithmetic(self):
        # beta=2, sigma=1, s=4, p=16, N=16: 2 sqrt(4 log(2) / 16) ~ 0.8326
        assert detection_threshold(2.0, 1.0, 4, 16, 16) == pytest.approx(
            2.0 * np.sqrt(4 * np.log(2.0) / 16.0)
        )

    def test_strong_signal_detected(self):
        rng = np.random.default_rng(13)
        p, n = 50, 60
        theta = sample_sparse_theta(p, 3, 25.0, rng=rng)
        sample = synthesize(ModelSpec(theta=theta, sigma=1.0), Dimensions(N=3 * n, p=p, s=3), 14)
        decision, lam, thr, _ = detect(sample, 3, "high", alpha=1.0, beta=2.0)
        assert decision == 1 and lam >= thr

    def test_null_with_huge_beta_accepts(self):
        assert detect(_sample(90, 50, seed=15), 3, "high", alpha=1.0, beta=200.0)[0] == 0

    def test_calibrated_level(self):
        """Null rejection rate at the calibrated constant stays within delta + 0.03."""
        p, n, s, delta, alpha = 200, 100, 3, 0.1, 1.0
        N = 3 * n
        beta = calibrate_beta(p=p, N=N, s=s, delta=delta, regime="high",
                              alpha=alpha, trials=2000, seed=101)
        rejections = 0
        trials = 2000
        for child in np.random.SeedSequence(202).spawn(trials):
            sample = synthesize(
                ModelSpec(theta=np.zeros(p), sigma=1.0), Dimensions(N=N, p=p, s=s), child
            )
            rejections += detect(sample, s, "high", alpha=alpha, beta=beta)[0]
        assert rejections / trials <= delta + 0.03
