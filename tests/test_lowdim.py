"""Tests for the OLS-based estimation and detection pipeline (n > p)."""

import numpy as np
import pytest

from signalnorm import (
    Dimensions,
    ModelSpec,
    RegressionSample,
    SingularDesignError,
    detect,
    detection_threshold,
    estimate_lowdim,
    fit_rate,
    ols_fit,
    sample_sparse_theta,
    synthesize,
)
from signalnorm.calibration import calibrate_beta, clear_cache


def _gaussian_sample(N, p, theta=None, sigma=1.0, seed=0):
    theta = np.zeros(p) if theta is None else theta
    return synthesize(ModelSpec(theta=theta, sigma=sigma), Dimensions(N=N, p=p, s=1), seed)


class TestOlsFit:
    def test_one_column_mean(self):
        fit = ols_fit(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        assert fit.theta_hat[0] == pytest.approx(2.0)

    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 5))
        theta = rng.standard_normal(5)
        fit = ols_fit(X, X @ theta)
        np.testing.assert_allclose(fit.theta_hat, theta, rtol=1e-8)

    def test_hand_normal_equations_and_sigma(self):
        # X = (1,1,1)^T, Y = (1,2,3): theta = 2, residuals (-1,0,1), sigma = 1
        fit = ols_fit(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]))
        assert fit.theta_hat[0] == pytest.approx(2.0)
        assert fit.sigma_hat == pytest.approx(1.0)

    def test_gram_inverse_identity(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 6))
        fit = ols_fit(X, rng.standard_normal(30))
        np.testing.assert_allclose(X.T @ X @ fit.gram_inverse, np.eye(6), atol=1e-8)

    def test_singular_design_rejected(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal((10, 1))
        X = np.hstack([col, col])  # exactly collinear
        with pytest.raises(SingularDesignError):
            ols_fit(X, rng.standard_normal(10))

    def test_requires_more_rows_than_columns(self):
        with pytest.raises(ValueError, match="n > p"):
            ols_fit(np.ones((3, 3)), np.ones(3))


class TestBranchRule:
    @pytest.mark.parametrize("s,p,branch", [(3, 4, "dense"), (2, 9, "sparse"), (3, 9, "sparse")])
    def test_branch_selection(self, s, p, branch):
        """Sparse iff s <= sqrt(p); the boundary s^2 = p goes sparse."""
        sample = _gaussian_sample(6 * p, p, seed=3)
        est = estimate_lowdim(sample, s)
        assert est.branch == branch
        assert est.regime == "low" and est.parts == 2


class TestEstimateLowdim:
    def test_full_toy_pipeline_replay(self):
        """N=8, p=1, s=1: equals an independently scripted re-execution."""
        rng = np.random.default_rng(42)
        X = rng.standard_normal((8, 1))
        theta = np.array([1.5])
        Y = (X @ theta) + 0.5 * rng.standard_normal(8)
        sample = RegressionSample(X=X, Y=Y)
        alpha = 2.0
        est = estimate_lowdim(sample, 1, alpha=alpha)

        # scripted replay with raw arithmetic
        X1, Y1, X2, Y2 = X[:4], Y[:4], X[4:], Y[4:]
        gram = float(X1[:, 0] @ X1[:, 0])
        th = float(X1[:, 0] @ Y1) / gram
        sig = np.linalg.norm(Y1 - X1[:, 0] * th) / np.sqrt(4 - 1)
        tau = alpha * sig * np.sqrt((1 / gram) * np.log(1 + 1 / 1))
        r = Y2 - X2[:, 0] * th
        col = X2[:, 0]
        pair = ((col @ r) ** 2 - ((col * r) ** 2).sum()) / (4 * 3)
        a1 = th**2 + (2 * th / 4) * (col @ r) + pair
        expected = a1 if abs(th) > tau else 0.0
        assert est.q_hat == pytest.approx(expected, rel=1e-12)
        assert est.lambda_hat == pytest.approx(np.sqrt(abs(expected)), rel=1e-12)
        assert est.sigma_hat == pytest.approx(sig, rel=1e-12)

    def test_exact_recovery_dense_noiseless(self):
        rng = np.random.default_rng(4)
        theta = np.array([2.0, -1.0])
        X = rng.standard_normal((12, 2))
        sample = RegressionSample(X=X, Y=X @ theta)
        est = estimate_lowdim(sample, 2)  # s=2 > sqrt(2): dense
        assert est.branch == "dense"
        assert est.lambda_hat == pytest.approx(np.linalg.norm(theta), rel=1e-6)

    def test_scale_equivariance_dense(self):
        """Multiplying Y by c > 0 multiplies the norm estimate by c."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 3))
        Y = rng.standard_normal(20)
        base = estimate_lowdim(RegressionSample(X=X, Y=Y), 3)
        scaled = estimate_lowdim(RegressionSample(X=X, Y=10 * Y), 3)
        assert scaled.lambda_hat == pytest.approx(10 * base.lambda_hat, rel=1e-10)
        assert scaled.q_hat == pytest.approx(100 * base.q_hat, rel=1e-10)

    def test_split_provenance(self):
        est = estimate_lowdim(_gaussian_sample(40, 4, seed=6), 1)
        assert est.split_tags == {"prelim": 0, "quadratic": 1}

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            estimate_lowdim(_gaussian_sample(40, 4, seed=7), 5)


class TestDetectLowdim:
    def test_threshold_arithmetic(self):
        # beta=2, sigma=1, s=1, p=4, N=4: 2 sqrt(log(3)/4) ~ 1.0481
        assert detection_threshold(2.0, 1.0, 1, 4, 4) == pytest.approx(
            2.0 * np.sqrt(np.log(3.0) / 4.0)
        )

    def test_decision_monotone_in_estimate(self):
        thr = detection_threshold(2.0, 1.0, 1, 4, 4)
        decisions = [int(lam >= thr) for lam in np.linspace(0, 3, 50)]
        assert np.all(np.diff(decisions) >= 0)
        assert decisions[0] == 0 and decisions[-1] == 1

    def test_strong_signal_detected_weak_rejected(self):
        rng = np.random.default_rng(8)
        p, N = 4, 200
        theta = sample_sparse_theta(p, 2, 20.0, rng=rng)
        strong = synthesize(ModelSpec(theta=theta, sigma=1.0), Dimensions(N=N, p=p, s=2), 9)
        decision, lam, thr, beta = detect(strong, 2, "low", alpha=1.0, beta=2.0)
        assert decision == 1 and lam >= thr and beta == 2.0
        null = _gaussian_sample(N, p, seed=10)
        assert detect(null, 2, "low", alpha=1.0, beta=50.0)[0] == 0

    def test_calibrated_level_small_dims(self):
        """Empirical rejection rate under the null stays within delta + 0.03."""
        clear_cache()
        p, N, s, delta, alpha = 16, 64, 3, 0.1, 1.0
        beta = calibrate_beta(p=p, N=N, s=s, delta=delta, regime="low",
                              alpha=alpha, trials=2000, seed=77)
        rejections = 0
        trials = 2000
        for i, child in enumerate(np.random.SeedSequence(88).spawn(trials)):
            sample = synthesize(
                ModelSpec(theta=np.zeros(p), sigma=1.0), Dimensions(N=N, p=p, s=s), child
            )
            est = estimate_lowdim(sample, s, alpha=alpha)
            thr = detection_threshold(beta, est.sigma_hat, s, p, N)
            rejections += int(est.lambda_hat >= thr)
        assert rejections / trials <= delta + 0.03

    def test_calibration_cached(self):
        clear_cache()
        a = calibrate_beta(p=8, N=32, s=2, delta=0.2, regime="low", alpha=1.0, trials=50, seed=1)
        b = calibrate_beta(p=8, N=32, s=2, delta=0.2, regime="low", alpha=1.0, trials=50, seed=1)
        assert a == b


def test_dense_null_risk_tracks_theoretical_rate():
    """At theta = 0 with p = n/2, the mean squared norm estimate decays like
    sqrt(p)/n = (2n)^(-1/2), i.e. log-log slope -1/2 against n."""
    points = []
    for n in (64, 128, 256, 512):
        p = n // 2
        vals = []
        for child in np.random.SeedSequence(entropy=2024, spawn_key=(n,)).spawn(120):
            sample = synthesize(
                ModelSpec(theta=np.zeros(p), sigma=1.0), Dimensions(N=2 * n, p=p, s=p), child
            )
            vals.append(estimate_lowdim(sample, p).lambda_hat ** 2)
        points.append((n, float(np.mean(vals))))
    slope = fit_rate(points).slope
    assert -0.8 <= slope <= -0.2
