"""Tests for the closed-form detection/estimation limits and their oracles."""

from itertools import combinations

import numpy as np
import pytest

from signalnorm import (
    Dimensions,
    ModelSpec,
    RegressionSample,
    bayes_testing_risk_bound,
    chi2_cross,
    detection_threshold,
    estimate_lowdim,
    hypergeometric_mgf_bound,
    minimax_testing_lower_radius,
    q_lower_bound,
    sample_sparse_theta,
    synthesize,
    tau_from_rho,
)
from signalnorm.calibration import calibrate_beta


def brute_force_overlap_mgf(p, s, N, tau):
    """Average exp(2 N tau^2 |S ^ S'| / s) over all support pairs, literally."""
    supports = list(combinations(range(p), s))
    total = 0.0
    for a in supports:
        sa = set(a)
        for b in supports:
            total += np.exp(2.0 * N * tau**2 * len(sa & set(b)) / s)
    return total / len(supports) ** 2


class TestTauFromRho:
    def test_values(self):
        assert tau_from_rho(0.0) == 0.0
        assert tau_from_rho(1.0) ** 2 == pytest.approx(0.5)
        assert tau_from_rho(np.sqrt(3.0)) ** 2 == pytest.approx(0.75)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tau_from_rho(-0.1)


class TestChi2Cross:
    def test_orthogonal_pair(self):
        theta = np.array([0.3, 0.0])
        theta_p = np.array([0.0, 0.3])
        assert chi2_cross(theta, theta_p, 7) == 1.0

    def test_identical_pair(self):
        theta = np.array([np.sqrt(0.5), 0.0])
        assert chi2_cross(theta, theta, 2) == pytest.approx(4.0)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal(4)
            a *= 0.5 / np.linalg.norm(a)
            b = rng.standard_normal(4)
            b *= 0.5 / np.linalg.norm(b)
            assert chi2_cross(a, b, 6) == pytest.approx(chi2_cross(b, a, 6), rel=1e-12)

    def test_norm_mismatch_rejected(self):
        with pytest.raises(ValueError, match="norms"):
            chi2_cross(np.array([1.0, 0.0]), np.array([0.5, 0.0]), 3)

    def test_divergent_inner_product_rejected(self):
        v = np.array([1.2, 0.0])
        with pytest.raises(ValueError, match="inner product"):
            chi2_cross(v, v, 3)


class TestHypergeometricMgf:
    def test_degenerate_full_overlap(self):
        # p = s = 1: the overlap is always 1
        assert hypergeometric_mgf_bound(1, 1, 4, 0.3) == pytest.approx(np.exp(8 * 0.09))

    def test_hand_computed_pmf_sum(self):
        # p=4, s=2, N=1, tau^2=1/2: (1 + 4 e^{1/2} + e) / 6
        expected = (1.0 + 4.0 * np.exp(0.5) + np.exp(1.0)) / 6.0
        assert hypergeometric_mgf_bound(4, 2, 1, np.sqrt(0.5)) == pytest.approx(expected, rel=1e-12)

    def test_zero_tau(self):
        assert hypergeometric_mgf_bound(50, 5, 100, 0.0) == pytest.approx(1.0)

    def test_matches_brute_force_enumeration(self):
        assert hypergeometric_mgf_bound(6, 2, 5, 0.4) == pytest.approx(
            brute_force_overlap_mgf(6, 2, 5, 0.4), rel=1e-10
        )

    def test_large_dimensions_stable(self):
        value = hypergeometric_mgf_bound(10**4, 50, 10**5, 0.01)
        assert np.isfinite(value) and value >= 1.0


class TestBayesRiskBound:
    def test_zero_tau_degenerate(self):
        # sqrt amplifies the ~1e-16 rounding in the MGF to ~1e-8
        assert bayes_testing_risk_bound(10, 2, 5, 0.0) == pytest.approx(1.0, abs=1e-7)

    def test_clamped_at_zero(self):
        assert bayes_testing_risk_bound(4, 2, 1000, 0.9) == 0.0

    def test_matched_radius_recovers_delta(self):
        # p=100, s=5, N=200, delta=0.5: the bound at tau(r) is at least delta
        bundle = minimax_testing_lower_radius(100, 200, 5, 0.5)
        tau = tau_from_rho(bundle.r)
        assert bayes_testing_risk_bound(100, 5, 200, tau) >= 0.5 - 1e-9


class TestLowerRadius:
    def test_constant_at_half(self):
        A = minimax_testing_lower_radius(100, 400, 5, 0.5).A
        assert A == pytest.approx(np.sqrt(0.5 * np.log(1.25)), rel=1e-12)
        assert A == pytest.approx(0.33402, abs=5e-5)

    def test_reduction_radius_formula(self):
        bundle = minimax_testing_lower_radius(100, 400, 5, 0.5)
        assert bundle.r == pytest.approx(bundle.A * np.sqrt(5 * np.log(5.0) / 400), rel=1e-12)
        assert bundle.rho == pytest.approx(bundle.A * np.sqrt(5 * np.log1p(2.0) / 400), rel=1e-12)

    def test_sparsity_truncated_in_reduction_radius(self):
        """Above sqrt(p) the reduction radius freezes at s = floor(sqrt(p))."""
        at_boundary = minimax_testing_lower_radius(100, 400, 10, 0.5).r
        beyond = minimax_testing_lower_radius(100, 400, 40, 0.5).r
        assert beyond == pytest.approx(at_boundary, rel=1e-12)

    def test_monotone_in_s_and_N(self):
        # rho is nondecreasing in s; r is not (s log(1 + p/s^2) dips for
        # s above 0.5 sqrt(p)), so only the user-facing radius is asserted.
        rhos_s = [minimax_testing_lower_radius(100, 400, s, 0.3).rho for s in range(1, 11)]
        assert np.all(np.diff(rhos_s) >= -1e-15)
        rhos = [minimax_testing_lower_radius(100, N, 5, 0.3).rho for N in (10, 100, 1000, 10**6)]
        rs = [minimax_testing_lower_radius(100, N, 5, 0.3).r for N in (10, 100, 1000, 10**6)]
        assert np.all(np.diff(rhos) <= 0) and np.all(np.diff(rs) <= 0)
        assert rhos[-1] <= 1e-2

    def test_validation(self):
        with pytest.raises(ValueError):
            minimax_testing_lower_radius(10, 100, 3, 0.0)


class TestQLowerBound:
    def test_zero_kappa(self):
        assert q_lower_bound(100, 50, 5, 1.0, 0.0) == 0.0

    def test_huge_kappa_dominated_by_first_argument(self):
        value = q_lower_bound(100, 100, 5, 1.0, 1e6)
        assert value == pytest.approx(min(5 * np.log1p(2.0) / 100, 1.0) + 1e6 / 10)

    def test_hand_value(self):
        expected = 5 * np.log(3.0) / 1000 + 1 / np.sqrt(1000)
        assert q_lower_bound(100, 1000, 5, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)


def test_no_test_beats_the_bayes_bound():
    """On the calibrated two-point experiment, both the exact mixture
    likelihood-ratio test and the split-sample detector have empirical
    type I + type II at least the closed-form bound (3 SE slack)."""
    p, N, s, delta = 16, 64, 3, 0.5
    bundle = minimax_testing_lower_radius(p, N, s, delta)
    tau = tau_from_rho(bundle.r)
    bound = bayes_testing_risk_bound(p, s, N, tau)
    sigma_alt = float(np.sqrt(1 - tau**2))
    trials = 500
    se = np.sqrt(2 * 0.25 / trials)

    support_matrix = np.zeros((0, p))
    rows = []
    for S in combinations(range(p), s):
        row = np.zeros(p)
        row[list(S)] = tau / np.sqrt(s)
        rows.append(row)
    support_matrix = np.asarray(rows)

    def mixture_lr(X, Y):
        means = X @ support_matrix.T
        ll = (-((Y[:, None] - means) ** 2) / (2 * sigma_alt**2) + (Y**2 / 2)[:, None]).sum(axis=0)
        ll -= N * np.log(sigma_alt)
        peak = ll.max()
        return np.exp(peak) * np.mean(np.exp(ll - peak))

    rng = np.random.default_rng(314)
    lr_type1 = sum(
        mixture_lr(rng.standard_normal((N, p)), rng.standard_normal(N)) > 1.0
        for _ in range(trials)
    )
    lr_type2 = 0
    for _ in range(trials):
        theta = sample_sparse_theta(p, s, tau, rng=rng)
        X = rng.standard_normal((N, p))
        Y = X @ theta + sigma_alt * rng.standard_normal(N)
        lr_type2 += mixture_lr(X, Y) <= 1.0
    assert lr_type1 / trials + lr_type2 / trials >= bound - 3 * se

    beta = calibrate_beta(p=p, N=N, s=s, delta=delta, regime="low", alpha=1.0, trials=1000, seed=5)
    det_type1 = 0
    for child in np.random.SeedSequence(41).spawn(trials):
        sample = synthesize(ModelSpec(theta=np.zeros(p), sigma=1.0), Dimensions(N=N, p=p, s=s), child)
        est = estimate_lowdim(sample, s, alpha=1.0)
        det_type1 += int(est.lambda_hat >= detection_threshold(beta, est.sigma_hat, s, p, N))
    det_type2 = 0
    for _ in range(trials):
        theta = sample_sparse_theta(p, s, tau, rng=rng)
        X = rng.standard_normal((N, p))
        Y = X @ theta + sigma_alt * rng.standard_normal(N)
        est = estimate_lowdim(RegressionSample(X=X, Y=Y), s, alpha=1.0)
        det_type2 += int(est.lambda_hat < detection_threshold(beta, est.sigma_hat, s, p, N))
    assert det_type1 / trials + det_type2 / trials >= bound - 3 * se
