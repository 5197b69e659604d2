"""Tests for the per-coordinate quadratic estimates and the dense/sparse sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalnorm import (
    component_estimates,
    debias,
    norm_from_q,
    q_dense,
    q_sparse,
    sample_sparse_theta,
    sparse_threshold,
)


def naive_components(prelim, X2, Y2):
    """O(n^2 p) reference: the pair sum evaluated literally, term by term."""
    n, p = X2.shape
    r = Y2 - X2 @ prelim
    a = np.empty(p)
    for j in range(p):
        cross = 0.0
        for k in range(n):
            for l in range(n):
                if k != l:
                    cross += X2[k, j] * X2[l, j] * r[k] * r[l]
        a[j] = prelim[j] ** 2 + (2 * prelim[j] / n) * (X2[:, j] @ r) + cross / (n * (n - 1))
    return a


class TestComponentEstimates:
    def test_hand_computed_single_coordinate(self):
        # prelim 0, X column (1, 1), Y (2, 3): pair sum (1*1*2*3)*2 / (2*1) = 6
        out = component_estimates(np.zeros(1), np.array([[1.0], [1.0]]), np.array([2.0, 3.0]))
        np.testing.assert_allclose(out, [6.0])

    def test_zero_residual_returns_squares(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((8, 4))
        theta = rng.standard_normal(4)
        out = component_estimates(theta, X, X @ theta)
        np.testing.assert_allclose(out, theta**2, rtol=1e-12, atol=1e-12)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            component_estimates(np.zeros(2), np.ones((1, 2)), np.ones(1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            component_estimates(np.zeros(3), np.ones((4, 2)), np.ones(4))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 9), p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_naive_double_sum(self, n, p, seed):
        """The O(n) pair sum equals the literal double sum on random shapes."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        Y = rng.standard_normal(n)
        prelim = rng.standard_normal(p)
        fast = component_estimates(prelim, X, Y)
        slow = naive_components(prelim, X, Y)
        np.testing.assert_allclose(fast, slow, rtol=1e-10)

    def test_conditionally_unbiased_per_coordinate(self):
        """Mean of a_j over fresh data blocks hits theta_j^2 within 3 SE."""
        rng = np.random.default_rng(11)
        p, n = 3, 40
        theta = np.array([1.0, -0.5, 0.0])
        prelim = theta + rng.standard_normal(p) * 0.3  # fixed, arbitrary
        reps = 10**4
        draws = np.empty((reps, p))
        for i in range(reps):
            X = rng.standard_normal((n, p))
            Y = X @ theta + rng.standard_normal(n)
            draws[i] = component_estimates(prelim, X, Y)
        se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - theta**2), 3 * se)


class TestDebias:
    def test_zero_residual_fixed_point(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 3))
        prelim = rng.standard_normal(3)
        np.testing.assert_allclose(debias(prelim, X, X @ prelim), prelim)

    def test_hand_computed(self):
        # 1 + 2 * (4 - 2) / 1 = 5
        np.testing.assert_allclose(debias(np.array([1.0]), np.array([[2.0]]), np.array([4.0])), [5.0])

    def test_zero_prelim_collapses_to_correlation(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 2))
        Y = rng.standard_normal(5)
        np.testing.assert_allclose(debias(np.zeros(2), X, Y), X.T @ Y / 5)


class TestQDense:
    def test_exact_at_zero_noise(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((10, 5))
        theta = rng.standard_normal(5)
        assert q_dense(theta, X, X @ theta) == pytest.approx(theta @ theta, rel=1e-12)

    def test_single_coordinate_hand_value(self):
        assert q_dense(np.zeros(1), np.array([[1.0], [1.0]]), np.array([2.0, 3.0])) == pytest.approx(6.0)

    @pytest.mark.parametrize("c", [-2.0, 0.5, 3.0])
    def test_joint_quadratic_scaling(self, c):
        """Scaling (prelim, Y) by c scales the estimate by c^2 exactly."""
        rng = np.random.default_rng(6)
        X = rng.standard_normal((7, 3))
        Y = rng.standard_normal(7)
        prelim = rng.standard_normal(3)
        base = q_dense(prelim, X, Y)
        scaled = q_dense(c * prelim, X, c * Y)
        assert scaled == pytest.approx(c**2 * base, rel=1e-12)


class TestQSparse:
    def _toy(self):
        X2 = np.array([[1.0, -1.0], [2.0, 0.5]])
        Y2 = np.array([1.0, 3.0])
        return X2, Y2

    def test_huge_alpha_kills_everything(self):
        X2, Y2 = self._toy()
        tau = sparse_threshold(1.0, np.ones(2), 1e6, 2, 1)
        out = q_sparse(np.zeros(2), np.array([5.0, 5.0]), tau, X2, Y2)
        assert out == 0.0

    def test_zero_alpha_equals_dense(self):
        X2, Y2 = self._toy()
        rng = np.random.default_rng(8)
        prelim = rng.standard_normal(2)
        bar = rng.standard_normal(2)  # almost surely nonzero
        tau = sparse_threshold(1.0, np.ones(2), 0.0, 2, 1)
        assert q_sparse(prelim, bar, tau, X2, Y2) == pytest.approx(
            q_dense(prelim, X2, Y2), rel=1e-12
        )

    def test_hand_selection(self):
        """p=2, s=1, threshold sqrt(log 3): only the first coordinate survives."""
        X2, Y2 = self._toy()
        a = naive_components(np.zeros(2), X2, Y2)
        tau = sparse_threshold(1.0, np.ones(2), 1.0, 2, 1)
        out = q_sparse(np.zeros(2), np.array([5.0, 0.001]), tau, X2, Y2)
        assert out == pytest.approx(a[0], rel=1e-12)
        # and the second coordinate is genuinely below sqrt(log 3) ~ 1.0481
        assert abs(0.001) < np.sqrt(np.log(3.0))

    def test_tie_excluded(self):
        """Equality with the threshold does not select the coordinate."""
        X2, Y2 = self._toy()
        tau = np.sqrt(np.log1p(2.0))  # alpha=1, sigma=1, diagonal 1, s=1
        given = sparse_threshold(1.0, np.ones(2), 1.0, 2, 1)
        out = q_sparse(np.zeros(2), np.array([tau, 0.0]), given, X2, Y2)
        assert out == 0.0

    def test_threshold_scale_checked(self):
        for args, match in (((1.0, np.ones(2), -1.0, 2, 1), "alpha"),
                            ((0.0, np.ones(2), 1.0, 2, 1), "sigma_hat"),
                            ((1.0, np.ones(2), 1.0, 2, 0), "s must")):
            with pytest.raises(ValueError, match=match):
                sparse_threshold(*args)

    def test_negative_threshold_matrix_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            sparse_threshold(1.0, -np.ones(2), 1.0, 2, 1)

    def test_threshold_diagonal_must_have_length_p(self):
        """The threshold matrix enters only through its length-p diagonal:
        a scalar, a matrix or a vector of another length is rejected."""
        for diag in (1.0, np.eye(2), np.ones(3)):
            with pytest.raises(ValueError, match="diagonal has shape"):
                sparse_threshold(1.0, diag, 1.0, 2, 1)


class TestNormFromQ:
    def test_values(self):
        assert norm_from_q(4.0) == 2.0
        assert norm_from_q(-9.0) == 3.0  # absolute value inside the root
        assert norm_from_q(0.0) == 0.0


def test_dense_monte_carlo_mean_unbiased():
    """Monte Carlo mean of the dense estimate hits the squared norm (4 SE)."""
    rng = np.random.default_rng(21)
    p, n, reps = 10, 50, 2000
    theta = sample_sparse_theta(p, 3, 1.2, rng=rng)
    prelim = np.zeros(p)
    vals = np.empty(reps)
    for i in range(reps):
        X = rng.standard_normal((n, p))
        Y = X @ theta + rng.standard_normal(n)
        vals[i] = q_dense(prelim, X, Y)
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - theta @ theta) <= 4 * se
