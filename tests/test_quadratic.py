"""Tests for the per-coordinate quadratic estimates and the dense/sparse sums."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalnorm import quadratic, sample_sparse_theta
from signalnorm.quadratic import component_estimates, debias, quadratic_stage, sparse_threshold

CHUNK = quadratic._CHUNK


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


def full_width_components(prelim, X2, Y2):
    """The coordinate estimates as first written: the full product X2 @ prelim,
    and numpy's axis-0 sums of the full n x p product and of its square, kept
    as the bit-exact reference for the chunked and column-restricted sums of a
    prelim with more than an eighth of its coordinates nonzero (as `block`'s
    are), and within SUPPORT_RTOL of a sparser one."""
    n = X2.shape[0]
    r = Y2 - X2 @ prelim
    weighted = X2 * r[:, None]
    col_dot = weighted.sum(axis=0)
    col_sq = (weighted**2).sum(axis=0)
    pair_sum = (col_dot**2 - col_sq) / (n * (n - 1))
    return prelim**2 + (2.0 / n) * prelim * col_dot + pair_sum


def column_subset(kind, p, rng):
    """Sorted column indices: none, one, all, or a share of the p columns such
    as "10%" (few enough to be summed alone) or "30%" (summed with the rest)."""
    if kind == "empty":
        return np.array([], dtype=np.intp)
    if kind == "one":
        return np.array([rng.integers(p)])
    if kind == "all":
        return np.arange(p)
    return np.flatnonzero(rng.random(p) < float(kind[:-1]) / 100)


KINDS = ["empty", "one", "all", "10%", "30%"]


def block(n, p, layout, seed):
    """A seeded (prelim, X2, Y2) with X2 laid out as `layout`: "C" (rows one
    after another), "F" (columns one after another) or "csv" (every column of
    a wider row-major array but its first, as read_sample returns), and a
    residual that is exactly zero in some rows, so that signed zeros enter
    the column sums."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "csv":
        X = np.hstack([np.zeros((n, 1)), X])[:, 1:]
    prelim = rng.standard_normal(p) * (rng.random(p) < 0.5)
    Y = X @ prelim
    noisy = rng.random(n) < 0.7
    Y[noisy] += rng.standard_normal(int(noisy.sum()))
    return prelim, X, Y


def dense_q(prelim, X2, Y2):
    """q_hat of the quadratic stage without a screening triple: the dense sum."""
    est = quadratic_stage(prelim, 1.0, X2, Y2, 1, 1.0, None, "low", 2)
    assert est.branch == "dense"
    return est.q_hat


def sparse_q(prelim, bar_theta, diag, alpha, X2, Y2, s=1):
    """q_hat of the quadratic stage on its sparse branch, with noise scale 1."""
    est = quadratic_stage(prelim, 1.0, X2, Y2, s, alpha, (bar_theta, 1.0, diag), "low", 2)
    assert est.branch == "sparse"
    return est.q_hat


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
        with pytest.raises(ValueError, match="mismatch"):
            debias(np.zeros(2), np.ones((4, 2)), np.ones(3))

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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(2, 40),
        p=st.integers(1, 40),
        layout=st.sampled_from(["C", "F", "csv"]),
        chunk=st.sampled_from([CHUNK, 1, 5, 64]),
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_full_width(self, n, p, layout, chunk, kind, seed):
        """Every layout and chunk size gives the bits of the full-width product,
        and `cols` gives exactly those entries of the full-width output."""
        prelim, X, Y = block(n, p, layout, seed)
        cols = column_subset(kind, p, np.random.default_rng(seed))
        with mock.patch.object(quadratic, "_CHUNK", chunk):
            full = component_estimates(prelim, X, Y)
            part = component_estimates(prelim, X, Y, cols)
        assert full.tobytes() == full_width_components(prelim, X, Y).tobytes()
        assert part.tobytes() == full[cols].tobytes()

    @pytest.mark.parametrize(
        "n, p",
        [
            (2, 5),  # the fewest rows the pair sum allows
            (333, 777),  # two chunks, the second one short
            (750, 3000),  # wide-estimate's dense block: many chunks, the last one short
            (3, CHUNK + 3),  # wider than a chunk: one row per chunk
        ],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_identical_at_the_real_chunk(self, n, p, kind):
        prelim, X, Y = block(n, p, "C", seed=n + p)
        cols = column_subset(kind, p, np.random.default_rng(p))
        full = component_estimates(prelim, X, Y)
        assert full.tobytes() == full_width_components(prelim, X, Y).tobytes()
        assert component_estimates(prelim, X, Y, cols).tobytes() == full[cols].tobytes()

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


# Gap allowed between the quadratic stage's support products and the full
# ones, relative to the largest entry: measured at most 4.9e-16 over 40 seeded
# sparse blocks up to 750 x 3000.  Entries near zero move by more relative to
# themselves (up to 1.8e-10), as they cancel.
SUPPORT_RTOL = 1e-12


def sparse_block(n, p, nonzero, seed):
    """A seeded (prelim, X, Y) whose prelim has `nonzero` nonzero coordinates."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    prelim = np.zeros(p)
    prelim[rng.choice(p, nonzero, replace=False)] = 2 * rng.standard_normal(nonzero)
    return prelim, X, X @ prelim + rng.standard_normal(n)


def assert_close_to_largest(actual, expected):
    scale = np.max(np.abs(expected), initial=0.0)
    np.testing.assert_allclose(actual, expected, rtol=0, atol=SUPPORT_RTOL * scale)


def full_debias(prelim, X, Y):
    """debias with the full product ``X @ prelim``."""
    return prelim + X.T @ (Y - X @ prelim) / X.shape[0]


class TestSupportProducts:
    """A preliminary fit with at most an eighth of its coordinates nonzero enters
    the residual over its support; any other keeps the full product's bits."""

    @pytest.mark.parametrize("n, p, nonzero", [(750, 3000, 16), (500, 3000, 9), (750, 3000, 375),
                                               (100, 300, 1), (30, 200, 0)])
    def test_within_tolerance_of_full_products(self, n, p, nonzero):
        prelim, X, Y = sparse_block(n, p, nonzero, seed=n + nonzero)
        full = full_width_components(prelim, X, Y)
        a = component_estimates(prelim, X, Y)
        assert_close_to_largest(a, full)
        np.testing.assert_allclose(a.sum(), full.sum(), rtol=SUPPORT_RTOL)
        assert_close_to_largest(debias(prelim, X, Y), full_debias(prelim, X, Y))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 60), p=st.integers(8, 400), share=st.floats(0.0, 0.125),
           seed=st.integers(0, 2**32 - 1))
    def test_drawn_blocks_within_tolerance(self, n, p, share, seed):
        prelim, X, Y = sparse_block(n, p, int(share * p), seed)
        assert_close_to_largest(component_estimates(prelim, X, Y),
                                full_width_components(prelim, X, Y))
        assert_close_to_largest(debias(prelim, X, Y), full_debias(prelim, X, Y))

    @pytest.mark.parametrize("n, p, nonzero", [(750, 3000, 376), (100, 40, 40), (200, 100, 13)])
    def test_denser_prelim_is_bit_identical(self, n, p, nonzero):
        """Past an eighth nonzero, as a low-regime OLS fit always is, the outputs
        are the full-product forms' bit for bit."""
        prelim, X, Y = sparse_block(n, p, nonzero, seed=p + nonzero)
        assert component_estimates(prelim, X, Y).tobytes() == \
            full_width_components(prelim, X, Y).tobytes()
        assert debias(prelim, X, Y).tobytes() == full_debias(prelim, X, Y).tobytes()


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
        assert dense_q(theta, X, X @ theta) == pytest.approx(theta @ theta, rel=1e-12)

    def test_single_coordinate_hand_value(self):
        assert dense_q(np.zeros(1), np.array([[1.0], [1.0]]), np.array([2.0, 3.0])) == pytest.approx(6.0)

    @pytest.mark.parametrize("c", [-2.0, 0.5, 3.0])
    def test_joint_quadratic_scaling(self, c):
        """Scaling (prelim, Y) by c scales the estimate by c^2 exactly."""
        rng = np.random.default_rng(6)
        X = rng.standard_normal((7, 3))
        Y = rng.standard_normal(7)
        prelim = rng.standard_normal(3)
        base = dense_q(prelim, X, Y)
        scaled = dense_q(c * prelim, X, c * Y)
        assert scaled == pytest.approx(c**2 * base, rel=1e-12)


class TestQSparse:
    def _toy(self):
        X2 = np.array([[1.0, -1.0], [2.0, 0.5]])
        Y2 = np.array([1.0, 3.0])
        return X2, Y2

    def test_huge_alpha_kills_everything(self):
        X2, Y2 = self._toy()
        out = sparse_q(np.zeros(2), np.array([5.0, 5.0]), np.ones(2), 1e6, X2, Y2)
        assert out == 0.0

    def test_zero_alpha_equals_dense(self):
        """A zero threshold (here from a zero threshold diagonal, since the stage
        requires alpha > 0) keeps every coordinate."""
        X2, Y2 = self._toy()
        rng = np.random.default_rng(8)
        prelim = rng.standard_normal(2)
        bar = rng.standard_normal(2)  # almost surely nonzero
        assert sparse_q(prelim, bar, np.zeros(2), 1.0, X2, Y2) == pytest.approx(
            dense_q(prelim, X2, Y2), rel=1e-12
        )

    def test_hand_selection(self):
        """p=2, s=1, threshold sqrt(log 3): only the first coordinate survives."""
        X2, Y2 = self._toy()
        a = naive_components(np.zeros(2), X2, Y2)
        out = sparse_q(np.zeros(2), np.array([5.0, 0.001]), np.ones(2), 1.0, X2, Y2)
        assert out == pytest.approx(a[0], rel=1e-12)
        # and the second coordinate is genuinely below sqrt(log 3) ~ 1.0481
        assert abs(0.001) < np.sqrt(np.log(3.0))

    def test_tie_excluded(self):
        """Equality with the threshold does not select the coordinate."""
        X2, Y2 = self._toy()
        tau = np.sqrt(np.log1p(2.0))  # alpha=1, sigma=1, diagonal 1, s=1
        assert sparse_threshold(1.0, np.ones(2), 1.0, 2, 1)[0] == tau
        out = sparse_q(np.zeros(2), np.array([tau, 0.0]), np.ones(2), 1.0, X2, Y2)
        assert out == 0.0

    def test_nothing_kept_gives_positive_zero(self):
        """With no coordinate kept the sum is empty: +0.0, never -0.0."""
        prelim, X2, Y2 = block(500, 3000, "C", seed=1)
        est = quadratic_stage(prelim, 1.0, X2, Y2, 8, 4.0, (np.zeros(3000), 1.0, np.ones(3000)),
                              "high", 3)
        assert est.branch == "sparse"
        assert est.q_hat.hex() == est.lambda_hat.hex() == (0.0).hex()

    @pytest.mark.parametrize("n, p", [(200, 100), (750, 3000)])
    def test_every_coordinate_kept_matches_dense_bits(self, n, p):
        """The column-restricted sums over every column reproduce the dense
        branch's chunked sums on the same block, bit for bit."""
        prelim, X2, Y2 = block(n, p, "C", seed=p)
        bar = np.random.default_rng(p).standard_normal(p)  # almost surely nonzero
        kept = sparse_q(prelim, bar, np.zeros(p), 1.0, X2, Y2)
        assert kept.hex() == dense_q(prelim, X2, Y2).hex()

    def test_screening_length_checked(self):
        X2, Y2 = self._toy()
        with pytest.raises(ValueError, match="bar_theta length"):
            sparse_q(np.zeros(2), np.ones(1), np.ones(2), 1.0, X2, Y2)

    def test_threshold_scale_checked(self):
        for args, match in (((1.0, np.ones(2), -1.0, 2, 1), "alpha"),
                            ((1.0, np.ones(2), np.nan, 2, 1), "alpha"),
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
    def _lambda_of(self, y):
        """lambda_hat of the dense stage on X = (1, 1)^T, prelim 0: q_hat = y1 y2."""
        est = quadratic_stage(np.zeros(1), 1.0, np.ones((2, 1)), np.array(y), 1, 1.0, None,
                              "high", 1)
        return est.q_hat, est.lambda_hat

    def test_values(self):
        assert self._lambda_of([2.0, 2.0]) == (4.0, 2.0)
        assert self._lambda_of([3.0, -3.0]) == (-9.0, 3.0)  # absolute value inside the root
        assert self._lambda_of([0.0, 5.0]) == (0.0, 0.0)


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
        vals[i] = dense_q(prelim, X, Y)
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - theta @ theta) <= 4 * se
