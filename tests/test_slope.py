"""Tests for the sorted-L1 machinery: weights, norm, prox, solver, noise estimate."""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signalnorm import (
    Dimensions,
    ModelSpec,
    prox_sorted_l1,
    sample_sparse_theta,
    slope_weights,
    sorted_l1_norm,
    sqrt_slope_fit,
    synthesize,
)
from signalnorm.highdim import estimate_highdim

# Seeded solver and pipeline outputs as float.hex strings, recorded with the
# numpy-scalar prox that `prox_reference` keeps; any change to the iterates
# shows as a changed bit here.
GOLDENS = json.loads((Path(__file__).parent / "goldens" / "slope.json").read_text())


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@np.errstate(over="ignore")  # numpy scalars warn where Python floats do not
def prox_reference(v, w):
    """The sorted-L1 prox as first written: the stack-based pool-adjacent-violators
    loop over numpy scalars, kept as the bit-exact reference for the fast one.
    Like it, it merges blocks of equal averages at that level and restores the
    sign bits of `v` with copysign."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    p = v.shape[0]
    mags = np.abs(v)
    order = np.argsort(-mags, kind="stable")
    diff = mags[order] - w

    start = np.empty(p, dtype=np.int64)
    end = np.empty(p, dtype=np.int64)
    total = np.empty(p)
    avg = np.empty(p)
    k = 0
    for i in range(p):
        start[k] = i
        end[k] = i
        total[k] = diff[i]
        avg[k] = diff[i]
        while k > 0 and avg[k - 1] <= avg[k]:
            k -= 1
            total[k] += total[k + 1]
            end[k] = i
            if avg[k] != avg[k + 1]:
                avg[k] = total[k] / (end[k] - start[k] + 1)
        k += 1

    out_sorted = np.empty(p)
    for b in range(k):
        out_sorted[start[b] : end[b] + 1] = max(avg[b], 0.0)

    out = np.empty(p)
    out[order] = out_sorted
    return np.copysign(out, v)


def assert_prox_kkt(x, v, w):
    """x = prox(v) iff g = v - x lies in the dual ball of the sorted-L1 norm (partial
    sums of the sorted |g| never exceed those of w) and attains the norm: g @ x = J_w(x)."""
    g = v - x
    tol = 1e-10 * (1.0 + np.max(np.abs(v)) + w[0]) ** 2 * len(v)
    assert np.all(np.cumsum(np.sort(np.abs(g))[::-1]) <= np.cumsum(w) + tol)
    assert abs(g @ x - sorted_l1_norm(x, w)) <= tol


@st.composite
def prox_inputs(draw, values):
    """(v, w) of a common length 1..12 with w nonnegative and nonincreasing.  Each
    entry draws from `values`, from a short list of values that holds -0.0, or
    repeats one value freshly drawn from `values`, so signed zeros and ties come
    up on purpose in every collection, not by chance."""
    p = draw(st.integers(1, 12))
    tied = st.one_of(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0]), st.just(draw(values)))
    v = draw(st.lists(st.one_of(values, tied), min_size=p, max_size=p))
    w = draw(st.lists(st.one_of(values.map(abs), tied.map(abs)), min_size=p, max_size=p))
    return np.array(v), np.sort(w)[::-1]


FINITE = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and 1e308 included
BOUNDED = st.floats(-100.0, 100.0)


def prox_objective(x, v, w):
    return 0.5 * np.sum((x - v) ** 2) + w @ np.sort(np.abs(x))[::-1]


def grid_prox_2d(v, w, levels=4, points=161):
    """Coarse-to-fine grid minimizer of the 2-d prox objective.

    The objective is 1-strongly convex, and its only non-quadratic flat
    directions are the axis diagonals, which the square grid contains, so
    each level localizes the minimizer to within a few grid spacings.
    """
    center = np.zeros(2)
    width = float(np.max(np.abs(v)) + w[0] + 1.0)
    for _ in range(levels):
        g = np.linspace(-width, width, points)
        xx, yy = np.meshgrid(center[0] + g, center[1] + g, indexing="ij")
        mag_hi = np.maximum(np.abs(xx), np.abs(yy))
        mag_lo = np.minimum(np.abs(xx), np.abs(yy))
        f = 0.5 * ((xx - v[0]) ** 2 + (yy - v[1]) ** 2) + w[0] * mag_hi + w[1] * mag_lo
        i, j = np.unravel_index(np.argmin(f), f.shape)
        center = np.array([xx[i, j], yy[i, j]])
        width = 8.0 * (2 * width / (points - 1))
    return center


class TestSlopeWeights:
    def test_single_coordinate(self):
        w = slope_weights(1, 1, 1.0)
        np.testing.assert_allclose(w, [np.sqrt(np.log(2.0))])

    def test_two_coordinates(self):
        w = slope_weights(2, 100, 1.0)
        np.testing.assert_allclose(w, [np.sqrt(np.log(4.0) / 100), np.sqrt(np.log(2.0) / 100)])

    def test_last_weight_formula(self):
        for p in (1, 3, 17, 200):
            w = slope_weights(p, 50, 2.5)
            assert w[-1] == pytest.approx(2.5 * np.sqrt(np.log(2.0) / 50))
            assert w[-1] > 0

    def test_nonincreasing(self):
        w = slope_weights(64, 10, 1.7)
        assert np.all(np.diff(w) <= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            slope_weights(0, 5)
        with pytest.raises(ValueError):
            slope_weights(5, 5, c1=0.0)


class TestSortedL1Norm:
    def test_zero(self):
        assert sorted_l1_norm(np.zeros(3), np.array([3.0, 2.0, 1.0])) == 0.0

    def test_pairing_largest_with_largest(self):
        assert sorted_l1_norm(np.array([3.0, -1.0]), np.array([2.0, 1.0])) == 7.0

    def test_permutation_and_sign_invariance(self):
        w = np.array([2.0, 1.0])
        assert sorted_l1_norm(np.array([-1.0, 3.0]), w) == 7.0
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.standard_normal(5)
            w5 = np.sort(rng.uniform(0, 2, 5))[::-1]
            base = sorted_l1_norm(t, w5)
            perm = rng.permutation(5)
            signs = rng.choice([-1.0, 1.0], 5)
            assert sorted_l1_norm(signs * t[perm], w5) == pytest.approx(base, rel=1e-12)

    def test_homogeneity_and_triangle(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            d = int(rng.integers(1, 7))
            w = np.sort(rng.uniform(0.01, 2, d))[::-1]
            a, b = rng.standard_normal(d), rng.standard_normal(d)
            c = float(rng.uniform(-3, 3))
            assert sorted_l1_norm(c * a, w) == pytest.approx(abs(c) * sorted_l1_norm(a, w), rel=1e-10)
            assert sorted_l1_norm(a + b, w) <= sorted_l1_norm(a, w) + sorted_l1_norm(b, w) + 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sorted_l1_norm(np.ones(3), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="length mismatch"):
            prox_sorted_l1(np.ones(3), np.array([1.0, 0.5]))


class TestProxSortedL1:
    def test_zero_weights_identity(self):
        v = np.array([3.0, -1.0, 0.2])
        np.testing.assert_allclose(prox_sorted_l1(v, np.zeros(3)), v)

    def test_hand_case_simple_shrink(self):
        np.testing.assert_allclose(
            prox_sorted_l1(np.array([3.0, 1.0]), np.array([1.0, 0.5])), [2.0, 0.5]
        )

    def test_hand_case_full_shrink_to_zero(self):
        np.testing.assert_allclose(
            prox_sorted_l1(np.array([1.0, 1.0]), np.array([1.0, 1.0])), [0.0, 0.0]
        )

    def test_weight_order_violation_rejected(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            prox_sorted_l1(np.ones(2), np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            prox_sorted_l1(np.ones(2), np.array([1.0, -0.5]))

    def test_matches_grid_minimizer_2d(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.uniform(-3, 3, 2)
            w = np.sort(rng.uniform(0, 2, 2))[::-1]
            x = prox_sorted_l1(v, w)
            g = grid_prox_2d(v, w)
            assert np.linalg.norm(x - g) <= 1e-3
            assert prox_objective(x, v, w) <= prox_objective(g, v, w) + 1e-9

    @PROPERTY
    @given(prox_inputs(FINITE),
           st.lists(st.tuples(st.integers(0, 11), st.sampled_from([-np.inf, np.inf, np.nan])),
                    max_size=3))
    def test_bit_identical_to_reference(self, vw, specials):
        """Also with up to three entries of v set to +-inf or NaN (the weights stay finite)."""
        v, w = vw
        for i, x in specials:
            v[i % len(v)] = x
        assert prox_sorted_l1(v, w).tobytes() == prox_reference(v, w).tobytes()

    @pytest.mark.parametrize(
        "v, w",
        [
            ([np.nan, 3.0, 0.1, -0.2], [1.0, 0.9, 0.8, 0.5]),
            ([0.1, -np.nan, 5.0, 0.2, 0.3], [1.0, 0.9, 0.8, 0.5, 0.4]),
            ([0.1, 0.2, np.nan], [0.0, 0.0, 0.0]),
            ([0.1, 0.2, 0.3, np.nan], [9.0, 9.0, 9.0, 9.0]),
        ],
    )
    def test_nan_behind_the_magnitudes_left_unsorted(self, v, w):
        """The full sort puts a NaN behind the magnitudes that cannot lead the
        cut, which the fast prox leaves unsorted; the outputs still match."""
        v, w = np.array(v), np.array(w)
        assert prox_sorted_l1(v, w).tobytes() == prox_reference(v, w).tobytes()

    @pytest.mark.parametrize("case", ["below", "at", "ulp_below", "ulp_above", "subnormal_last",
                                      "zero_weights", "weights_above"])
    def test_p3000_bit_identical_to_reference(self, case):
        """At wide-estimate's p, with most magnitudes at or next to the smallest
        weight, where the candidates for sorting begin; with zero weights every
        magnitude is a candidate, with weights above every magnitude none is."""
        p = 3000
        rng = np.random.default_rng(sum(map(ord, case)))
        w = 0.01 * np.sqrt(500) * slope_weights(p, 500)  # a solver step times its weights
        last = w[-1]
        mags = rng.uniform(0.0, 3.0 * w[0], p)
        bulk = rng.random(p) < 0.8
        if case == "below":
            mags[bulk] = rng.uniform(0.0, last, int(bulk.sum()))
        elif case == "at":
            mags[bulk] = last
        elif case == "ulp_below":
            mags[bulk] = np.nextafter(last, 0.0)
        elif case == "ulp_above":
            mags[bulk] = np.nextafter(last, np.inf)
        elif case == "subnormal_last":  # 0 - w[-1] lies in (-tiny, 0): zero magnitudes stay
            w[-p // 3 :] = 1e-310
            mags[bulk] = 0.0
        elif case == "zero_weights":
            w = np.zeros(p)
        else:
            w = w + mags.max() + 1.0
        v = np.where(rng.random(p) < 0.5, -mags, mags)
        x = prox_sorted_l1(v, w)
        assert x.tobytes() == prox_reference(v, w).tobytes()
        if case == "weights_above":
            assert np.all(x == 0)

    @PROPERTY
    @given(prox_inputs(BOUNDED))
    def test_kkt_optimality(self, vw):
        v, w = vw
        x = prox_sorted_l1(v, w)
        assert x.tobytes() == prox_reference(v, w).tobytes()
        assert_prox_kkt(x, v, w)

    @PROPERTY
    @given(prox_inputs(BOUNDED))
    def test_weights_above_every_magnitude_give_zero(self, vw):
        v, w = vw
        w = w + np.max(np.abs(v))  # every sorted magnitude minus its weight is <= 0
        x = prox_sorted_l1(v, w)
        assert x.tobytes() == prox_reference(v, w).tobytes()
        assert np.all(x == 0)

    @PROPERTY
    @given(prox_inputs(BOUNDED))
    @example(vw=(np.array([-0.0]), np.array([0.0])))  # np.sign(-0.0) is 0.0
    @example(vw=(np.array([0.1, 0.1, 0.1]), np.zeros(3)))  # 0.1 + 0.1 + 0.1 is not 3 * 0.1
    def test_zero_weights_are_bit_identity(self, vw):
        v, _ = vw
        x = prox_sorted_l1(v, np.zeros(len(v)))
        assert x.tobytes() == v.tobytes()

    @pytest.mark.parametrize(
        "v, w",
        [
            ([0.0, 0.0], [5e-324, 0.0]),  # a block average underflows to -0.0
            ([-3.0], [1.0]),
            ([1e-310, -1e-310, 2e-310], [3e-310, 1e-310, 0.0]),
            ([1e308, 1e308, -1e308], [0.0, 0.0, 0.0]),  # block totals overflow
        ],
    )
    def test_edge_cases_bit_identical_to_reference(self, v, w):
        v, w = np.array(v), np.array(w)
        assert prox_sorted_l1(v, w).tobytes() == prox_reference(v, w).tobytes()

    def test_local_optimality_under_perturbation(self):
        """No perturbation of norm <= 0.1 improves the prox objective."""
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 1000:
            d = int(rng.integers(1, 9))
            v = rng.standard_normal(d) * 2
            w = np.sort(rng.uniform(0, 1.5, d))[::-1]
            x = prox_sorted_l1(v, w)
            base = prox_objective(x, v, w)
            for _ in range(10):
                h = rng.standard_normal(d)
                h *= rng.uniform(0, 0.1) / max(np.linalg.norm(h), 1e-12)
                assert prox_objective(x + h, v, w) >= base - 1e-9
                checked += 1


class TestSqrtSlopeFit:
    def test_zero_response(self):
        fit = sqrt_slope_fit(np.ones((4, 2)), np.zeros(4))
        np.testing.assert_array_equal(fit.theta_hat, np.zeros(2))
        assert fit.objective == 0.0 and fit.converged

    def test_one_dim_below_critical_weight_keeps_data(self):
        """Weight < 1 in the 1-d problem: the minimizer is the observation."""
        c1 = 0.5 / np.sqrt(np.log(2.0))  # makes the effective weight 0.5
        fit = sqrt_slope_fit(np.array([[1.0]]), np.array([2.0]), c1=c1)
        assert fit.theta_hat[0] == pytest.approx(2.0, abs=1e-8)

    def test_one_dim_above_critical_weight_collapses_to_zero(self):
        c1 = 1.5 / np.sqrt(np.log(2.0))  # effective weight 1.5 > 1
        fit = sqrt_slope_fit(np.array([[1.0]]), np.array([2.0]), c1=c1)
        assert fit.theta_hat[0] == pytest.approx(0.0, abs=1e-10)

    def test_objective_never_exceeds_zero_fit(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = rng.standard_normal((20, 8))
            Y = rng.standard_normal(20)
            fit = sqrt_slope_fit(X, Y)
            assert fit.objective <= np.linalg.norm(Y) + 1e-12

    def test_dominates_random_search(self):
        """Solver objective beats the best of 2000 random candidates."""
        rng = np.random.default_rng(6)
        for _ in range(5):
            theta = sample_sparse_theta(10, 3, 1.0, rng=rng)
            X = rng.standard_normal((40, 10))
            Y = X @ theta + 0.5 * rng.standard_normal(40)
            fit = sqrt_slope_fit(X, Y)
            w_eff = np.sqrt(40) * slope_weights(10, 40)
            ols = np.linalg.lstsq(X, Y, rcond=None)[0]
            best = np.inf
            for scale in (0.0, 0.5, 1.0):
                cand = ols[None, :] * (1 - scale) + scale * rng.standard_normal((700, 10))
                vals = np.linalg.norm(Y[None, :] - cand @ X.T, axis=1)
                vals += np.sort(np.abs(cand), axis=1)[:, ::-1] @ w_eff
                best = min(best, vals.min())
            assert fit.objective <= best + 1e-9

    def test_nonconvergence_reported(self):
        # strong signal well above the penalty level: two iterations cannot finish
        rng = np.random.default_rng(7)
        theta = sample_sparse_theta(20, 3, 10.0, rng=rng)
        X = rng.standard_normal((30, 20))
        Y = X @ theta + 0.1 * rng.standard_normal(30)
        fit = sqrt_slope_fit(X, Y, max_iter=2)
        assert not fit.converged and fit.iterations == 2

    def test_validation(self):
        """A tolerance no decrease can meet (NaN, 0) or that every one meets (inf),
        and an iteration budget of 0, are rejected rather than reported as a fit."""
        X, Y = np.eye(3), np.ones(3)
        for tol in (float("nan"), 0.0, -1e-8, float("inf")):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                sqrt_slope_fit(X, Y, tol=tol)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            sqrt_slope_fit(X, Y, max_iter=0)
        with pytest.raises(ValueError, match="row mismatch"):
            sqrt_slope_fit(X, np.ones(2))

    def test_exact_interpolation_guard(self):
        """Noiseless determined system: the solver stops at interpolation."""
        rng = np.random.default_rng(8)
        theta = np.array([1.0, -2.0])
        X = rng.standard_normal((12, 2))
        fit = sqrt_slope_fit(X, X @ theta, c1=1e-8)
        np.testing.assert_allclose(fit.theta_hat, theta, rtol=1e-5)
        assert fit.converged and fit.sigma_hat <= 1e-8

    def test_estimation_error_within_oracle_rate(self):
        """Median error over seeded trials stays within the sparse oracle rate."""
        rng = np.random.default_rng(9)
        n, p, s, sigma = 100, 200, 5, 0.5
        errs = []
        for _ in range(20):
            theta = sample_sparse_theta(p, s, 1.0, rng=rng)
            X = rng.standard_normal((n, p))
            Y = X @ theta + sigma * rng.standard_normal(n)
            fit = sqrt_slope_fit(X, Y)
            errs.append(np.linalg.norm(fit.theta_hat - theta))
        bound = 5 * sigma * np.sqrt(s * np.log(np.e * p / s) / n)
        assert np.median(errs) <= bound


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


def _golden_fit(case):
    """The sqrt_slope_fit outputs of one seeded golden case, as float.hex."""
    if case == "interpolation":
        rng = np.random.default_rng(8)
        X = rng.standard_normal((12, 2))
        fit = sqrt_slope_fit(X, X @ np.array([1.0, -2.0]), c1=1e-8)
    else:
        n, p, s, seed = (100, 300, 5, 21) if case == "wide" else (40, 80, 3, 20)
        rng = np.random.default_rng(seed)
        theta = sample_sparse_theta(p, s, 1.0, rng=rng)
        X = rng.standard_normal((n, p))
        Y = X @ theta + 0.5 * rng.standard_normal(n)
        fit = sqrt_slope_fit(X, Y, max_iter=5 if case == "max_iter" else 10000)
    return {
        "theta_hat": _hex(fit.theta_hat),
        "sigma_hat": float(fit.sigma_hat).hex(),
        "objective": float(fit.objective).hex(),
        "iterations": fit.iterations,
        "converged": fit.converged,
    }


def _golden_estimate(s):
    """estimate_highdim on a seeded N=300, p=400 sample, as float.hex."""
    theta = sample_sparse_theta(400, 5, 6.0, rng=np.random.default_rng(30))
    sample = synthesize(ModelSpec(theta=theta, sigma=1.0), Dimensions(N=300, p=400, s=s), 31)
    est = estimate_highdim(sample, s=s)
    return {k: v.hex() if isinstance(v, float) else v for k, v in asdict(est).items()}


def _golden(section, case):
    """A recorded golden case without the fields that are no longer kept: the
    solver's objective trace and the estimate's split tags."""
    return {k: v for k, v in GOLDENS[section][case].items() if k not in ("trace", "split_tags")}


class TestGoldenOutputs:
    """Bit-exact seeded outputs: the solver's iterates, its three exits (converged,
    max_iter, interpolation) and the high-dimensional pipeline on both branches."""

    @pytest.mark.parametrize("case", ["converged", "wide", "max_iter", "interpolation"])
    def test_sqrt_slope_fit(self, case):
        assert _golden_fit(case) == _golden("sqrt_slope_fit", case)

    @pytest.mark.parametrize("s", [5, 30])
    def test_estimate_highdim(self, s):
        assert _golden_estimate(s) == _golden("estimate_highdim", str(s))
