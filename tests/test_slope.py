"""Tests for the sorted-L1 machinery: weights, norm, prox, solver, noise estimate."""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signalnorm import (
    Dimensions,
    ModelSpec,
    RegressionSample,
    estimate,
    prox_sorted_l1,
    sample_sparse_theta,
    slope_weights,
    sorted_l1_norm,
    sqrt_slope_fit,
    synthesize,
    write_sample,
)
from signalnorm import highdim, quadratic, slope
from signalnorm.cli import EXIT_NUMERIC, main
from signalnorm.highdim import estimate_highdim
from signalnorm.slope import _GRAM_FLOOR, _INTERPOLATION_GUARD, SlopeFit, _GramRows, _matvec

# Seeded solver and pipeline outputs as float.hex strings; any change to the
# iterates shows as a changed bit here.  All but the interpolation case were
# re-recorded when the residuals came to run over the iterate's support, and
# again when the gradient came to take Gram rows of the support;
# `fit_reference` keeps them within FIT_RTOL of the full-product solver.
GOLDENS = json.loads((Path(__file__).parent / "goldens" / "slope.json").read_text())


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# Relative gap allowed between the solver and `fit_reference`: the support
# products sum in another order, which moved theta_hat by at most 1.2e-14 of
# its largest coordinate, and sigma_hat and the objective by at most 4.5e-16,
# over 30 seeded fits up to 200 x 1000.  The Gram rows of the gradient moved
# theta_hat by at most 2.4e-15 of it in three fits at 500 and 750 x 3000.
FIT_RTOL = 1e-12


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


def fit_reference(X1, Y1, c1=1.5, max_iter=10000, tol=1e-8):
    """The square-root sorted-L1 solver as it was before its residuals and its
    gradient ran over the iterate's support: full products ``X1 @ cand`` and
    ``X1.T @ r``, and the first step from ``(X1**2).sum()``, kept as the
    reference the solver must track within FIT_RTOL, iteration for
    iteration."""
    X1 = np.asarray(X1, dtype=float)
    Y1 = np.asarray(Y1, dtype=float)
    n, p = X1.shape
    w_eff = np.sqrt(n) * slope_weights(p, n, c1)
    norm_y = float(np.linalg.norm(Y1))
    x = np.zeros(p)
    obj = norm_y
    step = n / max(float((X1**2).sum()), np.finfo(float).tiny)
    converged = False
    iterations = 0
    r = Y1 - X1 @ x
    for iterations in range(1, max_iter + 1):
        norm_r = float(np.linalg.norm(r))
        if norm_r <= _INTERPOLATION_GUARD * norm_y:
            converged = True
            break
        grad = -(X1.T @ r) / norm_r
        step *= 1.3
        accepted = None
        for _ in range(60):
            cand = prox_sorted_l1(x - step * grad, step * w_eff)
            dx = cand - x
            r_cand = Y1 - X1 @ cand
            g_cand = float(np.linalg.norm(r_cand))
            model = norm_r + float(grad @ dx) + float(dx @ dx) / (2.0 * step)
            if g_cand <= model + 1e-12 * max(1.0, norm_r):
                accepted = cand
                g_accepted = g_cand
                break
            step *= 0.5
        if accepted is None:
            break
        new_obj = g_accepted + sorted_l1_norm(accepted, w_eff)
        decrease = obj - new_obj
        x, r = accepted, r_cand
        obj = min(obj, new_obj)
        if 0 <= decrease < tol * max(abs(obj), 1e-30):
            converged = True
            break
    resid = float(np.linalg.norm(r))
    return SlopeFit(theta_hat=x, sigma_hat=resid / np.sqrt(n),
                    objective=resid + sorted_l1_norm(x, w_eff),
                    iterations=iterations, converged=converged)


def assert_tracks_reference(fit, ref):
    """`fit` took the reference's iterations to the same exit, kept its zeros
    (signs included) and moved no output by more than FIT_RTOL: theta_hat
    relative to its largest coordinate, the scalars relative to themselves."""
    assert (fit.iterations, fit.converged) == (ref.iterations, ref.converged)
    zero = ref.theta_hat == 0
    assert np.array_equal(fit.theta_hat == 0, zero)
    assert fit.theta_hat[zero].tobytes() == ref.theta_hat[zero].tobytes()
    scale = np.max(np.abs(ref.theta_hat), initial=0.0)
    np.testing.assert_allclose(fit.theta_hat, ref.theta_hat, rtol=0, atol=FIT_RTOL * scale)
    np.testing.assert_allclose(fit.sigma_hat, ref.sigma_hat, rtol=FIT_RTOL)
    np.testing.assert_allclose(fit.objective, ref.objective, rtol=FIT_RTOL)


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

    @PROPERTY
    @given(st.lists(st.one_of(st.floats(), st.sampled_from([-0.0, np.inf, -np.inf, np.nan,
                                                            1e308, -1e308])),
                    min_size=1, max_size=8))
    def test_weight_order_check_is_the_difference_check(self, w):
        """``w[1:] > w[:-1]`` holds where the former ``np.diff(w) > 0`` did, for
        IEEE floats a - b > 0 exactly when a > b: with NaN, infinities, signed
        zeros and differences that overflow too.  So the prox raises on the
        same weights as before."""
        w = np.array(w)
        with np.errstate(all="ignore"):
            increasing = bool(np.any(np.diff(w) > 0))
        assert bool(np.any(w[1:] > w[:-1])) == increasing
        if np.any(w < 0):
            return  # rejected as negative before the order is checked
        try:
            prox_sorted_l1(np.zeros(len(w)), w)
        except ValueError as exc:
            assert increasing and "nonincreasing" in str(exc)
        else:
            assert not increasing

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

    def test_stalled_line_search_is_a_numeric_failure(self, monkeypatch, tmp_path, capsys):
        """A line search whose 60 halvings find no decrease, here at prox
        points of NaN, stops the fit unconverged at the iterate it had; the
        estimate that needs the fit raises, and the CLI exits 3."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 20))
        sample = RegressionSample(X=X, Y=X[:, 0] + rng.standard_normal(30))
        calls = []
        monkeypatch.setattr(slope, "prox_sorted_l1",
                            lambda v, w: calls.append(1) or np.full_like(v, np.nan))
        fit = sqrt_slope_fit(sample.X, sample.Y)
        assert (fit.converged, fit.iterations, len(calls)) == (False, 1, 60)
        assert not fit.theta_hat.any()
        with pytest.raises(ArithmeticError, match="did not converge after 1 iterations"):
            estimate(sample, 2, "high")
        path = write_sample(sample, tmp_path / "sample.csv")
        code = main(["estimate", "--regime", "high", "--s", "2", "--input", str(path)])
        assert code == EXIT_NUMERIC and "did not converge" in capsys.readouterr().err

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
        with pytest.raises(ValueError, match=r"Y1 must be a 1-d vector, got shape \(3, 1\)"):
            sqrt_slope_fit(X, np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["X1", "Y1"])
    def test_non_finite_input_raises(self, where, bad):
        """A NaN or an infinity in the design or the response raises rather than
        returning a fit, also in a column the fit leaves at zero, which the
        residuals over the support never multiply."""
        X, Y, _ = _golden_problem("wide")
        if where == "X1":
            X[7, np.flatnonzero(sqrt_slope_fit(X, Y).theta_hat == 0)[0]] = bad
        else:
            Y[7] = bad
        with pytest.raises(ValueError, match="must be finite"):
            sqrt_slope_fit(X, Y)

    def test_overflowing_design_raises(self):
        """Finite entries whose sum of squares overflows are rejected the same way."""
        with pytest.raises(ValueError, match="must be finite"):
            sqrt_slope_fit(np.full((4, 3), 1e200), np.ones(4))

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


GOLDEN_FITS = ["converged", "wide", "max_iter", "interpolation"]


def _golden_problem(case):
    """The seeded (X1, Y1, solver options) of one golden case."""
    if case == "interpolation":
        rng = np.random.default_rng(8)
        X = rng.standard_normal((12, 2))
        return X, X @ np.array([1.0, -2.0]), dict(c1=1e-8)
    n, p, s, seed = (100, 300, 5, 21) if case == "wide" else (40, 80, 3, 20)
    rng = np.random.default_rng(seed)
    theta = sample_sparse_theta(p, s, 1.0, rng=rng)
    X = rng.standard_normal((n, p))
    Y = X @ theta + 0.5 * rng.standard_normal(n)
    return X, Y, dict(max_iter=5 if case == "max_iter" else 10000)


def _golden_fit(case):
    """The sqrt_slope_fit outputs of one seeded golden case, as float.hex."""
    X, Y, options = _golden_problem(case)
    fit = sqrt_slope_fit(X, Y, **options)
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
    """A recorded golden case without the solver's objective trace, which is no
    longer kept; only the interpolation case, never re-recorded, still has one."""
    return {k: v for k, v in GOLDENS[section][case].items() if k != "trace"}


class TestGoldenOutputs:
    """Bit-exact seeded outputs: the solver's iterates, its three exits (converged,
    max_iter, interpolation) and the high-dimensional pipeline on both branches."""

    @pytest.mark.parametrize("case", GOLDEN_FITS)
    def test_sqrt_slope_fit(self, case):
        assert _golden_fit(case) == _golden("sqrt_slope_fit", case)

    @pytest.mark.parametrize("s", [5, 30])
    def test_estimate_highdim(self, s):
        assert _golden_estimate(s) == _golden("estimate_highdim", str(s))


def _drawn_problem(n, p, s, magnitude, sigma, seed):
    """A seeded (X, Y): an s-sparse theta of the given magnitude, Gaussian
    design and noise of level sigma."""
    rng = np.random.default_rng(seed)
    theta = sample_sparse_theta(p, min(s, p), magnitude, rng=rng)
    X = rng.standard_normal((n, p))
    return X, X @ theta + sigma * rng.standard_normal(n)


class TestSupportProducts:
    """The residuals over the iterate's support: the product itself, and the
    solver and pipeline built on it against their full-product forms."""

    @PROPERTY
    @given(n=st.integers(1, 30), p=st.integers(1, 80), share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matvec_is_the_product(self, n, p, share, seed):
        """Bit for bit the full product when more than an eighth of x is nonzero,
        and the product of the gathered columns otherwise."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        x = rng.standard_normal(p) * (rng.random(p) < share)
        nz = np.flatnonzero(x)
        expected = X @ x if 8 * nz.size > p else X[:, nz] @ x[nz]
        assert _matvec(X, x).tobytes() == expected.tobytes()
        np.testing.assert_allclose(_matvec(X, x), X @ x, rtol=1e-12, atol=1e-12 * np.abs(x).sum())

    @pytest.mark.parametrize("n, p", [(500, 3000), (750, 3000)])
    @pytest.mark.parametrize("nonzero", [376, 3000])
    def test_matvec_dense_at_wide_estimate_size(self, n, p, nonzero):
        """At the benchmark's block sizes, an iterate with more than an eighth of
        its coordinates nonzero takes the full product, bit for bit."""
        rng = np.random.default_rng(n + nonzero)
        X = rng.standard_normal((n, p))
        x = np.zeros(p)
        x[rng.choice(p, nonzero, replace=False)] = rng.standard_normal(nonzero)
        assert _matvec(X, x).tobytes() == (X @ x).tobytes()

    @pytest.mark.parametrize("case", GOLDEN_FITS)
    def test_golden_fits_track_reference(self, case):
        X, Y, options = _golden_problem(case)
        assert_tracks_reference(sqrt_slope_fit(X, Y, **options), fit_reference(X, Y, **options))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(10, 80), p=st.integers(4, 400), s=st.integers(1, 6),
           magnitude=st.floats(0.0, 5.0), sigma=st.floats(0.1, 2.0),
           c1=st.sampled_from([1.5, 2.0]), seed=st.integers(0, 2**32 - 1))
    def test_fits_track_reference(self, n, p, s, magnitude, sigma, c1, seed):
        """On drawn problems, tall and wide, sparse and dense iterates alike, at
        the default penalty level c1 = 1.5 and above (for weaker penalties see
        the next test)."""
        X, Y = _drawn_problem(n, p, s, magnitude, sigma, seed)
        assert_tracks_reference(sqrt_slope_fit(X, Y, c1=c1), fit_reference(X, Y, c1=c1))

    def test_weak_penalty_tracks_reference_only_to_solver_accuracy(self):
        """Below the default penalty level, a wide fit can nearly interpolate its
        data, and the solver then needs about a thousand iterations whose
        relative decreases hover near `tol`.  There the rounding of the support
        products moves where it stops: on this problem 1014 iterations against
        the reference's 1003, theta_hat by 7.3e-5 and the objective by 3.9e-7
        relative, gaps the size of the solver's own stopping accuracy rather
        than of rounding.  Of 600 problems drawn like those above with c1 in
        {1.0, 1.5, 2.0}, the 5 with a gap past FIT_RTOL all had c1 = 1.0, and
        2000 more at c1 = 1.5 and 2.0 had none."""
        X, Y = _drawn_problem(10, 127, 1, 0.0, 1.0, seed=1)
        fit, ref = sqrt_slope_fit(X, Y, c1=1.0), fit_reference(X, Y, c1=1.0)
        assert fit.converged and ref.converged
        assert abs(fit.iterations - ref.iterations) <= 0.02 * ref.iterations
        np.testing.assert_allclose(fit.objective, ref.objective, rtol=1e-6)
        np.testing.assert_allclose(fit.theta_hat, ref.theta_hat, rtol=0, atol=1e-3)

    @pytest.mark.parametrize("s", [5, 30])
    def test_golden_estimates_track_reference(self, s, monkeypatch):
        """estimate_highdim on the golden samples agrees, within FIT_RTOL, with the
        pipeline of full products: the reference fit, and the quadratic stage and
        the screening vector with ``X @ prelim`` in full."""
        est = _golden_estimate(s)
        monkeypatch.setattr(highdim, "sqrt_slope_fit", fit_reference)
        monkeypatch.setattr(quadratic, "_matvec", lambda X, x: X @ x)
        ref = _golden_estimate(s)
        for key in ("q_hat", "lambda_hat", "sigma_hat", "threshold"):
            if ref[key] is None:
                assert est[key] is None
            else:
                a, b = float.fromhex(est[key]), float.fromhex(ref[key])
                np.testing.assert_allclose(a, b, rtol=FIT_RTOL)
        assert {k: est[k] for k in ("branch", "regime", "n_per_split", "parts")} == \
            {k: ref[k] for k in ("branch", "regime", "n_per_split", "parts")}


class TestGramRows:
    """The gradient's ``X1^T r`` from cached Gram rows of the support: its
    accuracy, when no row is built, and fits at the benchmark's sizes."""

    def test_gradients_along_a_wide_fit(self, monkeypatch):
        """Along a seeded 500 x 3000 fit, each gradient is within 1e-13 of its
        largest entry of ``-(X1^T r) / ||r||``; 1.9e-15 was measured over
        three such fits."""
        X, Y = _drawn_problem(500, 3000, 8, 2.0, 1.0, seed=0)
        xtr, caches = _GramRows.xtr, []

        def checked(cache, x, r, norm_r):
            out = xtr(cache, x, r, norm_r)
            full = -(X.T @ r) / norm_r
            np.testing.assert_allclose(-out / norm_r, full, rtol=0,
                                       atol=1e-13 * np.max(np.abs(full)))
            caches.append(cache)
            return out

        monkeypatch.setattr(_GramRows, "xtr", checked)
        fit = sqrt_slope_fit(X, Y)
        assert fit.converged and len(caches) == fit.iterations
        assert caches[-1].count >= np.count_nonzero(fit.theta_hat) > 0

    @staticmethod
    def _batches(monkeypatch):
        """Count the batch products of Gram rows, each of which runs on one
        BLAS thread."""
        batches = []
        one_thread = slope.one_blas_thread

        def counted():
            batches.append(1)
            return one_thread()

        monkeypatch.setattr(slope, "one_blas_thread", counted)
        return batches

    @pytest.mark.parametrize("case", ["sparse", "dense", "below_floor", "past_bound"])
    def test_when_rows_are_built(self, case, monkeypatch):
        """A sparse iterate builds its rows in one batch, once; dense iterates,
        a residual below the floor and a support past the cache's bound of an
        eighth of the rows of X1 (here 8) build none and take the full
        product, bit for bit."""
        rng = np.random.default_rng(11)
        X, Y = rng.standard_normal((64, 200)), rng.standard_normal(64)
        batches = self._batches(monkeypatch)
        cache = _GramRows(X, Y, float(np.linalg.norm(Y)))
        nonzero = {"sparse": 3, "dense": 26, "below_floor": 3, "past_bound": 9}[case]
        x = np.zeros(200)
        x[rng.choice(200, nonzero, replace=False)] = rng.standard_normal(nonzero)
        r = Y - X @ x
        norm_r = float(np.linalg.norm(r))
        if case == "below_floor":
            norm_r = 0.99 * _GRAM_FLOOR * np.linalg.norm(Y)
        out = cache.xtr(x, r, norm_r)
        if case == "sparse":
            assert (len(batches), cache.count) == (1, 3)
            np.testing.assert_allclose(out, X.T @ r, rtol=0, atol=1e-13 * np.max(np.abs(X.T @ r)))
            cache.xtr(x, r, norm_r)  # the same support again: no new row
            assert (len(batches), cache.count) == (1, 3)
        else:
            assert (len(batches), cache.count) == (0, 0)
            assert out.tobytes() == (X.T @ r).tobytes()

    @pytest.mark.parametrize("n, s, seed", [(500, 8, 0), (750, 80, 1)])
    def test_wide_estimate_sizes_track_reference(self, n, s, seed, monkeypatch):
        """At the block sizes of the benchmark's sparse (s = 8, three blocks of
        500 rows) and dense (s = 80, two of 750) branches, a fit builds Gram
        rows and takes the reference's iterations within FIT_RTOL."""
        batches = self._batches(monkeypatch)
        X, Y = _drawn_problem(n, 3000, s, 2.0, 1.0, seed)
        fit = sqrt_slope_fit(X, Y)
        assert batches
        assert_tracks_reference(fit, fit_reference(X, Y))


# Prints the estimate of each saved sample as float.hex, one line per sample.
_ESTIMATE_SAVED = """
import sys
import numpy as np
from signalnorm import RegressionSample
from signalnorm.highdim import estimate_highdim
for path in sys.argv[1:]:
    data = np.load(path)
    est = estimate_highdim(RegressionSample(data["X"], data["Y"]), int(data["s"]))
    print(est.q_hat.hex(), est.lambda_hat.hex(), est.sigma_hat.hex())
"""


def test_wide_estimates_keep_their_bits_across_blas_threads(tmp_path):
    """On saved samples of the benchmark's size (N = 1500, p = 3000) and both
    branches, estimates give the same bytes with 1 and 2 OpenBLAS threads: the
    Gram rows are built on one thread, since that product's bits depend on the
    thread count.  The samples are saved because the `Y = X theta` of
    `synthesize` has bits that depend on it too.  With that product left on 2
    threads, both estimates took other bits; so did 5 of 12 drawn like them."""
    paths = []
    for s, seed in ((8, 44), (80, 45)):
        theta = sample_sparse_theta(3000, s, 2.0, rng=np.random.default_rng(seed))
        sample = synthesize(ModelSpec(theta=theta, sigma=1.0), Dimensions(N=1500, p=3000, s=s), seed)
        paths.append(tmp_path / f"sample{seed}.npz")
        np.savez(paths[-1], X=sample.X, Y=sample.Y, s=s)
    src = Path(slope.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _ESTIMATE_SAVED, *map(str, paths)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == len(paths)
    assert outputs[0] == outputs[1]
