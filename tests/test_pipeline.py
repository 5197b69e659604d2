"""Property tests of the split-sample pipeline that both regimes share."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from signalnorm import (
    Dimensions,
    ModelSpec,
    RegressionSample,
    detect,
    detection_threshold,
    estimate,
    estimate_highdim,
    estimate_lowdim,
    sample_sparse_theta,
    synthesize,
)
from signalnorm.calibration import calibrate_beta, statistic
from signalnorm.pipeline import decide

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
