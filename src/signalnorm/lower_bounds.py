"""Closed-form detection and estimation limits for the standard Gaussian model.

These quantities certify how small a signal can be before no test or
estimator can succeed: a least-favorable prior puts mass tau/sqrt(s) on s
uniformly chosen coordinates while the null inflates its noise to match
second moments; the resulting testing risk is controlled through the
cross moment of two Gaussian likelihood ratios, whose prior average reduces
to the moment generating function of the support-overlap count (a
hypergeometric variable).  All formulas are evaluated exactly; the overlap pmf
is built from its ratio between neighbouring counts, never from binomials.
:func:`signalnorm.model.sample_sparse_theta` draws from that prior.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "RadiusBundle",
    "rate_sq",
    "tau_from_rho",
    "chi2_cross",
    "hypergeometric_mgf_bound",
    "bayes_testing_risk_bound",
    "minimax_testing_lower_radius",
    "q_lower_bound",
]


class RadiusBundle(NamedTuple):
    """User-facing radius rho, reduction radius r, the constant A, and the prior
    sparsity s' = min(s, floor(sqrt(p))) at which r is computed."""

    rho: float
    r: float
    A: float
    s_prior: int


def rate_sq(s: int, p: int, N: int) -> float:
    """The squared minimax rate psi^2 = s log(1 + sqrt(p)/s) / N, which sets the
    detection threshold, the radius rho and the harness's reference rates."""
    return float(s * np.log1p(np.sqrt(p) / s) / N)


def tau_from_rho(rho: float) -> float:
    """Signal norm tau = rho / sqrt(1 + rho^2) of the calibrated two-point pair.

    The companion null-matching noise level is sqrt(1 - tau^2).
    """
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    return float(rho / np.sqrt(1.0 + rho**2))


def chi2_cross(theta: np.ndarray, theta_prime: np.ndarray, N: int) -> float:
    """Cross moment of two Gaussian likelihood ratios under the inflated null:

        (1 - <theta, theta'>)^{-N},

    valid for i.i.d. standard normal designs when both vectors share the
    same norm (checked to 1e-8) and their inner product is below 1.
    """
    theta = np.asarray(theta, dtype=float)
    theta_prime = np.asarray(theta_prime, dtype=float)
    norm_a = np.linalg.norm(theta)
    norm_b = np.linalg.norm(theta_prime)
    if abs(norm_a - norm_b) > 1e-8 * max(1.0, norm_a, norm_b):
        raise ValueError(f"norms must match: {norm_a} vs {norm_b}")
    ip = float(theta @ theta_prime)
    if ip >= 1.0:
        raise ValueError(f"inner product must be < 1, got {ip}")
    return float((1.0 - ip) ** (-N))


def _log_sum_exp(x: np.ndarray) -> float:
    peak = x.max()
    return float(peak + np.log(np.exp(x - peak).sum()))


def hypergeometric_mgf_bound(p: int, s: int, N: int, tau: float) -> float:
    """Exact prior average of the likelihood-ratio cross moment bound:

        E exp(2 N tau^2 H / s),   H = |support overlap| ~ Hypergeometric(p, s, s),

    summed over h = max(0, 2s - p) .. s.  The log-pmf is the cumulative sum of
    log pmf(h+1)/pmf(h) = log((s-h)^2 / ((h+1)(p-2s+h+1))), less its own max-shifted
    log-sum-exp, so no term near log Gamma(p) is formed and nothing cancels.
    """
    if not 1 <= s <= p:
        raise ValueError(f"s must satisfy 1 <= s <= p, got s={s}, p={p}")
    h = np.arange(max(0, 2 * s - p), s + 1, dtype=float)
    log_ratio = np.log((s - h[:-1]) ** 2 / ((h[:-1] + 1.0) * (p - 2 * s + h[:-1] + 1.0)))
    log_pmf = np.cumsum(np.concatenate(([0.0], log_ratio)))
    log_mgf = _log_sum_exp(2.0 * N * tau**2 * h / s + log_pmf) - _log_sum_exp(log_pmf)
    if log_mgf > 700.0:  # exp would overflow; the value is effectively infinite
        return float("inf")
    return float(np.exp(log_mgf))


def bayes_testing_risk_bound(p: int, s: int, N: int, tau: float) -> float:
    """Lower bound on type I + type II errors of any test of the two-point
    experiment: 1 - sqrt(E[cross moment] - 1), clamped below at 0."""
    return _risk_from_mgf(hypergeometric_mgf_bound(p, s, N, tau))


def _risk_from_mgf(mgf: float) -> float:
    """The risk bound 1 - sqrt(mgf - 1), clamped below at 0, from the overlap MGF."""
    return float(max(1.0 - np.sqrt(max(mgf - 1.0, 0.0)), 0.0))


def minimax_testing_lower_radius(p: int, N: int, s: int, delta: float) -> RadiusBundle:
    """Radii below which every test has risk at least delta.

    A = sqrt(log((1 - delta)^2 + 1) / 2); the user-facing radius is
    rho = A min(sqrt(s log(1 + sqrt(p)/s) / N), 1) at the given s, while the
    reduction radius r = A min(sqrt(s' log(1 + p/s'^2) / N), 1) replaces s by
    s' = min(s, floor(sqrt(p))) (sparsities above sqrt(p) reduce to that
    boundary), returned as ``s_prior`` for the overlap MGF and risk bound at r.
    The two radii use different logarithms and are never conflated.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 1 <= s <= p:
        raise ValueError(f"s must satisfy 1 <= s <= p, got s={s}, p={p}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    A = float(np.sqrt(0.5 * np.log((1.0 - delta) ** 2 + 1.0)))
    rho = A * min(np.sqrt(rate_sq(s, p, N)), 1.0)
    s_prior = min(s, int(np.floor(np.sqrt(p))))
    r = A * min(np.sqrt(s_prior * np.log1p(p / s_prior**2) / N), 1.0)
    return RadiusBundle(rho=float(rho), r=float(r), A=A, s_prior=s_prior)


def q_lower_bound(p: int, N: int, s: int, sigma: float, kappa: float) -> float:
    """Best-achievable scale for estimating the squared norm over
    {s-sparse, norm <= kappa}:

        min( sigma^2 min(s log(1 + sqrt(p)/s) / N, 1) + sigma kappa / sqrt(N),
             kappa^2 ).
    """
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if not 0 <= kappa < np.inf:
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    rate = min(rate_sq(s, p, N), 1.0)
    return float(min(sigma**2 * rate + sigma * kappa / np.sqrt(N), kappa**2))
