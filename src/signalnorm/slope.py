"""Square-root sorted-L1 penalized regression and its pivotal noise estimate.

The fitted objective is the composite

    ||Y - X t||_2 + sum_j w_j |t|_(descending j),

a square-root loss (no noise level input needed) plus the sorted-L1 norm
that pairs larger weights with larger magnitudes.  The weight sequence is
``lambda_j = c1 * sqrt(log(2p/j) / n)``; the solver applies it in the
per-observation normalization of the loss, i.e. it minimizes the equivalent
``||Y - Xt||_2 + sqrt(n) * ||t||_w`` so that the objective at t = 0 equals
``||Y||_2``.  Optimization is proximal gradient with backtracking, each
iteration reusing the residual its line search accepted.  The prox of the
sorted-L1 norm is the isotonic fit of Bogdan et al. (AoAS 2015): a
stack-based pool-adjacent-violators pass over the sorted magnitudes minus
the weights, which stops after the last entry that is not clearly negative,
since every later entry comes out as exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SlopeFit",
    "slope_weights",
    "sorted_l1_norm",
    "prox_sorted_l1",
    "sqrt_slope_fit",
]

# Residual norms below this fraction of ||Y||_2 count as exact interpolation;
# the square-root loss is nondifferentiable there, so iteration stops.
_INTERPOLATION_GUARD = 1e-10


@dataclass(kw_only=True)
class SlopeFit:
    """Solver output: coefficients, noise estimate, objective, iteration diagnostics."""

    theta_hat: np.ndarray
    sigma_hat: float
    objective: float
    iterations: int
    converged: bool


def slope_weights(p: int, n: int, c1: float = 1.5) -> np.ndarray:
    """Nonincreasing weight sequence lambda_j = c1 * sqrt(log(2p/j) / n), j = 1..p
    (natural log)."""
    if p < 1 or n < 1:
        raise ValueError(f"p and n must be >= 1, got p={p}, n={n}")
    if c1 <= 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    j = np.arange(1, p + 1, dtype=float)
    return c1 * np.sqrt(np.log(2.0 * p / j) / n)


def sorted_l1_norm(t: np.ndarray, w: np.ndarray) -> float:
    """Sorted-L1 norm under the nonincreasing weights `w`: the largest
    magnitude pairs with the largest weight."""
    lam = np.asarray(w, dtype=float)
    t = np.asarray(t, dtype=float)
    if t.shape[0] != lam.shape[0]:
        raise ValueError(f"length mismatch: t has {t.shape[0]}, weights have {lam.shape[0]}")
    mags = np.sort(np.abs(t))[::-1]
    return float(lam @ mags)


def prox_sorted_l1(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Proximal operator of the sorted-L1 norm:

        argmin_x  0.5 ||x - v||_2^2 + sum_j w_j |x|_(descending j).

    Sorts magnitudes descending, subtracts the weights, then restores the
    nonincreasing-nonnegative shape by averaging violating blocks with a
    stack-based pool-adjacent-violators pass; positions of `v`, and its sign
    bits (so that -0.0 stays -0.0), are restored at the end.  The pass stops
    after the last difference that is not clearly negative: a block holding a
    later one averages below zero and merges only with blocks lower still, so
    all of them output zero and the result is bit-identical to a full pass.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    p = v.shape[0]
    if w.shape[0] != p:
        raise ValueError(f"length mismatch: v has {p}, weights have {w.shape[0]}")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if np.any(np.diff(w) > 0):
        raise ValueError("weights must be nonincreasing")

    mags = np.abs(v)
    order = np.argsort(-mags, kind="stable")
    diff = mags[order] - w

    # "Clearly negative" is <= -tiny rather than < 0, so that no average of
    # the cut blocks could underflow to the -0.0 a full pass would output;
    # a NaN stays in the pass.
    head = np.flatnonzero(~(diff <= -np.finfo(float).tiny))
    cut = head[-1] + 1 if head.size else 0

    # Stack of blocks (start index, running sum, average), merged whenever the
    # averages violate the nonincreasing constraint (equal ones merge at their
    # level, as k copies of a need not sum to k*a); Python floats round exactly
    # as float64 arrays do.
    start, total, avg = [], [], []
    for i, d in enumerate(diff[:cut].tolist()):
        b, t, a = i, d, d
        while avg and avg[-1] <= a:
            prev = avg.pop()
            b = start.pop()
            t = total.pop() + t
            a = prev if prev == a else t / (i - b + 1)
        start.append(b)
        total.append(t)
        avg.append(a)

    level = np.array(avg)  # clipped below as max(avg, 0.0) does: -0.0 and NaN kept
    out = np.zeros(p)
    out[order[:cut]] = np.repeat(np.where(level < 0, 0.0, level), np.diff(start + [cut]))
    return np.copysign(out, v)


def sqrt_slope_fit(
    X1: np.ndarray,
    Y1: np.ndarray,
    c1: float = 1.5,
    max_iter: int = 10000,
    tol: float = 1e-8,
) -> SlopeFit:
    """Fit the square-root sorted-L1 penalized regression on (X1, Y1).

    Proximal gradient on the smooth part t -> ||Y1 - X1 t||_2 (gradient
    -X^T r / ||r||_2 away from r = 0) with sorted-L1 prox steps and a
    halving backtracking line search; stops when the relative objective
    decrease falls below `tol`, on exact interpolation, or at `max_iter`
    (reported through the `converged` flag, never silently).
    """
    X1 = np.asarray(X1, dtype=float)
    Y1 = np.asarray(Y1, dtype=float)
    n, p = X1.shape
    if Y1.shape[0] != n:
        raise ValueError("row mismatch between X1 and Y1")
    # Loss normalized per observation; equivalently the unscaled loss is
    # paired with sqrt(n)-rescaled weights, keeping objective(0) = ||Y||_2.
    w_eff = np.sqrt(n) * slope_weights(p, n, c1)

    norm_y = float(np.linalg.norm(Y1))
    x = np.zeros(p)
    obj = norm_y  # objective at zero
    step = n / max(float((X1**2).sum()), np.finfo(float).tiny)
    converged = False
    iterations = 0
    r = Y1 - X1 @ x  # then always the residual of x, carried over from the line search

    for iterations in range(1, max_iter + 1):
        norm_r = float(np.linalg.norm(r))
        if norm_r <= _INTERPOLATION_GUARD * norm_y:
            converged = True
            break
        grad = -(X1.T @ r) / norm_r

        # Backtracking: halve the step until the quadratic upper model of the
        # smooth part holds at the prox point; grow it mildly between
        # iterations so an early conservative halving is not permanent.
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
            break  # step underflow: stall, report non-convergence

        new_obj = g_accepted + sorted_l1_norm(accepted, w_eff)
        decrease = obj - new_obj
        x, r = accepted, r_cand
        obj = min(obj, new_obj)
        if 0 <= decrease < tol * max(abs(obj), 1e-30):
            converged = True
            break

    resid = float(np.linalg.norm(r))
    return SlopeFit(
        theta_hat=x,
        sigma_hat=resid / np.sqrt(n),
        objective=resid + sorted_l1_norm(x, w_eff),
        iterations=iterations,
        converged=converged,
    )
