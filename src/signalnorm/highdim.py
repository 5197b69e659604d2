"""Preliminary stage for designs with many more columns than rows.

The preliminary estimate is the square-root sorted-L1 fit, which needs no
noise level input.  The dense branch (s > sqrt(p)) uses a two-way split;
the sparse branch (s <= sqrt(p)) uses a three-way split: the fit and its
noise estimate come from block 1, the screening vector is the debiased
correction computed on block 3, and the shared quadratic stage runs on
block 2, so the triplet feeding the selection is independent of the block
being summed.
"""

from __future__ import annotations

import numpy as np

from .model import RegressionSample, split_sample
from .quadratic import FunctionalEstimate, debias, quadratic_stage, split_parts
from .slope import sqrt_slope_fit

__all__ = ["estimate_highdim"]


def estimate_highdim(
    sample: RegressionSample,
    s: int,
    alpha: float = 4.0,
    c1: float = 1.5,
    prelim: str = "srs",
) -> FunctionalEstimate:
    """Estimate the squared norm and the norm in the p >~ n regime.

    ``prelim="srs"`` (default) runs the split pipelines described in the
    module docstring.  ``prelim="zero"`` is the no-preliminary fallback: the
    dense estimator evaluated at the zero vector on the full sample (the
    preliminary is deterministic, so no split is needed); it is consistent
    for the squared norm whenever p grows slower than N^2, with no noise
    estimate attached.  A fit that does not converge raises ``ArithmeticError``.
    """
    p = sample.p
    if not 1 <= s <= p:
        raise ValueError(f"s must satisfy 1 <= s <= p, got s={s}, p={p}")
    if prelim == "zero":
        return quadratic_stage(
            np.zeros(p), None, sample.X, sample.Y, s, alpha, None,
            regime="high", n_per_split=sample.N, parts=1,
        )
    if prelim != "srs":
        raise ValueError(f"unknown preliminary {prelim!r}; expected 'srs' or 'zero'")

    parts = split_parts("high", s, p)
    blocks = split_sample(sample, parts)
    (X1, Y1), (X2, Y2) = blocks[0], blocks[1]
    n = X1.shape[0]
    fit = sqrt_slope_fit(X1, Y1, c1=c1)
    if not fit.converged:
        raise ArithmeticError(f"sorted-L1 fit did not converge after {fit.iterations} iterations")
    screening = None
    if parts == 3:
        X3, Y3 = blocks[2]
        # Selection threshold alpha * sqrt(2) sigma_hat * sqrt(log(1 + p/s^2) / n):
        # the screening vector is Gaussian-like with variance ~ 2 sigma^2 / n
        # around theta, hence the inflated scale and the diagonal 1/n.
        scale = np.sqrt(2.0) * fit.sigma_hat
        screening = (debias(fit.theta_hat, X3, Y3), scale, np.full(p, 1.0 / n))
    return quadratic_stage(
        fit.theta_hat, fit.sigma_hat, X2, Y2, s, alpha, screening,
        regime="high", n_per_split=n, parts=parts,
    )
