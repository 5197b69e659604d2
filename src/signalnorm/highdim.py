"""Preliminary stage for designs with many more columns than rows.

The preliminary estimate is the square-root sorted-L1 fit, which needs no
noise level input.  The dense branch (s > sqrt(p)) uses a two-way split;
the sparse branch (s <= sqrt(p)) uses a three-way split: the fit and its
noise estimate come from block 1, the screening vector is the debiased
correction computed on block 3, and the shared quadratic stage runs on
block 2, so the triplet feeding the selection is independent of the block
being summed.  :func:`signalnorm.pipeline.estimate` runs this stage;
:func:`estimate_highdim` delegates to it, kept while the benchmark calls it.
"""

from __future__ import annotations

import numpy as np

from .model import RegressionSample
from .quadratic import FunctionalEstimate, debias
from .slope import sqrt_slope_fit

__all__ = ["estimate_highdim"]


def estimate_highdim(sample: RegressionSample, s: int, alpha: float = 4.0, c1: float = 1.5,
                     prelim: str = "srs") -> FunctionalEstimate:
    """:func:`signalnorm.pipeline.estimate` in the p >~ n regime."""
    from .pipeline import estimate
    return estimate(sample, s, "high", alpha, c1, prelim)


def _preliminary(blocks: list, c1: float) -> tuple:
    """``(prelim, sigma_hat, screening)`` of the split blocks: the sorted-L1
    fit on block 1 and, when there is a block 3, the screening triple of its
    debiased correction there.  A fit that does not converge raises
    ``ArithmeticError``."""
    X1, Y1 = blocks[0]
    fit = sqrt_slope_fit(X1, Y1, c1=c1)
    if not fit.converged:
        raise ArithmeticError(f"sorted-L1 fit did not converge after {fit.iterations} iterations")
    screening = None
    if len(blocks) == 3:
        X3, Y3 = blocks[2]
        n, p = X1.shape
        # Selection threshold alpha * sqrt(2) sigma_hat * sqrt(log(1 + p/s^2) / n):
        # the screening vector is Gaussian-like with variance ~ 2 sigma^2 / n
        # around theta, hence the inflated scale and the diagonal 1/n.
        scale = np.sqrt(2.0) * fit.sigma_hat
        screening = (debias(fit.theta_hat, X3, Y3), scale, np.full(p, 1.0 / n))
    return fit.theta_hat, fit.sigma_hat, screening
