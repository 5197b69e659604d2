"""Preliminary stage for designs with more rows than columns.

The sample is split in two; an ordinary least squares fit on the first block
provides the preliminary estimate and the residual-based noise estimate, and
the second block feeds the shared quadratic stage.  On the sparse branch
(s <= sqrt(p)) the screening vector is the OLS fit itself, with the
per-coordinate threshold scaled by the diagonal of the inverse Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RegressionSample, split_sample
from .quadratic import FunctionalEstimate, quadratic_stage

__all__ = [
    "SingularDesignError",
    "OlsFit",
    "ols_fit",
    "estimate_lowdim",
]

# Designs whose smallest singular value falls below this fraction of the
# largest are rejected: with continuous entry laws exact collinearity is a
# null event, so near-singularity signals a malformed input.  `ols_fit`
# certifies sigma_min/sigma_max >= 2 * _SINGULAR_RTOL from ||R||_F ||R^{-1}||_F
# and takes the SVD only for a design the certificate does not clear.
_SINGULAR_RTOL = 1e-10


class SingularDesignError(np.linalg.LinAlgError):
    """Raised when the design block is numerically rank-deficient."""


@dataclass
class OlsFit:
    """Least squares fit, the diagonal of the inverse Gram matrix and the
    noise estimate."""

    theta_hat: np.ndarray
    gram_inverse_diag: np.ndarray  # diag((X1^T X1)^{-1}), length p
    sigma_hat: float


def ols_fit(X1: np.ndarray, Y1: np.ndarray) -> OlsFit:
    """Least squares from one Householder QR of the augmented block [X1 | Y1].

    The triangular factor of [X1 | Y1] holds R (the factor of X1) in its
    leading p x p block, Q^T Y1 in the column beside it and, in its corner,
    the residual norm ||Y1 - X1 theta_hat||_2 (Golub & Van Loan, Matrix
    Computations, section 5.3).  So theta_hat = R^{-1} Q^T Y1, the noise
    estimate is that corner over sqrt(n - p), which needs n > p, and
    diag((X1^T X1)^{-1}) = diag(R^{-1} R^{-T}) is the squared row norms of
    R^{-1}; the full inverse Gram matrix is never formed.

    R has the singular values of X1, and the rank guard rejects X1 when
    sigma_min < _SINGULAR_RTOL * sigma_max.  Since sigma_max <= ||R||_F and
    1/sigma_min <= ||R^{-1}||_F, whose square is the sum of that diagonal
    (section 2.3), ||R||_F ||R^{-1}||_F * _SINGULAR_RTOL < 1/2 certifies the
    design with room for the rounding of the inverse.  Only a design that
    the certificate does not clear (the bound is large or not finite, or the
    inverse fails) pays for the SVD of R, which then decides.
    """
    X1 = np.asarray(X1, dtype=float)
    Y1 = np.asarray(Y1, dtype=float)
    n, p = X1.shape
    if Y1.shape[0] != n:
        raise ValueError("row mismatch between X1 and Y1")
    if n <= p:
        raise ValueError(f"need n > p for the least squares pipeline, got n={n}, p={p}")
    R_aug = np.linalg.qr(np.column_stack([X1, Y1]), mode="r")
    R = R_aug[:p, :p]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            R_inv = np.linalg.inv(R)
        except np.linalg.LinAlgError:
            certified = False
        else:
            gram_inverse_diag = (R_inv**2).sum(axis=1)
            # `<`, so that a NaN or infinite bound is not a certificate
            certified = np.linalg.norm(R) * np.sqrt(gram_inverse_diag.sum()) * _SINGULAR_RTOL < 0.5
    if not certified:
        svals = np.linalg.svd(R, compute_uv=False)
        if svals[0] == 0 or svals[-1] < _SINGULAR_RTOL * svals[0]:  # svals[0] = 0: X1 is all zero
            raise SingularDesignError(
                f"design is numerically singular: singular values in [{svals[-1]:.3e}, {svals[0]:.3e}]"
            )
        # the guard passed: invert again outside errstate, so that an overflow warns as before
        R_inv = np.linalg.inv(R)
        gram_inverse_diag = (R_inv**2).sum(axis=1)
    theta_hat = R_inv @ R_aug[:p, p]
    sigma_hat = float(abs(R_aug[p, p]) / np.sqrt(n - p))
    return OlsFit(theta_hat=theta_hat, gram_inverse_diag=gram_inverse_diag, sigma_hat=sigma_hat)


def estimate_lowdim(sample: RegressionSample, s: int, alpha: float = 4.0) -> FunctionalEstimate:
    """Estimate the squared norm and the norm in the n > p regime.

    Splits the sample in two, fits OLS on block 1, and runs the shared
    quadratic stage on block 2 with the OLS coefficients as screening vector
    and threshold diagonal diag((X1^T X1)^{-1}).
    """
    if not 1 <= s <= sample.p:
        raise ValueError(f"s must satisfy 1 <= s <= p, got s={s}, p={sample.p}")
    (X1, Y1), (X2, Y2) = split_sample(sample, 2)
    fit = ols_fit(X1, Y1)
    screening = (fit.theta_hat, fit.sigma_hat, fit.gram_inverse_diag)
    return quadratic_stage(fit.theta_hat, fit.sigma_hat, X2, Y2, s, alpha, screening, "low", 2)
