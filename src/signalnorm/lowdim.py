"""Preliminary stage for designs with more rows than columns.

The sample is split in two; an ordinary least squares fit on the first block
provides the preliminary estimate and the residual-based noise estimate, and
the second block feeds the shared quadratic stage.  The fit reads everything
from one triangular factor of the augmented block [X1 | Y1]: the Cholesky
factor of its Gram matrix when a condition bound certifies it, and otherwise
one Householder QR, whose singular values decide the rank, each on one
OpenBLAS thread so that its bits do not depend on the thread count.  On the
sparse branch (s <= sqrt(p)) the OLS fit is the screening vector, with the
per-coordinate threshold scaled by the diagonal of the inverse Gram matrix.
:func:`signalnorm.pipeline.estimate` runs this stage; :func:`estimate_lowdim`
delegates to it, kept while the benchmark calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._workers import one_blas_thread
from .model import RegressionSample
from .quadratic import FunctionalEstimate

__all__ = [
    "SingularDesignError",
    "OlsFit",
    "ols_fit",
    "estimate_lowdim",
]

# Designs whose smallest singular value falls below this fraction of the
# largest are rejected: with continuous entry laws exact collinearity is a
# null event, so near-singularity signals a malformed input.
_SINGULAR_RTOL = 1e-10

# The fit keeps the Cholesky factor of A^T A, A = [X1 | Y1], only when
# ||A||_F ||R_aug^{-1}||_F <= _CHOLESKY_BOUND.  Forming A^T A squares the
# condition number: the factor's relative error grows like kappa(A)^2 * eps,
# against kappa(A) * eps for Householder QR, and kappa_2(A) is at most the
# bound.  At 1e3, kappa^2 * eps stays near 1e-10, the tolerance the tests hold
# the fit to against Householder QR (designs drawn up to the bound strayed by
# at most 2.4e-11); the tall benchmark's Gaussian 100 x 51 and 200 x 101
# blocks read about 70 and 140.  The bound also bounds ||X1||_F ||R^{-1}||_F,
# so a certified X1 has sigma_max / sigma_min <= 1e3, far inside the rank
# guard.  A bound that is large flags an ill-conditioned X1, or a Y1 near the
# span of X1, whose residual norm, the corner of R_aug, cancels.
_CHOLESKY_BOUND = 1e3
# Gram diagonals outside this range, the normal floats with a margin, go to
# QR: below it the products behind A^T A round to subnormals and lose bits,
# above it they overflow.  Data scaled by 1e-150 or 1e+150 falls outside.
_GRAM_RANGE = (2.0**-960, 2.0**960)
# Triangular blocks of at most this many columns are inverted whole.
_INVERSE_BLOCK = 32


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
    """Least squares from the triangular factor R_aug of the augmented block
    A = [X1 | Y1].

    R_aug holds R (the factor of X1) in its leading p x p block, Q^T Y1 in the
    column beside it and, in its corner, the residual norm
    ||Y1 - X1 theta_hat||_2 (Golub & Van Loan, Matrix Computations, section
    5.3).  So theta_hat = R^{-1} Q^T Y1, the noise estimate is that corner over
    sqrt(n - p), which needs n > p, and diag((X1^T X1)^{-1}) = diag(R^{-1}
    R^{-T}) is the squared row norms of R^{-1}; the full inverse Gram matrix is
    never formed.

    R_aug is first taken as the transposed Cholesky factor of A^T A, which
    equals the Householder factor up to row signs, with R inverted by halves.
    That factor is kept only when ||A||_F ||R_aug^{-1}||_F <= _CHOLESKY_BOUND,
    where ||R_aug^{-1}||_F^2 = sum(diag((X1^T X1)^{-1})) + (1 + ||theta_hat||^2)
    / corner^2.  Otherwise (the bound is large or not finite, the Cholesky
    factorization fails, as for an all-zero Y1, or a diagonal entry of A^T A
    lies outside _GRAM_RANGE) the fit falls back to one Householder QR of A.
    Both factors run on one OpenBLAS thread: their bits depend on the count.

    R has the singular values of X1, and the rank guard rejects X1 when
    sigma_min < _SINGULAR_RTOL * sigma_max.  A certified Cholesky factor
    clears it, since ||X1||_F ||R^{-1}||_F is at most _CHOLESKY_BOUND.  On the
    QR path the singular values of R decide (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 20), and R is inverted once the guard passes.
    """
    X1 = np.asarray(X1, dtype=float)
    Y1 = np.asarray(Y1, dtype=float)
    n, p = X1.shape
    if Y1.ndim != 1:
        raise ValueError(f"Y1 must be a 1-d vector, got shape {Y1.shape}")
    if Y1.shape[0] != n:
        raise ValueError("row mismatch between X1 and Y1")
    if n <= p:
        raise ValueError(f"need n > p for the least squares pipeline, got n={n}, p={p}")
    A = np.column_stack([X1, Y1])
    with one_blas_thread():
        R_aug, theta_hat, gram_inverse_diag = _cholesky_factor(A) or _householder_factor(A)
    sigma_hat = float(abs(R_aug[p, p]) / np.sqrt(n - p))
    return OlsFit(theta_hat=theta_hat, gram_inverse_diag=gram_inverse_diag, sigma_hat=sigma_hat)


def _cholesky_factor(A: np.ndarray):
    """``(R_aug, theta_hat, gram_inverse_diag)`` from the Cholesky factor of
    A^T A, or None when ||A||_F ||R_aug^{-1}||_F <= _CHOLESKY_BOUND does not
    hold.  Nothing here warns: a fit that falls back warns as QR does."""
    p = A.shape[1] - 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gram = A.T @ A
        diag = np.diagonal(gram)
        if not (np.all(diag >= _GRAM_RANGE[0]) and np.all(diag <= _GRAM_RANGE[1])):
            return None
        try:
            R_aug = np.linalg.cholesky(gram).T
            R_inv = _triangular_inverse(R_aug[:p, :p])
        except np.linalg.LinAlgError:
            return None
        gram_inverse_diag = (R_inv**2).sum(axis=1)
        theta_hat = R_inv @ R_aug[:p, p]
        inverse_sq = gram_inverse_diag.sum() + (1 + theta_hat @ theta_hat) / R_aug[p, p] ** 2
        # `<=`, so that a NaN bound is not a certificate
        if not np.sqrt(diag.sum() * inverse_sq) <= _CHOLESKY_BOUND:
            return None
    return R_aug, theta_hat, gram_inverse_diag


def _triangular_inverse(R: np.ndarray) -> np.ndarray:
    """Inverse of the upper triangular R by halves: the inverse of
    [[A, B], [0, C]] is [[A^{-1}, -A^{-1} B C^{-1}], [0, C^{-1}]].  A block of
    at most _INVERSE_BLOCK columns goes to `np.linalg.inv`, whose LU pivots
    nothing on a triangular block."""
    p = len(R)
    if p <= _INVERSE_BLOCK:
        return np.linalg.inv(R)
    h = p // 2
    A_inv = _triangular_inverse(R[:h, :h])
    C_inv = _triangular_inverse(R[h:, h:])
    R_inv = np.zeros_like(R)
    R_inv[:h, :h] = A_inv
    R_inv[h:, h:] = C_inv
    R_inv[:h, h:] = -(A_inv @ R[:h, h:]) @ C_inv
    return R_inv


def _householder_factor(A: np.ndarray):
    """``(R_aug, theta_hat, gram_inverse_diag)`` from one Householder QR of A,
    with the rank guard on the singular values of R; raises
    `SingularDesignError` for a singular X1."""
    p = A.shape[1] - 1
    R_aug = np.linalg.qr(A, mode="r")
    R = R_aug[:p, :p]
    svals = np.linalg.svd(R, compute_uv=False)
    if svals[0] == 0 or svals[-1] < _SINGULAR_RTOL * svals[0]:  # svals[0] = 0: X1 is all zero
        raise SingularDesignError(
            f"design is numerically singular: singular values in [{svals[-1]:.3e}, {svals[0]:.3e}]"
        )
    R_inv = np.linalg.inv(R)
    return R_aug, R_inv @ R_aug[:p, p], (R_inv**2).sum(axis=1)


def estimate_lowdim(sample: RegressionSample, s: int, alpha: float = 4.0) -> FunctionalEstimate:
    """:func:`signalnorm.pipeline.estimate` in the n > p regime."""
    from .pipeline import estimate
    return estimate(sample, s, "low", alpha)


def _preliminary(blocks: list) -> tuple:
    """``(prelim, sigma_hat, screening)`` of the split blocks: the OLS fit on
    block 1, whose coefficients are also the screening vector, with threshold
    diagonal diag((X1^T X1)^{-1})."""
    fit = ols_fit(*blocks[0])
    return fit.theta_hat, fit.sigma_hat, (fit.theta_hat, fit.sigma_hat, fit.gram_inverse_diag)
