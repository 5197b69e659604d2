"""Generic estimators of the squared signal norm built from split samples.

Given a preliminary estimate computed on an independent block of data, each
coordinate's squared value is estimated unbiasedly by a centered quadratic
form of a fresh block (X2, Y2).  Summing over all coordinates gives the
dense estimator; summing only over coordinates whose (second) preliminary
estimate clears a noise-calibrated threshold gives the sparse one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .slope import _few, _matvec

__all__ = [
    "FunctionalEstimate",
    "component_estimates",
    "debias",
    "sparse_threshold",
    "sparse_branch",
    "split_parts",
    "quadratic_stage",
]


@dataclass
class FunctionalEstimate:
    """An estimate of the squared norm and the norm, with branch metadata.

    :func:`quadratic_stage` sets every field.  The sample's first
    ``parts * n_per_split`` rows were used in blocks of ``n_per_split``: block 0
    alone feeds the quadratic stage when ``parts`` is 1; with 2, block 0 the
    preliminary fit and block 1 the quadratic stage; with 3, block 2 also feeds
    the debiased screening vector.
    """

    q_hat: float
    lambda_hat: float
    sigma_hat: float | None  # None when there is no preliminary fit
    branch: str  # "dense" | "sparse"
    regime: str  # "low" | "high"
    n_per_split: int
    parts: int
    threshold: float | None  # largest per-coordinate selection threshold; None when dense

    @property
    def n_used(self) -> int:
        """Rows the estimate consumed: the N of the detection rate."""
        return self.parts * self.n_per_split


# Elements per row chunk of the dense column sums: 1 MiB of float64, so that
# a chunk and its square are still in cache when they are summed.
_CHUNK = 1 << 17


def component_estimates(
    prelim: np.ndarray,
    X2: np.ndarray,
    Y2: np.ndarray,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Centered per-coordinate estimates a_j of theta_j^2 from a fresh block.

    With residual r = Y2 - X2 @ prelim and columns X2[:, j],

        a_j = prelim_j^2 + (2 prelim_j / n) X2[:, j] @ r
              + (1 / (n (n-1))) * sum_{k != l} X2[k, j] X2[l, j] r_k r_l.

    The pair sum is evaluated in O(n) per coordinate as
    (sum_k X2[k, j] r_k)^2 - sum_k (X2[k, j] r_k)^2; conditionally on
    `prelim`, E a_j = theta_j^2.  The product ``X2 @ prelim`` runs over the
    nonzero coordinates of `prelim` alone when they are at most an eighth of
    them, as the sparse preliminary fits of the high regime are; it is the
    full product otherwise, so a dense preliminary fit keeps its bits.  The
    blocks must be finite, as :class:`signalnorm.model.RegressionSample`
    guarantees: a non-finite entry off the support would go unseen.

    With `cols`, an index array, the result is exactly
    ``component_estimates(prelim, X2, Y2)[cols]``; when `cols` holds at most
    an eighth of the columns, only those are summed, with ``np.cumsum``.
    Otherwise the sums fold row chunks of about ``_CHUNK`` elements into
    running sums.  Neither forms an n x p temporary, and both add the rows
    in the order numpy's axis-0 sum of the full product does when the rows
    of X2 lie one after another and it has two columns or more; other
    layouts, which numpy sums pairwise, form that product.
    """
    prelim = np.asarray(prelim, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    Y2 = np.asarray(Y2, dtype=float)
    n, p = X2.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows for the pair sum, got n={n}")
    if prelim.shape[0] != p or Y2.shape[0] != n:
        raise ValueError("dimension mismatch between prelim, X2, Y2")
    r = Y2 - _matvec(X2, prelim)
    rows_in_order = p > 1 and X2.strides[0] > X2.strides[1] > 0
    # Gathering columns and taking cumsums costs more per column than the dense
    # sums: at 100 x 50 and 200 x 100 the two break even near a fifth kept.
    if rows_in_order and cols is not None and _few(len(cols), p):
        # cumsum adds rows in order; .sum(axis=0) of this column-major copy
        # would not.
        w = X2[:, cols] * r[:, None]
        prelim, cols = prelim[cols], None
        col_dot, col_sq = np.cumsum(w, axis=0)[-1], np.cumsum(w**2, axis=0)[-1]
    else:
        rows = max(1, _CHUNK // p) if rows_in_order else n
        for start in range(0, n, rows):
            w = X2[start : start + rows] * r[start : start + rows, None]
            sq = w**2
            if start:
                # The running sums go first, as numpy's sum adds each row to them.
                w[0] = col_dot + w[0]
                sq[0] = col_sq + sq[0]
            col_dot, col_sq = w.sum(axis=0), sq.sum(axis=0)  # sum_k X2[k, j] r_k, and squared
    pair_sum = (col_dot**2 - col_sq) / (n * (n - 1))
    a = prelim**2 + (2.0 / n) * prelim * col_dot + pair_sum
    return a if cols is None else a[cols]


def debias(prelim: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """One-step correction prelim + X^T (Y - X prelim) / n on an independent block.

    Conditionally on `prelim`, the output is an unbiased estimate of theta.
    ``X @ prelim`` runs over the nonzero coordinates of a sparse `prelim`, as
    in :func:`component_estimates`, whose finite blocks it takes too.
    """
    prelim = np.asarray(prelim, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n, p = X.shape
    if prelim.shape[0] != p or Y.shape[0] != n:
        raise ValueError("dimension mismatch between prelim, X, Y")
    return prelim + X.T @ (Y - _matvec(X, prelim)) / n


def sparse_branch(s: int, p: int) -> bool:
    """Sparse zone s <= sqrt(p); the boundary s^2 = p is included."""
    return s * s <= p


def split_parts(regime: str, s: int, p: int) -> int:
    """Row blocks a pipeline consumes: the high-dimensional sparse branch adds
    an independent screening block to the preliminary and quadratic ones."""
    return 3 if regime == "high" and sparse_branch(s, p) else 2


def sparse_threshold(sigma_hat: float, diag, alpha: float, p: int, s: int) -> np.ndarray:
    """Per-coordinate selection threshold alpha * sigma_hat * sqrt(M_jj * log(1 + p/s^2)),
    given the length-p diagonal M_jj of the threshold matrix."""
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if sigma_hat <= 0:
        raise ValueError(f"sigma_hat must be positive, got {sigma_hat}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    diag = np.asarray(diag, dtype=float)
    if diag.shape != (p,):
        raise ValueError(f"threshold diagonal has shape {diag.shape}, expected ({p},)")
    if np.any(diag < 0):
        raise ValueError("threshold matrix has negative diagonal entries")
    return alpha * sigma_hat * np.sqrt(diag * np.log1p(p / s**2))


def quadratic_stage(
    prelim: np.ndarray,
    sigma_hat: float,
    X2: np.ndarray,
    Y2: np.ndarray,
    s: int,
    alpha: float,
    screening: tuple | None,
    regime: str,
    parts: int,
) -> FunctionalEstimate:
    """The stage both pipelines share once their preliminary stage has run.

    Evaluates on the fresh block (X2, Y2), with a_j the coordinate estimates of
    :func:`component_estimates`, the dense estimator sum_j a_j(prelim)
    (s > sqrt(p)) or the sparse one (s <= sqrt(p))

        sum_j a_j(prelim) * 1{ |bar_theta_j| > tau_j },

    which keeps a coordinate only where the screening vector bar_theta strictly
    clears the threshold tau of :func:`sparse_threshold`; ties exclude it.  The
    norm estimate |q_hat|^(1/2) stays defined when q_hat < 0.  The sparse
    branch selects with `screening`, the triple (bar_theta, scale, diag) of the
    screening vector, the noise scale of the threshold and its length-p
    diagonal; without a screening triple (no preliminary fit) the estimate is
    dense.  The estimate records `regime` and `parts` as given and measures
    ``n_per_split`` as the rows of X2, the block it sums.  A noise estimate of
    exactly 0, which would collapse both the selection and the detection
    threshold to 0, raises ``ArithmeticError``; ``sigma_hat=None`` (no
    preliminary fit) is allowed.
    """
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if sigma_hat == 0:
        raise ArithmeticError("noise estimate sigma_hat is 0: the preliminary fit left no residual")
    p = X2.shape[1]
    threshold, branch, cols = None, "dense", None
    if screening is not None and sparse_branch(s, p):
        bar_theta, scale, diag = screening
        tau = sparse_threshold(scale, diag, alpha, p, s)
        bar_theta = np.asarray(bar_theta, dtype=float)
        if bar_theta.shape[0] != p:
            raise ValueError("bar_theta length does not match p")
        threshold, branch = float(np.max(tau)), "sparse"
        cols = np.flatnonzero(np.abs(bar_theta) > tau)
    q_hat = float(component_estimates(prelim, X2, Y2, cols).sum())
    return FunctionalEstimate(
        q_hat=q_hat, lambda_hat=float(np.sqrt(abs(q_hat))), sigma_hat=sigma_hat, branch=branch,
        regime=regime, n_per_split=X2.shape[0], parts=parts, threshold=threshold,
    )
