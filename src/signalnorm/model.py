"""Domain types and synthetic data generation for the regression model Y = X theta + sigma xi.

Entries of the design matrix X and of the noise vector xi are drawn i.i.d.
from standardized laws (mean 0, variance 1), all N(p+1) variables jointly
independent.  Samples are reproducible from an integer seed, and can
be partitioned into 2 or 3 equal-size row blocks for the split-sample
estimators built on top of this module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DESIGN_LAWS",
    "NOISE_LAWS",
    "Dimensions",
    "ModelSpec",
    "RegressionSample",
    "synthesize",
    "sample_sparse_theta",
    "split_sample",
    "write_sample",
    "read_sample",
]

# Smoothing fraction for the "rademacher-smoothed" design law.
_SMOOTH = 0.5
# Levels of the two-point "scaled-rademacher-mixture" noise law; the pair
# (a, b) with equal mixture weights satisfies (a^2 + b^2) / 2 = 1.
_MIX_LO = 0.5
_MIX_HI = float(np.sqrt(2.0 - _MIX_LO**2))


def _draw_standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    return rng.standard_normal(size)


def _draw_uniform_scaled(rng: np.random.Generator, size) -> np.ndarray:
    # Uniform on [-sqrt(3), sqrt(3)]: bounded density, variance 1.
    root3 = np.sqrt(3.0)
    return rng.uniform(-root3, root3, size)


def _draw_rademacher_smoothed(rng: np.random.Generator, size) -> np.ndarray:
    # (R + g*Z) / sqrt(1 + g^2): sign variable smoothed by a small Gaussian,
    # so the law has a bounded density while staying subGaussian, variance 1.
    signs = rng.integers(0, 2, size) * 2.0 - 1.0
    z = rng.standard_normal(size)
    return (signs + _SMOOTH * z) / np.sqrt(1.0 + _SMOOTH**2)


def _draw_rademacher_mixture(rng: np.random.Generator, size) -> np.ndarray:
    # Equal mixture of +-_MIX_LO and +-_MIX_HI, variance 1.
    signs = rng.integers(0, 2, size) * 2.0 - 1.0
    level = np.where(rng.integers(0, 2, size) == 1, _MIX_HI, _MIX_LO)
    return signs * level


DESIGN_LAWS = {
    "standard-normal": _draw_standard_normal,
    "uniform-scaled": _draw_uniform_scaled,
    "rademacher-smoothed": _draw_rademacher_smoothed,
}

NOISE_LAWS = {
    "standard-normal": _draw_standard_normal,
    "scaled-rademacher-mixture": _draw_rademacher_mixture,
}


@dataclass(frozen=True)
class Dimensions:
    """Problem sizes: N rows, p coordinates, sparsity budget s."""

    N: int
    p: int
    s: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if not 1 <= self.s <= self.p:
            raise ValueError(f"s must satisfy 1 <= s <= p, got s={self.s}, p={self.p}")


@dataclass(frozen=True)
class ModelSpec:
    """Ground-truth parameters and the standardized entry laws for X and xi;
    frozen, so the laws stay the ones checked here."""

    theta: np.ndarray
    sigma: float
    design: str = "standard-normal"
    noise: str = "standard-normal"

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if self.theta.ndim != 1:
            raise ValueError("theta must be a 1-d vector")
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.design not in DESIGN_LAWS:
            raise ValueError(f"unknown design law {self.design!r}")
        if self.noise not in NOISE_LAWS:
            raise ValueError(f"unknown noise law {self.noise!r}")


@dataclass
class RegressionSample:
    """The observed pair (X, Y); the truth that generated it is the caller's."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        # Row-major, as the estimates' last bits depend on the memory layout;
        # a row-major array is not copied.
        self.X = np.ascontiguousarray(self.X, dtype=float)
        self.Y = np.ascontiguousarray(self.Y, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError(
                f"row mismatch: X has {self.X.shape[0]} rows, Y has {self.Y.shape[0]}"
            )
        if not (np.isfinite(self.X).all() and np.isfinite(self.Y).all()):
            raise ValueError("X and Y must be finite: found NaN or infinity")

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def synthesize(spec: ModelSpec, dims: Dimensions, seed: int) -> RegressionSample:
    """Generate a sample from Y = X theta + sigma xi, reproducible from `seed`.

    X is N x p and xi has length N, both with i.i.d. mean-0 variance-1
    entries from the spec's laws.  The design and noise streams are derived
    from two spawned children of ``SeedSequence(seed)``, so the same seed
    always reproduces the same (X, Y) bit for bit.
    """
    if spec.theta.shape[0] != dims.p:
        raise ValueError(
            f"dimension mismatch: theta has length {spec.theta.shape[0]}, p={dims.p}"
        )
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    ss_design, ss_noise = seed.spawn(2)
    X = DESIGN_LAWS[spec.design](np.random.default_rng(ss_design), (dims.N, dims.p))
    xi = NOISE_LAWS[spec.noise](np.random.default_rng(ss_noise), dims.N)
    Y = X @ spec.theta + spec.sigma * xi
    return RegressionSample(X=X, Y=Y)


def sample_sparse_theta(
    p: int,
    s: int,
    magnitude: float,
    pattern: str = "equal",
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw an s-sparse vector with Euclidean norm `magnitude`.

    Exactly s coordinates are nonzero, each of absolute value
    magnitude / sqrt(s); the support is uniform over size-s subsets.
    `pattern` is "equal" (all positive) or "random-signs".  With the default
    "equal" pattern and magnitude tau this is also a draw from the
    least-favorable prior of :mod:`signalnorm.lower_bounds`.
    """
    if not 1 <= s <= p:
        raise ValueError(f"s must satisfy 1 <= s <= p, got s={s}, p={p}")
    if not 0 <= magnitude < np.inf:
        raise ValueError(f"magnitude must be finite and >= 0, got {magnitude}")
    if pattern not in ("equal", "random-signs"):
        raise ValueError(f"unknown pattern {pattern!r}")
    support = rng.choice(p, size=s, replace=False)
    theta = np.zeros(p)
    value = magnitude / np.sqrt(s)
    if pattern == "random-signs":
        theta[support] = value * (rng.integers(0, 2, s) * 2.0 - 1.0)
    else:
        theta[support] = value
    return theta


def split_sample(sample: RegressionSample, parts: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition the first parts*n rows into `parts` contiguous (X, Y) blocks of n rows.

    n = floor(N / parts); the N - parts*n trailing remainder rows are dropped.
    """
    if parts not in (2, 3):
        raise ValueError(f"parts must be 2 or 3, got {parts}")
    N = sample.N
    if N < parts:
        raise ValueError(f"cannot split N={N} rows into {parts} parts")
    n = N // parts
    return [
        (sample.X[i * n : (i + 1) * n], sample.Y[i * n : (i + 1) * n])
        for i in range(parts)
    ]


def write_sample(sample: RegressionSample, path: str | Path) -> Path:
    """Write a sample as CSV with header ``y,x1,...,xp`` and ``\\r\\n`` line ends,
    each value as its shortest round-trip ``repr``."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["y"] + [f"x{j + 1}" for j in range(sample.p)]) + "\r\n")
        for y, x in zip(sample.Y.tolist(), sample.X):  # one row at a time keeps memory flat
            fh.write(",".join(map(repr, [y] + x.tolist())) + "\r\n")
    return path


def read_sample(path: str | Path) -> RegressionSample:
    """Read the (X, Y) of a CSV sample written by :func:`write_sample`.

    A missing ``y`` header, no data rows, malformed or ragged rows, and rows
    whose width differs from the header's raise ``ValueError``.
    """
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header[0] != "y":
            raise ValueError(f"{path}: expected header starting with 'y'")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: reported below
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise ValueError(
            f"{path}: rows have {data.shape[1]} values, the header names {len(header)}"
        )
    # X is every row but its first value.  Moving the rows left over those
    # values, in order, lays X out row-major in place: a copy would double
    # the memory a large sample holds while it is read.
    N, p = data.shape[0], data.shape[1] - 1
    Y, flat = data[:, 0].copy(), data.reshape(-1)
    for i in range(N):
        flat[i * p : (i + 1) * p] = data[i, 1:]
    return RegressionSample(X=flat[: N * p].reshape(N, p), Y=Y)
