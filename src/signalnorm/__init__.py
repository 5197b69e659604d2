"""signalnorm: estimation of the signal norm and signal detection in sparse
linear regression when the noise level is unknown.

The library provides:

- synthetic data generation under Y = X theta + sigma xi with standardized
  entry laws and reproducible seeding (:mod:`signalnorm.model`);
- unbiased split-sample estimators of the squared signal norm, dense and
  threshold-selected sparse variants (:mod:`signalnorm.quadratic`);
- one split-sample pipeline for both regimes, with a least squares
  preliminary stage for n > p designs and a square-root sorted-L1 one for
  p >~ n designs, each with a plug-in noise estimate, and one calibrated
  detection test (:mod:`signalnorm.pipeline`, :mod:`signalnorm.lowdim`,
  :mod:`signalnorm.slope`, :mod:`signalnorm.highdim`);
- closed-form lower-bound quantities describing when detection and
  estimation are impossible (:mod:`signalnorm.lower_bounds`);
- a seeded Monte Carlo harness with CSV/JSON reporting and log-log rate
  fitting (:mod:`signalnorm.harness`).

The package re-exports the tasks, their lower bounds and the harness; other
building blocks are imported from their modules.
"""

from .calibration import calibrate_beta
from .harness import ExperimentConfig, report, run_trials
from .lowdim import SingularDesignError
from .lower_bounds import (
    chi2_cross,
    hypergeometric_mgf_bound,
    minimax_testing_lower_radius,
    q_lower_bound,
    risk_from_mgf,
    tau_from_rho,
)
from .model import (
    Dimensions,
    ModelSpec,
    RegressionSample,
    read_sample,
    sample_sparse_theta,
    synthesize,
    write_sample,
)
from .pipeline import detect, detection_threshold, estimate
from .slope import prox_sorted_l1, slope_weights, sorted_l1_norm, sqrt_slope_fit

__version__ = "0.1.0"

__all__ = [
    "Dimensions", "ModelSpec", "RegressionSample",
    "synthesize", "sample_sparse_theta", "write_sample", "read_sample",
    "SingularDesignError",
    "slope_weights", "sorted_l1_norm", "prox_sorted_l1", "sqrt_slope_fit",
    "estimate", "detect", "detection_threshold",
    "tau_from_rho", "chi2_cross", "hypergeometric_mgf_bound", "risk_from_mgf",
    "minimax_testing_lower_radius", "q_lower_bound",
    "ExperimentConfig", "run_trials", "report", "calibrate_beta",
]
