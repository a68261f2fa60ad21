"""Noise-adaptive low-rank matrix denoising.

Estimate a low-rank signal observed through i.i.d. additive noise with
an unknown distribution: kernel estimates of the noise density and its
derivative, tabulated on one grid from the centered entries, give a
score map that is applied to those same centered entries; its signal
gain is calibrated against its noise variance, the transformed matrix
is rescaled by the estimated Fisher information, and its singular values
are threshold-shrunk through the closed-form spiked-model inverse map.
Closed-form asymptotic predictions and a reproducible Monte-Carlo
harness round out the package.
"""

from .estimator import (DenoiseResult, baseline_estimate, denoise,
                        denoise_entrywise)
from .kde import (DensityEstimate, gaussian_kernel, gaussian_kernel_deriv,
                  kde_binned, mean_entry)
from .csvio import read_matrix_csv, write_matrix_csv
from .linalg import op_norm, subspace_overlap
from .noise import Gaussian, GaussianMixture, NoiseModel
from .shrinkage import (bulk_edge, debiased_sv, error_limit, inflated_sv,
                        minimax_limits, overlap_limit, shrink_known_sd)
from .sim import (ExperimentConfig, SignalSpec, TrialRecord, haar_orthonormal,
                  load_config, make_signal, run_grid, run_trial)

__version__ = "0.1.0"

__all__ = [
    "DenoiseResult", "baseline_estimate", "denoise", "denoise_entrywise",
    "DensityEstimate", "gaussian_kernel", "gaussian_kernel_deriv",
    "kde_binned", "mean_entry",
    "read_matrix_csv", "write_matrix_csv", "op_norm", "subspace_overlap",
    "Gaussian", "GaussianMixture", "NoiseModel",
    "bulk_edge", "debiased_sv", "inflated_sv", "shrink_known_sd",
    "error_limit", "minimax_limits", "overlap_limit",
    "ExperimentConfig", "SignalSpec", "TrialRecord", "haar_orthonormal",
    "load_config", "make_signal", "run_grid", "run_trial",
    "__version__",
]
