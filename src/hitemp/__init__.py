"""Gaussian beta-ensemble at high temperature: tridiagonal sampling, LAPACK
spectra, rate-function analytics, Selberg partition asymptotics and
desk-scale large-deviations experiments."""

__version__ = "0.3.0"

from .analytic import (  # noqa: F401
    SEMICIRCLE,
    RateEvaluation,
    energy_I,
    evaluate_rate,
    log_potential_semicircle,
    phi,
    phi_n,
    rate_J,
    semicircle_cdf,
    semicircle_pdf,
)
from .eig import SpectrumResult, full_spectrum, gershgorin, lambda_max, sturm_count  # noqa: F401
from .experiments import ExperimentConfig  # noqa: F401
from .measures import DiscreteMeasure, from_spectrum, ks_to_semicircle, moment, w1_to_semicircle  # noqa: F401
from .model import EnsembleParams, RegimeSchedule, make_params, regime_report  # noqa: F401
from .partition import (  # noqa: F401
    exact_log_ratio_perturbed,
    exact_log_ratio_shift,
    log_Z,
    log_tail_bound,
    technical_gap,
)
from .sampler import SeededStream, TridiagonalMatrix, sample_matrix  # noqa: F401
