"""Gaussian beta-ensemble at high temperature: tridiagonal sampling, LAPACK
spectra, rate-function analytics, Selberg partition asymptotics and
desk-scale large-deviations experiments."""

__version__ = "0.4.0"

import os  # hitemp runs no threaded BLAS; OpenBLAS's idle worker thread spins 50-60 ms of CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads, unless already set

from .analytic import energy_I, log_potential_semicircle, rate_J, semicircle_cdf  # noqa: F401
from .eig import gershgorin  # noqa: F401
from .experiments import ExperimentConfig  # noqa: F401
from .measures import DiscreteMeasure, ks_to_semicircle, w1_to_semicircle  # noqa: F401
from .model import EnsembleParams, RegimeSchedule, make_params, regime_report  # noqa: F401
from .partition import (  # noqa: F401
    exact_log_ratio_perturbed,
    exact_log_ratio_shift,
    log_Z,
    log_tail_bound,
    technical_gap,
)
from .sampler import SeededStream, TridiagonalMatrix, sample_matrix  # noqa: F401
