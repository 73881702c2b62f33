"""Rare-event importance sampling for SDEs via stochastic Koopman eigenfunctions."""

from .basis import BasisSet, build_basis
from .doob import (DoobController, build_controller, fit_surrogate,
                   positivize, tune_multiplier)
from .errors import KoopmanisError
from .estimator import EstimatorReport, analytic_oracles, run_ensemble
from .gedmd import (KoopmanSpectrum, TestPointSet, assemble_matrices,
                    eigenpairs, exact_koopman_matrix, generate_test_points,
                    koopman_matrix, validate_eigenpairs)
from .model import (EventObservable, SdeModel, default_event,
                    make_builtin_model, make_event, spectral_setup)
from .paths import derive_path_rng, run_paths

__version__ = "0.1.0"

__all__ = [
    "BasisSet", "DoobController", "EstimatorReport", "EventObservable",
    "KoopmanSpectrum", "KoopmanisError", "SdeModel", "TestPointSet",
    "analytic_oracles", "assemble_matrices", "build_basis",
    "build_controller", "default_event", "derive_path_rng", "eigenpairs",
    "exact_koopman_matrix", "fit_surrogate", "generate_test_points",
    "koopman_matrix", "make_builtin_model", "make_event", "positivize",
    "run_ensemble", "run_paths", "spectral_setup", "tune_multiplier",
    "validate_eigenpairs",
]
