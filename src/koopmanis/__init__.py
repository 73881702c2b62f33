"""Rare-event importance sampling for SDEs via stochastic Koopman eigenfunctions."""

from .basis import BasisSet, build_basis, hermite_jet
from .doob import (DoobController, build_controller, fit_surrogate,
                   positivize, tune_multiplier)
from .errors import KoopmanisError
from .estimator import (EstimatorReport, analytic_oracles, ou_exact_controller,
                        run_ensemble, second_moment_bound)
from .gedmd import (KoopmanSpectrum, TestPointSet, assemble_matrices,
                    eigenpairs, exact_koopman_matrix, generate_test_points,
                    koopman_matrix, validate_eigenpairs)
from .model import (EventObservable, SdeModel, default_event, generator_apply,
                    make_builtin_model, make_event)
from .paths import (PathResult, derive_path_rng, integrate_step, run_paths,
                    simulate_path)
from .spde import (SpdeController, SpectralSpde, exp_euler_step, l2_norm,
                   qwiener_increment, spectral_setup)

__version__ = "0.1.0"

__all__ = [
    "BasisSet", "DoobController", "EstimatorReport", "EventObservable",
    "KoopmanSpectrum", "KoopmanisError", "PathResult", "SdeModel",
    "SpdeController", "SpectralSpde", "TestPointSet", "analytic_oracles",
    "assemble_matrices", "build_basis", "build_controller", "default_event",
    "derive_path_rng", "eigenpairs", "exact_koopman_matrix", "exp_euler_step",
    "fit_surrogate", "generate_test_points", "generator_apply", "hermite_jet",
    "integrate_step", "koopman_matrix", "l2_norm", "make_builtin_model",
    "make_event", "ou_exact_controller", "positivize", "qwiener_increment",
    "run_ensemble", "run_paths", "second_moment_bound", "simulate_path",
    "spectral_setup", "tune_multiplier", "validate_eigenpairs",
]
