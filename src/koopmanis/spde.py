"""Spectral Galerkin model of the stochastic advection-diffusion equation.

The field v(t, x) on [0, 1] with Dirichlet boundaries is expanded in the
orthonormal sine basis e_k(x) = sqrt(2) sin(k pi x).  Its N modes Y follow
the linear SDE dY = A Y dt + sqrt(eps) dW, with A = -diag(lam) + C: the
diffusive rates lam_k = alpha k^2 pi^2 and the advection coupling C, the
projection of b d/dx onto the basis.  ``spectral_setup`` builds A and
nothing else: lam and C are -diag(A) and A's off-diagonal part.
``model.make_builtin_model`` ("advdiff") builds the SPDE as a linear
model on A, so the modes step by the exact hold map of
``paths.linear_stepper``, as every linear model does, with BLAS products
for its N x N matrices.

The biasing control is the Doob controller of every other model, on the
adjoint coordinate q = <Y, w1>.  The model does not store w1:
``adjoint_model`` computes it from A where the controller is fitted
(``cli.prepare_controller``), and gives the exact one-dimensional OU
process q follows; ``SpdeController`` is a ``doob.DoobController`` with
the coordinate matrix W = w1[:, None].

This module owns no path loop: ensembles run the block engine of
``paths``, and ``cli.prepare_controller`` starts the mode snapshots its
points come from at a * w1 through ``paths.trajectory_snapshots``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .doob import Controller, DoobController
from .errors import InvalidParameterError, NumericalError
from .model import _linear_model
from .paths import run_paths
# bound here for the benchmark's layer trace, which patches each module's
# derive_path_rng
from .paths import derive_path_rng  # noqa: F401


def spectral_setup(n_modes: int, alpha: float, b: float) -> np.ndarray:
    """The Galerkin drift matrix A = -diag(lam) + C of ``n_modes`` modes.

    Each parameter must be a finite number, n_modes a whole one >= 2 (64
    or 64.0) and alpha positive: ``InvalidParameterError`` naming the
    parameter otherwise.
    """
    for name, val in (("n_modes", n_modes), ("alpha", alpha), ("b", b)):
        if isinstance(val, bool) or not (isinstance(val, numbers.Real)
                                         and math.isfinite(val)):
            raise InvalidParameterError(f"{name} must be a finite number, "
                                        f"got {val!r}")
    if not float(n_modes).is_integer() or n_modes < 2:
        raise InvalidParameterError(f"n_modes must be a whole number >= 2, "
                                    f"got {n_modes!r}")
    if alpha <= 0:
        raise InvalidParameterError("diffusivity alpha must be positive")
    k = np.arange(1, int(n_modes) + 1)
    j = k[:, None]
    kk = k[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        C = 4.0 * b * j * kk / (j * j - kk * kk)
    C[(j + kk) % 2 == 0] = 0.0   # the diagonal among them
    return -np.diag(alpha * (k * math.pi) ** 2) + C


class SpdeController(DoobController):
    """The Doob controller on the adjoint coordinate q = <Y, w1>, fitted by
    ``cli.prepare_controller`` on ``adjoint_model``'s exact spectrum."""

    # own binding: the benchmark's layer trace patches each class's
    # bias_batch, and this one is its span for the SPDE controller
    bias_batch = Controller.bias_batch


def adjoint_model(model):
    """(W, the model of q = Y W) for the SPDE model ``model``, with
    W = w1[:, None] (N, 1): w1 the leading eigenvector of A^T, A the drift
    of its ``linear_spec``, of unit norm and first nonzero entry positive.

    A^T w1 = -mu1 w1, so q follows the one-dimensional OU process
    dq = -mu1 q dt + w1^T B dW exactly.  Its degree-2 ``linear_exact``
    spectrum is 1 (lambda 0), q (-mu1) and q^2 - eps / (2 mu1) (-2 mu1).
    A w1 that is not real, or a residual above 1e-6, is a
    ``NumericalError``.
    """
    A_t = model.linear_spec[0].T
    vals, vecs = np.linalg.eig(A_t)
    lead = int(np.argmax(vals.real))
    mu1 = -float(vals[lead].real)
    w1 = vecs[:, lead]
    if np.abs(w1.imag).max() > 1e-10 * np.abs(w1).max():
        raise NumericalError("leading adjoint eigenvector is not real")
    w1 = w1.real
    w1 = w1 / np.linalg.norm(w1)
    nz = np.nonzero(np.abs(w1) > 1e-12)[0][0]
    if w1[nz] < 0:
        w1 = -w1
    resid = np.linalg.norm(A_t @ w1 + mu1 * w1)
    if resid > 1e-6:
        raise NumericalError(f"adjoint eigenpair residual {resid:.2e} too large")
    W = w1[:, None]
    return W, _linear_model(model.name, [[-mu1]],
                            W.T @ model.diffusion_const, model.params)


def run_spde_paths(model, controller, Y0, T, dt, M, master_seed, workers=1,
                   trajectory_count=0, trajectory_stride=None,
                   path_index=None):
    """Ensemble of the SPDE model's mode paths from Y0 (the zero field when
    None): ``paths.run_paths``, with its determinism contract and
    trajectory rows, as far as the BLAS products of the modes' hold map
    allow."""
    if Y0 is None:
        Y0 = np.zeros(model.dim_state)
    return run_paths(model, controller, Y0, T, dt, M, master_seed, workers,
                     trajectory_count, trajectory_stride, path_index)
