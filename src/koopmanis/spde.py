"""Spectral Galerkin simulation of the stochastic advection-diffusion equation.

The field v(t, x) on [0, 1] with Dirichlet boundaries is expanded in the
orthonormal sine basis e_k(x) = sqrt(2) sin(k pi x).  The simulated chain
is the exponential Euler scheme of the modes: the diffusive part is
diagonal in this basis and integrated exactly, the advection term b v_x is
held at its left-endpoint value through each step, and space-time white
noise enters mode-by-mode with the exact Ito-isometry variance of the
stochastically integrated linear flow.  A biasing control enters as a
shift of the standard normal draws of that noise.

The chain is linear with Gaussian noise, so L of its steps under one held
control have a closed-form Gaussian law, that of the state jointly with
the sum of the steps' draws, which the Girsanov weight needs.
``spde_stepper`` advances each control hold, or an uncontrolled run from
snapshot to snapshot, by that law in one map (exact simulation of linear
Gaussian dynamics, e.g. Glasserman, Monte Carlo Methods in Financial
Engineering, 2003, ch. 3): a segment draws N + rank(R) normals, where its
L steps drew L N, and costs three products with N x N matrices, where
they cost L.  The chain, and with it every estimate's law, is the
per-step one.

The biasing control is the Doob controller of every other model, on the
adjoint coordinate q = <Y, w1>: ``adjoint_model`` gives the exact
one-dimensional OU process q follows, and ``SpdeController`` is a
``doob.DoobController`` with the coordinate matrix W = w1[:, None].

This module owns no path loop: ensembles and mode snapshots run the block
engine of ``paths`` with ``spde_stepper`` as its stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .doob import Controller, DoobController
from .errors import InvalidParameterError, NumericalError
from .model import _linear_model
from .paths import adjust_steps, run_engine, tile_start, trajectory_snapshots
# bound here for the benchmark's layer trace, which patches each module's
# derive_path_rng
from .paths import derive_path_rng  # noqa: F401


@dataclass(eq=False)
class SpectralSpde:
    """Discretized advection-diffusion operator data on N sine modes."""

    n_modes: int
    eps_noise: float
    lam: np.ndarray          # (N,) diffusive rates alpha k^2 pi^2
    coupling: np.ndarray     # (N, N) projection of b d/dx onto the sine basis
    adjoint_w1: np.ndarray   # (N,) leading adjoint eigenvector, unit norm
    mu1: float               # leading decay rate of the full operator

    @property
    def drift_matrix(self) -> np.ndarray:
        return -np.diag(self.lam) + self.coupling


def _coupling_matrix(n_modes: int, b: float) -> np.ndarray:
    k = np.arange(1, n_modes + 1)
    j = k[:, None]
    kk = k[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        D = 4.0 * b * j * kk / (j * j - kk * kk)
    D[(j + kk) % 2 == 0] = 0.0
    np.fill_diagonal(D, 0.0)
    return D


def spectral_setup(n_modes: int, alpha: float, b: float,
                   eps_noise: float) -> SpectralSpde:
    """Assemble mode rates, the advection coupling and the adjoint data.

    n_modes must be a whole number >= 2 (64 or 64.0), alpha positive and
    eps_noise nonnegative: ``InvalidParameterError`` otherwise.
    """
    if not float(n_modes).is_integer() or n_modes < 2:
        raise InvalidParameterError(f"n_modes must be a whole number >= 2, "
                                    f"got {n_modes!r}")
    if alpha <= 0:
        raise InvalidParameterError("diffusivity alpha must be positive")
    if eps_noise < 0:
        raise InvalidParameterError("noise intensity must be nonnegative")
    n_modes = int(n_modes)
    k = np.arange(1, n_modes + 1)
    lam = alpha * (k * math.pi) ** 2
    D = _coupling_matrix(n_modes, b)

    M_t = (-np.diag(lam) + D).T
    vals, vecs = np.linalg.eig(M_t)
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
    resid = np.linalg.norm(M_t @ w1 + mu1 * w1)
    if resid > 1e-6:
        raise NumericalError(f"adjoint eigenpair residual {resid:.2e} too large")
    return SpectralSpde(n_modes, eps_noise, lam, D, w1, mu1)


def noise_std(spde: SpectralSpde, dt: float) -> np.ndarray:
    """Per-mode std of the exactly integrated noise over one step."""
    lam = spde.lam
    return np.sqrt(spde.eps_noise * (1.0 - np.exp(-2.0 * lam * dt)) / (2.0 * lam))


class _SpdeStepper:
    """Engine stepper of the SPDE's modes; see ``spde_stepper``."""

    longest = None   # a segment of any length draws N + rank(R) normals

    def __init__(self, spde, dt):
        decay = np.exp(-spde.lam * dt)
        self.P = np.diag(decay) + (((1.0 - decay) / spde.lam)[:, None]
                                   * spde.coupling).T
        self.sig = noise_std(spde, dt)
        self.sqdt = math.sqrt(dt)
        self.r = spde.n_modes
        self._maps = {}

    def __call__(self, Y, u, xi):
        return self.segment(Y, u, xi, 1)[0]

    def segment_map(self, L):
        """(P^L, S / L, R) of an L-step segment, built once per L; R has
        no rows when L is 1."""
        if L not in self._maps:
            self._maps[L] = self._build(L)
        return self._maps[L]

    def _build(self, L):
        G = np.diag(self.sig)            # diag(sigma) P^j, j = 0..L-1
        S = np.zeros_like(G)
        Q = np.zeros_like(G)
        for _ in range(L):
            S += G
            Q += G.T @ G
            G = G @ self.P
        PL = np.linalg.matrix_power(self.P, L)
        vals, vecs = np.linalg.eigh(Q - S.T @ S / L)
        keep = vals > len(vals) * np.finfo(float).eps * max(vals.max(), 0.0)
        R = np.sqrt(vals[keep])[:, None] * vecs[:, keep].T
        return PL, S / L, R

    def draws(self, L):
        return self.r + len(self.segment_map(L)[2])

    def segment(self, Y, u, z, L):
        PL, SL, R = self.segment_map(L)
        w = math.sqrt(L) * z[..., :self.r]   # Xi, the sum of the steps' draws
        if u is not None:
            w += (L * self.sqdt) * u
        out = Y @ PL
        out += w @ SL
        out += z[..., self.r:] @ R
        # Xi formed again, not held next to w through the products
        return out, w if u is None else math.sqrt(L) * z[..., :self.r]


def spde_stepper(spde: SpectralSpde, dt):
    """Engine stepper for steps of size dt.  One step, ``step(Y, u, xi)``:

        Y' = Y @ P + sigma * (xi + sqrt(dt) u),
        P  = diag(exp(-lam dt)) + ((1 - exp(-lam dt)) / lam * C)^T,

    with C the advection coupling and sigma = ``noise_std(spde, dt)``: the
    exponential Euler recurrence, taken as the one-step segment below
    (P^1 = P, S = D, no R).  The control u (B, N) or None shifts the
    standard normal draws xi by sqrt(dt) u, the shift the engine's
    Girsanov weight assumes, so that weight is the exact likelihood ratio
    of this chain.

    ``step.segment`` advances an L-step segment at a held u by the exact
    law of L such steps.  With D = diag(sigma), S = sum_{j<L} D P^j and
    R^T R = sum_{j<L} (D P^j)^T (D P^j) - S^T S / L,

        Y_L = Y @ P^L + (Xi + L sqrt(dt) u) @ S / L + zeta @ R,

    where Xi = sqrt(L) zeta_1 is the sum of the L per-step draws, which
    ``segment`` returns for the Girsanov weight, and zeta_1 (N) and zeta
    (rank R) are the segment's N + rank(R) standard normal draws; a
    one-step segment draws N.  (P^L, S / L, R) is built once per L
    (``segment_map``; the engine asks ``draws`` of every segment length
    before its blocks run, so worker threads only read the maps); R keeps
    the eigen-directions of R^T R above N eps of its largest eigenvalue.
    """
    return _SpdeStepper(spde, dt)


class SpdeController(DoobController):
    """The Doob controller on the adjoint coordinate q = <Y, w1>, fitted by
    ``cli.prepare_controller`` on ``adjoint_model``'s exact spectrum."""

    # own binding: the benchmark's layer trace patches each class's
    # bias_batch, and this one is its span for the SPDE controller
    bias_batch = Controller.bias_batch


def adjoint_model(model):
    """(W, the model of q = Y W) for the SPDE model ``model``, with
    W = w1[:, None] (N, 1).

    A^T w1 = -mu1 w1, so q follows the one-dimensional OU process
    dq = -mu1 q dt + w1^T B dW exactly.  Its degree-2 ``linear_exact``
    spectrum is 1 (lambda 0), q (-mu1) and q^2 - eps / (2 mu1) (-2 mu1).
    """
    W = model.spde.adjoint_w1[:, None]
    return W, _linear_model(model.name, [[-model.spde.mu1]],
                            W.T @ model.diffusion_const, model.params)


def run_spde_paths(spde, controller, Y0, T, dt, M, master_seed, workers=1,
                   trajectory_count=0, trajectory_stride=None,
                   path_index=None):
    """Ensemble of SPDE mode paths from Y0 (the zero field when None);
    same determinism contract and trajectory rows as run_paths, as far as
    the BLAS products of ``spde_stepper`` allow."""
    K, dt = adjust_steps(T, dt)
    if Y0 is None:
        Y0 = np.zeros(spde.n_modes)
    return run_engine(spde_stepper(spde, dt),
                      tile_start(Y0, spde.n_modes, M), K, dt, controller,
                      master_seed, workers, trajectory_stride,
                      trajectory_count, path_index)


def generate_mode_snapshots(spde, amplitudes, T_traj, stride, seed, dt=1e-3):
    """Unbiased mode trajectories started along the adjoint direction.

    One trajectory per requested amplitude a, started at a * w1 with path
    index its position in ``amplitudes``; states are recorded every
    `stride` time units including t = 0.  Used as the point set for
    fitting the terminal observable in mode space.
    """
    starts = np.multiply.outer(np.asarray(amplitudes, dtype=float),
                               spde.adjoint_w1)
    snaps, _ = trajectory_snapshots(partial(spde_stepper, spde), starts,
                                    T_traj, stride, seed, dt)
    return snaps
