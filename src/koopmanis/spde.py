"""Spectral Galerkin simulation of the stochastic advection-diffusion equation.

The field v(t, x) on [0, 1] with Dirichlet boundaries is expanded in the
orthonormal sine basis e_k(x) = sqrt(2) sin(k pi x).  The diffusive part is
diagonal in this basis and integrated exactly; the advection term b v_x is
held at its left-endpoint value through each step (exponential Euler).
Space-time white noise enters mode-by-mode with the exact Ito-isometry
variance of the stochastically integrated linear flow, and a biasing
control enters as a shift of the standard normal draws of that noise.

This module owns no path loop: ensembles and mode snapshots run the block
engine of ``paths`` with ``spde_stepper`` as its stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .doob import Controller, fit_surrogate
from .errors import InvalidParameterError, NumericalError
from .paths import (adjust_steps, rowlocal_product, run_engine, tile_start,
                    trajectory_snapshots)
# bound here for the benchmark's layer trace, which patches each module's
# derive_path_rng
from .paths import derive_path_rng  # noqa: F401


@dataclass(eq=False)
class SpectralSpde:
    """Discretized advection-diffusion operator data on N sine modes."""

    n_modes: int
    alpha: float
    b: float
    eps_noise: float
    lam: np.ndarray          # (N,) diffusive rates alpha k^2 pi^2
    coupling: np.ndarray     # (N, N) projection of b d/dx onto the sine basis
    adjoint_w1: np.ndarray   # (N,) leading adjoint eigenvector, unit norm
    mu1: float               # leading decay rate of the full operator

    @property
    def drift_matrix(self) -> np.ndarray:
        return -np.diag(self.lam) + self.coupling

    @property
    def quad_scale(self) -> float:
        """Scale making kappa*<Y, w1>^2 - 1 an exact eigenfunctional."""
        return 2.0 * self.mu1 / (self.eps_noise * float(self.adjoint_w1 @ self.adjoint_w1))


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

    The analytic coupling entries are cross-checked against high-order
    quadrature of <b e_k', e_j> at assembly time.
    """
    if n_modes < 2:
        raise InvalidParameterError("n_modes must be >= 2")
    if alpha <= 0:
        raise InvalidParameterError("diffusivity alpha must be positive")
    if eps_noise < 0:
        raise InvalidParameterError("noise intensity must be nonnegative")
    k = np.arange(1, n_modes + 1)
    lam = alpha * (k * math.pi) ** 2
    D = _coupling_matrix(n_modes, b)

    # quadrature cross-check: D[j,k] = 2 b pi k * int_0^1 sin(j pi x) cos(k pi x) dx
    nodes, wts = np.polynomial.legendre.leggauss(max(512, 8 * n_modes))
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * wts
    S = np.sin(np.outer(k, math.pi * x))          # (N, q)
    C = np.cos(np.outer(k, math.pi * x)) * w      # (N, q) weighted
    D_quad = 2.0 * b * math.pi * (S @ C.T) * k[None, :]
    if not np.allclose(D, D_quad, atol=1e-8):
        raise NumericalError("advection coupling failed quadrature cross-check")

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
    return SpectralSpde(n_modes, alpha, b, eps_noise, lam, D, w1, mu1)


def noise_std(spde: SpectralSpde, dt: float) -> np.ndarray:
    """Per-mode std of the exactly integrated noise over one step."""
    lam = spde.lam
    return np.sqrt(spde.eps_noise * (1.0 - np.exp(-2.0 * lam * dt)) / (2.0 * lam))


def spde_stepper(spde: SpectralSpde, dt):
    """Engine stepper for one step of size dt, ``step(Y, u, xi)``:

        Y' = Y @ P + sigma * (xi + sqrt(dt) u),
        P  = diag(exp(-lam dt)) + ((1 - exp(-lam dt)) / lam * C)^T,

    with C the advection coupling and sigma = ``noise_std(spde, dt)``.
    P is the exponential Euler recurrence as one product, built once per
    (spde, dt).  The control u (B, N) or None shifts the standard normal
    draws xi by sqrt(dt) u, the shift the engine's Girsanov weight
    assumes, so that weight is the exact likelihood ratio of this chain.
    """
    decay = np.exp(-spde.lam * dt)
    P = np.diag(decay) + (((1.0 - decay) / spde.lam)[:, None]
                          * spde.coupling).T
    sig = noise_std(spde, dt)
    sqdt = math.sqrt(dt)

    def step(Y, u, xi):
        # the scaled, shifted draws are formed in place on one temporary
        if u is None:
            w = sig * xi
        else:
            w = sqdt * u
            w += xi
            w *= sig
        out = Y @ P
        out += w
        return out
    return step


class SpdeController(Controller):
    """Biasing built from the constant and the leading quadratic functional.

    The value surrogate is  f0 + f2 * exp(-2 mu1 (T - t)) * phi2(Y)  with
    phi2(Y) = kappa <Y, w1>^2 - 1, an exact eigenfunctional of the
    discretized generator with decay rate 2 mu1.  Noise enters every mode
    with intensity sqrt(eps_noise), so the B-map is that scalar.
    """

    def __init__(self, spde: SpectralSpde, f0: float, f2: float, T: float,
                 multiplier: float = 1.0, floor: float = 1e-12):
        self.spde = spde
        self.f0 = float(f0)
        self.f2 = float(f2)
        self.horizon = float(T)
        self.multiplier = float(multiplier)
        self.floor = float(floor)

    n_eigenfunctions = 2

    def value_grad_batch(self, t, Y):
        self._check_time(t)
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        w1 = self.spde.adjoint_w1
        q = rowlocal_product(Y, w1[:, None])[:, 0]
        decay = math.exp(-2.0 * self.spde.mu1 * (self.horizon - t))
        val = self.f0 + self.f2 * decay * (self.spde.quad_scale * q * q - 1.0)
        coef = self.f2 * decay * 2.0 * self.spde.quad_scale * q
        return val, np.multiply.outer(coef, w1)

    # own binding: the benchmark's layer trace patches each class's bias_batch
    bias_batch = Controller.bias_batch

    def _noise_map(self, grad):
        return math.sqrt(self.spde.eps_noise) * grad

    def to_dict(self) -> dict:
        return {"type": "spde", "f0": self.f0, "f2": self.f2,
                "T": self.horizon, "multiplier": self.multiplier,
                "floor": self.floor,
                "spde": {"n_modes": self.spde.n_modes,
                         "alpha": self.spde.alpha, "b": self.spde.b,
                         "eps_noise": self.spde.eps_noise}}

    @classmethod
    def from_dict(cls, data: dict) -> "SpdeController":
        sp = data["spde"]
        spde = spectral_setup(sp["n_modes"], sp["alpha"], sp["b"],
                              sp["eps_noise"])
        return cls(spde, data["f0"], data["f2"], data["T"],
                   data["multiplier"], data["floor"])


def build_spde_controller(spde: SpectralSpde, snapshots, event,
                          T) -> SpdeController:
    """Fit the mollified event indicator onto {1, phi2} over mode snapshots.

    The fit is ``doob.fit_surrogate`` on the two-functional family,
    evaluated directly in mode coordinates.
    """
    snapshots = np.atleast_2d(np.asarray(snapshots, dtype=float))
    q = snapshots @ spde.adjoint_w1
    C = np.stack([np.ones(len(snapshots)), spde.quad_scale * q * q - 1.0],
                 axis=1)
    (f0, f2), floor = fit_surrogate(C, event.mollified(snapshots), 0)
    return SpdeController(spde, f0, f2, T, floor=floor)


def run_spde_paths(spde, controller, Y0, T, dt, M, master_seed, workers=1,
                   trajectory_count=0, trajectory_stride=None,
                   path_index=None):
    """Ensemble of SPDE mode paths from Y0 (the zero field when None);
    same determinism contract and trajectory rows as run_paths, as far as
    the propagator product of ``spde_stepper`` allows."""
    K, dt = adjust_steps(T, dt)
    if Y0 is None:
        Y0 = np.zeros(spde.n_modes)
    return run_engine(spde_stepper(spde, dt), spde.n_modes,
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
    snaps, _ = trajectory_snapshots(partial(spde_stepper, spde),
                                    spde.n_modes, starts, T_traj, stride,
                                    seed, dt)
    return snaps
