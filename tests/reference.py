"""Reference implementations the package is tested against.

``simulate_path`` runs one path alone, segment by segment, through the
engine's own stepper on a one-row block: step by step for a nonlinear
model, one exact hold map at a time for every linear one, the SPDE's modes
included; ``generator_apply`` applies the generator to
one function jet at one state; ``sweep_table_per_c`` runs the multiplier
sweep as one ensemble per multiplier; ``exact_koopman_loop`` builds the
exact generator projection one dictionary element and one term at a time;
``EulerMaruyamaStepper`` is a second row-local engine stepper beside the
SRK step of ``paths.SdeStepper``, so that the engine's bitwise invariance
is checked as the engine's, not as one stepper's;
``OuExactController`` is the closed-form Doob controller of ``ou1d``;
``fit_spde_controller`` is the SPDE branch of ``cli.prepare_controller``
on given mode snapshots, and ``spde_quadratic_controller`` the SPDE's
Doob controller with chosen coefficients.  None is used by the pipeline, which
works on blocks of paths, on whole dictionaries and on one stacked sweep
ensemble at once, and builds its controllers from a fitted spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, erfcx

from koopmanis.basis import build_basis
from koopmanis.doob import (Controller, DoobController, _Component,
                            build_controller, realify_spectrum)
from koopmanis.errors import InvalidParameterError, KoopmanisError, ShapeError
from koopmanis.estimator import run_ensemble
from koopmanis.gedmd import eigenpairs, exact_koopman_matrix
from koopmanis.model import EventObservable, SdeModel, half_diffusion_sq
from koopmanis.paths import (adjust_steps, derive_path_rng, hold_steps,
                             model_stepper, rowlocal_product)
from koopmanis.spde import adjoint_model


class PathBlowupError(KoopmanisError):
    """A path simulated alone left the finite-state region.

    Carries the step index at which the first non-finite value appeared.
    The block engine raises no such error: it marks blown paths and
    freezes them at zero.
    """

    def __init__(self, step_index, message=None):
        self.step_index = step_index
        super().__init__(message or f"non-finite state at step {step_index}")


@dataclass
class PathResult:
    terminal_state: np.ndarray
    log_weight: float
    path_index: int
    trajectory: list | None = None


def simulate_path(model, controller, x0, T, dt, master_seed=0, path_index=0,
                  trajectory_stride=None) -> PathResult:
    """Simulate path ``path_index`` alone, with the noise stream, the
    segments and the Girsanov weight of the block engine.

    Segments end at every hold start (none without a controller), every
    ``trajectory_stride`` steps, every ``step.longest`` steps and at T;
    each draws ``step.draws`` of its length from the path's stream in time
    order and runs ``paths.model_stepper``'s segment on a one-row block.
    The control is evaluated at each hold start and held; an L-step
    segment at the held u takes (u . Xi) sqrt(dt) + L |u|^2 dt / 2 off the
    log-weight, Xi the sum of its per-step draws.

    Raises PathBlowupError, with the first step of the segment that left
    the finite region, if the state does.
    """
    if controller is not None and abs(controller.horizon - T) > 1e-12:
        raise ValueError("controller horizon does not match requested T")
    rng = derive_path_rng(master_seed, path_index)
    K, dt = adjust_steps(T, dt)
    step = model_stepper(model, dt)
    x = np.array(x0, dtype=float)
    if x.shape != (model.dim_state,):
        raise ShapeError("x0 has wrong dimension")
    hold = None if controller is None \
        else hold_steps(controller.hold_time, dt)
    ends = sorted({K}.union(*(range(every, K, every) for every
                              in (hold, trajectory_stride, step.longest)
                              if every)))
    logw = 0.0
    traj = None if trajectory_stride is None else [(0.0, x.copy())]
    u = None
    k = 0
    for end in ends:
        L = end - k
        z = rng.standard_normal(step.draws(L))
        if controller is not None and k % hold == 0:
            u = controller.bias_batch(k * dt, x[None, :])[0]
        with np.errstate(over="ignore", invalid="ignore"):
            x, xi = step.segment(x[None, :], u, z[None, :], L)
        x = x[0]
        if u is not None:
            logw -= float(u[0] @ xi[0]) * math.sqrt(dt) \
                + L * (0.5 * float(u[0] @ u[0]) * dt)
        if not np.all(np.isfinite(x)):
            raise PathBlowupError(k)
        k = end
        if traj is not None and (k % trajectory_stride == 0 or k == K):
            traj.append((k * dt, x.copy()))
    return PathResult(x, logw, path_index, traj)


class EulerMaruyamaStepper:
    """Engine stepper of the Euler-Maruyama step x + a(x) dt + B (sqrt(dt)
    xi + u dt): the interface of ``paths.SdeStepper``, single steps of
    r = ``model.dim_noise`` draws, with the control held through the
    step."""

    longest = 1
    time_major = True   # its products are rowlocal_product's

    def __init__(self, model, dt):
        self.model, self.dt = model, dt
        self.r = model.dim_noise

    def draws(self, L):
        return self.r

    def segment(self, x, u, xi, L):
        dt, Bt = self.dt, self.model.diffusion_const.T
        incr = rowlocal_product(xi, Bt) * math.sqrt(dt)
        if u is not None:
            incr = incr + rowlocal_product(u, Bt) * dt
        return x + self.model.drift(x) * dt + incr, xi


def generator_apply(model: SdeModel, jet, x) -> float:
    """Apply the infinitesimal generator to a function jet at a state.

    jet = (value, gradient, hessian); returns
    <drift(x), grad> + Tr[0.5 B B^T hess].
    """
    _, grad, hess = jet
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    d = model.dim_state
    if x.shape != (d,) or grad.shape != (d,) or hess.shape != (d, d):
        raise ShapeError("jet/state dimensions do not match the model")
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise ValueError("jet components must be finite")
    a = model.drift(x[None, :])[0]
    Q = half_diffusion_sq(model)
    return float(a @ grad + (Q * hess).sum())


def sweep_table_per_c(controller, model, obs, x0, T, dt, grid, batch, seed=0,
                      workers=1) -> list:
    """The table of ``doob.tune_multiplier`` from one ensemble per grid
    value: each draws every path's noise afresh, with the same seed and
    path indices 0..batch-1 (common random numbers)."""
    rows = []
    for c in sorted(float(c) for c in grid):
        rep = run_ensemble(model, controller.with_multiplier(c), obs, x0, T,
                           dt, M=batch, master_seed=seed,
                           workers=workers)
        rows.append((c, rep.proportion_in_event, rep.estimate,
                     rep.sample_variance, rep.relative_error_per_sample))
    return rows


def exact_koopman_loop(basis, model) -> np.ndarray:
    """The matrix of ``gedmd.exact_koopman_matrix``, entry by entry: for
    each element, the drift terms over nonzero A[i, l] and then the
    diffusion terms over nonzero Q[i, j], both row-major."""
    A, _ = model.linear_spec
    Q = half_diffusion_sq(model)
    idx = basis.multi_indices
    col = {tuple(a): i for i, a in enumerate(idx)}
    n, d = idx.shape
    K = np.zeros((n, n))
    for k, alpha in enumerate(idx):
        alpha = tuple(alpha)
        for i in range(d):
            if alpha[i] == 0:
                continue
            for l in range(d):
                if A[i, l] == 0.0:
                    continue
                beta = list(alpha)
                beta[i] -= 1
                beta[l] += 1
                K[k, col[tuple(beta)]] += A[i, l] * alpha[i]
        for i in range(d):
            for j in range(d):
                if Q[i, j] == 0.0:
                    continue
                if i == j:
                    if alpha[i] < 2:
                        continue
                    beta = list(alpha)
                    beta[i] -= 2
                    K[k, col[tuple(beta)]] += \
                        Q[i, i] * alpha[i] * (alpha[i] - 1)
                else:
                    if alpha[i] == 0 or alpha[j] == 0:
                        continue
                    beta = list(alpha)
                    beta[i] -= 1
                    beta[j] -= 1
                    K[k, col[tuple(beta)]] += Q[i, j] * alpha[i] * alpha[j]
    return K


class OuExactController(Controller):
    """Exact biasing for the 1-D linear model from its Gaussian transition.

    The value function E[f(X_T) | X_t = x] is evaluated in closed form for
    the indicator terminal function and by composite Gauss-Legendre
    quadrature for the mollified one (which is the C^2, strictly positive
    setting in which the weighted outcome is constant path-by-path up to
    discretization error).  The terminal form, threshold and sharpness are
    the event's (``ou_exact_controller``).  The B-map is the noise
    intensity.
    """

    def __init__(self, rate, noise, threshold, T, terminal, sharpness,
                 multiplier=1.0):
        if terminal not in ("indicator", "mollified"):
            raise InvalidParameterError("terminal must be indicator|mollified")
        self.rate = float(rate)
        self.noise = float(noise)
        self.threshold = float(threshold)
        self.horizon = float(T)
        self.terminal = terminal
        self.sharpness = float(sharpness)
        self.multiplier = float(multiplier)
        self.floor = 1e-300
        # composite rule in the standardized coordinate u = (v - mean)/sd:
        # three 32-node panels of [-12, 12] with the middle panel tracking
        # the mollifier transition, which keeps every panel well clear of
        # the tanh poles
        self._gl_x, self._gl_w = np.polynomial.legendre.leggauss(32)

    n_eigenfunctions = 0

    def _transition(self, t):
        tau = max(self.horizon - t, 0.0)
        m_fac = math.exp(-self.rate * tau)
        var = self.noise ** 2 * (1.0 - math.exp(-2.0 * self.rate * tau)) \
            / (2.0 * self.rate)
        return m_fac, math.sqrt(var)

    def _f(self, v):
        return 0.5 * (1.0 + np.tanh(self.sharpness * (v - self.threshold)))

    def _fprime(self, v):
        th = np.tanh(self.sharpness * (v - self.threshold))
        return 0.5 * self.sharpness * (1.0 - th * th)

    def value_grad_batch(self, t, X):
        self._check_time(t)
        x = np.asarray(X, dtype=float).reshape(-1)
        m_fac, sd = self._transition(t)
        if sd < 1e-13:  # at the horizon the value is the terminal function
            if self.terminal == "indicator":
                val = (x > self.threshold).astype(float)
                grad = np.zeros_like(x)
            else:
                val, grad = self._f(x), self._fprime(x)
            return val, grad[:, None]
        mean = m_fac * x
        if self.terminal == "indicator":
            z = (self.threshold - mean) / sd
            val = 0.5 * erfc(z / math.sqrt(2.0))
            grad = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * m_fac / sd
            return val, grad[:, None]
        kink = np.clip((self.threshold - mean) / sd, -11.0, 11.0)[:, None]
        edges = np.concatenate([np.full_like(kink, -12.0), kink - 1.0,
                                kink + 1.0, np.full_like(kink, 12.0)], axis=1)
        val = np.zeros_like(mean)
        grad = np.zeros_like(mean)
        for p in range(3):
            c = 0.5 * (edges[:, p + 1] + edges[:, p])[:, None]
            h = 0.5 * (edges[:, p + 1] - edges[:, p])[:, None]
            u = c + h * self._gl_x[None, :]
            dens = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
            w = h * self._gl_w[None, :] * dens
            pts = mean[:, None] + sd * u
            val += (self._f(pts) * w).sum(axis=1)
            grad += (self._fprime(pts) * w).sum(axis=1)
        return val, (m_fac * grad)[:, None]

    def _noise_map(self, grad):
        return self.noise * grad

    def bias_batch(self, t, X):
        self._check_time(t)
        m_fac, sd = self._transition(t)
        if self.terminal != "indicator" or sd <= 1e-13:
            return super().bias_batch(t, X)
        # hazard-rate form, stable arbitrarily deep in the tail
        x = np.asarray(X, dtype=float).reshape(-1)
        z = (self.threshold - m_fac * x) / sd
        hazard = math.sqrt(2.0 / math.pi) / erfcx(z / math.sqrt(2.0))
        u = self.multiplier * self.noise * m_fac / sd * hazard
        return u[:, None], 0


def ou_exact_controller(model: SdeModel, event: EventObservable, T: float,
                        multiplier=1.0) -> OuExactController:
    """The exact controller for ``event``: its mode is the terminal form,
    and its threshold and sharpness are the controller's."""
    if model.name != "ou1d" or model.linear_spec is None:
        raise InvalidParameterError("exact controller exists for ou1d only")
    if event.kind != "coordinate":
        raise InvalidParameterError("exact controller needs a threshold event")
    return OuExactController(model.params["rate"], model.params["noise"],
                             event.threshold, T, event.mode, event.sharpness,
                             multiplier)


def _adjoint_spectrum(reduced, q):
    """The exact degree-2 spectrum of the SPDE model's adjoint coordinate
    (``reduced``), normalized over the points q (m, 1)."""
    basis = build_basis("linear_exact", 1, 2)
    return eigenpairs(exact_koopman_matrix(basis, reduced), basis, q)


def fit_spde_controller(model, snapshots, event, T):
    """The Doob controller ``cli.prepare_controller`` fits on the mode
    ``snapshots``: (spectrum, controller)."""
    W, reduced = adjoint_model(model)
    q = rowlocal_product(snapshots, W)
    spec = _adjoint_spectrum(reduced, q)
    return spec, build_controller(spec, reduced, q,
                                  event.mollified(snapshots), T,
                                  coordinates=W)


def spde_quadratic_controller(model, f0, f2, T, multiplier=1.0):
    """The SPDE's Doob controller with value f0 + f2 exp(-2 mu1 (T - t))
    phi2(Y), phi2 = kappa <Y, w1>^2 - 1 and kappa = 2 mu1 / eps: the
    constant and the lambda = -2 mu1 components of the adjoint coordinate's
    exact spectrum, the second scaled to phi2."""
    W, reduced = adjoint_model(model)
    spec = _adjoint_spectrum(reduced, np.linspace(-1.0, 1.0, 5)[:, None])
    const, _, quad = realify_spectrum(spec)
    phi2 = _Component(quad.lam_re, 0.0, quad.c_re / -quad.c_re[0], None)
    return DoobController(spec.basis, [const, phi2], [f0, f2],
                          reduced.diffusion_const, T, multiplier,
                          coordinates=W)
