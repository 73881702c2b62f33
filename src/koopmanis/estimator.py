"""Monte Carlo and importance-sampling ensembles, plus analytic oracles.

Per-path weighted outcomes are reduced in path-index order with exact
(compensated) summation, so a report is a pure function of (config, seed).
For constant-coefficient linear models the terminal law is Gaussian with
covariance from the integrated Lyapunov equation; coordinate events then
have closed-form Gaussian tails, and norm events the exact tail of a
quadratic form in Gaussians (Imhof's integral).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import erfc, erfcx

from .doob import Controller
from .errors import (ConfigError, InvalidParameterError, NumericalError,
                     ShapeError)
from .model import EventObservable, SdeModel
from .paths import PathEnsemble, run_paths
from .spde import run_spde_paths

CSV_COLUMNS = ("method", "model", "estimate", "variance", "relative_error",
               "proportion_in_event", "M", "dt", "seed", "c",
               "N_eigenfunctions", "blowup_count")
_LOG_MAX_DOUBLE = math.log(np.finfo(float).max)
# absolute tolerance of each Imhof quadrature: at 1e-14 QAWF reports bad
# integrand behaviour, at 1e-12 deep tails lose their leading digits
_IMHOF_EPSABS = 1e-13


@dataclass(eq=False)
class EstimatorReport:
    method: str
    model_name: str
    estimate: float
    sample_variance: float
    relative_error_per_sample: float
    proportion_in_event: float
    M: int
    master_seed: int
    dt: float
    blowup_count: int = 0
    floor_count: int = 0
    multiplier: float | None = None
    n_eigenfunctions: int | None = None
    unreliable: bool = False
    ensemble: PathEnsemble | None = field(default=None, repr=False)

    @property
    def standard_error(self) -> float:
        return math.sqrt(self.sample_variance / self.M)

    def csv_row(self) -> list:
        return [self.method, self.model_name, repr(self.estimate),
                repr(self.sample_variance),
                repr(self.relative_error_per_sample),
                repr(self.proportion_in_event), self.M, repr(self.dt),
                self.master_seed,
                "" if self.multiplier is None else repr(self.multiplier),
                "" if self.n_eigenfunctions is None else self.n_eigenfunctions,
                self.blowup_count]


def _fsum_mean_var(values):
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((values - mean) ** 2) / (n - 1) if n > 1 else 0.0
    return mean, var


def simulate_ensemble(model: SdeModel, controller, x0, T, dt=1e-3,
                      scheme=None, M=2, master_seed=0, workers=1,
                      trajectory_count=0, trajectory_stride=None,
                      path_index=None) -> PathEnsemble:
    """The M-row ensemble of ``run_ensemble``, simulated and not reduced:
    SDE models run through ``run_paths``, SPDE models through
    ``run_spde_paths`` (from the zero field when x0 is None).  Row i is
    path ``path_index[i]`` (default i) of ``master_seed``."""
    if controller is not None and abs(controller.horizon - T) > 1e-12:
        raise ConfigError(
            f"controller horizon {controller.horizon} != ensemble horizon {T}")
    if model.spde is not None:
        return run_spde_paths(model.spde, controller, x0, T, dt, M,
                              master_seed, workers, trajectory_count,
                              trajectory_stride, path_index)
    return run_paths(model, controller, x0, T, dt, scheme, M, master_seed,
                     workers, trajectory_count, trajectory_stride,
                     path_index)


def run_ensemble(model: SdeModel, controller, obs: EventObservable, x0, T,
                 dt=1e-3, scheme=None, M=2, master_seed=0, workers=1,
                 trajectory_count=0, trajectory_stride=None,
                 ensemble=None) -> EstimatorReport:
    """Estimate E[f(X_T)] over M paths, optionally under a biasing controller.

    The paths come from ``simulate_ensemble``, or are ``ensemble`` when it
    is given: M rows already simulated with this controller, such as one
    multiplier's rows of the stacked sweep in ``doob.tune_multiplier``.
    Per-path outcomes are f(X_T) exp(log_weight) with f the strict
    indicator (or the mollified surrogate when the observable is in
    mollified mode).  Blown-up paths are excluded from the estimate but
    counted, and flag the report as unreliable.  A surviving path whose
    weight is too large for the variance to stay finite, above
    sqrt(max double / n) for n surviving paths, raises ``NumericalError``.
    The event is evaluated once on the surviving terminal states; its
    indicator gives both the hit fraction and, in indicator mode, f.
    """
    if M < 2:
        raise ConfigError("need at least two paths")
    ens = ensemble
    if ens is None:
        ens = simulate_ensemble(model, controller, x0, T, dt, scheme, M,
                                master_seed, workers, trajectory_count,
                                trajectory_stride)
    elif len(ens.terminal) != M:
        raise ShapeError(f"ensemble has {len(ens.terminal)} rows, not M = {M}")
    ok = ~ens.blown
    n_ok = int(ok.sum())
    blowups = M - n_ok
    if n_ok < 2:
        raise ConfigError("fewer than two paths survived; cannot estimate")
    log_w = ens.log_weight[ok]
    # weights up to sqrt(max double / n) keep every square of the variance
    # and their sum finite
    limit = 0.5 * (_LOG_MAX_DOUBLE - math.log(n_ok))
    n_big = int(np.count_nonzero(log_w > limit))
    if n_big:
        raise NumericalError(
            f"{n_big} path weights overflow: largest log-weight "
            f"{float(log_w.max()):.6g} exceeds {limit:.6g}")
    terminal = ens.terminal[ok]
    hits = obs.indicator(terminal)
    f = hits if obs.mode == "indicator" else obs.mollified(terminal)
    estimate, variance = _fsum_mean_var(f * np.exp(log_w))
    proportion = math.fsum(hits) / n_ok
    rel = math.sqrt(variance) / estimate if estimate > 0 else math.inf
    return EstimatorReport(
        method="mc" if controller is None else "is",
        model_name=model.name, estimate=estimate, sample_variance=variance,
        relative_error_per_sample=rel, proportion_in_event=proportion,
        M=n_ok, master_seed=master_seed, dt=ens.dt, blowup_count=blowups,
        floor_count=int(np.sum(ens.floored)),
        multiplier=None if controller is None else controller.multiplier,
        n_eigenfunctions=None if controller is None
        else getattr(controller, "n_eigenfunctions", None),
        unreliable=blowups > 0, ensemble=ens)


def terminal_gaussian(model: SdeModel, T: float, x0=None):
    """Mean and covariance of X_T for a constant-coefficient linear model.

    Stable drift uses the stationary Lyapunov solution (well-conditioned
    even for stiff mode matrices); otherwise the finite-horizon covariance
    comes from the doubled-system exponential.
    """
    if model.linear_spec is None:
        raise InvalidParameterError("analytic law requires a linear model")
    A, B = model.linear_spec
    d = A.shape[0]
    eAT = expm(A * T)
    mean = eAT @ (np.zeros(d) if x0 is None else np.asarray(x0, float))
    if np.all(np.linalg.eigvals(A).real < 0):
        from scipy.linalg import solve_continuous_lyapunov
        sigma_inf = solve_continuous_lyapunov(A, -B @ B.T)
        cov = sigma_inf - eAT @ sigma_inf @ eAT.T
    else:
        block = np.zeros((2 * d, 2 * d))
        block[:d, :d] = A
        block[:d, d:] = B @ B.T
        block[d:, d:] = -A.T
        E = expm(block * T)
        cov = E[:d, d:] @ E[:d, :d].T
    cov = 0.5 * (cov + cov.T)
    return mean, cov


def _norm_sf(z):
    return 0.5 * erfc(z / math.sqrt(2.0))


@dataclass(eq=False)
class OracleResult:
    rho: float
    standard_error: float
    mean: np.ndarray
    cov: np.ndarray
    method: str


def _imhof_tail(lam, delta2, x):
    """P(sum_i lam_i (Z_i + delta_i)^2 > x) for independent standard
    normal Z_i, lam_i > 0 and x > 0, from Imhof's (1961) integral
    1/2 + 1/pi int_0^inf sin(theta(u) - x u/2) / (u rho(u)) du.

    [0, 4 pi / x] is an ordinary adaptive quadrature.  Beyond it the
    oscillation is split off, sin(theta - x u/2) = sin(theta) cos(x u/2) -
    cos(theta) sin(x u/2), and QUADPACK's QAWF integrates the slowly
    decaying envelopes against cos and sin.  An integration warning, or an
    error bound above 1e-6 of the result, raises ``NumericalError``.
    """
    from scipy.integrate import IntegrationWarning, quad

    def integrand(u, trig, shift):
        lu = lam * u
        q = lu * lu
        s = 1.0 + q
        theta = 0.5 * float(np.sum(np.arctan(lu) + delta2 * lu / s))
        log_rho = float(np.sum(0.25 * np.log1p(q) + 0.5 * delta2 * q / s))
        return trig(theta - shift * u) * math.exp(-log_rho) / u

    a = 4.0 * math.pi / x
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            parts = [
                quad(integrand, 0.0, a, (math.sin, 0.5 * x),
                     epsabs=_IMHOF_EPSABS, epsrel=0.0, limit=200),
                quad(integrand, a, np.inf, (math.sin, 0.0), weight="cos",
                     wvar=0.5 * x, epsabs=_IMHOF_EPSABS),
                quad(integrand, a, np.inf, (math.cos, 0.0), weight="sin",
                     wvar=0.5 * x, epsabs=_IMHOF_EPSABS)]
    except IntegrationWarning as exc:
        raise NumericalError(f"Imhof integral for P(Q > {x:.6g}): {exc}") \
            from exc
    (i0, e0), (i1, e1), (i2, e2) = parts
    rho = 0.5 + (i0 + i1 - i2) / math.pi
    err = (e0 + e1 + e2) / math.pi
    if not err <= 1e-6 * rho:
        raise NumericalError(
            f"Imhof integral for P(Q > {x:.6g}) = {rho:.6g} has error bound "
            f"{err:.2g}, above 1e-6 of the value")
    return rho


def analytic_oracles(model: SdeModel, event: EventObservable, T: float,
                     x0=None) -> OracleResult:
    """Exact probability of the event at time T for linear models.

    Coordinate and absolute-coordinate events use 1-D Gaussian tails.  A
    norm event |X_T| >= L is, in the eigenbasis V diag(v) V^T of the
    terminal covariance, sum_i v_i (Z_i + delta_i)^2 >= L^2 with
    delta = V^T m / sqrt(v); its tail is Imhof's integral.  A direction
    with variance at most 1e-14 of the largest adds only its squared mean,
    which is taken off L^2.  The result is the indicator probability, so
    the event must be in indicator mode.  Every method is deterministic
    and reports a standard error of 0.
    """
    if event.mode != "indicator":
        raise InvalidParameterError(
            f"the oracle gives P(X_T in E), not E[f] for a {event.mode!r} "
            "event; build the event with mode='indicator'")
    mean, cov = terminal_gaussian(model, T, x0)
    i = event.component
    L = event.threshold
    if event.kind == "coordinate":
        sd = math.sqrt(cov[i, i])
        rho = float(_norm_sf((L - mean[i]) / sd))
        return OracleResult(rho, 0.0, mean, cov, "gaussian_tail")
    if event.kind == "abs_coordinate":
        sd = math.sqrt(cov[i, i])
        rho = float(_norm_sf((L - mean[i]) / sd)
                    + _norm_sf((L + mean[i]) / sd))
        return OracleResult(rho, 0.0, mean, cov, "gaussian_tail")
    if event.kind == "norm":
        vals, vecs = np.linalg.eigh(cov)
        proj = vecs.T @ mean
        live = vals > 1e-14 * vals.max()
        x = L * L - math.fsum(proj[~live] ** 2)
        if x <= 0.0:
            rho = 1.0
        elif not live.any():
            rho = 0.0
        else:
            rho = _imhof_tail(vals[live], proj[live] ** 2 / vals[live], x)
        return OracleResult(rho, 0.0, mean, cov, "imhof")
    raise InvalidParameterError(f"no oracle for event kind {event.kind!r}")


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
