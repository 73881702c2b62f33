"""Monte Carlo and importance-sampling ensembles, plus analytic oracles.

Per-path weighted outcomes are reduced in path-index order with exact
(compensated) summation, so a report is a pure function of (config, seed).
For constant-coefficient linear models the terminal law is Gaussian with
covariance from the integrated Lyapunov equation; half-space and
coordinate events then have closed-form probabilities, norm events use a
large diagonal-Gaussian Monte Carlo with a reported standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import erfc, erfcx

from .doob import Controller
from .errors import ConfigError, DiagnosticError, InvalidParameterError
from .model import EventObservable, SdeModel
from .paths import PathEnsemble, derive_path_rng, run_paths
from .spde import run_spde_paths

CSV_COLUMNS = ("method", "model", "estimate", "variance", "relative_error",
               "proportion_in_event", "M", "dt", "seed", "c",
               "N_eigenfunctions", "blowup_count")


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


def run_ensemble(model: SdeModel, controller, obs: EventObservable, x0, T,
                 dt=1e-3, scheme=None, M=2, master_seed=0, workers=1,
                 block_size=8192, trajectory_count=0,
                 trajectory_stride=None) -> EstimatorReport:
    """Estimate E[f(X_T)] over M paths, optionally under a biasing controller.

    Per-path outcomes are f(X_T) exp(log_weight) with f the strict
    indicator (or the mollified surrogate when the observable is in
    mollified mode).  Blown-up paths are excluded from the estimate but
    counted, and flag the report as unreliable.
    """
    if M < 2:
        raise ConfigError("need at least two paths")
    if controller is not None and abs(controller.horizon - T) > 1e-12:
        raise ConfigError(
            f"controller horizon {controller.horizon} != ensemble horizon {T}")
    if model.spde is not None:
        y0 = np.zeros(model.spde.n_modes) if x0 is None else np.asarray(x0, float)
        ens = run_spde_paths(model.spde, controller, obs, y0, T, dt, M,
                             master_seed, block_size=min(block_size, 2048),
                             workers=workers)
    else:
        ens = run_paths(model, controller, obs, x0, T, dt, scheme, M,
                        master_seed, block_size=block_size, workers=workers,
                        trajectory_count=trajectory_count,
                        trajectory_stride=trajectory_stride)
    ok = ~ens.blown
    n_ok = int(ok.sum())
    blowups = M - n_ok
    if n_ok < 2:
        raise ConfigError("fewer than two paths survived; cannot estimate")
    fvals = obs.value(ens.terminal[ok])
    outcomes = fvals * np.exp(ens.log_weight[ok])
    estimate, variance = _fsum_mean_var(outcomes)
    proportion = math.fsum(ens.in_event[ok].astype(float)) / n_ok
    rel = math.sqrt(variance) / estimate if estimate > 0 else math.inf
    return EstimatorReport(
        method="mc" if controller is None else "is",
        model_name=model.name, estimate=estimate, sample_variance=variance,
        relative_error_per_sample=rel, proportion_in_event=proportion,
        M=n_ok, master_seed=master_seed, dt=ens.dt, blowup_count=blowups,
        floor_count=ens.floor_count,
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


def _norm_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


@dataclass(eq=False)
class OracleResult:
    rho: float
    standard_error: float
    mean: np.ndarray
    cov: np.ndarray
    method: str


def analytic_oracles(model: SdeModel, event: EventObservable, T: float,
                     x0=None, norm_mc_samples: int = 10_000_000,
                     seed: int = 0) -> OracleResult:
    """Reference probability of the event at time T for linear models.

    Coordinate and absolute-coordinate events use 1-D Gaussian tails; norm
    events use diagonal-Gaussian Monte Carlo with a reported standard
    error.  The result is the indicator probability, so the event must be
    in indicator mode.
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
        vals = np.clip(vals, 0.0, None)
        scale = np.sqrt(vals)
        rng = derive_path_rng(seed, 0)
        hits = 0
        done = 0
        chunk = min(norm_mc_samples, 500_000)
        L2 = L * L
        while done < norm_mc_samples:
            nb = min(chunk, norm_mc_samples - done)
            Z = rng.standard_normal((nb, len(vals)))
            X = mean + (Z * scale) @ vecs.T
            hits += int(((X * X).sum(axis=1) >= L2).sum())
            done += nb
        rho = hits / norm_mc_samples
        se = math.sqrt(max(rho * (1.0 - rho), 0.0) / norm_mc_samples)
        return OracleResult(rho, se, mean, cov, "diagonal_gaussian_mc")
    raise InvalidParameterError(f"no oracle for event kind {event.kind!r}")


class OuExactController(Controller):
    """Exact biasing for the 1-D linear model from its Gaussian transition.

    The value function E[f(X_T) | X_t = x] is evaluated in closed form for
    the indicator terminal function and by Gauss-Hermite quadrature for the
    mollified one (which is the C^2, strictly positive setting in which the
    weighted outcome is constant path-by-path up to discretization error).
    The B-map is the noise intensity.
    """

    def __init__(self, rate, noise, threshold, T, terminal="mollified",
                 sharpness=3.0, multiplier=1.0, quad_nodes=96):
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
        # three panels of [-12, 12] with the middle panel tracking the
        # mollifier transition, which keeps every panel well clear of the
        # tanh poles
        self._gl_x, self._gl_w = np.polynomial.legendre.leggauss(
            max(8, quad_nodes // 3))

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

    def bias_batch(self, t, X):
        self._check_time(t)
        x = np.asarray(X, dtype=float).reshape(-1)
        m_fac, sd = self._transition(t)
        if self.terminal == "indicator" and sd > 1e-13:
            # hazard-rate form, stable arbitrarily deep in the tail
            z = (self.threshold - m_fac * x) / sd
            hazard = math.sqrt(2.0 / math.pi) / erfcx(z / math.sqrt(2.0))
            u = self.multiplier * self.noise * m_fac / sd * hazard
            return u[:, None], 0
        val, grad = self.value_grad_batch(t, X)
        denom, nf = self._floor(val)
        return self.multiplier * self.noise * grad / denom[:, None], nf

    def value_at_origin(self, x0) -> float:
        val, _ = self.value_grad_batch(0.0, np.asarray(x0, float).reshape(1))
        return float(val[0])


def ou_exact_controller(model: SdeModel, event: EventObservable, T: float,
                        terminal="mollified", multiplier=1.0) -> OuExactController:
    if model.name != "ou1d" or model.linear_spec is None:
        raise InvalidParameterError("exact controller exists for ou1d only")
    if event.kind != "coordinate":
        raise InvalidParameterError("exact controller needs a threshold event")
    return OuExactController(model.params["rate"], model.params["noise"],
                             event.threshold, T, terminal, event.sharpness,
                             multiplier)


def second_moment_bound(controller, x0, event_samples):
    """Upper bound on the estimator second moment from the value surrogate.

    Uses exp(2 log Phi(0, x0) - 2 min_y log Phi(T, y)) over the supplied
    finite sample of the event; the finite minimum only upper-bounds the
    true infimum, so the bound is approximate in that one respect.
    """
    event_samples = np.atleast_2d(np.asarray(event_samples, dtype=float))
    v0, _ = controller.value_grad_batch(0.0, np.asarray(x0, float).reshape(1, -1))
    v0 = float(v0[0])
    vT, _ = controller.value_grad_batch(controller.horizon, event_samples)
    vT = np.asarray(vT, dtype=float).reshape(-1)
    if v0 <= 0 or np.any(vT <= 0):
        raise DiagnosticError(
            "value surrogate is non-positive on the event sample; "
            "positivization insufficient")
    min_log = float(np.log(vT).min())
    bound = math.exp(2.0 * math.log(v0) - 2.0 * min_log)
    return bound, {"log_phi0": math.log(v0), "min_log_phiT": min_log}
