"""Monte Carlo and importance-sampling ensembles, plus analytic oracles.

Every model's ensemble, the SPDE's included, is simulated by one call,
``paths.run_paths``, and reduced here.  Per-path weighted outcomes are
reduced in path-index order with exact (compensated) summation, so a
report is a pure function of (config, seed).  For constant-coefficient
linear models the terminal law is Gaussian with covariance from
``paths.linear_gaussian``; coordinate events then have closed-form
Gaussian tails, and norm events the exact tail of a quadratic form in
Gaussians (Imhof's integral).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import erfc

from .errors import (ConfigError, InvalidParameterError, NumericalError,
                     ShapeError)
from .model import EventObservable, SdeModel
from .paths import PathEnsemble, linear_gaussian, run_paths

# bound only for the benchmark's layer trace, which patches it by this name;
# ROADMAP item 5 deletes it together with the trace
run_spde_paths = run_paths

CSV_COLUMNS = ("method", "model", "estimate", "variance", "relative_error",
               "proportion_in_event", "M", "dt", "seed", "c",
               "N_eigenfunctions", "blowup_count")
_LOG_MAX_DOUBLE = math.log(np.finfo(float).max)
# absolute tolerance of each Imhof quadrature: at 1e-14 QAWF reports bad
# integrand behaviour, at 1e-12 deep tails lose their leading digits
_IMHOF_EPSABS = 1e-13


@dataclass(eq=False)
class EstimatorReport:
    """One ensemble's estimate and health counts.  The report keeps the
    event statistic of every row and the trajectory rows, not the terminal
    states: ``ensemble`` is the simulated ensemble without its terminal
    states and snapshots (its log-weights, blow-up and floor counts, K and
    dt)."""

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
    floor_count: int = 0    # path-steps driven by a floored Phi, held ones too
    multiplier: float | None = None
    n_eigenfunctions: int | None = None
    ensemble: PathEnsemble | None = field(default=None, repr=False)
    # the event statistic of every row, blown rows included
    statistic: np.ndarray | None = field(default=None, repr=False)
    trajectories: list = field(default_factory=list, repr=False)

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
                 dt=1e-3, M=2, master_seed=0, workers=1,
                 trajectory_count=0, trajectory_stride=None,
                 ensemble=None) -> EstimatorReport:
    """Estimate E[f(X_T)] over M paths, optionally under a biasing controller.

    The paths come from ``paths.run_paths``, or are ``ensemble`` when it
    is given: M rows already simulated with this controller, such as one
    multiplier's rows of the stacked sweep in ``doob.tune_multiplier``.
    Per-path outcomes are f(X_T) exp(log_weight) with f the strict
    indicator (or the mollified surrogate when the observable is in
    mollified mode).  Blown-up paths are excluded from the estimate but
    counted in ``blowup_count``.  A surviving path whose
    weight is too large for the variance to stay finite, above
    sqrt(max double / n) for n surviving paths, raises ``NumericalError``.
    The event is evaluated once on the surviving terminal states; its
    indicator gives both the hit fraction and, in indicator mode, f.
    """
    if M < 2:
        raise ConfigError("need at least two paths")
    ens = ensemble
    if ens is None:
        ens = run_paths(model, controller, x0, T, dt, M, master_seed,
                        workers, trajectory_count, trajectory_stride)
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
        else controller.n_eigenfunctions,
        ensemble=replace(ens, terminal=None, snapshots=()),
        statistic=obs.statistic(ens.terminal),
        trajectories=ens.trajectories)


def terminal_gaussian(model: SdeModel, T: float, x0=None):
    """Mean and covariance of X_T for a constant-coefficient linear model,
    from ``paths.linear_gaussian``."""
    if model.linear_spec is None:
        raise InvalidParameterError("analytic law requires a linear model")
    A, B = model.linear_spec
    E, _, cov = linear_gaussian(A, B, T)
    return E @ (np.zeros(len(A)) if x0 is None else np.asarray(x0, float)), cov


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
    norm event |X_T| > L is, in the eigenbasis V diag(v) V^T of the
    terminal covariance, sum_i v_i (Z_i + delta_i)^2 > L^2 with
    delta = V^T m / sqrt(v); its tail is Imhof's integral.  A direction
    with variance at most 1e-14 of the largest adds only its squared mean,
    which is taken off L^2.  A law with no variance on what the event
    reads (the coordinate's, or any for a norm event; always so at T = 0)
    is a point mass at the mean m, and the result is the event's
    indicator at m (method "point_mass").  The result is the indicator
    probability, so the event must be in indicator mode, and T finite and
    >= 0.  Every method is deterministic and reports a standard error of
    0.
    """
    if not (math.isfinite(T) and T >= 0):
        raise InvalidParameterError(f"T must be finite and >= 0, got {T!r}")
    if event.mode != "indicator":
        raise InvalidParameterError(
            f"the oracle gives P(X_T in E), not E[f] for a {event.mode!r} "
            "event; build the event with mode='indicator'")
    mean, cov = terminal_gaussian(model, T, x0)
    i = event.component
    L = event.threshold
    if event.kind in ("coordinate", "abs_coordinate") and cov[i, i] == 0 \
            or event.kind == "norm" and not cov.any():
        return OracleResult(float(event.indicator(mean)), 0.0, mean, cov,
                            "point_mass")
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
        else:
            rho = _imhof_tail(vals[live], proj[live] ** 2 / vals[live], x)
        return OracleResult(rho, 0.0, mean, cov, "imhof")
    raise InvalidParameterError(f"no oracle for event kind {event.kind!r}")
