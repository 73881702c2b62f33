import math
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import erfc
from scipy.stats import chi2, ncx2

from koopmanis import make_builtin_model, make_event
from koopmanis import doob, estimator
from koopmanis.errors import (ConfigError, InvalidParameterError,
                              NumericalError, ShapeError)
from koopmanis.model import _linear_model
from koopmanis.paths import PathEnsemble, run_paths
from reference import ou_exact_controller


def _sf(z):
    return 0.5 * erfc(z / math.sqrt(2.0))


def _value_at_origin(ctrl):
    return ctrl.value_grad_batch(0.0, np.array([[0.0]]))[0][0]


def test_certain_event_has_zero_variance():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", -1e9, mode="indicator")  # f = 1 everywhere
    rep = estimator.run_ensemble(m, None, ev, [0.0], 0.5, 1e-2, M=100,
                                 master_seed=0)
    assert rep.estimate == 1.0
    assert rep.sample_variance == 0.0
    assert rep.proportion_in_event == 1.0


def test_mc_matches_exact_ou_probability():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    rep = estimator.run_ensemble(m, None, ev, [0.0], 1.0, 1e-3, M=100_000,
                                 master_seed=31)
    rho = 1.5745e-2
    se = math.sqrt(rho * (1 - rho) / 100_000)
    assert abs(rep.estimate - rho) < 3 * se
    assert rep.method == "mc"
    assert rep.proportion_in_event == rep.estimate


def test_indicator_mc_variance_identity():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 0.5, mode="indicator")
    rep = estimator.run_ensemble(m, None, ev, [0.0], 0.5, 1e-2, M=5000,
                                 master_seed=7)
    p, M = rep.estimate, rep.M
    assert rep.sample_variance == pytest.approx(p * (1 - p) * M / (M - 1),
                                                rel=1e-12)
    assert rep.relative_error_per_sample == pytest.approx(
        math.sqrt(rep.sample_variance) / p, rel=1e-12)


def test_report_requires_matching_horizon():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    ctrl = ou_exact_controller(m, ev, T=2.0)
    with pytest.raises(ConfigError):
        estimator.run_ensemble(m, ctrl, ev, [0.0], 1.0, 1e-2, M=10,
                               master_seed=0)


def test_oracle_ou_exact_value():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    res = estimator.analytic_oracles(m, ev, 1.0)
    assert res.cov[0, 0] == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)
    assert res.rho == pytest.approx(1.5745e-2, rel=5e-5)
    assert res.standard_error == 0.0


def test_oracle_brownian_oscillator():
    m = make_builtin_model("brownian_osc")
    ev = make_event("abs_coordinate", 3.0, mode="indicator")
    res = estimator.analytic_oracles(m, ev, 10.0)
    # stationary variance of the position is 1/(4 zeta omega^3) = 0.5
    assert res.cov[0, 0] == pytest.approx(0.5, abs=2e-4)
    ref = 2.0 * _sf(3.0 / math.sqrt(res.cov[0, 0]))
    assert res.rho == pytest.approx(ref, rel=1e-12)
    assert res.rho == pytest.approx(2.28e-5, rel=0.05)


def _centred_norm_tail_2d(cov, L):
    """P(|X| >= L) for X ~ N(0, cov) in 2-D by one quadrature over the
    first eigen-coordinate z: beyond the edge L / sqrt(d1) the event holds
    whatever the second coordinate; inside, the second must pass the rest
    of L^2."""
    d1, d2 = np.linalg.eigvalsh(cov)
    edge = L / math.sqrt(d1)

    def inside(z):
        dens = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        return 2.0 * _sf(math.sqrt((L * L - d1 * z * z) / d2)) * dens

    half, _ = quad(inside, 0.0, edge, epsabs=0.0, epsrel=1e-13, limit=200)
    return 2.0 * (half + _sf(edge))


def test_oracle_nonnormal_norm_event_vs_quadrature():
    m = make_builtin_model("nonnormal2d")
    ev = make_event("norm", 0.75, mode="indicator")
    res = estimator.analytic_oracles(m, ev, 10.0)
    ref = _centred_norm_tail_2d(res.cov, 0.75)
    assert res.method == "imhof" and res.standard_error == 0.0
    assert res.rho == pytest.approx(ref, rel=1e-8)
    assert ref == pytest.approx(1.596508e-5, rel=1e-6)
    # table-reported reference value is within ~5 percent of the exact law
    assert ref == pytest.approx(1.64e-5, rel=0.05)


def _isotropic_model(n):
    """dX = -X dt + sqrt(2) dW in n dimensions: X_T has covariance
    (1 - exp(-2T)) I and mean exp(-T) x0."""
    return _linear_model("isotropic", -np.eye(n), math.sqrt(2.0) * np.eye(n),
                         {})


@pytest.mark.parametrize("n", [1, 2, 3, 64])
@pytest.mark.parametrize("shift", [0.0, 1.5])
@pytest.mark.parametrize("tail", [1e-2, 1e-5])
def test_oracle_norm_event_vs_chi_square(n, shift, tail):
    """Equal variances s^2: |X_T|^2 / s^2 is chi-square with n degrees of
    freedom, noncentral with |mean|^2 / s^2 when x0 is off the origin."""
    T = 1.0
    var = 1.0 - math.exp(-2.0 * T)
    x0 = np.full(n, shift / math.sqrt(n))
    nc = float(np.sum((math.exp(-T) * x0) ** 2)) / var
    law = chi2(n) if shift == 0.0 else ncx2(n, nc)
    L = math.sqrt(var * law.isf(tail))
    res = estimator.analytic_oracles(
        _isotropic_model(n), make_event("norm", L, mode="indicator"), T, x0)
    assert res.rho == pytest.approx(law.sf(L * L / var), rel=1e-6)


def test_oracle_noncentral_norm_event_vs_dblquad():
    """nonnormal2d from x0 off the origin, against the Gaussian density
    integrated over the disc |x| < L in polar coordinates."""
    m = make_builtin_model("nonnormal2d")
    L, T, x0 = 0.5, 2.0, [0.6, -0.3]
    res = estimator.analytic_oracles(m, make_event("norm", L), T, x0)
    mean, cov = res.mean, res.cov
    prec = np.linalg.inv(cov)
    norm = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))

    def dens(r, phi):
        e = np.array([r * math.cos(phi), r * math.sin(phi)]) - mean
        return norm * math.exp(-0.5 * e @ prec @ e) * r

    disc, _ = dblquad(dens, 0.0, 2.0 * math.pi, 0.0, L, epsabs=1e-13,
                      epsrel=1e-12)
    assert 1e-3 < res.rho < 0.5
    assert res.rho == pytest.approx(1.0 - disc, rel=1e-6)


def test_oracle_deep_norm_tail_is_exact_or_an_error():
    """Far in the tail the integral's absolute error is the whole answer:
    the oracle either raises or agrees with the 1-D reference."""
    m = make_builtin_model("nonnormal2d")
    try:
        res = estimator.analytic_oracles(m, make_event("norm", 3.0), 10.0)
    except NumericalError:
        return
    assert res.rho == pytest.approx(_centred_norm_tail_2d(res.cov, 3.0),
                                    rel=1e-6)


def test_oracle_norm_event_without_spread_is_certain():
    """At T = 0 the law is a point mass at x0: every direction is
    degenerate and only the squared mean is left."""
    m = make_builtin_model("nonnormal2d")
    ev = make_event("norm", 0.5)
    assert estimator.analytic_oracles(m, ev, 0.0, [0.3, 0.5]).rho == 1.0
    assert estimator.analytic_oracles(m, ev, 0.0, [0.3, 0.3]).rho == 0.0


def test_oracle_rejects_nonlinear():
    m = make_builtin_model("vdp")
    ev = make_event("norm", 2.7, mode="indicator")
    with pytest.raises(InvalidParameterError):
        estimator.analytic_oracles(m, ev, 10.0)


def test_oracle_rejects_mollified_event():
    m = make_builtin_model("ou1d")
    with pytest.raises(InvalidParameterError):
        estimator.analytic_oracles(
            m, make_event("coordinate", 2.0, mode="mollified"), 1.0)


def test_oracle_reproducible():
    m = make_builtin_model("nonnormal2d")
    ev = make_event("norm", 0.75, mode="indicator")
    a = estimator.analytic_oracles(m, ev, 10.0)
    b = estimator.analytic_oracles(m, ev, 10.0)
    assert a.rho == b.rho
    assert a.standard_error == b.standard_error == 0.0


def test_exact_controller_value_matches_oracle():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    ctrl = ou_exact_controller(m, ev, 1.0)
    res = estimator.analytic_oracles(m, ev, 1.0)
    assert _value_at_origin(ctrl) == pytest.approx(res.rho, rel=1e-12)


def test_exact_controller_mollified_quadrature():
    """Quadrature value function vs direct numerical integration."""
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, sharpness=3.0, mode="mollified")
    ctrl = ou_exact_controller(m, ev, 1.0)
    sd = math.sqrt(1.0 - math.exp(-2.0))

    def integrand(y):
        f = 0.5 * (1.0 + math.tanh(3.0 * (y - 2.0)))
        return f * math.exp(-0.5 * (y / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

    ref, _ = quad(integrand, -12, 14, limit=300)
    assert _value_at_origin(ctrl) == pytest.approx(ref, rel=1e-6)


def test_exact_controller_bias_is_hazard_rate():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    ctrl = ou_exact_controller(m, ev, 1.0)
    # deep in the tail the hazard form stays finite and positive
    u, _ = ctrl.bias_batch(0.5, np.array([[-50.0]]))
    assert np.isfinite(u[0, 0]) and u[0, 0] > 0
    # consistency with value/grad where the tail is mild
    v, g = ctrl.value_grad_batch(0.3, np.array([[1.0]]))
    u2, _ = ctrl.bias_batch(0.3, np.array([[1.0]]))
    assert u2[0, 0] == pytest.approx(math.sqrt(2.0) * g[0, 0] / v[0],
                                     rel=1e-10)


def test_exact_controller_multiplier_tuning():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    ctrl = ou_exact_controller(m, ev, 1.0)
    res = doob.tune_multiplier(ctrl, m, ev, [0.0], 1.0, 1e-2,
                               grid=[0.5, 1.0], batch=100)
    assert res.multiplier in (0.5, 1.0)
    assert [row[0] for row in res.table] == [0.5, 1.0]
    assert ctrl.multiplier == 1.0


def test_report_determinism_bitwise():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    a = estimator.run_ensemble(m, None, ev, [0.0], 1.0, 1e-2, M=2000,
                               master_seed=42)
    b = estimator.run_ensemble(m, None, ev, [0.0], 1.0, 1e-2, M=2000,
                               master_seed=42, workers=3)
    assert a.estimate == b.estimate
    assert a.sample_variance == b.sample_variance
    assert a.csv_row() == b.csv_row()


def test_weight_overflow_raises(monkeypatch):
    """A surviving path whose weight overflows a double is a typed error,
    not an overflow warning and an inf or nan estimate."""
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    log_w = np.array([0.0, -3.0, 709.9, 712.5])
    ens = PathEnsemble(terminal=np.array([[3.0], [0.0], [3.0], [0.0]]),
                       log_weight=log_w, blown=np.zeros(4, bool),
                       floored=np.zeros(4, int), K=100, dt=1e-2)
    monkeypatch.setattr(estimator, "run_paths", lambda *a, **k: ens)
    with pytest.raises(NumericalError, match="2 path weights overflow.*712.5"):
        estimator.run_ensemble(m, None, ev, [0.0], 1.0, 1e-2, M=4)
    # finite weights whose squared deviations overflow: the check bounds
    # log w by (log(max double) - log 4) / 2 = 354.2
    log_w[2:] = 360.0
    with pytest.raises(NumericalError, match="2 path weights overflow"):
        estimator.run_ensemble(m, None, ev, [0.0], 1.0, 1e-2, M=4)
    log_w[2:] = 300.0  # finite weights still reduce
    rep = estimator.run_ensemble(m, None, ev, [0.0], 1.0, 1e-2, M=4)
    assert math.isfinite(rep.estimate)
    assert math.isfinite(rep.sample_variance)


def test_presimulated_rows_reduce_like_the_ensemble():
    """run_ensemble on rows simulated beforehand is the one reduction of
    the ensemble it would simulate itself; the row count must be M."""
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 1.0, mode="indicator")
    rep = estimator.run_ensemble(m, None, ev, [0.0], 1.0, 1e-2, M=300,
                                 master_seed=4)
    ens = run_paths(m, None, [0.0], 1.0, 1e-2, M=300, master_seed=4)
    again = estimator.run_ensemble(m, None, ev, [0.0], 1.0, 1e-2, M=300,
                                   master_seed=4, ensemble=ens)
    assert again.csv_row() == rep.csv_row()
    with pytest.raises(ShapeError, match="300 rows, not M = 200"):
        estimator.run_ensemble(m, None, ev, [0.0], 1.0, 1e-2, M=200,
                               ensemble=ens)


def test_csv_row_schema():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    rep = estimator.run_ensemble(m, None, ev, [0.0], 0.5, 1e-2, M=100,
                                 master_seed=1)
    row = rep.csv_row()
    assert len(row) == len(estimator.CSV_COLUMNS)
    assert row[0] == "mc" and row[1] == "ou1d"
    assert row[-1] == 0  # blowup count


def test_the_report_keeps_statistics_not_terminal_states():
    """The report keeps every row's event statistic, the trajectory rows
    (the last one off the stride grid) and the weights, and drops the
    (M, d) terminal states."""
    m = make_builtin_model("brownian_osc")
    ev = make_event("abs_coordinate", 1.0)
    args = (m, None, [0.0, 0.0], 1.0, 1e-2)
    kw = dict(M=50, master_seed=3, trajectory_count=2, trajectory_stride=30)
    ens = run_paths(*args, **kw)
    rep = estimator.run_ensemble(m, None, ev, *args[2:], **kw)
    assert rep.ensemble.terminal is None
    assert rep.statistic.tobytes() == ev.statistic(ens.terminal).tobytes()
    assert rep.ensemble.log_weight.tobytes() == ens.log_weight.tobytes()
    assert rep.ensemble.K == 100
    want = ens.trajectories
    assert len(rep.trajectories) == len(want) == 2 * (1 + 3 + 1)
    for (p, t, x), (p_ref, t_ref, x_ref) in zip(rep.trajectories, want):
        assert (p, t, x.tobytes()) == (p_ref, t_ref, x_ref.tobytes())


@pytest.mark.parametrize("model, kind, threshold, x0, want", [
    ("ou1d", "coordinate", 0.0, None, 0.0),
    ("ou1d", "coordinate", -1.0, None, 1.0),
    ("brownian_osc", "abs_coordinate", 0.0, None, 0.0),
    ("brownian_osc", "abs_coordinate", 0.5, [-0.6, 0.0], 1.0),
    ("nonnormal2d", "norm", 0.0, None, 0.0),
    ("nonnormal2d", "norm", 1.0, [0.6, 0.8], 0.0),
    ("nonnormal2d", "norm", 0.9, [0.6, 0.8], 1.0)])
def test_the_oracle_of_a_point_mass_is_the_indicator_at_its_mean(
        model, kind, threshold, x0, want):
    """At T = 0 the law is a point mass at x0, and the strict event holds
    there or not.  A coordinate event whose threshold was the start gave
    nan (0 / 0, with a RuntimeWarning), one below it 1 with a divide
    warning, and a norm event on its own boundary |x0| = L gave 1."""
    m = make_builtin_model(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = estimator.analytic_oracles(m, make_event(kind, threshold), 0.0,
                                         x0)
    assert res.rho == want and res.method == "point_mass"
    assert res.standard_error == 0.0


@pytest.mark.parametrize("kind", ["coordinate", "abs_coordinate"])
def test_a_coordinate_the_noise_never_reaches_is_a_point_mass(kind):
    """At T > 0 a coordinate with no variance sits at its mean e^{-T} x0,
    so the oracle is the event's indicator there."""
    m = _linear_model("half-noisy", -np.eye(2), np.array([[1.0], [0.0]]),
                      {})
    mean = estimator.terminal_gaussian(m, 1.0, [0.0, 1.0])[0][1]
    assert mean == pytest.approx(math.exp(-1.0), rel=1e-14)
    for L, want in ((mean - 1e-9, 1.0), (mean, 0.0)):
        ev = make_event(kind, L, component=1)
        res = estimator.analytic_oracles(m, ev, 1.0, [0.0, 1.0])
        assert res.cov[1, 1] == 0.0
        assert (res.rho, res.method) == (want, "point_mass")


@pytest.mark.parametrize("T", [-1.0, -1e-12, math.nan, math.inf])
def test_the_oracle_horizon_must_be_finite_and_not_negative(T):
    """A negative T once ended in a raw math domain error, and a nan one
    in a raw ValueError; T = 0, the point mass at x0, stays answerable."""
    m = make_builtin_model("ou1d")
    with pytest.raises(InvalidParameterError, match="T must be finite"):
        estimator.analytic_oracles(m, make_event("coordinate", 2.0), T)
