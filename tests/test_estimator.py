import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from koopmanis import make_builtin_model, make_event
from koopmanis import doob, estimator
from koopmanis.errors import ConfigError, DiagnosticError, InvalidParameterError


def _sf(z):
    return 0.5 * erfc(z / math.sqrt(2.0))


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
    ctrl = estimator.ou_exact_controller(m, ev, T=2.0)
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


def test_oracle_nonnormal_norm_event_vs_quadrature():
    m = make_builtin_model("nonnormal2d")
    ev = make_event("norm", 0.75, mode="indicator")
    res = estimator.analytic_oracles(m, ev, 10.0, norm_mc_samples=4_000_000,
                                     seed=3)
    d1, d2 = np.linalg.eigvalsh(res.cov)
    L = 0.75

    def integrand(z):
        rem = L * L - d1 * z * z
        dens = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        if rem <= 0:
            return dens
        return 2.0 * _sf(math.sqrt(rem / d2)) * dens

    ref, _ = quad(integrand, -40, 40, limit=400)
    assert abs(res.rho - ref) < 4 * res.standard_error + 1e-12
    assert ref == pytest.approx(1.5965e-5, rel=1e-3)
    # table-reported reference value is within ~5 percent of the exact law
    assert ref == pytest.approx(1.64e-5, rel=0.05)


def test_oracle_rejects_nonlinear():
    m = make_builtin_model("vdp")
    ev = make_event("norm", 2.7, mode="indicator")
    with pytest.raises(InvalidParameterError):
        estimator.analytic_oracles(m, ev, 10.0)


def test_oracle_rejects_mollified_event():
    m = make_builtin_model("ou1d")
    with pytest.raises(InvalidParameterError):
        estimator.analytic_oracles(m, make_event("coordinate", 2.0), 1.0)


def test_oracle_reproducible():
    m = make_builtin_model("nonnormal2d")
    ev = make_event("norm", 0.75, mode="indicator")
    a = estimator.analytic_oracles(m, ev, 10.0, norm_mc_samples=200_000, seed=5)
    b = estimator.analytic_oracles(m, ev, 10.0, norm_mc_samples=200_000, seed=5)
    assert a.rho == b.rho


def test_exact_controller_value_matches_oracle():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    ctrl = estimator.ou_exact_controller(m, ev, 1.0, terminal="indicator")
    res = estimator.analytic_oracles(m, ev, 1.0)
    assert ctrl.value_at_origin([0.0]) == pytest.approx(res.rho, rel=1e-12)


def test_exact_controller_mollified_quadrature():
    """Quadrature value function vs direct numerical integration."""
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, sharpness=3.0, mode="mollified")
    ctrl = estimator.ou_exact_controller(m, ev, 1.0, terminal="mollified")
    sd = math.sqrt(1.0 - math.exp(-2.0))

    def integrand(y):
        f = 0.5 * (1.0 + math.tanh(3.0 * (y - 2.0)))
        return f * math.exp(-0.5 * (y / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

    ref, _ = quad(integrand, -12, 14, limit=300)
    assert ctrl.value_at_origin([0.0]) == pytest.approx(ref, rel=1e-6)


def test_exact_controller_bias_is_hazard_rate():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    ctrl = estimator.ou_exact_controller(m, ev, 1.0, terminal="indicator")
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
    ctrl = estimator.ou_exact_controller(m, ev, 1.0, terminal="indicator")
    res = doob.tune_multiplier(ctrl, m, ev, [0.0], 1.0, 1e-2,
                               grid=[0.5, 1.0], batch=100)
    assert res.multiplier in (0.5, 1.0)
    assert [row[0] for row in res.table] == [0.5, 1.0]
    assert ctrl.multiplier == 1.0


def test_second_moment_bound_cases():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    ctrl = estimator.ou_exact_controller(m, ev, 1.0, terminal="indicator")
    samples = np.linspace(2.001, 6.0, 500)[:, None]
    # terminal values equal the indicator = 1 on the event, so the bound
    # collapses to rho^2 (the zero-variance case)
    bound, terms = estimator.second_moment_bound(ctrl, [0.0], samples)
    rho = estimator.analytic_oracles(m, ev, 1.0).rho
    assert bound == pytest.approx(rho * rho, rel=1e-9)
    assert terms["min_log_phiT"] == pytest.approx(0.0, abs=1e-12)


def test_second_moment_bound_constant_surrogate():
    class Flat:
        horizon = 1.0

        def value_grad_batch(self, t, X):
            return np.full(len(np.atleast_2d(X)), 3.7), None

    bound, _ = estimator.second_moment_bound(Flat(), [0.0],
                                             np.ones((4, 1)) * 3.0)
    assert bound == pytest.approx(1.0)


def test_second_moment_bound_rejects_nonpositive():
    class Bad:
        horizon = 1.0

        def value_grad_batch(self, t, X):
            X = np.atleast_2d(X)
            return np.where(X[:, 0] > 2.5, -1.0, 0.5), None

    with pytest.raises(DiagnosticError):
        estimator.second_moment_bound(Bad(), [0.0], np.array([[3.0]]))


def test_report_determinism_bitwise():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    a = estimator.run_ensemble(m, None, ev, [0.0], 1.0, 1e-2, M=2000,
                               master_seed=42)
    b = estimator.run_ensemble(m, None, ev, [0.0], 1.0, 1e-2, M=2000,
                               master_seed=42, workers=3, block_size=511)
    assert a.estimate == b.estimate
    assert a.sample_variance == b.sample_variance
    assert a.csv_row() == b.csv_row()


def test_csv_row_schema():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    rep = estimator.run_ensemble(m, None, ev, [0.0], 0.5, 1e-2, M=100,
                                 master_seed=1)
    row = rep.csv_row()
    assert len(row) == len(estimator.CSV_COLUMNS)
    assert row[0] == "mc" and row[1] == "ou1d"
    assert row[-1] == 0  # blowup count
