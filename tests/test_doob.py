import json
import math

import numpy as np
import pytest

from koopmanis import (build_basis, derive_path_rng, make_builtin_model,
                       make_event, run_paths)
from koopmanis import doob, estimator, gedmd, paths
from koopmanis.errors import (ConfigError, InvalidParameterError, ShapeError,
                              TuningFailedError)
from reference import (ou_exact_controller, spde_quadratic_controller,
                       sweep_table_per_c)


@pytest.fixture(scope="module")
def ou_spectrum():
    m = make_builtin_model("ou1d")
    b = build_basis("hermite", 1, 4)
    pts = gedmd.sample_gaussian_points(m, [0.0], [2.0], 2000, seed=12)
    Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
    spec = gedmd.eigenpairs(gedmd.koopman_matrix(Psi, dPsi), b, pts.points)
    return m, spec, pts


def _regress(spec, points, f):
    """The unshifted fit onto the realified eigenfunctions: (coefficients,
    constant column, design matrix)."""
    comps = doob.realify_spectrum(spec)
    C = doob.design_matrix(comps, spec.basis, points)
    col = doob._constant_column(comps)
    return doob._svd_lstsq(C, f), col, C


def test_regress_recovers_single_eigenfunction(ou_spectrum):
    m, spec, pts = ou_spectrum
    comps = doob.realify_spectrum(spec)
    C = doob.design_matrix(comps, spec.basis, pts.points)
    target_col = 3
    coeffs, _, _ = _regress(spec, pts.points, C[:, target_col])
    expect = np.zeros(C.shape[1])
    expect[target_col] = 1.0
    assert np.allclose(coeffs, expect, atol=1e-10)


def test_regress_constant_target(ou_spectrum):
    m, spec, pts = ou_spectrum
    coeffs, const_col, _ = _regress(spec, pts.points, np.ones(pts.m))
    expect = np.zeros(len(coeffs))
    expect[const_col] = 1.0
    assert np.allclose(coeffs, expect, atol=1e-10)


def test_regress_matches_normal_equations():
    """Reference check against a dense normal-equations solve."""
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, sharpness=3.0, mode="mollified")
    b = build_basis("hermite", 1, 1)
    pts = gedmd.sample_gaussian_points(m, [0.0], [2.0], 50, seed=0)
    Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
    spec = gedmd.eigenpairs(gedmd.koopman_matrix(Psi, dPsi), b, pts.points)
    f = ev.mollified(pts.points)
    coeffs, _, C = _regress(spec, pts.points, f)
    ref = np.linalg.solve(C.T @ C, C.T @ f)
    assert np.allclose(coeffs, ref, rtol=1e-10)


def test_positivize_cases(ou_spectrum):
    m, spec, pts = ou_spectrum
    comps = doob.realify_spectrum(spec)
    n_cols = sum(c.n_columns for c in comps)
    coeffs = np.zeros(n_cols)
    col = doob._constant_column(comps)
    # already positive: unchanged at zero margin
    out, fitted, shift = doob.positivize(coeffs, np.array([0.3, 0.5]), col,
                                         margin=0.0)
    assert shift == 0.0 and np.array_equal(out, coeffs)
    # min -0.2 with margin 1e-6: constant gains 0.200001
    out, fitted, shift = doob.positivize(coeffs, np.array([-0.2, 0.5]), col,
                                         margin=1e-6)
    assert shift == pytest.approx(0.200001)
    assert out[col] == pytest.approx(0.200001)
    assert fitted.min() == pytest.approx(1e-6)


def test_positivize_requires_constant(ou_spectrum):
    m, spec, pts = ou_spectrum
    keep = np.abs(spec.eigenvalues) > 1e-8
    no_const = gedmd.KoopmanSpectrum(spec.basis, spec.eigenvalues[keep],
                                     spec.coefficients[keep],
                                     spec.validation_mse[keep])
    ev = make_event("coordinate", 2.0, mode="mollified")
    with pytest.raises(ConfigError, match="constant eigenfunction absent"):
        doob.build_controller(no_const, m, pts.points,
                              ev.mollified(pts.points), T=1.0)


def test_positivization_preserves_gradient(ou_spectrum):
    m, spec, pts = ou_spectrum
    ev = make_event("coordinate", 2.0, mode="mollified")
    f = ev.mollified(pts.points)
    coeffs, _, _ = _regress(spec, pts.points, f)
    before = doob.DoobController(spec.basis, doob.realify_spectrum(spec),
                                 coeffs, m.diffusion_const, T=1.0)
    after = doob.build_controller(spec, m, pts.points, f, T=1.0)
    rng = np.random.default_rng(1)
    for _ in range(100):
        t = rng.uniform(0.0, 1.0)
        x = rng.normal(size=(1,)) * 2
        _, g0 = before.value_grad_batch(t, x[None, :])
        _, g1 = after.value_grad_batch(t, x[None, :])
        assert np.allclose(g0, g1, rtol=1e-12, atol=1e-15)


def test_kbe_terminal_value_is_positivized_fit(ou_spectrum):
    m, spec, pts = ou_spectrum
    ev = make_event("coordinate", 2.0, mode="mollified")
    f = ev.mollified(pts.points)
    coeffs, col, C = _regress(spec, pts.points, f)
    scale = np.max(np.abs(C @ coeffs))
    coeffs, fitted, shift = doob.positivize(coeffs, C @ coeffs, col,
                                            1e-6 * scale)
    ctrl = doob.build_controller(spec, m, pts.points, f, T=1.0)
    vals, _ = ctrl.value_grad_batch(1.0, pts.points)
    assert np.allclose(vals, fitted, rtol=1e-9)
    assert fitted.min() > 0


def test_kbe_constant_only_spectrum(ou_spectrum):
    m, spec, pts = ou_spectrum
    i = spec.constant_index()
    const_only = gedmd.KoopmanSpectrum(
        spec.basis, spec.eigenvalues[[i]], spec.coefficients[[i]],
        spec.validation_mse[[i]])
    comps = doob.realify_spectrum(const_only)
    ctrl = doob.DoobController(spec.basis, comps, np.array([2.5]),
                               m.diffusion_const, T=1.0)
    for t in (0.0, 0.3, 1.0):
        v, g = ctrl.value_grad_batch(t, np.array([[0.7]]))
        assert v[0] == pytest.approx(2.5)
        assert np.allclose(g, 0.0)
        assert np.allclose(ctrl.bias_batch(t, np.array([[0.7]]))[0], 0.0)


def test_kbe_single_decaying_mode(ou_spectrum):
    """One mode with rate -1 and coefficient 1: value e^-tau * x."""
    m, spec, pts = ou_spectrum
    b = spec.basis
    # coefficient vector for He_1 = x
    c = np.zeros(b.size, dtype=complex)
    c[1] = 1.0
    one = gedmd.KoopmanSpectrum(b, np.array([-1.0 + 0j]), c[None, :],
                                np.array([np.nan]))
    comps = doob.realify_spectrum(one)
    ctrl = doob.DoobController(b, comps, np.array([1.0]), m.diffusion_const,
                               T=1.0)
    v, g = ctrl.value_grad_batch(0.0, np.array([[2.0]]))
    assert v[0] == pytest.approx(math.exp(-1.0) * 2.0, rel=1e-12)
    assert g[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_bias_two_term_expansion(ou_spectrum):
    """a + e^-(T-t) x with a=1: bias at (0, 0) is sqrt(2) e^-1."""
    m, spec, pts = ou_spectrum
    b = spec.basis
    eigs = np.array([0.0 + 0j, -1.0 + 0j])
    coeffs = np.zeros((2, b.size), dtype=complex)
    coeffs[0, 0] = 1.0
    coeffs[1, 1] = 1.0
    two = gedmd.KoopmanSpectrum(b, eigs, coeffs, np.full(2, np.nan))
    comps = doob.realify_spectrum(two)
    ctrl = doob.DoobController(b, comps, np.array([1.0, 1.0]),
                               m.diffusion_const, T=1.0)
    u, _ = ctrl.bias_batch(0.0, np.array([[0.0]]))
    assert u[0, 0] == pytest.approx(math.sqrt(2.0) * math.exp(-1.0), rel=1e-12)
    # doubling the multiplier doubles the output exactly
    u2, _ = ctrl.with_multiplier(2.0).bias_batch(0.0, np.array([[0.0]]))
    assert u2[0, 0] == 2.0 * u[0, 0]


def test_bias_time_range_check(ou_spectrum):
    m, spec, pts = ou_spectrum
    ev = make_event("coordinate", 2.0, mode="mollified")
    ctrl = doob.build_controller(spec, m, pts.points,
                                 ev.mollified(pts.points), T=1.0)
    with pytest.raises(InvalidParameterError, match="outside the horizon"):
        ctrl.value_grad_batch(1.5, np.array([[0.0]]))
    with pytest.raises(InvalidParameterError, match="outside the horizon"):
        ctrl.value_grad_batch(-0.5, np.array([[0.0]]))


def test_complex_pair_evaluation_matches_complex_arithmetic():
    m = make_builtin_model("brownian_osc")
    b = build_basis("linear_exact", 2, 2)
    res = gedmd.exact_koopman_matrix(b, m)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(300, 2))
    spec = gedmd.eigenpairs(res, b, pts)
    comps = doob.realify_spectrum(spec)
    n_cols = sum(c.n_columns for c in comps)
    coeffs = rng.normal(size=n_cols)
    ctrl = doob.DoobController(b, comps, coeffs, m.diffusion_const, T=2.0)
    # independent complex-arithmetic evaluation of the same surrogate
    for t in (0.0, 0.7, 2.0):
        tau = 2.0 - t
        feats = b.values(pts[:5])
        ref = np.zeros(5)
        col = 0
        for comp in comps:
            if comp.c_im is None:
                phi = feats @ comp.c_re
                ref = ref + coeffs[col] * math.exp(comp.lam_re * tau) * phi
                col += 1
            else:
                lam = complex(comp.lam_re, comp.lam_im)
                phi = feats @ (comp.c_re + 1j * comp.c_im)
                z = np.exp(lam * tau) * phi
                ref = ref + coeffs[col] * z.real + coeffs[col + 1] * z.imag
                col += 2
        vals, _ = ctrl.value_grad_batch(t, pts[:5])
        assert np.allclose(vals, ref, rtol=1e-11)
        assert np.abs(vals.imag).max() == 0.0 if np.iscomplexobj(vals) else True


def _basis_coefficients_loop(ctrl, t):
    """Component-by-component form of DoobController.basis_coefficients."""
    tau = ctrl.horizon - t
    a = np.zeros(ctrl.basis.size)
    col = 0
    for comp in ctrl.components:
        decay = math.exp(comp.lam_re * tau)
        if comp.c_im is None:
            a += ctrl.coefficients[col] * decay * comp.c_re
            col += 1
        else:
            cw, sw = math.cos(comp.lam_im * tau), math.sin(comp.lam_im * tau)
            f_re, f_im = ctrl.coefficients[col], ctrl.coefficients[col + 1]
            a += decay * ((f_re * cw + f_im * sw) * comp.c_re
                          + (f_im * cw - f_re * sw) * comp.c_im)
            col += 2
    return a


@pytest.mark.parametrize("family", ["hermite", "legendre_box", "linear_exact"])
def test_basis_coefficients_match_component_loop(fitted_controllers, family):
    # nonnormal2d has a real spectrum; vdp and brownian_osc have complex pairs
    _, ctrl, _ = fitted_controllers[family]
    for t in (0.0, 0.37, 1.0):
        ref = _basis_coefficients_loop(ctrl, t)
        np.testing.assert_allclose(ctrl.basis_coefficients(t), ref,
                                   rtol=1e-13)


def _assert_bias_row_local(ctrl, t, X):
    u, _ = ctrl.bias_batch(t, X)
    m = len(X)
    for s, e in ((0, 1), (7, 8), (m - 1, m), (3, 40), (17, m), (0, m - 1)):
        assert np.array_equal(u[s:e], ctrl.bias_batch(t, X[s:e])[0])


@pytest.mark.parametrize("family", ["hermite", "legendre_box", "linear_exact",
                                    "spde"])
def test_doob_bias_is_row_local(fitted_controllers, family):
    model, ctrl, x0 = fitted_controllers[family]
    rng = np.random.default_rng(8)
    X = x0 + rng.normal(size=(97, model.dim_state))
    # the same surrogate with a dense (r, 1) B-map, r the dimension of its
    # coordinates, where a single row takes another BLAS kernel than many
    dense = doob.DoobController(ctrl.basis, ctrl.components,
                                ctrl.coefficients,
                                rng.normal(size=(ctrl.basis.dim, 1)),
                                ctrl.horizon, multiplier=4.0,
                                coordinates=ctrl.coordinates)
    for c in (ctrl, dense):
        for t in (0.0, 0.37, 1.0):
            _assert_bias_row_local(c, t, X)


@pytest.mark.parametrize("family", ["hermite", "legendre_box", "linear_exact",
                                    "spde"])
def test_noise_map_is_the_rowlocal_product(fitted_controllers, family):
    """B^T grad Phi is ``paths.rowlocal_product`` bit for bit, and keeps the
    bits of the multiply-add over the state axis it replaced, for the
    model's B and a dense (r, 3) one, r the dimension of the controller's
    coordinates (on the SPDE the gradient is in q = <Y, w1>)."""
    model, ctrl, _ = fitted_controllers[family]
    rng = np.random.default_rng(11)
    grad = rng.normal(size=(97, ctrl.basis.dim))
    dense = doob.DoobController(ctrl.basis, ctrl.components,
                                ctrl.coefficients,
                                rng.normal(size=(ctrl.basis.dim, 3)),
                                ctrl.horizon, coordinates=ctrl.coordinates)
    for c in (ctrl, dense):
        D = c.diffusion_const
        old = grad[:, :1] * D[0]
        for j in range(1, len(D)):
            old += grad[:, j:j + 1] * D[j]
        got = c._noise_map(grad)
        assert np.array_equal(got, paths.rowlocal_product(grad, D))
        assert np.array_equal(got, old)


@pytest.mark.parametrize("terminal", ["indicator", "mollified"])
def test_ou_exact_bias_is_row_local(terminal):
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, sharpness=3.0, mode=terminal)
    ctrl = ou_exact_controller(m, ev, 1.0)
    X = np.random.default_rng(9).normal(size=(97, 1)) * 1.5
    for t in (0.0, 0.37, 1.0):
        _assert_bias_row_local(ctrl, t, X)


def test_regression_residual_nested(ou_spectrum):
    """Appending eigenfunctions never increases the LS residual."""
    m, spec, pts = ou_spectrum
    ev = make_event("coordinate", 2.0, mode="mollified")
    f = ev.mollified(pts.points)
    prev = np.inf
    for n_keep in range(1, spec.n_pairs + 1):
        sub = gedmd.truncate_spectrum(spec, n_keep)
        coeffs, _, C = _regress(sub, pts.points, f)
        resid = np.linalg.norm(f - C @ coeffs)
        assert resid <= prev + 1e-12
        prev = resid


class _FlatController:
    """Constant surrogate: zero bias at any multiplier."""

    hold_time = 0.0

    def __init__(self, T):
        self.horizon = T
        self.multiplier = 1.0
        self.n_eigenfunctions = 1

    def with_multiplier(self, c):
        out = _FlatController(self.horizon)
        out.multiplier = c
        return out

    def bias_batch(self, t, X):
        return np.zeros((len(X), 1)), 0


def test_tune_tie_break_toward_smaller_multiplier():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 0.0, mode="indicator")  # non-rare event
    ctrl = _FlatController(1.0)
    res = doob.tune_multiplier(ctrl, m, ev, [0.0], 1.0, 1e-2,
                               grid=[4, 1, 2], batch=200, seed=5)
    fracs = [row[1] for row in res.table]
    assert fracs[0] == fracs[1] == fracs[2]  # common random numbers
    assert res.multiplier == 1.0


def test_tune_failure_when_no_hits():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 50.0, mode="indicator")  # unreachable
    ctrl = _FlatController(1.0)
    with pytest.raises(TuningFailedError):
        doob.tune_multiplier(ctrl, m, ev, [0.0], 1.0, 1e-2,
                             grid=[1, 2], batch=100, seed=5)


def test_tune_batch_minimum():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 0.0, mode="indicator")
    with pytest.raises(ConfigError):
        doob.tune_multiplier(_FlatController(1.0), m, ev, [0.0], 1.0, 1e-2,
                             grid=[1], batch=10, seed=5)


def _sweep_case(name, fitted_controllers):
    """(controller, model, event, x0) of one stacked-sweep case; T = 1."""
    if name == "spde":
        model = make_builtin_model("advdiff", {"n_modes": 8})
        ctrl = spde_quadratic_controller(model, 1.0, 0.4, 1.0)
        return ctrl, model, make_event("norm", 1.0, mode="indicator"), None
    if name in fitted_controllers:
        model, ctrl, x0 = fitted_controllers[name]
        return ctrl, model, make_event("norm", 2.0, mode="indicator"), x0
    model = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode=name[3:])
    return ou_exact_controller(model, ev, 1.0), model, ev, [0.0]


def _hex_table(rows):
    return [tuple(float(v).hex() for v in row) for row in rows]


_SWEEP_CASES = ["legendre_box", "linear_exact", "ou_indicator",
                "ou_mollified", "spde"]


@pytest.mark.parametrize("name", _SWEEP_CASES)
def test_stacked_rows_match_one_ensemble_per_multiplier(
        fitted_controllers, name):
    """Rows that share a path index replay its noise at their own
    multiplier: each c's rows of a stacked ensemble, run on four workers in
    38-row blocks that straddle the multipliers, are bit for bit the
    ensemble at that c alone.  The SPDE matmuls are shape-sensitive, so
    there three workers run 50-row blocks, each the rows of one c, as the
    ensemble at that c does."""
    ctrl, model, ev, x0 = _sweep_case(name, fitted_controllers)
    grid, batch = [1.0, 2.0, 4.0], 50
    stacked = run_paths(
        model, ctrl.with_multiplier(np.repeat(grid, batch)), x0, 1.0, 1e-2,
        M=len(grid) * batch, master_seed=9,
        workers=3 if name == "spde" else 4,
        path_index=np.tile(np.arange(batch), len(grid)))
    for g, c in enumerate(grid):
        alone = run_paths(
            model, ctrl.with_multiplier(c), x0, 1.0, 1e-2, M=batch,
            master_seed=9)
        rows = stacked.rows(g * batch, (g + 1) * batch)
        for field in ("terminal", "log_weight", "blown", "floored"):
            assert getattr(rows, field).tobytes() \
                == getattr(alone, field).tobytes(), (c, field)


@pytest.mark.parametrize("name", ["legendre_box", "linear_exact",
                                  "ou_indicator"])
def test_held_stacked_rows_match_one_ensemble_per_multiplier(
        fitted_controllers, name):
    """At a hold of 4 steps the stacked rows, on four workers in 38-row
    blocks that straddle the multipliers, are still bit for bit each c's
    ensemble alone, and the sweep's table is the per-c table."""
    ctrl, model, ev, x0 = _sweep_case(name, fitted_controllers)
    ctrl = ctrl.with_hold_time(0.04)
    grid, batch = [1.0, 2.0, 4.0], 50
    stacked = run_paths(
        model, ctrl.with_multiplier(np.repeat(grid, batch)), x0, 1.0, 1e-2,
        M=len(grid) * batch, master_seed=9, workers=4,
        path_index=np.tile(np.arange(batch), len(grid)))
    for g, c in enumerate(grid):
        alone = run_paths(
            model, ctrl.with_multiplier(c), x0, 1.0, 1e-2, M=batch,
            master_seed=9)
        rows = stacked.rows(g * batch, (g + 1) * batch)
        for field in ("terminal", "log_weight", "blown", "floored"):
            assert getattr(rows, field).tobytes() \
                == getattr(alone, field).tobytes(), (c, field)
    want = sweep_table_per_c(ctrl, model, ev, x0, 1.0, 1e-2, grid, batch,
                             seed=9)
    res = doob.tune_multiplier(ctrl, model, ev, x0, 1.0, 1e-2, grid, batch,
                               seed=9, workers=2)
    assert _hex_table(res.table) == _hex_table(want)
    assert _hex_table(res.table) != _hex_table(sweep_table_per_c(
        ctrl.with_hold_time(0.0), model, ev, x0, 1.0, 1e-2, grid, batch,
        seed=9))


@pytest.mark.parametrize("name", _SWEEP_CASES)
def test_stacked_sweep_matches_one_ensemble_per_multiplier(
        fitted_controllers, name):
    """The stacked sweep gives the per-c ensembles' table, bit for bit
    where the controller and the stepper are row-local; the SPDE rows are
    as exact as the stepper's propagator product on the two 75-row blocks
    of two workers."""
    ctrl, model, ev, x0 = _sweep_case(name, fitted_controllers)
    grid, batch = [4, 1, 2], 50
    want = sweep_table_per_c(ctrl, model, ev, x0, 1.0, 1e-2, grid, batch,
                             seed=9)
    res = doob.tune_multiplier(ctrl, model, ev, x0, 1.0, 1e-2, grid, batch,
                               seed=9, workers=2)
    if name == "spde":
        assert np.allclose(res.table, want, rtol=1e-9, atol=0.0)
    else:
        assert _hex_table(res.table) == _hex_table(want)
    assert ctrl.multiplier == 1.0  # the sweep leaves the controller as it was


def test_stacked_sweep_draws_each_path_once(monkeypatch):
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    ctrl = ou_exact_controller(m, ev, 1.0)
    derived = []

    def counting(seed, index):
        derived.append(index)
        return derive_path_rng(seed, index)

    monkeypatch.setattr(paths, "derive_path_rng", counting)
    res = doob.tune_multiplier(ctrl, m, ev, [0.0], 1.0, 1e-2,
                               grid=[1, 2, 4], batch=60, seed=3)
    assert len(res.table) == 3
    assert sorted(derived) == list(range(60))


@pytest.mark.parametrize("name", ["ou_indicator", "spde"])
@pytest.mark.parametrize("call", ["run_paths", "run_ensemble",
                                  "tune_multiplier"])
def test_a_controller_for_another_horizon_is_a_config_error(
        fitted_controllers, name, call):
    """A controller fitted for T = 1 run over T = 0.5 is a ConfigError
    from the engine call, the estimator and the sweep alike, on an SDE and
    on the SPDE: ``run_paths`` once ran it and returned log-weights."""
    ctrl, model, ev, x0 = _sweep_case(name, fitted_controllers)
    run = {"run_paths": lambda: run_paths(model, ctrl, x0, 0.5, 1e-2, M=4),
           "run_ensemble": lambda: estimator.run_ensemble(
               model, ctrl, ev, x0, 0.5, 1e-2, M=4),
           "tune_multiplier": lambda: doob.tune_multiplier(
               ctrl, model, ev, x0, 0.5, 1e-2, [1.0, 2.0], 50)}[call]
    with pytest.raises(ConfigError, match="horizon 1.0 != ensemble horizon"):
        run()


def test_per_row_multiplier_needs_one_value_per_row():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, mode="indicator")
    ctrl = ou_exact_controller(m, ev, 1.0).with_multiplier([1.0, 2.0, 3.0])
    with pytest.raises(ShapeError, match="per-row multiplier"):
        run_paths(m, ctrl, [0.0], 1.0, 1e-2, M=4)


def test_controller_serialization_roundtrip(ou_spectrum):
    m, spec, pts = ou_spectrum
    ev = make_event("coordinate", 2.0, mode="mollified")
    ctrl = doob.build_controller(spec, m, pts.points,
                                 ev.mollified(pts.points),
                                 T=1.0).with_multiplier(4.0)
    back = doob.DoobController.from_dict(ctrl.to_dict())
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 1)) * 2
    for t in (0.0, 0.5, 1.0):
        u0, _ = ctrl.bias_batch(t, X)
        u1, _ = back.bias_batch(t, X)
        assert np.array_equal(u0, u1)


def test_controller_file_with_margin_key_loads(ou_spectrum):
    """Controller files written before the unread ``margin`` field was
    dropped still load, to the same controller."""
    m, spec, pts = ou_spectrum
    ev = make_event("coordinate", 2.0, mode="mollified")
    ctrl = doob.build_controller(spec, m, pts.points,
                                 ev.mollified(pts.points), T=1.0)
    data = ctrl.to_dict()
    assert "margin" not in data
    old = json.loads(json.dumps({**data, "margin": 1e-6}))
    back = doob.DoobController.from_dict(old)
    assert back.to_dict() == data
    X = np.random.default_rng(0).normal(size=(20, 1)) * 2
    assert np.array_equal(back.bias_batch(0.5, X)[0],
                          ctrl.bias_batch(0.5, X)[0])


def _controller(kind):
    """A small controller of each class and its state dimension."""
    if kind == "eigen":
        b = build_basis("hermite", 1, 2)
        comps = [doob._Component(0.0, 0.0, np.eye(3)[0], None, True),
                 doob._Component(-1.0, 0.0, np.eye(3)[1], None)]
        return doob.DoobController(b, comps, np.array([1.0, 0.5]),
                                   np.array([[1.0]]), T=1.0), 1
    if kind == "spde":
        model = make_builtin_model("advdiff", {"n_modes": 8})
        return spde_quadratic_controller(model, 1.0, 0.3, 1.0), 8
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, sharpness=5.0, mode="indicator")
    return ou_exact_controller(m, ev, 1.0), 1


@pytest.mark.parametrize("kind", ["eigen", "spde", "ou_exact"])
def test_with_multiplier_copies_without_mutating(kind):
    ctrl, d = _controller(kind)
    before = dict(vars(ctrl))
    out = ctrl.with_multiplier(2.0)
    assert type(out) is type(ctrl) and out.multiplier == 2.0
    assert vars(ctrl) == before
    # everything else is carried over: terminal, sharpness, quadrature
    # nodes, spectrum, floor
    for key, value in before.items():
        if key != "multiplier":
            assert vars(out)[key] is value
    X = np.full((3, d), 0.3)
    u1, _ = ctrl.bias_batch(0.5, X)
    u2, _ = out.bias_batch(0.5, X)
    assert np.array_equal(u2, 2.0 * u1)
