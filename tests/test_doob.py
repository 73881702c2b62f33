import math

import numpy as np
import pytest

from koopmanis import build_basis, make_builtin_model, make_event
from koopmanis import doob, estimator, gedmd, spde
from koopmanis.errors import ConfigError, TuningFailedError


@pytest.fixture(scope="module")
def ou_spectrum():
    m = make_builtin_model("ou1d")
    b = build_basis("hermite", 1, 4)
    pts = gedmd.sample_gaussian_points(m, [0.0], [2.0], 2000, seed=12)
    Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
    spec = gedmd.eigenpairs(gedmd.koopman_matrix(Psi, dPsi), b, pts.points)
    return m, spec, pts


def test_regress_recovers_single_eigenfunction(ou_spectrum):
    m, spec, pts = ou_spectrum
    comps = doob.realify_spectrum(spec)
    C = doob.design_matrix(comps, spec.basis, pts.points)
    target_col = 3
    reg = doob.regress_observable(spec, pts.points, C[:, target_col])
    expect = np.zeros(C.shape[1])
    expect[target_col] = 1.0
    assert np.allclose(reg.coefficients, expect, atol=1e-10)


def test_regress_constant_target(ou_spectrum):
    m, spec, pts = ou_spectrum
    reg = doob.regress_observable(spec, pts.points, np.ones(pts.m))
    comps = reg.components
    const_col = doob._constant_column(comps)
    expect = np.zeros(len(reg.coefficients))
    expect[const_col] = 1.0
    assert np.allclose(reg.coefficients, expect, atol=1e-10)


def test_regress_matches_normal_equations():
    """Reference check against a dense normal-equations solve."""
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, sharpness=3.0, mode="mollified")
    b = build_basis("hermite", 1, 1)
    pts = gedmd.sample_gaussian_points(m, [0.0], [2.0], 50, seed=0)
    Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
    spec = gedmd.eigenpairs(gedmd.koopman_matrix(Psi, dPsi), b, pts.points)
    f = ev.mollified(pts.points)
    reg = doob.regress_observable(spec, pts.points, f)
    C = doob.design_matrix(reg.components, spec.basis, pts.points)
    ref = np.linalg.solve(C.T @ C, C.T @ f)
    assert np.allclose(reg.coefficients, ref, rtol=1e-10)


def test_positivize_cases(ou_spectrum):
    m, spec, pts = ou_spectrum
    comps = doob.realify_spectrum(spec)
    n_cols = sum(c.n_columns for c in comps)
    coeffs = np.zeros(n_cols)
    # already positive: unchanged at zero margin
    out, fitted, shift = doob.positivize(comps, coeffs,
                                         np.array([0.3, 0.5]), margin=0.0)
    assert shift == 0.0 and np.array_equal(out, coeffs)
    # min -0.2 with margin 1e-6: constant gains 0.200001
    out, fitted, shift = doob.positivize(comps, coeffs,
                                         np.array([-0.2, 0.5]), margin=1e-6)
    assert shift == pytest.approx(0.200001)
    col = doob._constant_column(comps)
    assert out[col] == pytest.approx(0.200001)
    assert fitted.min() == pytest.approx(1e-6)


def test_positivize_requires_constant(ou_spectrum):
    m, spec, pts = ou_spectrum
    keep = np.abs(spec.eigenvalues) > 1e-8
    no_const = gedmd.KoopmanSpectrum(spec.basis, spec.eigenvalues[keep],
                                     spec.coefficients[keep],
                                     spec.validation_mse[keep], True)
    comps = doob.realify_spectrum(no_const)
    with pytest.raises(ConfigError):
        doob.positivize(comps, np.zeros(len(comps)), np.array([-1.0]))


def test_positivization_preserves_gradient(ou_spectrum):
    m, spec, pts = ou_spectrum
    ev = make_event("coordinate", 2.0, mode="mollified")
    f = ev.mollified(pts.points)
    before = doob.build_controller(spec, m, pts.points, f, T=1.0, offset=0.0)
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
    reg = doob.regress_observable(spec, pts.points, f)
    scale = np.max(np.abs(reg.fitted))
    coeffs, fitted, shift = doob.positivize(reg.components, reg.coefficients,
                                            reg.fitted, 1e-6 * scale)
    ctrl = doob.build_controller(spec, m, pts.points, f, T=1.0)
    vals, _ = ctrl.value_grad_batch(1.0, pts.points)
    assert np.allclose(vals, fitted, rtol=1e-9)
    assert fitted.min() > 0


def test_kbe_constant_only_spectrum(ou_spectrum):
    m, spec, pts = ou_spectrum
    i = spec.constant_index()
    const_only = gedmd.KoopmanSpectrum(
        spec.basis, spec.eigenvalues[[i]], spec.coefficients[[i]],
        spec.validation_mse[[i]], True)
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
                                np.array([np.nan]), True)
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
    two = gedmd.KoopmanSpectrum(b, eigs, coeffs, np.full(2, np.nan), True)
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
    with pytest.raises(ValueError):
        ctrl.value_grad_batch(1.5, np.array([[0.0]]))
    with pytest.raises(ValueError):
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


# SpdeController is left out: its Y @ w1 is a BLAS product whose last bit
# depends on the number of rows, like the SPDE stepper's mode coupling
# (see the paths module docstring).

@pytest.mark.parametrize("family", ["hermite", "legendre_box", "linear_exact"])
def test_doob_bias_is_row_local(fitted_controllers, family):
    model, ctrl, x0 = fitted_controllers[family]
    rng = np.random.default_rng(8)
    X = x0 + rng.normal(size=(97, model.dim_state))
    # the same surrogate with a dense (d, 1) B-map, where a single row takes
    # another BLAS kernel than many
    dense = doob.DoobController(ctrl.basis, ctrl.components,
                                ctrl.coefficients,
                                rng.normal(size=(model.dim_state, 1)),
                                ctrl.horizon, multiplier=4.0)
    for c in (ctrl, dense):
        for t in (0.0, 0.37, 1.0):
            _assert_bias_row_local(c, t, X)


@pytest.mark.parametrize("terminal", ["indicator", "mollified"])
def test_ou_exact_bias_is_row_local(terminal):
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, sharpness=3.0, mode=terminal)
    ctrl = estimator.ou_exact_controller(m, ev, 1.0, terminal=terminal)
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
        reg = doob.regress_observable(sub, pts.points, f)
        resid = np.linalg.norm(f - reg.fitted)
        assert resid <= prev + 1e-12
        prev = resid


class _FlatController:
    """Constant surrogate: zero bias at any multiplier."""

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
                               grid=[4, 1, 2], batch=200, target=0.5, seed=5)
    fracs = [row[1] for row in res.table]
    assert fracs[0] == fracs[1] == fracs[2]  # common random numbers
    assert res.multiplier == 1.0


def test_tune_failure_when_no_hits():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 50.0, mode="indicator")  # unreachable
    ctrl = _FlatController(1.0)
    with pytest.raises(TuningFailedError):
        doob.tune_multiplier(ctrl, m, ev, [0.0], 1.0, 1e-2,
                             grid=[1, 2], batch=100, target=0.5, seed=5)


def test_tune_batch_minimum():
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 0.0, mode="indicator")
    with pytest.raises(ConfigError):
        doob.tune_multiplier(_FlatController(1.0), m, ev, [0.0], 1.0, 1e-2,
                             grid=[1], batch=10, target=0.5, seed=5)


def test_controller_serialization_roundtrip(ou_spectrum):
    m, spec, pts = ou_spectrum
    ev = make_event("coordinate", 2.0, mode="mollified")
    ctrl = doob.build_controller(spec, m, pts.points,
                                 ev.mollified(pts.points), T=1.0,
                                 multiplier=4.0)
    back = doob.DoobController.from_dict(ctrl.to_dict())
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 1)) * 2
    for t in (0.0, 0.5, 1.0):
        u0, _ = ctrl.bias_batch(t, X)
        u1, _ = back.bias_batch(t, X)
        assert np.array_equal(u0, u1)


def _controller(kind):
    """A small controller of each class and its state dimension."""
    if kind == "eigen":
        b = build_basis("hermite", 1, 2)
        comps = [doob._Component(0.0, 0.0, np.eye(3)[0], None, True),
                 doob._Component(-1.0, 0.0, np.eye(3)[1], None)]
        return doob.DoobController(b, comps, np.array([1.0, 0.5]),
                                   np.array([[1.0]]), T=1.0), 1
    if kind == "spde":
        sp = spde.spectral_setup(8, 0.1, 1.0, 1.0)
        return spde.SpdeController(sp, 1.0, 0.3, 1.0), 8
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, sharpness=5.0, mode="indicator")
    return estimator.ou_exact_controller(m, ev, 1.0, terminal="indicator"), 1


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
