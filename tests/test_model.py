import math

import numpy as np
import pytest

from koopmanis import basis, generator_apply, make_builtin_model, make_event
from koopmanis.errors import (InvalidParameterError, ModelNotFoundError,
                              ShapeError)
from koopmanis.gedmd import assemble_matrices
from koopmanis.model import SdeModel


def test_ou1d_reference_values():
    m = make_builtin_model("ou1d")
    assert m.dim_state == 1 and m.dim_noise == 1
    assert m.drift(np.array([2.0]))[0] == pytest.approx(-2.0)
    assert m.diffusion(np.array([0.0]))[0, 0] == pytest.approx(math.sqrt(2.0))


def test_duffing_drift_substitution():
    m = make_builtin_model("duffing")
    # -delta*x2 - x1*(beta + alpha*x1^2) at (0.5, -1):
    expected2 = -0.5 * (-1.0) - 0.5 * (-1.0 + 1.0 * 0.25)
    out = m.drift(np.array([0.5, -1.0]))
    assert out[0] == pytest.approx(-1.0)
    assert out[1] == pytest.approx(expected2)


def test_vdp_zero_mu_is_harmonic():
    m = make_builtin_model("vdp", {"mu": 0.0})
    out = m.drift(np.array([1.0, 1.0]))
    assert np.allclose(out, [1.0, -1.0])


def test_unknown_model_and_parameters():
    with pytest.raises(ModelNotFoundError):
        make_builtin_model("lorenz")
    with pytest.raises(InvalidParameterError):
        make_builtin_model("ou1d", {"rate": -1.0})
    with pytest.raises(InvalidParameterError):
        make_builtin_model("duffing", {"delta": 0.0})
    with pytest.raises(InvalidParameterError):
        make_builtin_model("vdp", {"gamma": 1.0})


@pytest.mark.parametrize("name", ["ou1d", "nonnormal2d", "brownian_osc"])
def test_linear_spec_matches_callables(name):
    m = make_builtin_model(name)
    A, B = m.linear_spec
    rng = np.random.default_rng(0)
    X = rng.normal(size=(32, m.dim_state))
    assert np.allclose(m.drift(X), X @ A.T)
    assert np.allclose(m.diffusion(X[0]), B)


def test_generator_quadratic_ou():
    m = make_builtin_model("ou1d")
    # psi(x) = x^2 at x = 1: value 1, grad 2, hess 2 -> -2 + 2 = 0
    val = generator_apply(m, (1.0, np.array([2.0]), np.array([[2.0]])),
                          np.array([1.0]))
    assert val == pytest.approx(0.0, abs=1e-14)


def test_generator_constant_vanishes():
    for name in ("ou1d", "duffing", "vdp"):
        m = make_builtin_model(name)
        d = m.dim_state
        val = generator_apply(m, (1.0, np.zeros(d), np.zeros((d, d))),
                              np.zeros(d))
        assert val == 0.0


def test_generator_duffing_coordinate():
    m = make_builtin_model("duffing")
    jet = (0.5, np.array([1.0, 0.0]), np.zeros((2, 2)))
    assert generator_apply(m, jet, np.array([0.5, -1.0])) == pytest.approx(-1.0)


def test_generator_shape_error():
    m = make_builtin_model("ou1d")
    with pytest.raises(ShapeError):
        generator_apply(m, (1.0, np.zeros(2), np.zeros((2, 2))),
                        np.zeros(2))


def test_ou_hermite_eigenfunctions():
    """A(He_n) = -n He_n for the unit-rate model, to round-off."""
    m = make_builtin_model("ou1d")
    rng = np.random.default_rng(3)
    xs = rng.normal(size=100)
    for n in range(6):
        for x in xs:
            v, d1, d2 = basis.hermite_jet(n, x)
            got = generator_apply(m, (v, np.array([d1]), np.array([[d2]])),
                                  np.array([x]))
            ref = -n * v
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", ["ou1d", "nonnormal2d", "brownian_osc"])
def test_linear_generator_closed_form_on_quadratics(name):
    """On x_i x_j the generator equals (Ax)_i x_j + (Ax)_j x_i + (BB^T)_ij."""
    m = make_builtin_model(name)
    A, B = m.linear_spec
    Q2 = B @ B.T
    d = m.dim_state
    rng = np.random.default_rng(11)
    for x in rng.normal(size=(20, d)):
        ax = A @ x
        for i in range(d):
            for j in range(d):
                grad = np.zeros(d)
                hess = np.zeros((d, d))
                grad[i] += x[j]
                grad[j] += x[i]
                hess[i, j] += 1.0
                hess[j, i] += 1.0
                got = generator_apply(m, (x[i] * x[j], grad, hess), x)
                ref = ax[i] * x[j] + ax[j] * x[i] + Q2[i, j]
                assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)


def _state_dependent_model():
    A = np.array([[-1.0, 0.4], [-0.3, -0.8]])
    B = np.array([[0.6, 0.2], [-0.1, 0.5]])

    def diffusion(x):   # (d,) -> (d, r) and (m, d) -> (m, d, r)
        return (1.0 + 0.5 * np.tanh(np.asarray(x, float)[..., :1, None])) * B

    return SdeModel("multiplicative", 2, 2, lambda x: x @ A.T, diffusion)


def test_generator_batch_matches_scalar():
    """``assemble_matrices`` applies the generator to every element at every
    point; the scalar ``generator_apply`` is the reference, on constant
    (duffing) and on per-point diffusion."""
    b = basis.build_basis("legendre_box", 2, 4, [[-3.0, 3.0], [-3.0, 3.0]])
    X = np.random.default_rng(5).uniform(-2.5, 2.5, size=(40, 2))
    V, G, H = b.jets(X, 2)
    for m in (make_builtin_model("duffing"), _state_dependent_model()):
        Psi, dPsi = assemble_matrices(b, m, X)
        assert np.array_equal(Psi, V)
        for p, x in enumerate(X):
            for k in range(b.size):
                grad = np.array([g[k, p] for g in G])
                hess = np.array([[h[k, p] for h in row] for row in H])
                one = generator_apply(m, (V[k, p], grad, hess), x)
                assert dPsi[k, p] == pytest.approx(one, rel=1e-12)


def test_mollified_observable_values():
    ev = make_event("coordinate", 2.0, sharpness=3.0, mode="mollified")
    assert ev.value(np.array([2.0])) == pytest.approx(0.5)
    assert ev.value(np.array([50.0])) == pytest.approx(1.0)
    # direct evaluation: 0.5*(1 + tanh(-3))
    assert ev.value(np.array([1.0])) == pytest.approx(
        0.5 * (1.0 + math.tanh(-3.0)))
    assert ev.value(np.array([1.0])) == pytest.approx(0.0024726232, rel=1e-6)


def test_indicator_boundary_and_monotonicity():
    ev = make_event("coordinate", 2.0, mode="indicator")
    assert ev.value(np.array([2.0])) == 0.0
    assert ev.value(np.array([2.0 + 1e-12])) == 1.0
    ev_m = make_event("coordinate", 2.0, mode="mollified")
    xs = np.linspace(-3, 5, 200)[:, None]
    vals = ev_m.value(xs)
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals > 0) & (vals < 1))


def test_mollified_converges_to_indicator():
    for x in (1.5, 2.5, -1.0, 3.0):
        ind = make_event("coordinate", 2.0, mode="indicator")
        target = ind.value(np.array([x]))
        for s in (10.0, 100.0, 1000.0):
            ev = make_event("coordinate", 2.0, sharpness=s, mode="mollified")
            err = abs(ev.value(np.array([x])) - target)
            assert err <= math.exp(-2 * s * abs(x - 2.0)) + 1e-12


def test_event_margins():
    norm_ev = make_event("norm", 0.75)
    assert norm_ev.margin(np.array([0.6, 0.45])) == pytest.approx(0.0)
    abs_ev = make_event("abs_coordinate", 3.0)
    assert abs_ev.indicator(np.array([-3.5, 0.0])) == 1.0
    assert abs_ev.indicator(np.array([2.9, 100.0])) == 0.0
    assert norm_ev.statistic(np.array([3.0, 4.0])) == pytest.approx(5.0)
