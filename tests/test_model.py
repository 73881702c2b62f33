import math

import numpy as np
import pytest

from koopmanis import basis, make_builtin_model, make_event, paths
from koopmanis.errors import (InvalidParameterError, ModelNotFoundError,
                              ShapeError)
from koopmanis.gedmd import assemble_matrices
from koopmanis.model import SdeModel, _linear_model
from reference import generator_apply


def test_ou1d_reference_values():
    m = make_builtin_model("ou1d")
    assert m.dim_state == 1 and m.dim_noise == 1
    assert m.drift(np.array([2.0]))[0] == pytest.approx(-2.0)
    assert m.diffusion_const[0, 0] == pytest.approx(math.sqrt(2.0))


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
    assert np.array_equal(m.diffusion_const, B)


def _random_linear_model():
    rng = np.random.default_rng(21)
    return _linear_model("dense3", -np.eye(3) + 0.4 * rng.normal(size=(3, 3)),
                         0.3 * rng.normal(size=(3, 3)), {})


@pytest.mark.parametrize("case", ["nonnormal2d", "dense3"])
def test_linear_drift_rows_do_not_depend_on_the_row_count(case,
                                                          monkeypatch):
    """The linear drift A x is row-local: a row's drift, and so its path,
    is bit for bit the same in one 257-row block and in one-row blocks,
    for the built-in nonnormal2d and for a dense 3 x 3 user model."""
    m = (make_builtin_model("nonnormal2d") if case == "nonnormal2d"
         else _random_linear_model())
    x = np.random.default_rng(3).normal(size=(257, m.dim_state))
    full = m.drift(x)
    assert np.allclose(full, x @ m.linear_spec[0].T, rtol=1e-13, atol=1e-15)
    for i in range(257):
        assert np.array_equal(m.drift(x[i:i + 1]), full[i:i + 1])
        assert np.array_equal(m.drift(x[i]), full[i])

    def run():
        return paths.run_paths(m, None, [0.3] * m.dim_state, 1.0, 1e-2,
                               M=257, master_seed=4)

    one_block = run()
    monkeypatch.setattr(paths, "MAX_BLOCK_ROWS", 1)
    one_row_blocks = run()
    assert one_block.terminal.tobytes() == one_row_blocks.terminal.tobytes()


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
    V, G, H = basis.build_basis("hermite", 1, 5).jets(xs[:, None], 2)
    for n in range(6):
        for p, x in enumerate(xs):
            v, d1, d2 = V[n, p], G[0][n, p], H[0][0][n, p]
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


def test_generator_batch_matches_scalar():
    """``assemble_matrices`` applies the generator to every element at every
    point; the scalar ``generator_apply`` is the reference, on a
    rank-deficient (duffing) and a full-rank (vdp) noise matrix."""
    b = basis.build_basis("legendre_box", 2, 4, [[-3.0, 3.0], [-3.0, 3.0]])
    X = np.random.default_rng(5).uniform(-2.5, 2.5, size=(40, 2))
    V, G, H = b.jets(X, 2)
    for m in (make_builtin_model("duffing"), make_builtin_model("vdp")):
        Psi, dPsi = assemble_matrices(b, m, X)
        assert np.array_equal(Psi, V)
        for p, x in enumerate(X):
            for k in range(b.size):
                grad = np.array([g[k, p] for g in G])
                hess = np.array([[h[k, p] for h in row] for row in H])
                one = generator_apply(m, (V[k, p], grad, hess), x)
                assert dPsi[k, p] == pytest.approx(one, rel=1e-12)


@pytest.mark.parametrize("B, error", [
    ([0.5, 0.2], ShapeError),                  # 1-D
    ([[[0.5]]], ShapeError),                   # 3-D
    (np.zeros((2, 0)), ShapeError),            # no noise columns
    ([[0.5, np.nan]], InvalidParameterError),
    ([[np.inf], [0.1]], InvalidParameterError),
    ([["a", "b"]], InvalidParameterError),
    ([[1.0 + 2.0j]], InvalidParameterError),
    (lambda x: np.eye(2), InvalidParameterError)])
def test_diffusion_const_must_be_a_finite_matrix(B, error):
    with pytest.raises(error, match="diffusion_const"):
        SdeModel("bad", lambda x: x, B)


def test_model_dimensions_follow_the_noise_matrix():
    m = SdeModel("tall", lambda x: -x, [[1, 0], [0, 2], [3, 0]])
    assert (m.dim_state, m.dim_noise) == (3, 2)
    assert m.diffusion_const.dtype == float


def test_mollified_observable_values():
    ev = make_event("coordinate", 2.0, sharpness=3.0, mode="mollified")
    assert ev.mollified(np.array([2.0])) == pytest.approx(0.5)
    assert ev.mollified(np.array([50.0])) == pytest.approx(1.0)
    # direct evaluation: 0.5*(1 + tanh(-3))
    assert ev.mollified(np.array([1.0])) == pytest.approx(
        0.5 * (1.0 + math.tanh(-3.0)))
    assert ev.mollified(np.array([1.0])) == pytest.approx(0.0024726232, rel=1e-6)


def test_indicator_boundary_and_monotonicity():
    ev = make_event("coordinate", 2.0, mode="indicator")
    assert ev.indicator(np.array([2.0])) == 0.0
    assert ev.indicator(np.array([2.0 + 1e-12])) == 1.0
    ev_m = make_event("coordinate", 2.0, mode="mollified")
    xs = np.linspace(-3, 5, 200)[:, None]
    vals = ev_m.mollified(xs)
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals > 0) & (vals < 1))


def test_mollified_converges_to_indicator():
    for x in (1.5, 2.5, -1.0, 3.0):
        ind = make_event("coordinate", 2.0, mode="indicator")
        target = ind.indicator(np.array([x]))
        for s in (10.0, 100.0, 1000.0):
            ev = make_event("coordinate", 2.0, sharpness=s, mode="mollified")
            err = abs(ev.mollified(np.array([x])) - target)
            assert err <= math.exp(-2 * s * abs(x - 2.0)) + 1e-12


def test_event_margins():
    norm_ev = make_event("norm", 0.75)
    assert norm_ev.margin(np.array([0.6, 0.45])) == pytest.approx(0.0)
    abs_ev = make_event("abs_coordinate", 3.0)
    assert abs_ev.indicator(np.array([-3.5, 0.0])) == 1.0
    assert abs_ev.indicator(np.array([2.9, 100.0])) == 0.0
    assert norm_ev.statistic(np.array([3.0, 4.0])) == pytest.approx(5.0)


@pytest.mark.parametrize("mode", ["Indicator", "mollify", "", None])
def test_unknown_event_mode_is_rejected(mode):
    """A misspelt mode would otherwise select the mollified estimator."""
    with pytest.raises(InvalidParameterError, match="mode"):
        make_event("coordinate", 2.0, mode=mode)


@pytest.mark.parametrize("sharpness", [-1.0, 0.0, math.inf, math.nan, "3"])
def test_sharpness_must_be_finite_and_positive(sharpness):
    """A negative sharpness mollifies the complement event: at L = 2,
    sharpness -1 gives f(-3) = 0.99995 and f(3) = 0.119."""
    with pytest.raises(InvalidParameterError, match="sharpness"):
        make_event("coordinate", 2.0, sharpness=sharpness, mode="mollified")


@pytest.mark.parametrize("name, params", [
    ("advdiff", {"n_modes": "8"}), ("ou1d", {"rate": "1"}),
    ("vdp", {"mu": None}), ("brownian_osc", {"zeta": [0.5]}),
    ("duffing", {"eps": True}), ("nonnormal2d", {"noise": math.nan}),
    ("ou1d", {"noise": math.inf})])
def test_a_parameter_that_is_not_a_finite_number_names_its_key(name, params):
    """Each was a raw TypeError from a comparison (or, for nan, a model
    built with it); now each is an InvalidParameterError naming the key."""
    (key, _), = params.items()
    with pytest.raises(InvalidParameterError, match=repr(key)):
        make_builtin_model(name, params)


@pytest.mark.parametrize("component", [1, 2, -1])
def test_a_norm_event_reads_no_component(component):
    """The norm reads every component: a norm event built with component
    1 gave the component-0 indicator.  Now any component but 0 is an
    InvalidParameterError."""
    with pytest.raises(InvalidParameterError, match="component"):
        make_event("norm", 2.0, component)
    assert make_event("norm", 2.0, 0).indicator(np.array([0.0, 2.5])) == 1.0


@pytest.mark.parametrize("kind", ["abs_coordinate", "norm"])
def test_a_negative_threshold_is_refused_where_every_state_is_in(kind):
    """|x_i| > L and |x| > L hold for every state when L < 0, and the
    oracle's Gaussian-tail and Imhof formulas, which assume L >= 0, gave
    impossible answers for them (rho 1.84 for brownian_osc at -1, and
    4.2e-3 for a certain nonnormal2d event at -0.5).  A coordinate event
    keeps its negative thresholds, and L = 0 stays allowed."""
    with pytest.raises(InvalidParameterError, match="finite threshold"):
        make_event(kind, -0.5)
    with pytest.raises(InvalidParameterError, match="finite threshold"):
        make_event(kind, -1e-300, mode="mollified")
    assert make_event(kind, 0.0).indicator(np.array([[0.5, 0.0]]))[0] == 1.0
    assert make_event("coordinate", -1.0).indicator(np.array([[0.0]]))[0] \
        == 1.0


@pytest.mark.parametrize("kind", ["coordinate", "abs_coordinate", "norm"])
@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_a_threshold_that_is_not_finite_is_refused(kind, threshold):
    """The oracle printed rho = nan for ou1d at a nan threshold, and a
    norm event's Imhof integral stopped in a ZeroDivisionError."""
    with pytest.raises(InvalidParameterError, match="finite threshold"):
        make_event(kind, threshold)
