import math
import threading

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.linalg import expm, solve_continuous_lyapunov

from koopmanis import (make_builtin_model, make_event, run_ensemble,
                       spectral_setup, tune_multiplier)
from koopmanis import cli, paths
from koopmanis import spde as spde_mod
from koopmanis.doob import DoobController
from koopmanis.errors import InvalidParameterError, NumericalError, ShapeError
from koopmanis.model import _linear_model
from koopmanis.paths import LinearStepper, derive_path_rng, run_paths
from reference import (fit_spde_controller, simulate_path,
                       spde_quadratic_controller)


@pytest.fixture(scope="module")
def A64():
    """The Galerkin drift matrix of 64 modes at alpha 0.1, b 1."""
    return spectral_setup(64, 0.1, 1.0)


@pytest.fixture(scope="module")
def adv64():
    """The advdiff model, whose drift matrix is ``A64``."""
    return make_builtin_model("advdiff")


@pytest.fixture(scope="module")
def adj64(adv64):
    """(w1, mu1) of ``adv64``'s adjoint coordinate."""
    W, reduced = spde_mod.adjoint_model(adv64)
    return W[:, 0], -reduced.linear_spec[0][0, 0]


def _rates(A):
    """lam = -diag(A)."""
    return -np.diag(A)


def _coupling(A):
    """C, the off-diagonal part of A."""
    return A - np.diag(np.diag(A))


def _mode_snapshots(model, amplitudes, T_traj, stride, seed, dt):
    """Mode snapshots from a * w1 for each amplitude a, as
    ``cli.prepare_controller`` starts them."""
    W, _ = spde_mod.adjoint_model(model)
    return paths.trajectory_snapshots(
        model, np.multiply.outer(np.asarray(amplitudes, float), W[:, 0]),
        T_traj, stride, seed, dt)[0]


def test_mode_rates(A64):
    lam = _rates(A64)
    assert lam[0] == pytest.approx(0.1 * math.pi ** 2)
    assert np.all(np.diff(lam) > 0)
    assert np.all(lam > 0)


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        spectral_setup(1, 0.1, 1.0)
    with pytest.raises(InvalidParameterError):
        spectral_setup(8, -0.1, 1.0)


@pytest.mark.parametrize("args, name", [
    (("8", 0.1, 1.0), "n_modes"), ((8, "0.1", 1.0), "alpha"),
    ((8, 0.1, "1"), "b"), ((8, 0.1, None), "b"),
    ((8, math.nan, 1.0), "alpha"), ((8, 0.1, math.inf), "b")])
def test_a_parameter_that_is_not_a_finite_number_is_named(args, name):
    """Called directly, not through make_builtin_model's parameter check:
    a string once ended in a raw TypeError from a comparison."""
    with pytest.raises(InvalidParameterError, match=f"^{name} must be"):
        spectral_setup(*args)


@pytest.mark.parametrize("n_modes", [8.7, 2.5, True, math.inf, math.nan])
def test_n_modes_must_be_a_whole_number(n_modes):
    """8.7 once built 9 modes in spectral_setup, storing n_modes 8.7, and
    8 through make_builtin_model."""
    with pytest.raises(InvalidParameterError, match="n_modes"):
        spectral_setup(n_modes, 0.1, 1.0)
    with pytest.raises(InvalidParameterError, match="n_modes"):
        make_builtin_model("advdiff", {"n_modes": n_modes})


def test_a_whole_float_n_modes_builds_the_same_model():
    a = make_builtin_model("advdiff", {"n_modes": 8})
    b = make_builtin_model("advdiff", {"n_modes": 8.0})
    assert b.spde is True and b.dim_state == 8
    assert np.array_equal(a.linear_spec[0], b.linear_spec[0])
    assert np.array_equal(spde_mod.adjoint_model(a)[0],
                          spde_mod.adjoint_model(b)[0])
    with pytest.raises(InvalidParameterError, match="alpha"):
        make_builtin_model("advdiff", {"alpha": 0.0})


@pytest.mark.parametrize("b", [0.0, 1.0, -0.7, 2.5])
@pytest.mark.parametrize("n_modes", [2, 3, 8, 64, 65, 128])
def test_coupling_matches_quadrature(n_modes, b):
    """The closed form of the advection coupling against Gauss-Legendre
    quadrature of D[j, k] = <b e_k', e_j>
    = 2 b pi k int_0^1 sin(j pi x) cos(k pi x) dx."""
    k = np.arange(1, n_modes + 1)
    nodes, wts = np.polynomial.legendre.leggauss(max(512, 8 * n_modes))
    x = 0.5 * (nodes + 1.0)
    S = np.sin(np.outer(k, math.pi * x))
    C = np.cos(np.outer(k, math.pi * x)) * (0.5 * wts)
    D_quad = 2.0 * b * math.pi * (S @ C.T) * k[None, :]
    assert np.allclose(_coupling(spectral_setup(n_modes, 0.1, b)), D_quad,
                       atol=1e-8)


def test_coupling_structure(A64):
    D = _coupling(A64)
    assert np.all(np.diag(D) == 0.0)
    j, kk = np.meshgrid(np.arange(1, 65), np.arange(1, 65), indexing="ij")
    assert np.all(D[(j + kk) % 2 == 0] == 0.0)
    assert np.allclose(D, -D.T)  # advection is skew on the sine basis


def test_zero_advection_coupling():
    A = spectral_setup(16, 0.1, 0.0)
    assert np.all(_coupling(A) == 0.0)
    assert np.all(_rates(A) > 0)


def test_leading_decay_rate(adj64):
    # analytic value for b d/dx + alpha d2/dx2 with absorbing boundaries
    ref = 0.1 * math.pi ** 2 + 1.0 / (4 * 0.1)
    assert adj64[1] == pytest.approx(ref, abs=1e-3)


def test_adjoint_vector_matches_transformed_mode(adj64):
    # adjoint eigenfunction exp(b x / (2 alpha)) sin(pi x), unit normalized
    x = np.linspace(0, 1, 2001)
    w_exact = np.exp(1.0 * x / (2 * 0.1)) * np.sin(math.pi * x)
    k = np.arange(1, 65)
    coeffs = np.array([trapezoid(w_exact * math.sqrt(2.0)
                                 * np.sin(kk * math.pi * x), x)
                       for kk in k])
    coeffs /= np.linalg.norm(coeffs)
    assert np.abs(np.abs(coeffs @ adj64[0]) - 1.0) < 1e-4


def test_adjoint_residual(A64, adv64, adj64):
    """w1 is a real unit eigenvector of A^T with eigenvalue -mu1, its
    first nonzero entry positive, and q = <Y, w1> follows the OU process
    dq = -mu1 q dt + w1^T B dW."""
    w1, mu1 = adj64
    assert np.linalg.norm(A64.T @ w1 + mu1 * w1) <= 1e-6
    assert np.linalg.norm(w1) == pytest.approx(1.0, rel=1e-14)
    assert w1[np.nonzero(np.abs(w1) > 1e-12)[0][0]] > 0
    W, reduced = spde_mod.adjoint_model(adv64)
    assert np.array_equal(W, w1[:, None])
    assert np.array_equal(reduced.linear_spec[1],
                          W.T @ adv64.diffusion_const)


def test_qwiener_std_limits():
    """The modes' space-time noise over one step: its covariance tends to
    eps dt I as the rates vanish (alpha 1e-6, no advection), and a model
    without noise draws none beyond its columns."""
    slow = _linear_model("slow", spectral_setup(4, 1e-6, 0.0), np.eye(4),
                         {})
    _, SL, R = LinearStepper(slow, 1e-3).segment_map(1)
    assert np.allclose(SL.T @ SL + R.T @ R, 1e-3 * np.eye(4), rtol=1e-4,
                       atol=1e-12)
    still = _linear_model("still", spectral_setup(4, 0.1, 0.0),
                          np.zeros((4, 4)), {})
    _, SL, R = LinearStepper(still, 1e-3).segment_map(1)
    assert np.all(SL == 0.0) and len(R) == 0


def test_qwiener_sample_variance():
    """The space-time noise a one-step segment adds to the first mode,
    sampled 200000 times on 64 modes without advection, has the variance
    (1 - e^{-2 lam dt}) / (2 lam) of that mode's Ornstein-Uhlenbeck
    process at dt 1e-2."""
    model = make_builtin_model("advdiff", {"b": 0.0})
    step = LinearStepper(model, 1e-2)
    rng = derive_path_rng(1, 0)
    draws = np.concatenate([
        step.segment(np.zeros((20_000, 64)), None,
                     rng.standard_normal((20_000, step.draws(1))), 1)[0][:, 0]
        for _ in range(10)])
    lam = _rates(model.linear_spec[0])[0]
    ref = -math.expm1(-2.0 * lam * 1e-2) / (2.0 * lam)
    assert draws.var() == pytest.approx(ref, rel=0.01)


def test_exp_euler_pure_decay(A64):
    """Without noise or advection the hold map is the exponential-Euler
    decay e^{-lam dt} of every mode."""
    lam = _rates(A64)
    out = LinearStepper(_linear_model("decay", -np.diag(lam),
                                      np.zeros((64, 1)), {}), 0.01)
    assert np.allclose(out.segment(np.ones((1, 64)), None, np.zeros((1, 1)),
                                   1)[0][0], np.exp(-lam * 0.01),
                       rtol=1e-12, atol=0.0)


def test_exp_euler_stationary_variance():
    """Time-average of Y_k^2 under pure decay + noise -> 1/(2 lambda).

    The map is exact in law for any step size, so dt 0.1 decorrelates
    the samples quickly: 2000 chains of one-step segments from Y = 0,
    averaged over steps 50 to 549 (the slowest mode's correlation time is
    about 10 steps)."""
    model = make_builtin_model("advdiff", {"n_modes": 8, "b": 0.0})
    step = LinearStepper(model, 0.1)
    rng = derive_path_rng(3, 0)
    Y = np.zeros((2000, 8))
    burn, n = 50, 500
    acc = np.zeros(8)
    for k in range(burn + n):
        Y = step.segment(Y, None, rng.standard_normal((2000, step.draws(1))),
                         1)[0]
        if k >= burn:
            acc += (Y * Y).sum(axis=0)
    ref = 1.0 / (2.0 * _rates(model.linear_spec[0]))
    assert np.allclose(acc / (2000 * n), ref, rtol=0.02)


def test_exp_euler_one_step_moments(adv64, A64):
    """The engine stepper from Y = 0: one step's noise, drawn per path,
    has mean 0 and the variances of the exact one-step covariance
    Sigma - e^{A dt} Sigma e^{A dt}^T, Sigma the stationary solution of
    A Sigma + Sigma A^T + I = 0, with advection."""
    step = LinearStepper(adv64, 1e-2)
    rng = derive_path_rng(9, 0)
    draws = step.segment(np.zeros((50_000, 64)), None,
                         rng.standard_normal((50_000, step.draws(1))), 1)[0]
    A = A64
    assert np.array_equal(adv64.linear_spec[0], A)
    sigma = solve_continuous_lyapunov(A, -np.eye(64))
    P = expm(A * 1e-2)
    ref = np.diag(sigma - P @ sigma @ P.T)
    assert np.abs(draws.mean(axis=0)).max() < 4 * math.sqrt(ref[0] / 50_000)
    assert np.allclose(draws.var(axis=0), ref, rtol=0.05)


def test_quadratic_functional_is_generator_eigenfunction(adv64, adj64):
    """The third eigenfunction of the adjoint coordinate's exact spectrum,
    lifted by W, is phi2 = kappa <Y, w1>^2 - 1 (kappa = 2 mu1 / eps) up to
    scale, and <M Y, grad phi2> + (eps/2) lap phi2 = -2 mu1 phi2 at random
    states of the 64-mode generator."""
    mu1 = adj64[1]
    rng = np.random.default_rng(7)
    spec, ctrl = fit_spde_controller(adv64, rng.normal(size=(50, 64)),
                                     make_event("norm", 2.5), 10.0)
    assert spec.eigenvalues[2] == pytest.approx(-2.0 * mu1, rel=1e-12)
    c = spec.coefficients[2].real / -spec.coefficients[2, 0].real
    assert c[1] == 0.0
    assert c[2] == pytest.approx(2.0 * mu1 / adv64.params["eps_noise"],
                                rel=1e-12)
    M = adv64.linear_spec[0]
    w1 = ctrl.coordinates[:, 0]
    for _ in range(100):
        Y = rng.normal(size=64)
        q = Y @ w1
        phi2 = c[0] + c[2] * q * q
        grad = 2.0 * c[2] * q * w1
        lap = 2.0 * c[2] * (w1 @ w1)
        gen = (M @ Y) @ grad + 0.5 * 1.0 * lap
        assert gen == pytest.approx(-2.0 * mu1 * phi2,
                                    rel=1e-6, abs=1e-4)


def test_l2_norm_cases():
    """The advdiff norm event thresholds the field's L2 norm."""
    l2_norm = make_event("norm", 2.5).statistic
    assert l2_norm(np.zeros(8)) == 0.0
    e1 = np.zeros(8); e1[0] = 1.0
    assert l2_norm(e1) == 1.0
    v = np.zeros(8); v[0] = 3.0; v[1] = 4.0
    assert l2_norm(v) == pytest.approx(5.0)


def test_parseval_against_grid_quadrature():
    """The norm event's statistic on the sine coefficients is the L2 norm
    of the field they expand, evaluated on a fine grid."""
    rng = np.random.default_rng(1)
    Y = rng.normal(size=64) / (1.0 + np.arange(64)) ** 2
    x = np.linspace(0.0, 1.0, 20001)
    k = np.arange(1, 65)
    field = Y @ (math.sqrt(2.0) * np.sin(np.outer(x, k) * math.pi)).T
    quad_norm = math.sqrt(trapezoid(field ** 2, x))
    stat = make_event("norm", 2.5).statistic(Y)
    assert quad_norm == pytest.approx(stat, abs=1e-6)


def test_advection_preserves_norm(A64):
    """exp(t D) is orthogonal since D is exactly skew."""
    rng = np.random.default_rng(2)
    Y = rng.normal(size=64)
    for t in (0.1, 1.0, 5.0):
        out = expm(_coupling(A64) * t) @ Y
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(Y),
                                                    rel=1e-10)


def test_exp_euler_noiseless_norm_never_grows(A64):
    """Without noise a hold map is Y e^{A h}^T, and A = -diag(lam) + C with
    C skew, so the field's norm never grows from one segment to the next:
    1000 one-step segments at dt 1e-3."""
    model = _linear_model("noiseless", A64, np.zeros((64, 1)), {})
    step = LinearStepper(model, 1e-3)
    assert step.draws(1) == 1   # the one noise column, R empty
    Y = np.random.default_rng(4).normal(size=(1, 64))
    norms = [np.linalg.norm(Y)]
    for _ in range(1000):
        Y = step.segment(Y, None, np.zeros((1, 1)), 1)[0]
        norms.append(np.linalg.norm(Y))
    assert np.all(np.diff(norms) <= 1e-12 * np.array(norms[:-1]))


def test_spde_bias_trivial_cases(adv64, adj64):
    Y = np.random.default_rng(0).normal(size=64)
    flat = spde_quadratic_controller(adv64, 1.0, 0.0, 10.0, multiplier=2.0)
    assert np.allclose(flat.bias_batch(0.0, Y[None, :])[0], 0.0)
    # zero overlap with w1: gradient vanishes
    w1 = adj64[0]
    Yp = Y - (Y @ w1) * w1
    ctrl = spde_quadratic_controller(adv64, 1.0, 0.5, 10.0, multiplier=2.0)
    u, _ = ctrl.bias_batch(0.0, Yp[None, :])
    assert np.allclose(u, 0.0, atol=1e-12)


def test_spde_bias_rows_do_not_depend_on_the_row_count(adv64):
    """The SPDE bias is row-local: a row's control is bit for bit the same
    alone, among 7 rows and among 2000."""
    ctrl = spde_quadratic_controller(adv64, 1.0, 0.4, 10.0, multiplier=3.0)
    Y = np.random.default_rng(6).normal(size=(2000, 64))
    full, _ = ctrl.bias_batch(2.0, Y)
    for s, e in ((0, 1), (5, 6), (0, 7), (993, 1000), (1999, 2000)):
        assert np.array_equal(ctrl.bias_batch(2.0, Y[s:e])[0], full[s:e])


def test_spde_controller_scales_linearly(adv64):
    ctrl = spde_quadratic_controller(adv64, 1.0, 0.4, 10.0, multiplier=1.0)
    Y = np.random.default_rng(5).normal(size=(7, 64))
    u1, _ = ctrl.bias_batch(3.0, Y)
    u3, _ = ctrl.with_multiplier(3.0).bias_batch(3.0, Y)
    assert np.allclose(u3, 3.0 * u1)


def test_spde_unbiasedness_non_rare():
    """Biased vs unbiased estimates of a non-rare norm level agree."""
    model = make_builtin_model("advdiff", {"n_modes": 16})
    ev = make_event("norm", 1.0, mode="indicator")
    M = 10_000
    plain = run_paths(model, None, np.zeros(16), 2.0, 5e-3, M,
                      master_seed=11)
    ctrl = spde_quadratic_controller(model, 1.0, 0.25, 2.0, multiplier=2.0)
    biased = run_paths(model, ctrl, np.zeros(16), 2.0, 5e-3, M,
                       master_seed=12)
    y0 = ev.indicator(plain.terminal)
    y1 = ev.indicator(biased.terminal) * np.exp(biased.log_weight)
    se = math.sqrt(y0.var() / M + y1.var() / M)
    assert abs(y0.mean() - y1.mean()) < 4 * se


def test_spde_start_of_the_wrong_dimension_is_a_shape_error():
    """The SPDE ensemble and the sweep check x0 like the SDE engine."""
    model = make_builtin_model("advdiff", {"n_modes": 8})
    ev = make_event("norm", 1.0, mode="indicator")
    ctrl = spde_quadratic_controller(model, 1.0, 0.4, 1.0)
    with pytest.raises(ShapeError, match="x0 .*dimension 8"):
        run_ensemble(model, None, ev, [0.0, 0.0, 0.0], 1.0, 1e-2, M=4)
    with pytest.raises(ShapeError, match="x0 .*dimension 8"):
        tune_multiplier(ctrl, model, ev, [0.0, 0.0, 0.0], 1.0, 1e-2, [1, 2],
                        batch=50)


def test_spde_paths_deterministic(adv64):
    # worker threads must not change a byte: two workers run 100 rows as
    # two 50-row blocks, and each block alone gives the same rows (the
    # stepper's propagator product is shape-sensitive at the ulp level, so
    # the comparison keeps the block shapes)
    def run(M, workers=1, path_index=None):
        return run_paths(adv64, None, np.zeros(64), 0.2, 5e-3, M,
                         master_seed=3, workers=workers,
                         path_index=path_index)

    both = run(100, workers=2)
    halves = [run(50, path_index=np.arange(s, s + 50)) for s in (0, 50)]
    for field in ("terminal", "log_weight"):
        assert getattr(both, field).tobytes() == b"".join(
            getattr(h, field).tobytes() for h in halves)


def test_spde_trajectory_rows(adv64, adj64):
    """SPDE ensembles report trajectory rows like SDE ones: every stride
    steps from t = 0, and the terminal state at T off the stride grid."""
    Y0 = 0.1 * adj64[0]
    ens = run_paths(adv64, None, Y0, 0.2, 5e-3, 4, master_seed=3,
                    trajectory_count=2, trajectory_stride=7)
    rows = ens.trajectories
    assert len(rows) == 2 * (1 + 40 // 7 + 1)
    for p in (0, 1):
        mine = [row for row in rows if row[0] == p]
        assert mine[0][1] == 0.0 and np.array_equal(mine[0][2], Y0)
        assert mine[1][1] == 7 * 5e-3
        assert mine[-1][1] == pytest.approx(0.2)
        assert np.array_equal(mine[-1][2], ens.terminal[p])


def _advdiff_points_config(box, count, T_traj, seed):
    """An advdiff config whose points are ``count`` amplitudes on ``box``,
    snapshots every 0.25 up to ``T_traj`` at dt 5e-3."""
    return cli.ExperimentConfig.from_dict({
        "model": {"name": "advdiff"},
        "event": {"kind": "norm", "threshold": 2.5},
        "points": {"box": [box], "counts": [count], "T_traj": T_traj,
                   "stride": 0.25, "dt": 5e-3, "seed": seed},
        "doob": {}, "run": {"M": 2, "T": 1.0, "master_seed": 0},
        "output": {}})


def test_mode_snapshots_shapes(adj64):
    """``cli.prepare_controller`` starts one trajectory at a * w1 for each
    amplitude a of the grid, recorded from t = 0."""
    snaps = cli.prepare_controller(
        _advdiff_points_config([-2.0, 2.0], 3, 1.0, 0)).points
    assert snaps.shape == (3 * 5, 64)
    assert np.allclose(snaps[0], -2.0 * adj64[0])


def test_mode_snapshots_match_reference_loop(adv64, adj64):
    """The points and the controller ``cli.prepare_controller`` fits on
    them, against mode paths walked alone from a * w1 and the controller
    fitted on those.  The engine advances all amplitudes with one matmul
    where the loop uses a vector-matrix product per amplitude: equal up
    to round-off."""
    amps = np.linspace(-4.0, 4.0, 9)
    state = cli.prepare_controller(
        _advdiff_points_config([-4.0, 4.0], 9, 2.0, 11))
    ref = np.concatenate([
        [x for _, x in simulate_path(
            adv64, None, a * adj64[0], 2.0, 5e-3, master_seed=11,
            path_index=i, trajectory_stride=50).trajectory]
        for i, a in enumerate(amps)])
    assert state.points.shape == ref.shape == (9 * 9, 64)
    assert np.allclose(state.points, ref, rtol=1e-12, atol=0.0)
    ev = make_event("norm", 2.5, mode="indicator")
    _, want = fit_spde_controller(adv64, ref, ev, 1.0)
    assert state.controller.coefficients == pytest.approx(want.coefficients,
                                                          rel=1e-12)


def _per_step_law(step, L):
    """(P^L, Cov Y_L, Cov(Xi, Y_L), Var Xi) of L one-step segments
    Y' = Y P + xi S + zeta R from Y = 0, with (P, S, R) the one-step map
    and Xi the sum of the draws xi."""
    P, S, R = step.segment_map(1)
    D = S.T @ S + R.T @ R
    PL, C, X = np.eye(len(P)), np.zeros_like(P), np.zeros_like(P)
    for _ in range(L):
        PL, C, X = PL @ P, P.T @ C @ P + D, X @ P + S
    return PL, C, X, L * np.eye(len(P))


@pytest.mark.parametrize("L", [1, 2, 7, 20])
def test_segment_map_has_the_law_of_the_per_step_chain(adv64, L):
    """An L-step segment Y_L = Y P^L + Xi S / L + zeta R with
    Xi = sqrt(L) zeta_1 has the law of L one-step segments: P^L, the
    state covariance L (S/L)^T (S/L) + R^T R, its covariance with Xi,
    L S / L, and Var Xi = L I agree to 1e-12 relative on the 64 modes."""
    step = LinearStepper(adv64, 1e-3)
    PL, SL, R = step.segment_map(L)
    got = (PL, L * SL.T @ SL + R.T @ R, L * SL, L * np.eye(64))
    for a, b in zip(got, _per_step_law(step, L)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    assert step.draws(L) == 64 + len(R)


def test_engine_rows_match_the_segment_reference_loop(adv64, adj64):
    """A controlled ensemble at a hold of 20 steps, with trajectory rows
    every 7 steps, so that snapshots cut the holds into segments of 1 to
    7 steps: every row is the single-row segment loop, to 1e-12."""
    ctrl = spde_quadratic_controller(adv64, 1.0, 0.4, 0.2,
                                     multiplier=2.0).with_hold_time(0.02)
    Y0 = 0.5 * adj64[0]
    ens = run_paths(adv64, ctrl, Y0, 0.2, 1e-3, 5, master_seed=4,
                    trajectory_count=3, trajectory_stride=7)
    for i in range(5):
        res = simulate_path(adv64, ctrl, Y0, 0.2, 1e-3, master_seed=4,
                            path_index=i, trajectory_stride=7)
        assert np.allclose(ens.terminal[i], res.terminal_state, rtol=1e-12,
                           atol=1e-15)
        assert ens.log_weight[i] == pytest.approx(res.log_weight, rel=1e-12)
        if i < 3:
            mine = [(t, x) for p, t, x in ens.trajectories if p == i]
            assert len(mine) == len(res.trajectory) == 1 + 200 // 7 + 1
            for (t, x), (t_ref, x_ref) in zip(mine, res.trajectory):
                assert t == pytest.approx(t_ref)
                assert np.allclose(x, x_ref, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("controlled", [True, False])
def test_a_held_segment_draws_r_plus_n_normals(adv64, monkeypatch,
                                               controlled):
    """One 20-step hold draws r + N = 128 normals per row, where 20
    steps drew 20 r = 1280; so does an uncontrolled run that records no
    rows, which is one segment."""
    counts = []

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, out=None):
            counts.append(out.size)
            return self.gen.standard_normal(*args, out=out)

    monkeypatch.setattr(paths, "derive_path_rng",
                        lambda *a: Counting(derive_path_rng(*a)))
    ctrl = spde_quadratic_controller(adv64, 1.0, 0.4, 0.02).with_hold_time(
        0.02) if controlled else None
    run_paths(adv64, ctrl, None, 0.02, 1e-3, 6, master_seed=1)
    assert counts == [64 + 64] * 6


def test_snapshot_cuts_reach_every_block(adv64, adj64, monkeypatch):
    """Two workers run 40 rows as two 20-row blocks, with one trajectory
    row, in the first block, every 7 steps cutting the 20-step holds:
    each block alone, with its path indices and a trajectory row of its
    own, gives the same rows, so the block that records no row is cut
    like the one that does.  Every segment map is built once, before the
    worker threads start."""
    built = []
    build = paths.linear_gaussian

    def counting(A, B, t):
        built.append((round(t / 1e-3), threading.current_thread() is
                      threading.main_thread()))
        return build(A, B, t)

    monkeypatch.setattr(paths, "linear_gaussian", counting)
    ctrl = spde_quadratic_controller(adv64, 1.0, 0.4, 0.2,
                                     multiplier=2.0).with_hold_time(0.02)

    def run(M, workers=1, path_index=None):
        return run_paths(adv64, ctrl, 0.5 * adj64[0], 0.2, 1e-3, M,
                         master_seed=5, workers=workers, trajectory_count=1,
                         trajectory_stride=7, path_index=path_index)

    both = run(40, workers=2)
    lengths = [L for L, _ in built]
    assert sorted(lengths) == sorted(set(lengths)) and {1, 6, 7} <= set(
        lengths) and all(main for _, main in built)
    halves = [run(20, path_index=np.arange(s, s + 20)) for s in (0, 20)]
    for field in ("terminal", "log_weight"):
        assert getattr(both, field).tobytes() == b"".join(
            getattr(h, field).tobytes() for h in halves)


@pytest.mark.parametrize("budget", [1, 300 * 40, 1000 * 40])
def test_noise_budget_does_not_change_segmented_rows(adv64, budget,
                                                     monkeypatch):
    """Held segments of 8 modes (r + N = 16 normals a segment, 4 steps a
    hold, trajectory cuts every 6 steps) in noise chunks of one segment,
    of about 300 and of about 1000 normals per row give the rows of the
    default budget bit for bit."""
    model = make_builtin_model("advdiff", {"n_modes": 8})
    ctrl = spde_quadratic_controller(model, 1.0, 0.4, 1.0, multiplier=2.0)

    def run():
        return run_paths(model, ctrl, None, 1.0, 5e-3, 40, master_seed=5,
                         trajectory_count=2, trajectory_stride=6)
    ref = run()
    monkeypatch.setattr(paths, "NOISE_BUFFER_DOUBLES", budget)
    alt = run()
    for field in ("terminal", "log_weight", "floored", "snapshots"):
        assert getattr(ref, field).tobytes() == getattr(alt, field).tobytes()


def test_build_spde_controller_positive(adv64):
    snaps = _mode_snapshots(adv64, np.linspace(-4, 4, 9), 2.0, 0.25, seed=1,
                            dt=5e-3)
    ev = make_event("norm", 2.5, mode="indicator")
    _, ctrl = fit_spde_controller(adv64, snaps, ev, 10.0)
    vals, _ = ctrl.value_grad_batch(10.0, snaps)
    assert np.all(vals > 0)
    # pushes outward along the adjoint direction: the coefficient of
    # <Y, w1>^2 is positive
    assert ctrl.basis_coefficients(10.0)[2] > 0


def test_spde_controller_serialization(adv64):
    """An eigen controller file with its coordinates; it loads back as the
    class that wrote it, the one Doob controller of every model."""
    ctrl = spde_quadratic_controller(adv64, 0.9, 0.3, 10.0, multiplier=4.0)
    data = ctrl.to_dict()
    assert data["type"] == "eigen"
    assert np.array_equal(data["coordinates"], ctrl.coordinates)
    back = DoobController.from_dict(data)
    assert type(back) is type(ctrl) is DoobController
    Y = np.random.default_rng(8).normal(size=(5, 64))
    u0, _ = ctrl.bias_batch(1.0, Y)
    u1, _ = back.bias_batch(1.0, Y)
    assert np.allclose(u0, u1, rtol=1e-12)


def test_the_adjoint_eigensolve_runs_once_per_controller_fit(monkeypatch,
                                                             tmp_path):
    """The N x N eigensolve of the adjoint coordinate runs where the
    controller is fitted, once per ``cli.prepare_controller``, and neither
    when the model is built nor in a plain Monte Carlo run."""
    solves = []
    eig = np.linalg.eig

    def counting(a):
        if np.shape(a) == (8, 8):
            solves.append(1)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting)
    raw = {"model": {"name": "advdiff", "params": {"n_modes": 8}},
           "event": {"kind": "norm", "threshold": 0.5},
           "points": {"box": [[-2.0, 2.0]], "counts": [3], "T_traj": 0.5,
                      "stride": 0.25, "dt": 0.01, "seed": 1},
           "doob": {}, "run": {"M": 20, "T": 0.5, "dt": 0.01,
                               "master_seed": 1, "method": "mc"},
           "output": {}}
    make_builtin_model("advdiff", {"n_modes": 8})
    cli.run_pipeline(cli.ExperimentConfig.from_dict(raw))
    assert solves == []
    cli.prepare_controller(cli.ExperimentConfig.from_dict(raw))
    assert solves == [1]


def test_an_adjoint_vector_that_is_not_real_fails_where_it_is_fitted():
    """At alpha 1e-6 advection dominates and the leading eigenvector of
    A^T is complex.  The model still builds and runs plain Monte Carlo
    (it once failed to build); fitting its adjoint coordinate is a
    NumericalError."""
    model = make_builtin_model("advdiff", {"n_modes": 8, "alpha": 1e-6})
    ens = run_paths(model, None, None, 0.1, 1e-2, 4, master_seed=1)
    assert np.isfinite(ens.terminal).all()
    with pytest.raises(NumericalError, match="not real"):
        spde_mod.adjoint_model(model)
