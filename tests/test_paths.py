import math

import numpy as np
import pytest

from koopmanis import (derive_path_rng, make_builtin_model, make_event,
                       paths, run_ensemble, run_paths)
from koopmanis.errors import ConfigError, ShapeError, UnsupportedSchemeError
from koopmanis.model import SdeModel
from koopmanis.paths import _step_block, adjust_steps, sde_stepper
from koopmanis.spde import run_spde_paths
from reference import PathBlowupError, simulate_path


def _deterministic_decay_model():
    # dx = -x dt with diffusion forced to zero
    B = np.zeros((1, 1))
    return SdeModel("decay", 1, 1, lambda x: -np.asarray(x, float),
                    lambda x: B, diffusion_const=B)


def _cubic_model():
    B = np.zeros((1, 1))
    return SdeModel("cubic", 1, 1,
                    lambda x: -np.asarray(x, float) ** 3,
                    lambda x: B, diffusion_const=B)


def _multiplicative_model():
    # geometric-style diffusion, state dependent
    def diffusion(x):
        x = np.atleast_2d(np.asarray(x, float))
        return x[:, :, None] if x.shape[0] > 1 else x[0][:, None]

    return SdeModel("gbm", 1, 1, lambda x: 0.1 * np.asarray(x, float),
                    diffusion, diffusion_const=None)


class _ConstantController:
    def __init__(self, u, T, r=1):
        self.u = np.atleast_1d(np.asarray(u, float))
        self.horizon = T
        self.multiplier = 1.0
        self.r = r

    def with_multiplier(self, c):
        return _ConstantController(self.u * c / max(self.multiplier, 1e-300),
                                   self.horizon, self.r)

    def bias_batch(self, t, X):
        return np.tile(self.u, (len(X), 1)), 0


def test_rng_determinism_and_distinctness():
    a = derive_path_rng(42, 7).standard_normal(1000)
    b = derive_path_rng(42, 7).standard_normal(1000)
    assert np.array_equal(a, b)
    c = derive_path_rng(42, 8).standard_normal(1000)
    assert (a != c).sum() > 990
    d = derive_path_rng(43, 7).standard_normal(1000)
    assert (a != d).sum() > 990


def test_rng_mean_clt_bound():
    draws = derive_path_rng(1, 0).standard_normal(1_000_000)
    assert abs(draws.mean()) < 4.0 / math.sqrt(1_000_000)


def test_adjust_steps_rounds_up():
    K, dt = adjust_steps(1.0, 1e-3)
    assert K == 1000 and dt == pytest.approx(1e-3)
    K, dt = adjust_steps(1.0, 3e-4)
    assert K == 3334 and K * dt == pytest.approx(1.0)
    assert dt <= 3e-4


def test_euler_step_deterministic():
    m = make_builtin_model("ou1d")
    out = sde_stepper(m, "euler_maruyama", 0.01)(np.array([[1.0]]), None,
                                                np.array([[0.0]]))
    assert out[0, 0] == pytest.approx(0.99)


def test_ode_decay_accuracy():
    m = _deterministic_decay_model()
    res = simulate_path(m, None, [1.0], 1.0, 1e-4,
                        scheme="euler_maruyama", master_seed=0, path_index=0)
    assert res.terminal_state[0] == pytest.approx(math.exp(-1.0), abs=1e-3)


def test_srk_second_order_on_drift():
    """With zero diffusion the two-stage scheme is classical second order."""
    m = _cubic_model()
    exact = 1.0 / math.sqrt(1.0 + 2.0)  # dx=-x^3 from 1 over T=1
    errs = []
    for dt in (1e-2, 5e-3):
        res = simulate_path(m, None, [1.0], 1.0, dt,
                            scheme="srk_additive", master_seed=0)
        errs.append(abs(res.terminal_state[0] - exact))
    assert errs[0] / errs[1] > 3.5  # ~4x for order 2


def test_srk_rejects_multiplicative_noise():
    m = _multiplicative_model()
    with pytest.raises(UnsupportedSchemeError):
        run_paths(m, None, [1.0], 0.1, 0.01, scheme="srk_additive", M=2)


def test_ou_terminal_moments():
    m = make_builtin_model("ou1d")
    ens = run_paths(m, None, [0.0], 1.0, 1e-2, M=100_000, master_seed=9)
    var_exact = 1.0 - math.exp(-2.0)
    se_mean = math.sqrt(var_exact / 100_000)
    assert abs(ens.terminal.mean()) < 3 * se_mean
    # variance of the sample variance ~ 2 var^2 / M
    se_var = var_exact * math.sqrt(2.0 / 100_000)
    assert abs(ens.terminal.var(ddof=1) - var_exact) < 3 * se_var + 2e-2


def test_zero_controller_weight_is_exactly_zero():
    m = make_builtin_model("ou1d")
    ens = run_paths(m, None, [0.0], 0.5, 1e-2, M=64, master_seed=3)
    assert np.all(ens.log_weight == 0.0)
    ctrl = _ConstantController([0.0], 0.5)
    ens2 = run_paths(m, ctrl, [0.0], 0.5, 1e-2, M=64, master_seed=3)
    assert np.all(ens2.log_weight == 0.0)
    assert np.array_equal(ens.terminal, ens2.terminal)


def test_single_path_matches_block_engine():
    m = make_builtin_model("duffing")
    ev = make_event("coordinate", 0.0, mode="indicator")
    ctrl = _ConstantController([0.3], 2.0)
    ens = run_paths(m, ctrl, [-1.5, 0.0], 2.0, 1e-2, M=5, master_seed=21)
    for i in range(5):
        res = simulate_path(m, ctrl, [-1.5, 0.0], 2.0, 1e-2,
                            master_seed=21, path_index=i)
        assert np.allclose(res.terminal_state, ens.terminal[i], rtol=1e-12,
                           atol=1e-14)
        assert res.log_weight == pytest.approx(ens.log_weight[i], rel=1e-12,
                                               abs=1e-14)
        assert ev.indicator(res.terminal_state) == ev.indicator(ens.terminal[i])


def test_block_size_and_workers_are_bitwise_invariant(monkeypatch):
    """257 rows on 2, 3 and 4 workers, and in blocks capped at 64 rows
    (one worker, three workers) or 31 rows (two workers), give the
    one-block ensemble bit for bit."""
    m = make_builtin_model("vdp")
    ctrl = _ConstantController([0.2, -0.1], 1.0, r=2)

    def run(workers):
        return run_paths(m, ctrl, [2.0, 0.0], 1.0, 1e-2, M=257,
                         master_seed=5, workers=workers)

    ref = run(1)
    alts = [run(w) for w in (2, 3, 4)]
    monkeypatch.setattr(paths, "MAX_BLOCK_ROWS", 64)
    alts += [run(1), run(3)]
    monkeypatch.setattr(paths, "MAX_BLOCK_ROWS", 31)
    alts.append(run(2))
    for alt in alts:
        assert np.array_equal(ref.terminal, alt.terminal)
        assert np.array_equal(ref.log_weight, alt.log_weight)


def test_workers_split_the_rows_into_equal_blocks():
    """100 rows on two workers run as two 50-row blocks and give the
    one-worker ensemble, one 100-row block, bit for bit."""
    m = make_builtin_model("vdp")
    seen = []

    class Recording(_ConstantController):
        def bias_batch(self, t, X):
            seen.append(len(X))
            return super().bias_batch(t, X)

    ctrl = Recording([0.2, -0.1], 1.0, r=2)
    one = run_paths(m, ctrl, [2.0, 0.0], 1.0, 1e-2, M=100, master_seed=5)
    assert seen == [100] * 100
    seen.clear()
    two = run_paths(m, ctrl, [2.0, 0.0], 1.0, 1e-2, M=100, master_seed=5,
                    workers=2)
    assert seen == [50] * 200
    assert one.terminal.tobytes() == two.terminal.tobytes()
    assert one.log_weight.tobytes() == two.log_weight.tobytes()


@pytest.mark.parametrize("B", [[[0.7, -0.45]],
                               [[0.6, 0.3], [-0.2, 0.5]]])
def test_dense_diffusion_is_bitwise_invariant(B, monkeypatch):
    """A dense constant B with two noise columns: the 257 rows on four
    workers, in blocks capped at 64 rows (a one-row tail block) and in
    one-row blocks each give the one-block ensemble."""
    B = np.array(B)
    d = len(B)
    m = SdeModel("dense", d, 2, lambda x: -np.asarray(x, float),
                 lambda x: B, diffusion_const=B)

    def run(workers=1):
        return run_paths(m, None, np.ones(d), 1.0, 1e-2,
                         scheme="euler_maruyama", M=257, master_seed=5,
                         workers=workers)

    runs = [run(), run(4)]
    for cap in (64, 1):
        monkeypatch.setattr(paths, "MAX_BLOCK_ROWS", cap)
        runs.append(run())
    for alt in runs[1:]:
        assert np.array_equal(runs[0].terminal, alt.terminal)


@pytest.mark.parametrize("family", ["legendre_box", "linear_exact"])
def test_fitted_controller_ensembles_are_bitwise_invariant(fitted_controllers,
                                                           family,
                                                           monkeypatch):
    """The invariance above with a fitted Doob controller (vdp, degree-10
    Legendre; brownian_osc, exact monomials): 257 rows on 2 and 4 workers,
    and in blocks capped at 64 rows, which leaves a one-row tail block, on
    one and three workers."""
    model, ctrl, x0 = fitted_controllers[family]

    def run(workers):
        return run_paths(model, ctrl, x0, 1.0, 1e-2, M=257, master_seed=5,
                         workers=workers)

    runs = [run(w) for w in (1, 2, 4)]
    monkeypatch.setattr(paths, "MAX_BLOCK_ROWS", 64)
    runs += [run(1), run(3)]
    for alt in runs[1:]:
        assert np.array_equal(runs[0].terminal, alt.terminal)
        assert np.array_equal(runs[0].log_weight, alt.log_weight)


def test_unbiasedness_under_bounded_controller():
    """Weighted mean under biasing agrees with the unweighted mean."""
    m = make_builtin_model("ou1d")
    ev = make_event("coordinate", 2.0, sharpness=3.0, mode="mollified")
    M = 100_000
    plain = run_paths(m, None, [0.0], 1.0, 1e-2, M=M, master_seed=77)
    ctrl = _ConstantController([0.7], 1.0)
    biased = run_paths(m, ctrl, [0.0], 1.0, 1e-2, M=M, master_seed=78)
    y0 = ev.mollified(plain.terminal)
    y1 = ev.mollified(biased.terminal) * np.exp(biased.log_weight)
    se = math.sqrt(y0.var() / M + y1.var() / M)
    assert abs(y0.mean() - y1.mean()) < 4 * se


def test_terminal_mean_symmetry():
    m = make_builtin_model("ou1d")
    ens = run_paths(m, None, [0.0], 1.0, 1e-2, M=100_000, master_seed=1)
    se = math.sqrt((1 - math.exp(-2)) / 100_000)
    assert abs(ens.terminal.mean()) < 3 * se


@pytest.mark.parametrize("x0", [None, [0.0, 0.0], [[0.0]]])
def test_run_paths_rejects_a_start_of_the_wrong_dimension(x0):
    """Not NaN starts and a "fewer than two paths survived" error."""
    m = make_builtin_model("ou1d")
    with pytest.raises(ShapeError, match="x0 .*dimension 1"):
        run_paths(m, None, x0, 1.0, 1e-2, M=4)
    with pytest.raises(ShapeError, match="x0"):
        run_ensemble(m, None, make_event("coordinate", 2.0), x0, 1.0, 1e-2,
                     M=4)


def test_blowup_raises_in_single_path():
    m = SdeModel("explode", 1, 1, lambda x: np.asarray(x, float) ** 3,
                 lambda x: np.zeros((1, 1)), diffusion_const=np.zeros((1, 1)))
    with pytest.raises(PathBlowupError) as exc:
        simulate_path(m, None, [10.0], 1.0, 0.05,
                      scheme="euler_maruyama", master_seed=0)
    assert exc.value.step_index >= 0


def test_blowup_counted_in_ensemble():
    m = SdeModel("explode", 1, 1, lambda x: np.asarray(x, float) ** 3,
                 lambda x: np.zeros((1, 1)), diffusion_const=np.zeros((1, 1)))
    ens = run_paths(m, None, [10.0], 1.0, 0.05, scheme="euler_maruyama", M=4,
                    master_seed=0)
    assert ens.blown.all()
    assert np.all(ens.terminal == 0.0)   # frozen at zero


def test_trajectory_capture():
    m = make_builtin_model("ou1d")
    ens = run_paths(m, None, [0.0], 1.0, 1e-2, M=10, master_seed=2,
                    trajectory_count=3, trajectory_stride=20)
    idx = sorted({row[0] for row in ens.trajectories})
    assert idx == [0, 1, 2]
    times = [t for pi, t, _ in ens.trajectories if pi == 0]
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)
    res = simulate_path(m, None, [0.0], 1.0, 1e-2, master_seed=2,
                        path_index=1, trajectory_stride=20)
    mine = [row for row in ens.trajectories if row[0] == 1]
    assert len(res.trajectory) == len(mine)
    assert np.allclose(res.trajectory[-1][1], mine[-1][2])


@pytest.mark.parametrize("engine", ["sde", "spde"])
@pytest.mark.parametrize("count, stride", [(2, -5), (2, 0), (2, 2.5),
                                           (2, "3"), (-1, 10), (1.5, 10)])
def test_bad_trajectory_settings_are_config_errors(engine, count, stride):
    """The engine checks the trajectory settings once for SDE and SPDE
    ensembles alike, before numpy sees a negative or fractional size."""
    if engine == "sde":
        model = make_builtin_model("ou1d")
        run = lambda: run_paths(model, None, [0.0], 1.0, 1e-2, M=4,
                                trajectory_count=count,
                                trajectory_stride=stride)
    else:
        spde = make_builtin_model("advdiff", {"n_modes": 8}).spde
        run = lambda: run_spde_paths(spde, None, None, 0.1, 1e-2, 4, 0,
                                     trajectory_count=count,
                                     trajectory_stride=stride)
    with pytest.raises(ConfigError):
        run()


def _reference_rows(model, controller, x0, T, dt, scheme, master_seed, M,
                    traj_count, traj_stride):
    """Loop version of the trajectory rows (one block), kept as the
    reference for the block engine's snapshot stride."""
    K, dt = adjust_steps(T, dt)
    gens = [derive_path_rng(master_seed, i) for i in range(M)]
    x = np.tile(np.asarray(x0, dtype=float), (M, 1))
    blown = np.zeros(M, dtype=bool)
    rec = min(traj_count, M)
    rows = [(j, 0.0, x[j].copy()) for j in range(rec)]
    for k in range(K):
        xi = np.stack([g.standard_normal(model.dim_noise) for g in gens])
        u = None if controller is None else controller.bias_batch(k * dt, x)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            x = _step_block(model, scheme, x, u, dt, xi)
        newly = ~np.isfinite(x).all(axis=1) & ~blown
        if newly.any():
            blown |= newly
            x[newly] = 0.0
        kk = k + 1
        if kk % traj_stride == 0 or kk == K:
            rows.extend((j, kk * dt, x[j].copy()) for j in range(rec))
    rows.sort(key=lambda rw: (rw[0], rw[1]))
    return rows


def test_trajectory_rows_match_reference_when_stride_leaves_a_remainder():
    m = make_builtin_model("duffing")
    ctrl = _ConstantController([0.3], 1.0)
    # K = 100 steps, stride 7: the final row at T is off the stride grid;
    # three workers run the 5 rows in blocks of 2, 2 and 1, which splits
    # the recorded paths across blocks
    ens = run_paths(m, ctrl, [-1.5, 0.0], 1.0, 1e-2, M=5,
                    master_seed=4, workers=3, trajectory_count=3,
                    trajectory_stride=7)
    ref = _reference_rows(m, ctrl, [-1.5, 0.0], 1.0, 1e-2, "srk_additive",
                          4, 5, 3, 7)
    assert len(ens.trajectories) == len(ref) == 3 * (1 + 14 + 1)
    for (p, t, x), (p_ref, t_ref, x_ref) in zip(ens.trajectories, ref):
        assert (p, t) == (p_ref, t_ref)
        assert np.array_equal(x, x_ref)
    assert ens.trajectories[-1][1] == 1.0
