import copy
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from koopmanis import (derive_path_rng, make_builtin_model, make_event,
                       paths, run_ensemble, run_paths)
from koopmanis.errors import ConfigError, ShapeError
from koopmanis.model import SdeModel, _linear_model
from koopmanis.estimator import terminal_gaussian
from koopmanis.paths import (LinearStepper, SdeStepper, adjust_steps,
                             hold_steps, linear_gaussian, rowlocal_dot,
                             rowlocal_product)
from reference import (EulerMaruyamaStepper, PathBlowupError, simulate_path,
                       spde_quadratic_controller)


def _deterministic_decay_model():
    # dx = -x dt with diffusion forced to zero
    return SdeModel("decay", lambda x: -np.asarray(x, float), np.zeros((1, 1)))


def _cubic_model():
    return SdeModel("cubic", lambda x: -np.asarray(x, float) ** 3,
                    np.zeros((1, 1)))


class _ConstantController:
    hold_time = 0.0   # per-step control unless a test sets a hold

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


_WORDS = [0, 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed, index", [
    *((s, p) for s in _WORDS for p in _WORDS), (7, -3), (2**64 + 5, 11)])
def test_a_path_stream_is_the_philox_stream_of_its_key(seed, index):
    """The stream of (seed, index) is numpy's Philox keyed by the two
    words mod 2^64, from counter 0: a negative index and a seed past
    2^64 wrap."""
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key))
    got = derive_path_rng(seed, index)
    for part in ("key", "counter"):
        assert np.array_equal(got.bit_generator.state["state"][part],
                              want.bit_generator.state["state"][part])
    assert np.array_equal(got.standard_normal(1000),
                          want.standard_normal(1000))
    assert np.array_equal(got.integers(0, 2**63, 10),
                          want.integers(0, 2**63, 10))


def test_the_first_normals_of_a_path_are_pinned():
    assert [x.hex() for x in derive_path_rng(1, 0).standard_normal(4)] == [
        "0x1.053197c7442ddp+0", "0x1.84f9208f01294p-1",
        "-0x1.f779dcc2eab5ep-3", "0x1.c4af87deeaf4ep-2"]


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda g: pickle.loads(pickle.dumps(g))],
                         ids=["deepcopy", "pickle"])
def test_a_cloned_path_stream_continues_the_stream(clone):
    g = derive_path_rng(5, 9)
    g.standard_normal(7)
    h = clone(g)
    assert np.array_equal(h.standard_normal(50), g.standard_normal(50))


@pytest.mark.parametrize("workers", [1, 2])
def test_no_path_reads_os_entropy(workers, monkeypatch):
    """numpy's ``SeedSequence()`` draws its entropy through
    ``random._urandom``; the streams of a 200-row ensemble call it not
    once (a ``Philox(key=...)`` per path called it once each)."""
    calls = []

    def counting(n):
        calls.append(n)
        return urandom(n)

    urandom = random._urandom
    monkeypatch.setattr(random, "_urandom", counting)
    run_paths(make_builtin_model("ou1d"), None, [0.0], 0.1, 1e-2, M=200,
              master_seed=3, workers=workers)
    assert calls == []
    np.random.SeedSequence()   # the hook does see numpy's entropy draw
    assert len(calls) == 1


def test_adjust_steps_rounds_up():
    K, dt = adjust_steps(1.0, 1e-3)
    assert K == 1000 and dt == pytest.approx(1e-3)
    K, dt = adjust_steps(1.0, 3e-4)
    assert K == 3334 and K * dt == pytest.approx(1.0)
    assert dt <= 3e-4


def _ensemble(model, controller, x0, T, dt, scheme, **kw):
    """``run_paths`` (scheme None: the model's own stepper), or the same
    rows walked by the engine with the reference Euler-Maruyama step."""
    if scheme is None:
        return run_paths(model, controller, x0, T, dt, **kw)
    assert scheme == "euler_maruyama"
    K, dt = adjust_steps(T, dt)
    M = kw.pop("M")
    return paths.run_engine(EulerMaruyamaStepper(model, dt),
                            np.tile(np.asarray(x0, float), (M, 1)), K, dt,
                            controller, **kw)


def test_euler_step_deterministic():
    """The reference Euler-Maruyama stepper the invariance tests walk
    is the Euler step x + a(x) dt on a noiseless model."""
    m = _deterministic_decay_model()
    out, xi = EulerMaruyamaStepper(m, 0.01).segment(
        np.array([[1.0]]), None, np.array([[0.0]]), 1)
    assert out[0, 0] == pytest.approx(0.99) and xi[0, 0] == 0.0


def test_ode_decay_accuracy():
    m = _deterministic_decay_model()
    res = simulate_path(m, None, [1.0], 1.0, 1e-4, master_seed=0,
                        path_index=0)
    assert res.terminal_state[0] == pytest.approx(math.exp(-1.0), abs=1e-3)


def test_srk_second_order_on_drift():
    """With zero diffusion the two-stage scheme is classical second order."""
    m = _cubic_model()
    exact = 1.0 / math.sqrt(1.0 + 2.0)  # dx=-x^3 from 1 over T=1
    errs = []
    for dt in (1e-2, 5e-3):
        res = simulate_path(m, None, [1.0], 1.0, dt, master_seed=0)
        errs.append(abs(res.terminal_state[0] - exact))
    assert errs[0] / errs[1] > 3.5  # ~4x for order 2


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
    """A zero control leaves the weight at 0 and the rows of an
    uncontrolled run cut into the same one-step segments (its holds)."""
    m = make_builtin_model("ou1d")
    ens = run_paths(m, None, [0.0], 0.5, 1e-2, M=64, master_seed=3,
                    trajectory_count=1, trajectory_stride=1)
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


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_rowlocal_product_rows_do_not_depend_on_the_row_count(p, q):
    """Row i of v @ M is bit for bit the same for 1, 7 and 2000 rows and
    for a strided view of v, such as the engine's noise view of one step."""
    rng = np.random.default_rng(10 * p + q)
    M = rng.normal(size=(p, q))
    v = rng.normal(size=(2000, p))
    full = rowlocal_product(v, M)
    assert full.shape == (2000, q)
    assert np.allclose(full, v @ M, rtol=1e-13, atol=1e-13)
    for s, e in ((0, 1), (5, 6), (0, 7), (993, 1000)):
        assert np.array_equal(rowlocal_product(v[s:e], M), full[s:e])
    chunk = rng.normal(size=(2000, 3, p))
    chunk[:, 1] = v
    assert np.array_equal(rowlocal_product(chunk[:, 1], M), full)


@pytest.mark.parametrize("r", [1, 2, 3, 64])
def test_rowlocal_dot_rows_do_not_depend_on_the_row_count(r):
    """Row i of the weight's dot products u . xi and u . u is bit for bit
    the same for 1, 7, 257 and 2000 rows, on row-major and time-major
    views of the noise buffer, on gathers of repeated rows from either and
    with u C- or F-ordered; for r <= 2 it is bit for bit
    (u * xi).sum(axis=1)."""
    rng = np.random.default_rng(r)
    noise = rng.normal(size=(2000, 5, r))  # (paths, steps, r), row-major
    u = rng.normal(size=(2000, r))
    xi = np.ascontiguousarray(noise[:, 2])
    full = rowlocal_dot(u, xi)
    assert full.shape == (2000,)
    assert np.allclose(full, (u * xi).sum(axis=1), rtol=1e-13, atol=1e-13)
    assert np.array_equal(rowlocal_dot(u, noise[:, 2]), full)
    assert np.array_equal(rowlocal_dot(np.asfortranarray(u), xi), full)
    squares = rowlocal_dot(u, u)

    def time_major(rows):
        # a block's (draws, paths) buffer and its step-2 (rows, r) view
        buf = np.ascontiguousarray(noise[rows].reshape(-1, 5 * r).T)
        return buf[2 * r:3 * r].T

    drawn = time_major(slice(None)).T   # (r, 2000): the engine's rows
    for n in (1, 7, 257, 2000):
        for s in (0, (2000 - n) // 2, 2000 - n):
            rows = slice(s, s + n)
            assert np.array_equal(rowlocal_dot(u[rows], noise[rows, 2]),
                                  full[rows])
            assert np.array_equal(rowlocal_dot(u[rows], time_major(rows)),
                                  full[rows])
            assert np.array_equal(rowlocal_dot(u[rows], u[rows]),
                                  squares[rows])
        for inv in (rng.integers(0, 2000, size=n),
                    np.tile(np.arange(min(n, 5)), n)[:n]):
            assert np.array_equal(rowlocal_dot(u[inv], noise[inv, 2]),
                                  full[inv])
            assert np.array_equal(rowlocal_dot(u[inv], drawn[:, inv].T),
                                  full[inv])
    if r <= 2:
        assert np.array_equal(full, (u * xi).sum(axis=1))
        assert np.array_equal(squares, (u * u).sum(axis=1))


@pytest.mark.parametrize("stepper, L", [
    ("euler_maruyama", 1), ("srk_additive", 1), ("brownian_osc", 1),
    ("brownian_osc", 3), ("advdiff", 1), ("advdiff", 20)],
    ids=["euler_maruyama", "srk_additive", "brownian_osc", "brownian_osc-3",
         "spde", "spde-20"])
def test_the_control_is_a_shift_of_the_draws(stepper, L):
    """Every engine stepper takes the control u as the shift
    xi -> xi + sqrt(dt) u of each step's standard normal draws, the shift
    the engine's Girsanov weight assumes: an L-step segment's first r
    draws, whose sum over the steps is sqrt(L) of them, move by
    sqrt(L dt) u, and the segment returns the unshifted sum."""
    rng = np.random.default_rng(8)
    dt = 1e-3
    if stepper in ("brownian_osc", "advdiff"):
        model = make_builtin_model(stepper)
        step = LinearStepper(model, dt)
    else:
        vdp = make_builtin_model("vdp")
        model = SdeModel("dense", vdp.drift, rng.normal(size=(2, 3)))
        step = SdeStepper(model, dt) if stepper == "srk_additive" \
            else EulerMaruyamaStepper(model, dt)
    d, r = model.dim_state, model.dim_noise
    x = rng.normal(size=(50, d))
    u = 3.0 * rng.normal(size=(50, r))
    z = rng.normal(size=(50, step.draws(L)))
    shifted = z.copy()
    shifted[:, :r] += math.sqrt(L * dt) * u
    got, xi = step.segment(x, u, z, L)
    want, xi_shifted = step.segment(x, None, shifted, L)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(xi, math.sqrt(L) * z[:, :r], rtol=1e-15)


@pytest.mark.parametrize("B, scheme", [
    ([[0.7, -0.45]], None),
    ([[0.6, 0.3], [-0.2, 0.5]], "euler_maruyama"),
    ([[0.6, 0.3], [-0.2, 0.5], [0.1, -0.8]], None),
    ([[0.6, 0.3], [-0.2, 0.5]], None)],
    ids=["B0", "B1", "B_3x2", "B1_default_srk"])
def test_dense_diffusion_is_bitwise_invariant(B, scheme, monkeypatch):
    """A dense constant B with two noise columns, under the model's SRK
    step and, for B1, under the reference Euler-Maruyama step: the 257
    rows on four workers, in blocks capped at 64 rows (a one-row tail
    block) and in one-row blocks each give the one-block ensemble."""
    B = np.array(B)
    d = len(B)
    m = SdeModel("dense", lambda x: -np.asarray(x, float), B)

    def run(workers=1):
        return _ensemble(m, None, np.ones(d), 1.0, 1e-2, scheme, M=257,
                         master_seed=5, workers=workers)

    runs = [run(), run(4)]
    for cap in (64, 1):
        monkeypatch.setattr(paths, "MAX_BLOCK_ROWS", cap)
        runs.append(run())
    for alt in runs[1:]:
        assert np.array_equal(runs[0].terminal, alt.terminal)


@pytest.mark.parametrize("scheme", ["euler_maruyama", None])
def test_three_noise_columns_are_bitwise_invariant(scheme, monkeypatch):
    """A user model with three noise columns under a control, stepped by
    the reference Euler-Maruyama step and by its SRK step: 257 rows on
    1-4 workers and in blocks capped at 1, 7 and 64 rows give the same
    terminal states and log-weights bit for bit.  Its draws are read
    time-major, and for r >= 3 einsum sums a row in another order on such
    F-ordered views (see rowlocal_dot)."""
    vdp = make_builtin_model("vdp")
    m = SdeModel("dense3", vdp.drift, np.array([[0.6, 0.3, -0.2],
                                                [-0.2, 0.5, 0.4]]))
    ctrl = _ConstantController([0.2, -0.1, 0.3], 1.0, r=3)

    def run(workers=1):
        return _ensemble(m, ctrl, [1.0, 0.0], 1.0, 1e-2, scheme, M=257,
                         master_seed=5, workers=workers)

    runs = [run(w) for w in (1, 2, 3, 4)]
    for cap in (1, 7, 64):
        monkeypatch.setattr(paths, "MAX_BLOCK_ROWS", cap)
        runs.append(run())
    for alt in runs[1:]:
        assert runs[0].terminal.tobytes() == alt.terminal.tobytes()
        assert runs[0].log_weight.tobytes() == alt.log_weight.tobytes()


class _StateController(_ConstantController):
    """u + 0.1 sin(x_1) row by row, times its multiplier: a scalar or one
    value per row."""

    def with_multiplier(self, c):
        out = copy.copy(self)
        out.multiplier = c
        return out

    def bias_batch(self, t, X):
        u = self.u + 0.1 * np.sin(X[:, :1])
        return u * np.reshape(self.multiplier, (-1, 1)), 0


@pytest.mark.parametrize("case", ["srk", "linear", "stacked"])
def test_the_noise_layout_moves_no_bits(case, monkeypatch):
    """Draws filled through tiles of 1, 5 and 32 paths (69 paths, or 45
    distinct ones in the stacked case: no multiple of 5 or 32), and read
    row-major instead of time-major, give the same rows bit for bit:
    vdp's SRK steps, brownian_osc's exact map, and a stacked sweep whose
    rows gather repeated paths at three multipliers."""
    ctrl = _StateController([0.2, -0.1], 1.0, r=2)
    path_index = None
    if case == "linear":
        m = make_builtin_model("brownian_osc")
        step = LinearStepper(m, 1e-2)
        ctrl = _StateController([0.3], 1.0)
        ctrl.hold_time = 0.02
    else:
        m = make_builtin_model("vdp")
        step = SdeStepper(m, 1e-2)
    M = 69
    if case == "stacked":
        M, path_index = 135, np.tile(np.arange(45), 3)
        ctrl = ctrl.with_multiplier(np.repeat([1.0, 2.0, 4.0], 45))
    starts = np.tile([1.0, 0.0], (M, 1))

    def run():
        return paths.run_engine(step, starts, 100, 1e-2, ctrl, 5,
                                path_index=path_index)

    assert step.time_major
    runs = []
    for tile in (1, 5, 32):
        monkeypatch.setattr(paths, "TILE_ROWS", tile)
        runs.append(run())
    step.time_major = False
    runs.append(run())
    for alt in runs[1:]:
        for field in ("terminal", "log_weight", "floored"):
            assert getattr(runs[0], field).tobytes() == \
                getattr(alt, field).tobytes()


def _linear_model_of(d):
    """A linear model of d states: ou1d (1), brownian_osc (2), a dense
    3 x 3 user model (3), advdiff on d modes otherwise."""
    if d == 3:
        rng = np.random.default_rng(21)
        return _linear_model("dense3",
                             -np.eye(3) + 0.4 * rng.normal(size=(3, 3)),
                             0.3 * rng.normal(size=(3, 3)), {})
    if d < 3:
        return make_builtin_model(("ou1d", "brownian_osc")[d - 1])
    return make_builtin_model("advdiff", {"n_modes": d})


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 64])
def test_a_linear_stepper_chooses_its_product_by_the_state_dimension(d):
    """The dimension rule: below BLAS_MIN_STATES (8) states a linear model
    steps by rowlocal_product and reads time-major noise, from it on by
    BLAS products and row-major noise, whatever the model; the SDE
    stepper is row-local and time-major."""
    assert paths.BLAS_MIN_STATES == 8
    assert SdeStepper(make_builtin_model("vdp"), 1e-2).time_major
    model = _linear_model_of(d)
    step = LinearStepper(model, 1e-2)
    assert model.dim_state == d
    blas = d >= 8
    assert step.product is (np.matmul if blas else paths.rowlocal_product)
    assert step.time_major is not blas


_WORKER_RUNS = """
import hashlib
from koopmanis import make_builtin_model, run_paths
from reference import spde_quadratic_controller
adv = make_builtin_model("advdiff", {"n_modes": 5})
ctrl = spde_quadratic_controller(adv, 1.0, 0.4, 1.0, multiplier=2.0)
for workers in (1, 2, 3):
    ens = run_paths(adv, ctrl, None, 1.0, 1e-2, M=257, master_seed=5,
                    workers=workers)
    print(hashlib.sha256(ens.terminal.tobytes() + ens.log_weight.tobytes()
                         + ens.floored.tobytes()).hexdigest())
"""


def test_a_row_local_advdiff_is_bitwise_invariant_to_workers_and_threads():
    """advdiff on 5 modes steps by row-local products: a controlled
    257-row ensemble is bit for bit the same on 1, 2 and 3 workers, in a
    process on one BLAS thread and in one on two."""
    here = Path(__file__).resolve().parent
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(here.parent / "src"), str(here), env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", _WORKER_RUNS], env=env,
                             capture_output=True, text=True, check=True)
        digests += out.stdout.split()
    assert len(digests) == 6 and len(set(digests)) == 1


@pytest.mark.parametrize("n_paths", [1, 31, 32, 33, 1000])
@pytest.mark.parametrize("time_major", [True, False])
def test_the_noise_buffer_and_its_tile_stay_within_the_budget(
        n_paths, time_major, monkeypatch):
    """The noise buffer and the tile the paths draw into hold at most
    NOISE_BUFFER_DOUBLES doubles together, for path counts below, at and
    above one tile."""
    monkeypatch.setattr(paths, "NOISE_BUFFER_DOUBLES", 40_000)
    step = LinearStepper(make_builtin_model("brownian_osc"), 1e-2)
    segments = paths._segments(step, 500, 2, 1, 0)   # 250 x 3 draws
    chunks, noise, rows = paths._noise_buffers(time_major, n_paths,
                                               segments)
    held = noise.size + (0 if rows is noise else rows.size)
    assert held <= paths.NOISE_BUFFER_DOUBLES
    width = max(segments[b - 1][3] - segments[a][2] for a, b in chunks)
    assert noise.shape == ((width, n_paths) if time_major
                           else (n_paths, width))
    assert rows.shape[1] == width
    if n_paths == 1000:
        assert len(chunks) > 1


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


@pytest.mark.parametrize("case", ["sde", "stacked_sweep", "spde"])
def test_noise_budget_does_not_change_results(fitted_controllers, case,
                                              monkeypatch):
    """A noise budget of one step per chunk, one of 7 steps (50 steps end
    in a 1-step chunk) and the default (one 50-step chunk) give the same
    rows bit for bit: a plain SDE ensemble, a stacked sweep whose rows
    repeat path indices, and an SPDE ensemble."""
    model, ctrl, x0 = fitted_controllers["legendre_box"]
    if case == "sde":
        def run():
            return run_paths(model, ctrl, x0, 1.0, 2e-2, M=40, master_seed=5)
        per_step = 40 * model.dim_noise
    elif case == "stacked_sweep":
        swept = ctrl.with_multiplier(np.repeat([1.0, 2.0, 4.0], 20))

        def run():
            return run_paths(model, swept, x0, 1.0, 2e-2, M=60,
                             master_seed=5,
                             path_index=np.tile(np.arange(20), 3))
        per_step = 20 * model.dim_noise  # 20 distinct paths
    else:
        adv = make_builtin_model("advdiff", {"n_modes": 8})
        spde_ctrl = spde_quadratic_controller(adv, 1.0, 0.4, 1.0,
                                              multiplier=2.0)

        def run():
            return run_paths(adv, spde_ctrl, None, 1.0, 2e-2, 40,
                             master_seed=5)
        per_step = 40 * adv.dim_state
    ref = run()
    alts = []
    for budget in (1, 7 * per_step):
        monkeypatch.setattr(paths, "NOISE_BUFFER_DOUBLES", budget)
        alts.append(run())
    for alt in alts:
        for field in ("terminal", "log_weight", "floored"):
            assert getattr(ref, field).tobytes() == \
                getattr(alt, field).tobytes()


def test_noise_is_held_in_one_buffer_per_block(monkeypatch):
    """2000 rows over 200 steps in 4 noise chunks of 50 steps: the traced
    peak stays below 1.5 noise buffers plus the rows' noise streams and
    per-step scratch, so no chunk is held twice and no chunk outlives the
    next one."""
    m = make_builtin_model("vdp")
    M, r, chunk = 2000, m.dim_noise, 50
    monkeypatch.setattr(paths, "NOISE_BUFFER_DOUBLES", chunk * M * r)
    buffer_bytes = chunk * M * r * 8
    scratch_bytes = 20 * M * m.dim_state * 8
    tracemalloc.start()
    try:
        gens = [derive_path_rng(5, i) for i in range(M)]
        stream_bytes, _ = tracemalloc.get_traced_memory()
        del gens
        tracemalloc.reset_peak()
        ens = run_paths(m, None, [2.0, 0.0], 2.0, 1e-2, M=M, master_seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ens.K == 4 * chunk
    assert peak < 1.5 * buffer_bytes + stream_bytes + scratch_bytes


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
    """Not NaN starts and a "fewer than two paths survived" error.  A
    missing x0 is the origin of a linear model, and the same error on a
    nonlinear one (vdp), which has no origin to start from."""
    m = make_builtin_model("vdp" if x0 is None else "ou1d")
    with pytest.raises(ShapeError, match=f"x0 .*dimension {m.dim_state}"):
        run_paths(m, None, x0, 1.0, 1e-2, M=4)
    with pytest.raises(ShapeError, match="x0"):
        run_ensemble(m, None, make_event("coordinate", 2.0), x0, 1.0, 1e-2,
                     M=4)


def test_blowup_raises_in_single_path():
    m = SdeModel("explode", lambda x: np.asarray(x, float) ** 3,
                 np.zeros((1, 1)))
    with pytest.raises(PathBlowupError) as exc:
        simulate_path(m, None, [10.0], 1.0, 0.05, master_seed=0)
    assert exc.value.step_index >= 0


def test_blowup_counted_in_ensemble():
    m = SdeModel("explode", lambda x: np.asarray(x, float) ** 3,
                 np.zeros((1, 1)))
    ens = run_paths(m, None, [10.0], 1.0, 0.05, M=4, master_seed=0)
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
        adv = make_builtin_model("advdiff", {"n_modes": 8})
        run = lambda: run_paths(adv, None, None, 0.1, 1e-2, 4, 0,
                                trajectory_count=count,
                                trajectory_stride=stride)
    with pytest.raises(ConfigError):
        run()


def _reference_rows(model, controller, x0, T, dt, master_seed, M,
                    traj_count, traj_stride):
    """Loop version of the trajectory rows (one block), kept as the
    reference for the block engine's snapshot stride."""
    K, dt = adjust_steps(T, dt)
    step = SdeStepper(model, dt)
    gens = [derive_path_rng(master_seed, i) for i in range(M)]
    x = np.tile(np.asarray(x0, dtype=float), (M, 1))
    blown = np.zeros(M, dtype=bool)
    rec = min(traj_count, M)
    rows = [(j, 0.0, x[j].copy()) for j in range(rec)]
    for k in range(K):
        xi = np.stack([g.standard_normal(model.dim_noise) for g in gens])
        u = None if controller is None else controller.bias_batch(k * dt, x)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            x = step.segment(x, u, xi, 1)[0]
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
    ref = _reference_rows(m, ctrl, [-1.5, 0.0], 1.0, 1e-2, 4, 5, 3, 7)
    assert len(ens.trajectories) == len(ref) == 3 * (1 + 14 + 1)
    for (p, t, x), (p_ref, t_ref, x_ref) in zip(ens.trajectories, ref):
        assert (p, t) == (p_ref, t_ref)
        assert np.array_equal(x, x_ref)
    assert ens.trajectories[-1][1] == 1.0


@pytest.mark.parametrize("hold_time, dt, steps", [
    (0.0, 5e-3, 1), (0.02, 5e-3, 4), (0.02, 1e-2, 2), (0.02, 1e-3, 20),
    (0.02, 0.02, 1), (0.02, 0.05, 1), (0.035, 1e-2, 3), (0.1, 0.1 / 3, 3)])
def test_hold_steps_counts_whole_steps_in_the_hold_time(hold_time, dt, steps):
    assert hold_steps(hold_time, dt) == steps


@pytest.mark.parametrize("hold_time", [-0.01, math.inf, math.nan])
def test_a_bad_hold_time_is_a_config_error(hold_time):
    with pytest.raises(ConfigError):
        hold_steps(hold_time, 1e-2)


def _held_cases(fitted_controllers, hold_time):
    """(model, controller, x0) with one noise column each, so that the
    reference's dot product and the engine's row sum agree bit for bit,
    each controller holding its control for ``hold_time``."""
    model, ctrl, x0 = fitted_controllers["linear_exact"]
    duffing = make_builtin_model("duffing")
    const = _ConstantController([0.3], 1.0)
    const.hold_time = hold_time
    return [(model, ctrl.with_multiplier(4.0).with_hold_time(hold_time), x0),
            (duffing, const, np.array([-1.5, 0.0]))]


def test_held_control_matches_the_single_path_reference(fitted_controllers):
    """At a hold of 3 steps (100 steps end one step into a hold) every row
    of the engine is the reference path held alike, bit for bit."""
    for model, ctrl, x0 in _held_cases(fitted_controllers, 0.03):
        ens = run_paths(model, ctrl, x0, 1.0, 1e-2, M=6, master_seed=21,
                        workers=2)
        for i in range(6):
            res = simulate_path(model, ctrl, x0, 1.0, 1e-2, master_seed=21,
                                path_index=i)
            assert res.terminal_state.tobytes() == ens.terminal[i].tobytes()
            assert res.log_weight == ens.log_weight[i]


def test_the_default_hold_is_held_control(fitted_controllers):
    """A controller holds its control for ``paths.HOLD_TIME`` unless told
    otherwise: 2 steps at dt 1e-2, which moves the fitted controller's
    weights off the per-step ones."""
    model, ctrl, x0 = fitted_controllers["linear_exact"]
    assert ctrl.hold_time == paths.HOLD_TIME == 0.02
    held, per_step = (run_paths(model, c, x0, 1.0, 1e-2, M=5, master_seed=3)
                      for c in (ctrl, ctrl.with_hold_time(0.0)))
    want = [simulate_path(model, ctrl.with_hold_time(0.0), x0, 1.0, 1e-2,
                          master_seed=3, path_index=i) for i in range(5)]
    assert [r.log_weight for r in want] == per_step.log_weight.tolist()
    assert not np.array_equal(held.log_weight, per_step.log_weight)


def test_a_hold_of_at_most_one_step_is_per_step_control(fitted_controllers):
    """hold_time 0, or any hold time up to one step, evaluates the control
    at every step: the rows of the per-step reference loop, bit for bit."""
    for hold_time in (0.0, 4e-3, 1e-2, 1.5e-2):
        for model, ctrl, x0 in _held_cases(fitted_controllers, hold_time):
            ens = run_paths(model, ctrl, x0, 1.0, 1e-2, M=5, master_seed=3)
            for i in range(5):
                res = _per_step_path(model, ctrl, x0, 1.0, 1e-2, 3, i)
                assert res[0].tobytes() == ens.terminal[i].tobytes()
                assert res[1] == ens.log_weight[i]


def _per_step_path(model, ctrl, x0, T, dt, master_seed, i):
    """Path i alone with the control evaluated at every step, whatever the
    controller's hold: (terminal state, log-weight)."""
    ctrl = copy.copy(ctrl)
    ctrl.hold_time = 0.0
    res = simulate_path(model, ctrl, x0, T, dt, master_seed=master_seed,
                        path_index=i)
    return res.terminal_state, res.log_weight


@pytest.mark.parametrize("family", ["legendre_box", "linear_exact"])
def test_held_control_ensembles_are_bitwise_invariant(fitted_controllers,
                                                      family, monkeypatch):
    """At a hold of 4 steps, 257 rows on one and on three workers, and in
    blocks capped at 64 rows, give the same rows bit for bit."""
    model, ctrl, x0 = fitted_controllers[family]
    ctrl = ctrl.with_hold_time(0.04)

    def run(workers):
        return run_paths(model, ctrl, x0, 1.0, 1e-2, M=257, master_seed=5,
                         workers=workers)

    runs = [run(1), run(3)]
    monkeypatch.setattr(paths, "MAX_BLOCK_ROWS", 64)
    runs.append(run(3))
    for alt in runs[1:]:
        for field in ("terminal", "log_weight", "floored"):
            assert getattr(runs[0], field).tobytes() == \
                getattr(alt, field).tobytes()


class _FlooredAtStart(_ConstantController):
    """Phi floored on every row at t = 0 only."""

    def bias_batch(self, t, X):
        return np.tile(self.u, (len(X), 1)), np.full(len(X), t == 0.0)


@pytest.mark.parametrize("hold_time, floored", [(0.0, 1), (0.04, 4),
                                                (0.2, 10)])
def test_floored_counts_every_step_of_a_floored_hold(hold_time, floored):
    """The floor mask of the hold's first step counts for each step the
    hold drives: 1, 4 or all 10 steps (a hold longer than the horizon)."""
    m = make_builtin_model("ou1d")
    ctrl = _FlooredAtStart([0.1], 0.1)
    ctrl.hold_time = hold_time
    ens = run_paths(m, ctrl, [0.0], 0.1, 1e-2, M=3, master_seed=1)
    assert ens.floored.tolist() == [floored] * 3


def test_a_blown_row_drops_its_held_control():
    """A control that is infinite away from the origin blows every row up
    at the first step; the frozen rows then run on without it, to a finite
    terminal state, instead of on the held infinite control."""

    class FarInfinite(_ConstantController):
        hold_time = 0.04

        def bias_batch(self, t, X):
            return np.where(np.abs(X) > 0.5, np.inf, 0.0), 0

    m = SdeModel("still", lambda x: 0.0 * np.asarray(x, float),
                 np.full((1, 1), 0.1))
    with np.errstate(invalid="ignore"):   # the blown rows' weights
        ens = run_paths(m, FarInfinite([0.0], 1.0), [1.0], 1.0, 1e-2, M=4,
                        master_seed=2)
    assert ens.blown.all()
    assert np.isfinite(ens.terminal).all()


def _quadrature_law(A, B, h, panels=64):
    """(e^{Ah}, Gamma, Q - Gamma Gamma^T / h) of dX = A X dt + B dW over h
    by composite 20-node Gauss-Legendre quadrature of f(s) = e^{As} B on
    [0, h]: Gamma = int f and the conditional covariance in its centred
    form int (f - Gamma / h)(f - Gamma / h)^T, with no cancellation."""
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, h, panels + 1)
    nodes = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b)
                            for a, b in zip(edges[:-1], edges[1:])])
    wts = np.concatenate([0.5 * (b - a) * w
                          for a, b in zip(edges[:-1], edges[1:])])
    f = np.array([expm(A * s) @ B for s in nodes])
    G = np.einsum("n,nij->ij", wts, f)
    c = f - G / h
    return expm(A * h), G, np.einsum("n,nij,nkj->ik", wts, c, c)


_LINEAR = [("ou1d", {}, 1e-2), ("nonnormal2d", {}, 1e-2),
           ("brownian_osc", {}, 1e-2), ("advdiff", {"n_modes": 8}, 1e-3)]


@pytest.mark.parametrize("L", [1, 20])
@pytest.mark.parametrize("name, params, dt", _LINEAR,
                         ids=[c[0] for c in _LINEAR])
def test_the_hold_map_is_the_exact_law_of_the_segment(name, params, dt, L):
    """P^L = e^{Ah}^T, S / L = Gamma^T / (L sqrt(dt)) and R^T R =
    Q - Gamma Gamma^T / h of an L-step segment, h = L dt, against
    quadrature: P and Gamma to 1e-12 of their largest entries, and the
    conditional covariance R^T R to 1e-12 of the largest entry of the
    state covariance Q it is the part of; and Q itself is
    ``terminal_gaussian``'s covariance over h."""
    model = make_builtin_model(name, params)
    A, B = model.linear_spec
    h = L * dt
    step = LinearStepper(model, dt)
    PL, SL, R = step.segment_map(L)
    P, G, D = _quadrature_law(A, B, h)
    Q = D + G @ G.T / h
    for got, want, scale in ((PL.T, P, P), (SL.T * L * math.sqrt(dt), G, G),
                             (R.T @ R, D, Q)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(scale).max()
    _, cov = terminal_gaussian(model, h)
    assert np.abs(cov - Q).max() <= 1e-12 * np.abs(Q).max()
    assert step.draws(L) == model.dim_noise + len(R)


def test_linear_gaussian_needs_no_stable_drift():
    """An unstable A (growth rate 1) and a singular one (Brownian motion
    with a drifting second coordinate) against quadrature, to 1e-12."""
    B = np.array([[1.0], [0.5]])
    for A in (np.array([[1.0, 0.3], [0.0, -2.0]]),
              np.array([[0.0, 1.0], [0.0, 0.0]])):
        E, G, Q = linear_gaussian(A, B, 3.0)
        P, G_ref, D = _quadrature_law(A, B, 3.0)
        Q_ref = D + G_ref @ G_ref.T / 3.0
        for got, want in ((E, P), (G, G_ref), (Q, Q_ref)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name, params, dt", _LINEAR,
                         ids=[c[0] for c in _LINEAR])
def test_uncontrolled_terminal_law_is_the_exact_gaussian(name, params, dt):
    """20000 uncontrolled rows from x0 = 1, with trajectory rows every 7
    steps cutting the run into segments: the terminal mean and covariance
    match ``terminal_gaussian`` within 4 standard errors of each entry
    (Var of a sample covariance: (S_ii S_jj + S_ij^2) / M)."""
    model = make_builtin_model(name, params)
    M, T = 20_000, 0.5
    x0 = np.ones(model.dim_state)
    ens = run_paths(model, None, x0, T, dt, M=M, master_seed=17,
                    trajectory_count=1, trajectory_stride=7)
    mean, cov = terminal_gaussian(model, T, x0)
    sd = np.sqrt(np.diag(cov))
    assert np.all(np.abs(ens.terminal.mean(axis=0) - mean) < 4 * sd
                  / math.sqrt(M))
    se = np.sqrt((np.outer(sd ** 2, sd ** 2) + cov ** 2) / M)
    assert np.all(np.abs(np.cov(ens.terminal.T).reshape(cov.shape) - cov)
                  < 4 * se)


@pytest.mark.parametrize("family", ["linear_exact", "spde"])
def test_hold_zero_runs_one_step_segments(fitted_controllers, family,
                                          monkeypatch):
    """A control held for 0 time units is evaluated at every step, and a
    linear model then walks one-step segments, each drawing r + rank(R)
    normals: the rows of the single-path reference, bit for bit on
    brownian_osc, to 1e-12 on advdiff, whose maps are BLAS products."""
    model, ctrl, x0 = fitted_controllers[family]
    ctrl = ctrl.with_multiplier(2.0).with_hold_time(0.0)
    dt, T = 1e-2, 1.0
    counts = []

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, out=None):
            counts.append(out.size)
            return self.gen.standard_normal(*args, out=out)

    monkeypatch.setattr(paths, "derive_path_rng",
                        lambda *a: Counting(derive_path_rng(*a)))
    ens = run_paths(model, ctrl, x0, T, dt, M=3, master_seed=6)
    per_step = LinearStepper(model, dt).draws(1)
    assert counts == [100 * per_step] * 3
    assert per_step > model.dim_noise   # the map's R draws too
    for i in range(3):
        res = simulate_path(model, ctrl, x0, T, dt, master_seed=6,
                            path_index=i)
        if family == "linear_exact":
            assert res.terminal_state.tobytes() == ens.terminal[i].tobytes()
            assert res.log_weight == ens.log_weight[i]
        else:
            assert np.allclose(res.terminal_state, ens.terminal[i],
                               rtol=1e-12, atol=1e-15)
            assert res.log_weight == pytest.approx(ens.log_weight[i],
                                                   rel=1e-12)


def test_an_ensemble_of_no_rows_is_a_config_error():
    """It once ended in a raw ValueError from the engine."""
    m = make_builtin_model("ou1d")
    with pytest.raises(ConfigError, match="0 rows"):
        run_paths(m, None, [0.0], 0.1, 0.01, M=0)
    with pytest.raises(ConfigError, match="0 rows"):
        paths.run_engine(paths.model_stepper(m, 0.01),
                         np.zeros((0, 1)), 10, 0.01)
