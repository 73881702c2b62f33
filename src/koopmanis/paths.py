"""Simulation of uncontrolled and controlled paths through one block engine.

Every path owns a deterministic noise stream derived from (master_seed,
path_index).  The Girsanov log-weight is accumulated alongside the state
using the same noise increments that drive the path, with the control
c B(x)^T grad(Phi)/Phi read from the controller's ``bias_batch``.

One engine (``run_engine``) runs every multi-path simulation in the
package: SDE ensembles (``run_paths``), SPDE mode ensembles
(``spde.run_spde_paths``), SDE test points (``gedmd.generate_test_points``)
and SPDE mode snapshots (``spde.generate_mode_snapshots``).  It takes

- a stepper ``step(x, u, xi) -> x`` that advances a block of states (B, d)
  by one step, given the control u (B, r) or None and standard normal
  draws xi (B, r): Euler-Maruyama or SRK through ``sde_stepper``, or the
  exponential Euler recurrence of ``spde.exp_euler``;
- a per-path start of shape (M, d);
- one snapshot stride: the states of the first ``record`` paths are kept at
  t = 0 and after every ``stride`` steps; ``PathEnsemble.trajectories``
  turns them into trajectory rows, for SDE and SPDE ensembles alike.

Layout rule: M rows run as blocks of min(MAX_BLOCK_ROWS, ceil(M / workers))
rows, on ``workers`` threads when there is more than one block.

The engine knows no event: it returns terminal states, log-weights and
blow-up flags, and the estimator evaluates the event once on the
surviving terminal states.

Determinism contract: row i of an ensemble draws its noise only from
``derive_path_rng(master_seed, path_index[i])`` (by default path_index[i]
= i), in time order and in the same amounts whatever the chunking; blocks
are independent and assembled in row order.  Rows that share a path index
replay one stream: each distinct path of a block is derived and drawn once
per noise chunk, and its draws are gathered into every row that names it.
A controller's multiplier is a scalar or one value per row; the engine
hands each block the slice of its rows, next to their starts.  Results are
therefore bit-identical for any worker count, and so for any layout, when
both the stepper and the controller are row-local: row i of a step or of
``bias_batch`` depends only on row i of the input (its state and its
multiplier), bit for bit, whatever the number of rows.  A row run with
path index p and multiplier c is then bit for bit path p of an ensemble
run at c alone, which is what lets ``doob.tune_multiplier`` run its whole
sweep as one stacked ensemble.  Every controller shares the one bias
formula of ``doob.Controller.bias_batch``, which is row-local when the
controller's ``value_grad_batch`` and ``_noise_map`` are.  The Doob and
exact OU controllers are, and so are the SDE steppers on additive-noise
models, which form B v as a multiply-add over the noise columns.  The
known exceptions are the SPDE stepper (``spde.exp_euler``) and
``SpdeController``: their mode-coupling matmuls are shape-sensitive at the
ulp level, so SPDE rows are bit-identical across worker counts and
stackings only as far as those BLAS products are.  A path whose state
becomes non-finite is marked blown and frozen at zero.  The single-path reference
the engine is tested against, one path stepped alone through
``sde_stepper``, is ``tests/reference.py``.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, InvalidParameterError, ShapeError,
                     UnsupportedSchemeError)

_MASK64 = (1 << 64) - 1
MAX_BLOCK_ROWS = 8192

SCHEMES = ("euler_maruyama", "srk_additive")


def derive_path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Return the noise stream owned by one path.

    Streams are keyed (counter-based Philox), so the stream for a given
    (seed, index) pair never depends on how many other paths exist or in
    which order they are simulated.
    """
    key = np.array(
        [master_seed & _MASK64, path_index & _MASK64], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def adjust_steps(T: float, dt: float) -> tuple[int, float]:
    """Number of steps and the (possibly shrunk) step size covering [0, T].

    If T/dt is not an integer the step count is rounded up and dt reduced
    so the horizon is hit exactly.
    """
    if T <= 0 or dt <= 0:
        raise InvalidParameterError(
            f"T and dt must be positive, got T = {T}, dt = {dt}")
    K = max(1, int(math.ceil(T / dt - 1e-9)))
    return K, T / K


def default_scheme(model) -> str:
    return "srk_additive" if model.diffusion_const is not None else "euler_maruyama"


def _check_scheme(model, scheme):
    if scheme not in SCHEMES:
        raise UnsupportedSchemeError(f"unknown scheme {scheme!r}")
    if scheme == "srk_additive" and model.diffusion_const is None:
        raise UnsupportedSchemeError(
            "srk_additive requires state-independent diffusion"
        )


def _apply_diffusion(model, x, v):
    """B(x) @ v for a batch of states x (B_, d) and vectors v (B_, r)."""
    if model.diffusion_const is not None:
        # an explicit multiply-add over the noise columns: a BLAS product
        # picks its kernel by the row count, which can move a row's last bit.
        # Formed as (d, B_) so that each multiply runs along the rows.
        B = model.diffusion_const
        out = B[:, :1] * v[:, 0]
        for k in range(1, B.shape[1]):
            out += B[:, k:k + 1] * v[:, k]
        return out.T
    B = model.diffusion(x)  # (B_, d, r)
    return np.einsum("bdr,br->bd", B, v)


def _step_block(model, scheme, x, u, dt, xi):
    a = model.drift(x)
    incr = _apply_diffusion(model, x, xi) * math.sqrt(dt)
    if u is not None:
        incr = incr + _apply_diffusion(model, x, u) * dt
    if scheme == "euler_maruyama":
        return x + a * dt + incr
    pred = x + a * dt + incr
    return x + 0.5 * dt * (a + model.drift(pred)) + incr


def sde_stepper(model, scheme, dt):
    """Engine stepper for one EM or SRK step of size dt.

    The control is held at its left-endpoint value through the step;
    srk_additive is a two-stage scheme of weak order 2 on additive-noise
    models (Heun average of the drift, shared Brownian increment).
    """
    return lambda x, u, xi: _step_block(model, scheme, x, u, dt, xi)


@dataclass
class PathEnsemble:
    """Raw per-row output of a simulated ensemble, in row order."""

    terminal: np.ndarray          # (M, d)
    log_weight: np.ndarray        # (M,)
    blown: np.ndarray             # (M,) bool
    floored: np.ndarray           # (M,) steps at which Phi was floored
    K: int = 0
    dt: float = 0.0
    stride: int = 1
    snapshots: np.ndarray | tuple = ()   # (record, 1 + K // stride, d)

    @property
    def trajectories(self) -> list:
        """(row, t, state) rows of rows 0..record-1: at t = 0, after every
        ``stride`` steps and at T."""
        rows, steps = [], range(0, self.K + 1, self.stride)
        for p, traj in enumerate(self.snapshots):
            rows.extend((p, k * self.dt, x) for k, x in zip(steps, traj))
            if self.K % self.stride:
                rows.append((p, self.K * self.dt, self.terminal[p]))
        return rows

    def rows(self, start, stop) -> "PathEnsemble":
        """Rows start..stop-1 as an ensemble of their own, without
        trajectories."""
        return PathEnsemble(self.terminal[start:stop],
                            self.log_weight[start:stop],
                            self.blown[start:stop],
                            self.floored[start:stop], self.K, self.dt)


def _run_block(step, r, x0, K, dt, controller, master_seed, path_index,
               stride, record):
    B = len(x0)
    sqdt = math.sqrt(dt)
    # one stream per distinct path; inv maps each row to its stream
    paths, inv = np.unique(path_index, return_inverse=True)
    if np.array_equal(inv, np.arange(B)):
        inv = slice(None)  # a stream per row, in order: read draws in place
    gens = [derive_path_rng(master_seed, int(p)) for p in paths]
    x = np.array(x0, dtype=float)
    logw = np.zeros(B)
    blown = np.zeros(B, dtype=bool)
    floored = np.zeros(B, dtype=np.int64)
    snaps = np.empty((record, 1 + K // stride) + x.shape[1:])
    snaps[:, 0] = x[:record]

    # noise is pre-drawn per path in time-ordered chunks so each stream is
    # consumed identically no matter the chunking; rows gather their
    # path's draws one step at a time
    chunk_steps = max(1, 4_000_000 // max(1, len(paths) * r))
    k = 0
    while k < K:
        kc = min(chunk_steps, K - k)
        xi_chunk = np.stack([g.standard_normal((kc, r)) for g in gens])
        for j in range(kc):
            xi = xi_chunk[inv, j]
            u = None
            if controller is not None:
                u, nf = controller.bias_batch((k + j) * dt, x)
                floored += nf
                logw -= (u * xi).sum(axis=1) * sqdt + 0.5 * (u * u).sum(axis=1) * dt
            with np.errstate(over="ignore", invalid="ignore"):
                x = step(x, u, xi)
            if not np.isfinite(x).all():
                newly = ~np.isfinite(x).all(axis=1) & ~blown
                blown |= newly
                x[newly] = 0.0  # frozen; excluded from every estimate
            if record and (k + j + 1) % stride == 0:
                snaps[:, (k + j + 1) // stride] = x[:record]
        k += kc
    return x, logw, blown, floored, snaps


def run_engine(step, r, starts, K, dt, controller=None, master_seed=0,
               workers=1, stride=None, record=0,
               path_index=None) -> PathEnsemble:
    """The block engine: K steps of ``step(x, u, xi) -> x`` from each row of
    ``starts``, with r standard normal draws per row and step and the
    control of ``controller`` when one is given.

    Row i draws the noise of path ``path_index[i]`` (default i), and runs
    at ``controller.multiplier[i]`` when the multiplier is an array.  The
    rows are laid out by the module's layout rule.  The ensemble keeps the
    snapshots of rows 0..record-1, taken at t = 0 and after every
    ``stride`` steps (default max(1, K // 200)).  A stride that is not a
    positive integer, or a record count that is not a non-negative
    integer, raises ``ConfigError``.
    """
    M = len(starts)
    if M == 0:
        raise ValueError("no paths to simulate")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if stride is not None and not (isinstance(stride, numbers.Integral)
                                   and stride >= 1):
        raise ConfigError(f"the trajectory stride must be a positive whole "
                          f"number of steps, got {stride!r}")
    if not (isinstance(record, numbers.Integral) and record >= 0):
        raise ConfigError(f"the trajectory count must be a non-negative "
                          f"integer, got {record!r}")
    path_index = np.arange(M) if path_index is None \
        else np.asarray(path_index)
    if path_index.shape != (M,):
        raise ShapeError(f"path_index must hold one index per row ({M}), "
                         f"got shape {path_index.shape}")
    per_row = controller is not None and np.ndim(controller.multiplier) > 0
    if per_row and np.shape(controller.multiplier) != (M,):
        raise ShapeError(f"a per-row multiplier needs one value per row "
                         f"({M}), got shape {np.shape(controller.multiplier)}")
    if stride is None:
        stride = max(1, K // 200)
    size = min(MAX_BLOCK_ROWS, math.ceil(M / workers))
    ranges = [(s, min(s + size, M)) for s in range(0, M, size)]

    def work(rng_pair):
        s, e = rng_pair
        ctrl = controller.with_multiplier(controller.multiplier[s:e]) \
            if per_row else controller
        return _run_block(step, r, starts[s:e], K, dt, ctrl, master_seed,
                          path_index[s:e], stride,
                          max(0, min(record, e) - s))

    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, ranges))
    else:
        results = [work(rg) for rg in ranges]
    terminal, log_weight, blown, floored, snaps = zip(*results)
    return PathEnsemble(np.concatenate(terminal), np.concatenate(log_weight),
                        np.concatenate(blown), np.concatenate(floored), K,
                        dt, stride, np.concatenate(snaps))


def trajectory_snapshots(make_step, r, starts, T_traj, stride, seed, dt):
    """Uncontrolled trajectories from each start, sampled every ``stride``
    time units including t = 0, stacked trajectory-major.

    ``make_step(dt)`` builds the stepper for the (adjusted) step size.
    Trajectories that blow up are left out; returns the points and the
    number of points left out that way.
    """
    starts = np.asarray(starts, dtype=float)
    if T_traj <= 0:
        return starts.copy(), 0
    K, dt = adjust_steps(T_traj, dt)
    every = max(1, int(round(stride / dt)))
    n = len(starts)
    ens = run_engine(make_step(dt), r, starts, K, dt, master_seed=seed,
                     stride=every, record=n)
    kept = ens.snapshots[~ens.blown]
    return (kept.reshape(-1, starts.shape[1]),
            (n - len(kept)) * ens.snapshots.shape[1])


def tile_start(x0, dim, M) -> np.ndarray:
    """The start x0 repeated for M rows; the one check, for the SDE and
    the SPDE engine alike, that x0 is a state of dimension ``dim``."""
    if x0 is None or np.shape(x0) != (dim,):
        raise ShapeError(f"x0 must be a state of the model dimension "
                         f"{dim}, got {x0!r}")
    return np.tile(np.asarray(x0, dtype=float), (M, 1))


def run_paths(model, controller, x0, T, dt, scheme=None, M=1,
              master_seed=0, workers=1, trajectory_count=0,
              trajectory_stride=None, path_index=None) -> PathEnsemble:
    """Simulate M rows and collect terminal states and Girsanov weights.

    Row i is path ``path_index[i]`` (default i).  The first
    ``trajectory_count`` rows also report trajectory rows every
    ``trajectory_stride`` steps and at T.
    """
    scheme = scheme or default_scheme(model)
    _check_scheme(model, scheme)
    K, dt = adjust_steps(T, dt)
    return run_engine(sde_stepper(model, scheme, dt), model.dim_noise,
                      tile_start(x0, model.dim_state, M), K, dt, controller,
                      master_seed, workers, trajectory_stride,
                      trajectory_count, path_index)
