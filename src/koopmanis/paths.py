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
  draws xi (B, r): Euler-Maruyama or SRK through ``_step_block``, or the
  exponential Euler recurrence of ``spde.exp_euler``;
- a per-path start of shape (M, d);
- one snapshot stride: the states of the first ``record`` paths are kept at
  t = 0 and after every ``stride`` steps.  ``run_paths`` builds its
  trajectory rows from these snapshots and adds the terminal state when K
  is not a multiple of the stride.

Determinism contract: path i draws its noise only from
``derive_path_rng(master_seed, i)``, in time order and in the same amounts
whatever the chunking; blocks are independent and assembled in path-index
order.  Results are therefore bit-identical for any worker count, and for
any block size when both the stepper and the controller are row-local:
row i of a step or of ``bias_batch`` depends only on row i of the input,
bit for bit, whatever the number of rows.  The Doob and exact OU
controllers are, and so are the SDE steppers on additive-noise models,
which form B v as a multiply-add over the noise columns.  The known
exceptions are the SPDE stepper (``spde.exp_euler``) and
``SpdeController``, whose mode-coupling matmuls are shape-sensitive at the
ulp level.  A path whose state becomes non-finite is marked blown and
frozen at zero.  ``simulate_path`` is the single-path reference the engine
is tested against.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import PathBlowupError, ShapeError, UnsupportedSchemeError

_MASK64 = (1 << 64) - 1

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
        raise ValueError("T and dt must be positive")
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


def integrate_step(model, scheme, x, u_val, dt, xi):
    """One step of the controlled system with drift A(x) + B(x) u_val.

    The control is held fixed at its left-endpoint value through the step;
    srk_additive is a two-stage scheme of weak order 2 on additive-noise
    models (Heun average of the drift, shared Brownian increment).
    """
    _check_scheme(model, scheme)
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if x.shape != (model.dim_state,) or xi.shape != (model.dim_noise,):
        raise ShapeError(
            f"expected state ({model.dim_state},) and noise ({model.dim_noise},)"
        )
    xb = x[None, :]
    ub = None if u_val is None else np.asarray(u_val, dtype=float)[None, :]
    out = _step_block(model, scheme, xb, ub, dt, xi[None, :])
    return out[0]


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
    """Engine stepper for one EM or SRK step of size dt."""
    return lambda x, u, xi: _step_block(model, scheme, x, u, dt, xi)


@dataclass
class PathResult:
    terminal_state: np.ndarray
    log_weight: float
    in_event: bool
    path_index: int
    trajectory: list | None = None


@dataclass
class PathEnsemble:
    """Raw per-path output of a simulated ensemble, in path-index order."""

    terminal: np.ndarray          # (M, d)
    log_weight: np.ndarray        # (M,)
    in_event: np.ndarray          # (M,) bool, False for blown paths
    blown: np.ndarray             # (M,) bool
    floor_count: int = 0
    trajectories: list = field(default_factory=list)
    K: int = 0
    dt: float = 0.0


def simulate_path(model, controller, obs, x0, T, dt, scheme=None,
                  rng=None, master_seed=0, path_index=0,
                  trajectory_stride=None) -> PathResult:
    """Simulate a single path; reference implementation of the block engine.

    Raises PathBlowupError (with the offending step index) if the state
    leaves the finite region.
    """
    scheme = scheme or default_scheme(model)
    _check_scheme(model, scheme)
    if controller is not None and abs(controller.horizon - T) > 1e-12:
        raise ValueError("controller horizon does not match requested T")
    if rng is None:
        rng = derive_path_rng(master_seed, path_index)
    K, dt = adjust_steps(T, dt)
    sqdt = math.sqrt(dt)
    x = np.array(x0, dtype=float)
    if x.shape != (model.dim_state,):
        raise ShapeError("x0 has wrong dimension")
    logw = 0.0
    traj = None
    if trajectory_stride is not None:
        traj = [(0.0, x.copy())]
    for k in range(K):
        t = k * dt
        xi = rng.standard_normal(model.dim_noise)
        if controller is not None:
            u = controller.bias_batch(t, x[None, :])[0][0]
            logw -= float(u @ xi) * sqdt + 0.5 * float(u @ u) * dt
        else:
            u = None
        with np.errstate(over="ignore", invalid="ignore"):
            x = integrate_step(model, scheme, x, u, dt, xi)
        if not np.all(np.isfinite(x)):
            raise PathBlowupError(k)
        if traj is not None and ((k + 1) % trajectory_stride == 0 or k == K - 1):
            traj.append(((k + 1) * dt, x.copy()))
    in_event = bool(obs.indicator(x)) if obs is not None else False
    return PathResult(x, logw, in_event, path_index, traj)


def _block_ranges(M, block_size):
    return [(s, min(s + block_size, M)) for s in range(0, M, block_size)]


def _run_block(step, r, x0, K, dt, controller, master_seed, start, stride,
               record):
    B = len(x0)
    sqdt = math.sqrt(dt)
    gens = [derive_path_rng(master_seed, i) for i in range(start, start + B)]
    x = np.array(x0, dtype=float)
    logw = np.zeros(B)
    blown = np.zeros(B, dtype=bool)
    floor_count = 0
    snaps = np.empty((record, 1 + K // stride) + x.shape[1:])
    snaps[:, 0] = x[:record]

    # noise is pre-drawn per path in time-ordered chunks so each stream is
    # consumed identically no matter the chunking
    chunk_steps = max(1, 4_000_000 // max(1, B * r))
    k = 0
    while k < K:
        kc = min(chunk_steps, K - k)
        xi_chunk = np.stack([g.standard_normal((kc, r)) for g in gens])
        for j in range(kc):
            xi = xi_chunk[:, j, :]
            u = None
            if controller is not None:
                u, nf = controller.bias_batch((k + j) * dt, x)
                floor_count += nf
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
    return x, logw, blown, floor_count, snaps


def run_engine(step, r, starts, K, dt, controller=None, obs=None,
               master_seed=0, block_size=8192, workers=1, stride=1,
               record=0):
    """The block engine: K steps of ``step(x, u, xi) -> x`` from each row of
    ``starts``, with r standard normal draws per path and step and the
    control of ``controller`` when one is given.

    Returns the ensemble and the snapshots (record, 1 + K // stride, d) of
    paths 0..record-1, taken at t = 0 and after every ``stride`` steps.
    """
    M = len(starts)
    if M == 0:
        raise ValueError("no paths to simulate")
    ranges = _block_ranges(M, block_size)

    def work(rng_pair):
        s, e = rng_pair
        return _run_block(step, r, starts[s:e], K, dt, controller,
                          master_seed, s, stride, max(0, min(record, e) - s))

    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, ranges))
    else:
        results = [work(rg) for rg in ranges]
    terminal, log_weight, blown, floors, snaps = zip(*results)
    terminal = np.concatenate(terminal)
    blown = np.concatenate(blown)
    in_event = np.zeros(M, dtype=bool)
    if obs is not None:
        ok = ~blown
        if ok.any():
            in_event[ok] = obs.indicator(terminal[ok]).astype(bool)
    ens = PathEnsemble(terminal, np.concatenate(log_weight), in_event, blown,
                       sum(floors), [], K, dt)
    return ens, np.concatenate(snaps)


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
    ens, snaps = run_engine(make_step(dt), r, starts, K, dt, master_seed=seed,
                            block_size=n, stride=every, record=n)
    kept = snaps[~ens.blown]
    return kept.reshape(-1, starts.shape[1]), (n - len(kept)) * snaps.shape[1]


def run_paths(model, controller, obs, x0, T, dt, scheme=None, M=1,
              master_seed=0, block_size=8192, workers=1,
              trajectory_count=0, trajectory_stride=None) -> PathEnsemble:
    """Simulate M paths and collect terminal states and Girsanov weights.

    Paths are partitioned into blocks that may run on worker threads; the
    result arrays are always assembled in path-index order and are
    bit-identical for any block size or worker count.  The first
    ``trajectory_count`` paths also report (path, t, state) rows every
    ``trajectory_stride`` steps and at T.
    """
    scheme = scheme or default_scheme(model)
    _check_scheme(model, scheme)
    K, dt = adjust_steps(T, dt)
    if trajectory_count and not trajectory_stride:
        trajectory_stride = max(1, K // 200)
    stride = trajectory_stride or 1
    starts = np.tile(np.asarray(x0, dtype=float), (M, 1))
    ens, snaps = run_engine(sde_stepper(model, scheme, dt), model.dim_noise,
                            starts, K, dt, controller, obs, master_seed,
                            block_size, workers, stride, trajectory_count)
    steps = range(0, K + 1, stride)
    for p, traj in enumerate(snaps):
        ens.trajectories.extend((p, kk * dt, x) for kk, x in zip(steps, traj))
        if K % stride:
            ens.trajectories.append((p, K * dt, ens.terminal[p]))
    return ens
