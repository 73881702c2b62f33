"""Simulation of uncontrolled and controlled paths through one block engine.

Every path owns a deterministic noise stream derived from (master_seed,
path_index).  The Girsanov log-weight is accumulated alongside the state
using the same noise increments that drive the path, with the control
c B^T grad(Phi)/Phi read from the controller's ``bias_batch``.

One engine (``run_engine``) runs every multi-path simulation in the
package: ensembles (``run_paths``, the one call of the estimator and the
multiplier sweep, for every model, the SPDE's modes included) and
``trajectory_snapshots``, the trajectories the test points of
``gedmd.generate_test_points`` and the SPDE's mode snapshots in
``cli.prepare_controller`` come from.  It takes

- a stepper: ``step.draws(L)`` is the number of standard normals a row
  draws for a segment of L steps, and ``step.segment(x, u, z, L)``
  advances a block of states (B, d) through such a segment at the held
  control u (B, r) (None in an uncontrolled run), from the draws z
  (B, draws(L)), and returns the new states and the (B, r) sum of the
  segment's per-step draws, which the Girsanov weight takes;
  ``step.longest`` is the longest segment it takes, or None, and
  ``step.time_major`` the layout of its noise (see the layout rule).
  ``model_stepper`` picks the model's stepper: ``LinearStepper`` for
  every model with a ``linear_spec`` (ou1d, nonnormal2d, brownian_osc and
  advdiff), whose segments of any length are the exact law of the model
  and draw r + rank(R) normals (its docstring has the map), and
  ``SdeStepper``, the additive-noise SRK step, for the others, whose
  segments are single steps of r draws.  Every stepper takes the control as a
  shift of the per-step draws xi -> xi + sqrt(dt) u, so the engine's
  Girsanov weight is the exact likelihood ratio of the stepped chain;
- a per-path start of shape (M, d);
- one snapshot stride: the states of the first ``record`` paths are kept at
  t = 0 and after every ``stride`` steps; ``PathEnsemble.trajectories``
  turns them into trajectory rows, for every model alike.

Segments: the engine walks the K steps in segments that end at every hold
start of a control (see below), at every snapshot step when the
ensemble records rows, every ``step.longest`` steps, and at K: one list,
built before the blocks run, for every block.  Each segment runs at
one held control, and the engine sees the state only at segment ends: it
evaluates the control, takes the segment's Girsanov terms from the sum of
its draws, marks non-finite rows blown and takes snapshots there.  A
nonlinear model's segments are single steps.  An uncontrolled linear run
that records no rows is one segment; recording rows, or a control's
holds, move the ends of a linear run's segments, and with them every
row's draws: the same law, another realisation.

Layout rule: M rows run as blocks of min(MAX_BLOCK_ROWS, ceil(M / workers))
rows, on ``workers`` threads when there is more than one block.  A block
holds its states column-major, the layout of ``rowlocal_product``'s
results, so the noise increments and a linear drift meet the state in one
layout and the steppers' elementwise passes read no mixed strides.  Its
noise follows the stepper's products (``step.time_major``).  A stepper
whose products are ``rowlocal_product``'s (the SDE stepper, and a linear
model's below BLAS_MIN_STATES states) reads time-major noise, a (draws,
paths) buffer, so a segment's (B, draws) view has contiguous columns, the
operands of the column passes: row-major, a brownian_osc segment reads 3
of each row's 750 draws and a vdp step 2 of 2000, one cache line per row
and column.  The BLAS stepper of a linear model of BLAS_MIN_STATES or
more states reads row-major noise, (paths, draws), whose segment rows
(128 draws on 64-mode advdiff) already fill whole cache lines.  The
layout moves no bits where the stepper and the controller are row-local
(see the determinism contract).

Noise memory: each block allocates one buffer for its paths' noise and
draws every time-ordered chunk into it in place: each path into its row
of a row-major buffer, or into a row of a tile of TILE_ROWS paths that is
then copied, transposed, into a time-major one (a numpy Generator draws
only into contiguous memory).  A chunk is a run of whole segments whose
draws for the block's paths and the tile fit in NOISE_BUFFER_DOUBLES
doubles (or one segment that does not), and the runs split the draws
about evenly over as many chunks as the budget needs.  A block's buffer
and tile thus hold at most NOISE_BUFFER_DOUBLES doubles (32 MB) or one
segment's draws, whichever is more, and ``workers`` blocks running at
once hold ``workers`` buffers.  The budget changes no bits (see the
determinism contract).

The engine knows no event: it returns terminal states, log-weights and
blow-up flags, and the estimator evaluates the event once on the
surviving terminal states.

Determinism contract: row i of an ensemble draws its noise only from
``derive_path_rng(master_seed, path_index[i])`` (by default
path_index[i] = i): the Philox stream keyed by the two words
(master_seed mod 2^64, path_index[i] mod 2^64), from counter 0, built
from its key alone and so from no OS entropy.  It draws segment by
segment in time order, ``step.draws(L)`` normals for an L-step segment,
whatever the chunking, the tile and the layout; the segments are the
same for every row.  Blocks are independent and assembled in row order.
Rows that share a path index replay one stream: each distinct path of a
block is derived and drawn once per noise chunk, and its draws are
gathered into every row that names it.  A controller's multiplier is a
scalar or one value per row; the engine hands each block the slice of
its rows, next to their starts.  Results are therefore bit-identical for
any worker count, and so for any layout, when both the stepper and the
controller are row-local: row i of a segment or of ``bias_batch``
depends only on row i of the input (its state and its multiplier), bit
for bit, whatever the number of rows.  A row run with path index p and
multiplier c is then bit for bit path p of an ensemble run at c alone,
which is what lets ``doob.tune_multiplier`` run its whole sweep as one
stacked ensemble.
Every controller shares the one bias formula of
``doob.Controller.bias_batch``, which is row-local when the controller's
``value_grad_batch`` and ``_noise_map`` are.  The one per-segment product
with a constant matrix is ``rowlocal_product``: the SDE stepper forms
B xi and B u with it, a linear stepper of fewer than BLAS_MIN_STATES
states its products with P^L, S / L and R, and the controllers B^T grad
Phi and their coordinates q = X W (on advdiff, the adjoint coordinate
<Y, w1>), so all are row-local; the weight's row dot products u . xi and
u . u are ``rowlocal_dot``, whose bits depend on no layout, so the noise
layout moves no bits either.  The one exception is the dimension rule: a
linear model of BLAS_MIN_STATES or more states, whatever it models,
steps by BLAS products, shape-sensitive at the ulp level, so its rows
are bit-identical across worker counts and stackings only as far as
those products are.  At 2000 rows on one BLAS thread of a 2-core Xeon,
``rowlocal_product`` takes 165 us where BLAS takes 7.8 us at 8 states,
and 15 ms against 0.37 ms at 64 (advdiff); at 2 states, 7.6 against 3.2
us, where the row-local bits are worth the cost.
The control is held: a controller's ``hold_time`` (default ``HOLD_TIME``)
is s = ``hold_steps(hold_time, dt)`` steps, and the engine evaluates
``bias_batch`` at steps 0, s, 2s, ... only, keeping u and the floored mask
through the hold's segments.  Each step still takes
(u . xi) sqrt(dt) + 1/2 |u|^2 dt off the log-weight, in a segment as the
sum over its steps, and adds the mask to ``floored``, so the weight is
the Girsanov weight of the control that drove the path, and the estimate
stays unbiased for the stepped chain (for a linear model, the
continuous-time law); only its variance depends on s.
The hold counts global step indices, alike for every row, so rows stay
row-local; s = 1 (a hold time of at most one step, such as 0) is per-step
control.
A path whose state becomes non-finite is marked blown and frozen at zero,
and so is its held control.  The single-path reference the engine is
tested against, one path walked alone through its model's segments, is
in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidParameterError, ShapeError

_MASK64 = (1 << 64) - 1
MAX_BLOCK_ROWS = 8192
NOISE_BUFFER_DOUBLES = 4_000_000  # noise pre-drawn per block, in doubles
TILE_ROWS = 32   # paths drawn into a tile per transpose into time-major noise
BLAS_MIN_STATES = 8   # states from which a linear model steps by BLAS
TAYLOR_TERMS = 12   # of linear_gaussian's series: 1e-17 of the first term

# model time units a controller's bias is held for by default (see the
# determinism contract); on vdp at dt 5e-3 this is 4 steps and halves the
# final ensemble's time, with the error per sample within seed noise
HOLD_TIME = 0.02


class _Key:
    """The key (seed, index) of one path's Philox stream, handed to
    ``np.random.Philox`` as its seed.

    ``Philox(key=...)`` still builds and keeps a ``SeedSequence()`` drawn
    from OS entropy, which it never reads.  A seed that is an
    ``ISeedSequence`` is kept as given, and Philox reads its key from the
    seed's ``generate_state`` (two uint64 words), which here returns
    [seed, index]: the stream of ``Philox(key=[seed, index])``, built with
    no entropy read.  The class is registered with ``ISeedSequence``, not
    derived from it, and keeps the two words as ints in ``__slots__``, so
    a stream carries no instance ``__dict__`` and no array.
    """

    __slots__ = ("seed", "index")

    def __init__(self, seed: int, index: int):
        self.seed = seed
        self.index = index

    def generate_state(self, n_words, dtype=np.uint64):
        return np.array([self.seed, self.index], dtype=np.uint64)


np.random.bit_generator.ISeedSequence.register(_Key)


def derive_path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Return the noise stream owned by one path.

    The stream is ``Generator(Philox(key=[master_seed mod 2^64,
    path_index mod 2^64]))`` at counter 0, bit for bit.  Philox is
    counter-based, so the key alone defines the stream: it never depends
    on how many other paths exist or in which order they are simulated,
    and building it reads no OS entropy (``_Key``).
    """
    return np.random.Generator(
        np.random.Philox(_Key(master_seed & _MASK64, path_index & _MASK64)))


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


def rowlocal_product(v, M):
    """v @ M for a batch of rows v (n, p) and a constant matrix M (p, q),
    as (n, q): the one per-step product of the engine and the controllers.

    An explicit multiply-add over the columns of v, so row i depends only
    on v[i], bit for bit, whatever n: a BLAS product picks its kernel by
    the row count, which can move a row's last bit.  Formed as (q, n) so
    that each multiply runs along the rows.
    """
    out = M[0][:, None] * v[:, 0]
    for k in range(1, len(M)):
        out += M[k][:, None] * v[:, k]
    return out.T


def rowlocal_dot(a, b):
    """The row dot products a[i] . b[i] of two (n, r) batches, as (n,):
    the engine's Girsanov terms u . xi and u . u.

    One pass over the rows, and row i depends only on a[i] and b[i], bit
    for bit, whatever n and the layout of either: a row-major or
    time-major view of the noise buffer, or a gather of repeated rows.
    For r <= 2 it is bit for bit ``(a * b).sum(axis=1)`` in any layout.
    For r >= 3 einsum's order of summation follows the layout (on
    F-ordered inputs the sum over a row runs in the outer loop, on
    C-ordered ones in the inner), so both are read C-ordered, copied when
    they are not; the engine holds the control u C-contiguous, so only a
    time-major xi is copied.
    """
    if a.shape[1] >= 3:
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return np.einsum("ij,ij->i", a, b)


class SdeStepper:
    """Engine stepper for steps of size dt of the additive-noise SRK
    scheme: a two-stage scheme of weak order 2 for additive noise (Heun
    average of the drift, shared Brownian increment).

    Its segments are single steps (``longest`` = 1), each drawing
    r = ``model.dim_noise`` normals: a longer one would only hold more
    draws in the noise buffer at once.  The control is held at its
    left-endpoint value through the step.
    """

    longest = 1   # its segments are single steps
    time_major = True   # its products are rowlocal_product's: layout rule

    def __init__(self, model, dt):
        self.model, self.dt = model, dt
        self.r = model.dim_noise

    def draws(self, L):
        return self.r   # L is 1

    def segment(self, x, u, xi, L):
        dt, drift, Bt = self.dt, self.model.drift, self.model.diffusion_const.T
        a = drift(x)
        incr = rowlocal_product(xi, Bt) * math.sqrt(dt)
        if u is not None:
            incr = incr + rowlocal_product(u, Bt) * dt
        pred = x + a * dt + incr
        return x + 0.5 * dt * (a + drift(pred)) + incr, xi


def linear_gaussian(A, B, t):
    """(E, Gamma, Q) of dX = A X dt + B dW over a time t: E = e^{At},
    Gamma = int_0^t e^{As} B ds and Q = int_0^t e^{As} B B^T e^{A^T s} ds,
    the covariance of X_t started at 0.  The one home of the
    linear-Gaussian law, for the terminal law and the hold map alike.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005):
    TAYLOR_TERMS terms of each series over t / 2^k, |A|_1 t / 2^k <= 1/8,
    doubled k times by E(2s) = E(s)^2, Gamma(2s) = Gamma(s) + E(s) Gamma(s)
    and Q(2s) = Q(s) + E(s) Q(s) E(s)^T.  No step subtracts, so stiff modes
    lose nothing (Van Loan's doubled exponential grows like e^{80} over a
    20-step hold of advdiff's 64 modes and cancels to nothing), and A need
    not be stable.  There it takes 1.7 ms, where expm with the stationary
    Lyapunov form takes 7.8 (one thread of a 2-core Xeon).
    """
    k = math.ceil(math.log2(max(8.0 * t * np.abs(A).sum(axis=0).max(), 1.0)))
    h = t / 2 ** k
    Ah = A * h
    E, G, Q = np.eye(len(A)), h * B, h * (B @ B.T)
    tE, tG, tQ = E, G, Q
    for n in range(1, TAYLOR_TERMS + 1):
        tE = Ah @ tE / n
        tG = Ah @ tG / (n + 1)
        tQ = Ah @ tQ
        tQ = (tQ + tQ.T) / (n + 1)
        E, G, Q = E + tE, G + tG, Q + tQ
    for _ in range(k):
        G = G + E @ G
        Q = Q + E @ Q @ E.T
        E = E @ E
    return E, G, 0.5 * (Q + Q.T)


class LinearStepper:
    """Engine stepper of the linear model dX = A X dt + B dW, (A, B) its
    ``linear_spec``, for steps of size dt, whose every segment is the
    exact law of the model (Van Loan, IEEE TAC 23(3), 1978): the chain has
    no time-step error.  An L-step segment, h = L dt, at a held control u
    moves a row as

        X_h = X P^L + (Xi + L sqrt(dt) u) S / L + zeta R,

    with P^L = e^{Ah}^T, S / L = Gamma^T / (L sqrt(dt)) and R^T R =
    Q - Gamma Gamma^T / h, the covariance of the state given the
    segment's Brownian increment sqrt(dt) Xi, where (e^{Ah}, Gamma, Q) is
    ``linear_gaussian`` over h.  Xi = sqrt(L) zeta_1, the sum of the L
    per-step draws, is what ``segment`` returns for the Girsanov weight;
    zeta_1 (r) and zeta (rank R) are the segment's r + rank(R) standard
    normal draws.  The control shifts the draws as the engine's weight
    assumes, so that weight is the exact likelihood ratio of the chain.
    The maps are built once per L, when the engine asks ``draws`` of each
    segment length before its blocks run, so worker threads only read
    them; R keeps the eigen-directions of R^T R above d eps of its largest
    eigenvalue.  Its products are BLAS ones from BLAS_MIN_STATES states
    on, ``rowlocal_product``'s below (the determinism contract's
    dimension rule), and its noise layout follows them.
    """

    longest = None   # a segment of any length draws r + rank(R) normals

    def __init__(self, model, dt):
        self.A, self.B = model.linear_spec
        self.r = self.B.shape[1]
        self.dt, self.sqdt = dt, math.sqrt(dt)
        self.product = np.matmul if len(self.A) >= BLAS_MIN_STATES \
            else rowlocal_product
        self.time_major = self.product is rowlocal_product
        self._maps = {}

    def segment_map(self, L):
        """(P^L, S / L, R) of an L-step segment, built once per L."""
        if L not in self._maps:
            h = L * self.dt
            E, G, Q = linear_gaussian(self.A, self.B, h)
            vals, vecs = np.linalg.eigh(Q - G @ G.T / h)
            keep = vals > len(Q) * np.finfo(float).eps * max(vals.max(), 0.0)
            R = np.sqrt(vals[keep])[:, None] * vecs[:, keep].T
            self._maps[L] = E.T, G.T / (L * self.sqdt), R
        return self._maps[L]

    def draws(self, L):
        return self.r + len(self.segment_map(L)[2])

    def segment(self, x, u, z, L):
        PL, SL, R = self.segment_map(L)
        w = math.sqrt(L) * z[:, :self.r]   # Xi, the sum of the steps' draws
        if u is not None:
            w += (L * self.sqdt) * u
        out = self.product(x, PL)
        out += self.product(w, SL)
        if len(R):
            out += self.product(z[:, self.r:], R)
        # Xi formed again, not held next to w through the products
        return out, w if u is None else math.sqrt(L) * z[:, :self.r]


def model_stepper(model, dt):
    """``LinearStepper`` for a model with a ``linear_spec``, else
    ``SdeStepper``."""
    if model.linear_spec is None:
        return SdeStepper(model, dt)
    return LinearStepper(model, dt)


@dataclass
class PathEnsemble:
    """Raw per-row output of a simulated ensemble, in row order."""

    terminal: np.ndarray | None   # (M, d)
    log_weight: np.ndarray        # (M,)
    blown: np.ndarray             # (M,) bool
    floored: np.ndarray           # (M,) steps driven by a floored Phi,
                                  # held steps included
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
                rows.append((p, self.K * self.dt, self.terminal[p].copy()))
        return rows

    def rows(self, start, stop) -> "PathEnsemble":
        """Rows start..stop-1 as an ensemble of their own, without
        trajectories."""
        return PathEnsemble(self.terminal[start:stop],
                            self.log_weight[start:stop],
                            self.blown[start:stop],
                            self.floored[start:stop], self.K, self.dt)


def _segments(step, K, hold, stride, record):
    """The engine's segments as (first step, end step, first draw, end
    draw).  They end at every hold start (none without a control,
    ``hold`` None), at every snapshot step when the ensemble records
    rows (``record`` > 0), every ``step.longest`` steps when the stepper
    sets it, and at K; each draws ``step.draws`` of its length, numbered
    from 0 in time order."""
    ends = {K}
    for every in (hold, stride if record else None, step.longest):
        if every:
            ends.update(range(every, K, every))
    segments, k, lo = [], 0, 0
    for end in sorted(ends):
        hi = lo + step.draws(end - k)
        segments.append((k, end, lo, hi))
        k, lo = end, hi
    return segments


def _noise_chunks(segments, per_path):
    """Runs [a, b) of consecutive segments, each drawing at most
    ``per_path`` normals per path (or one segment, where one alone draws
    more) and ending once it holds an even share of the draws: as many
    runs as the budget needs, and a buffer no wider than they need: on
    advdiff 26.6 MB where a greedy cut holds 30.7 MB, which moves the
    benchmark's peak RSS by 3.4 MB."""
    total = segments[-1][3]
    share = total / math.ceil(total / max(per_path, 1))
    chunks, a = [], 0
    for i, (_, _, lo, hi) in enumerate(segments):
        held = lo - segments[a][2]
        if i > a and (held >= share or hi - segments[a][2] > per_path):
            chunks.append((a, i))
            a = i
    chunks.append((a, len(segments)))
    return chunks


def _noise_buffers(time_major, n_paths, segments):
    """(chunks, noise, rows) of a block's noise: the ``_noise_chunks`` of
    ``segments``, the buffer every chunk is drawn into, time-major
    (width, n_paths) or row-major (n_paths, width), and the rows each path
    draws its chunk into: a tile of TILE_ROWS rows, or for row-major noise
    the buffer itself.  The buffer and the tile together hold at most
    NOISE_BUFFER_DOUBLES doubles, unless one segment's draws need more."""
    tile = min(TILE_ROWS, n_paths) if time_major else 0
    chunks = _noise_chunks(segments,
                           NOISE_BUFFER_DOUBLES // (n_paths + tile))
    width = max(segments[b - 1][3] - segments[a][2] for a, b in chunks)
    if time_major:
        return chunks, np.empty((width, n_paths)), np.empty((tile, width))
    noise = np.empty((n_paths, width))
    return chunks, noise, noise


def _run_block(step, x0, K, dt, controller, master_seed, path_index,
               stride, record, hold, segments):
    B = len(x0)
    # one stream per distinct path; inv maps each row to its stream
    paths, inv = np.unique(path_index, return_inverse=True)
    if np.array_equal(inv, np.arange(B)):
        inv = slice(None)  # a stream per row, in order: read draws in place
    gens = [derive_path_rng(master_seed, int(p)) for p in paths]
    x = np.array(x0, dtype=float, order="F")  # see the layout rule
    sqdt = math.sqrt(dt)
    logw = np.zeros(B)
    blown = np.zeros(B, dtype=bool)
    floored = np.zeros(B, dtype=np.int64)
    snaps = np.empty((record, 1 + K // stride) + x.shape[1:])
    snaps[:, 0] = x[:record]
    u = None

    # noise is pre-drawn per path in time-ordered chunks of whole segments
    # so each stream is consumed identically no matter the chunking; rows
    # read their path's draws one segment at a time, in the layout of the
    # stepper's products (see the layout rule).  Every chunk overwrites the
    # one buffer: no stepper or controller keeps a view of its draws.
    time_major = step.time_major
    chunks, noise, rows = _noise_buffers(time_major, len(paths), segments)
    for a, b in chunks:
        base = segments[a][2]
        width = segments[b - 1][3] - base
        for t in range(0, len(paths), len(rows)):
            tile = rows[:len(paths) - t, :width]
            for g, draws in zip(gens[t:t + len(tile)], tile):
                g.standard_normal(out=draws)
            if time_major:
                noise[:width, t:t + len(tile)] = tile.T
        for k, end, lo, hi in segments[a:b]:
            L = end - k
            if controller is not None and k % hold == 0:
                u, nf = controller.bias_batch(k * dt, x)
                # held C-ordered, so rowlocal_dot copies it for no segment
                u = np.ascontiguousarray(u)
                half_uu = 0.5 * rowlocal_dot(u, u) * dt
            with np.errstate(over="ignore", invalid="ignore"):
                z = noise[lo - base:hi - base, inv].T if time_major \
                    else noise[inv, lo - base:hi - base]
                x, xi = step.segment(x, u, z, L)
            if u is not None:
                floored += L * nf
                logw -= rowlocal_dot(u, xi) * sqdt + L * half_uu
            del z, xi  # not held through the next segment
            if not np.isfinite(x).all():
                newly = ~np.isfinite(x).all(axis=1) & ~blown
                blown |= newly
                x[newly] = 0.0  # frozen; excluded from every estimate
                if u is not None:
                    u[newly] = 0.0  # and its held control with it
            if record and end % stride == 0:
                snaps[:, end // stride] = x[:record]
    return x, logw, blown, floored, snaps


def run_engine(step, starts, K, dt, controller=None, master_seed=0,
               workers=1, stride=None, record=0,
               path_index=None) -> PathEnsemble:
    """The block engine: K steps of ``step`` from each row of ``starts``,
    walked in segments (see the module docstring), with the control of
    ``controller`` when one is given.

    The control is held for ``controller.hold_time`` (see the determinism
    contract).  Row i draws the noise of path ``path_index[i]`` (default
    i), and runs at ``controller.multiplier[i]`` when the multiplier is an
    array.  The rows are laid out by the module's layout rule.  The
    ensemble keeps the snapshots of rows 0..record-1, taken at t = 0 and
    after every ``stride`` steps (default max(1, K // 200)).  No rows, a
    stride that is not a positive integer, or a record count that is not
    a non-negative integer, raises ``ConfigError``.
    """
    M = len(starts)
    if M == 0:
        raise ConfigError("no paths to simulate: the ensemble has 0 rows")
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
    hold = None if controller is None \
        else hold_steps(controller.hold_time, dt)
    # one segment list for every block, built before any thread starts
    segments = _segments(step, K, hold, stride, record)
    size = min(MAX_BLOCK_ROWS, math.ceil(M / workers))
    ranges = [(s, min(s + size, M)) for s in range(0, M, size)]

    def work(rng_pair):
        s, e = rng_pair
        ctrl = controller.with_multiplier(controller.multiplier[s:e]) \
            if per_row else controller
        return _run_block(step, starts[s:e], K, dt, ctrl, master_seed,
                          path_index[s:e], stride,
                          max(0, min(record, e) - s), hold, segments)

    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, ranges))
    else:
        results = [work(rg) for rg in ranges]
    terminal, log_weight, blown, floored, snaps = zip(*results)
    return PathEnsemble(np.concatenate(terminal), np.concatenate(log_weight),
                        np.concatenate(blown), np.concatenate(floored), K,
                        dt, stride, np.concatenate(snaps))


def trajectory_snapshots(model, starts, T_traj, stride, seed, dt):
    """Uncontrolled trajectories of ``model`` from each start, stepped by
    ``model_stepper`` (SRK for a nonlinear model), sampled
    every ``stride`` time units including t = 0, stacked
    trajectory-major.

    Trajectories that blow up are left out; returns the points and the
    number of points left out that way.  No starts (an empty point grid)
    is a ``ConfigError``.
    """
    starts = np.asarray(starts, dtype=float)
    if len(starts) == 0:
        raise ConfigError("the point grid is empty: points.counts gives "
                          "no trajectory starts")
    if T_traj <= 0:
        return starts.copy(), 0
    K, dt = adjust_steps(T_traj, dt)
    every = max(1, int(round(stride / dt)))
    n = len(starts)
    ens = run_engine(model_stepper(model, dt), starts, K, dt,
                     master_seed=seed, stride=every, record=n)
    kept = ens.snapshots[~ens.blown]
    return (kept.reshape(-1, starts.shape[1]),
            (n - len(kept)) * ens.snapshots.shape[1])


def hold_steps(hold_time, dt) -> int:
    """Steps per control hold: the whole number of steps of size dt (the
    step after ``adjust_steps``) in ``hold_time`` model time units, at
    least one.  A hold time that is negative or not finite is a
    ``ConfigError``."""
    if not (math.isfinite(hold_time) and hold_time >= 0):
        raise ConfigError(f"the control hold time must be a finite number "
                          f">= 0, got {hold_time!r}")
    return max(1, int(math.floor(hold_time / dt + 1e-9)))


def run_paths(model, controller, x0, T, dt, M=1, master_seed=0,
              workers=1, trajectory_count=0, trajectory_stride=None,
              path_index=None) -> PathEnsemble:
    """Simulate M rows from x0 and collect terminal states and Girsanov
    weights, stepped by ``model_stepper(model, dt)``: the one ensemble
    call of every model.  A linear model starts at the origin when x0 is
    None; a nonlinear one needs x0 (``ShapeError``).

    Row i is path ``path_index[i]`` (default i).  The first
    ``trajectory_count`` rows also report trajectory rows every
    ``trajectory_stride`` steps and at T.  A controller fitted for
    another horizon than T is a ``ConfigError``.
    """
    if controller is not None and abs(controller.horizon - T) > 1e-12:
        raise ConfigError(
            f"controller horizon {controller.horizon} != ensemble horizon {T}")
    K, dt = adjust_steps(T, dt)
    step = model_stepper(model, dt)
    if x0 is None and model.linear_spec is not None:
        x0 = np.zeros(model.dim_state)
    if x0 is None or np.shape(x0) != (model.dim_state,):
        raise ShapeError(f"x0 must be a state of the model dimension "
                         f"{model.dim_state}, got {x0!r}")
    return run_engine(step, np.tile(np.asarray(x0, dtype=float), (M, 1)),
                      K, dt, controller,
                      master_seed, workers, trajectory_stride,
                      trajectory_count, path_index)
