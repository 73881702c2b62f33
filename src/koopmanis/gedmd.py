"""Generator EDMD: feature matrices, the projected generator, and eigenpairs.

The finite-dimensional generator K minimizes ||dPsi_X - K Psi_X||_F over
the dictionary, so a function f = c^T psi evolves with K^T acting on its
coefficient vector; eigenfunction coefficients are therefore eigenvectors
of K^T.  For constant-coefficient linear models the projection is computed
exactly by exponent bookkeeping on the monomial dictionary, with no test
points involved, which makes the retained spectrum exact up to round-off.

K is real, so its complex eigenvalues come in conjugate pairs whose
eigenvectors are conjugate too.  A spectrum stores each pair once, as its
Im lambda > 0 entry, and each real eigenvalue (|Im lambda| <=
``CONJUGATE_TOL``) as itself: one entry per real term of the Doob
transform.  ``KoopmanSpectrum.n_pairs`` still counts eigenvalues, a pair
as two.

Assembly walks the points in chunks, so its transient is bounded whatever
the point count: a chunk holds as many points as fit one order-2 jet of
every element into ASSEMBLY_BUFFER_DOUBLES doubles, counting per point and
element the value, the d gradients, the d(d+1)/2 distinct Hessian entries
and the 3d gathered factor tables (12 per element in two dimensions, 662
points of vdp's 66 Legendre elements), and at least one point.  Each
column of Psi and dPsi depends only on its own point, so any chunking
gives the same bytes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet
from .errors import (ConfigError, EmptySpectrumError, NumericalError,
                     RankDeficiencyWarning)
from .model import SdeModel, half_diffusion_sq
from .paths import derive_path_rng, trajectory_snapshots

RESIDUAL_TOL = 1e-8
SVD_RTOL = 1e-10
CONJUGATE_TOL = 1e-8
ASSEMBLY_BUFFER_DOUBLES = 1 << 19  # one assembly chunk's jets, in doubles


@dataclass(eq=False)
class TestPointSet:
    points: np.ndarray          # (m, d)
    holdout: np.ndarray         # (m', d)
    provenance: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.points)


def _ic_grid(box, counts):
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    counts = np.asarray(counts, dtype=int).reshape(-1)
    axes = [np.linspace(a, b, c) for (a, b), c in zip(box, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def generate_test_points(model: SdeModel, ic_grid: dict, T_traj: float,
                         stride: float, seed: int, dt: float = 1e-3,
                         basis: BasisSet | None = None) -> TestPointSet:
    """Sample test points from trajectories started on a uniform IC grid,
    stepped by ``paths.trajectory_snapshots``: the exact hold map of a
    linear model, SRK steps of a nonlinear one.

    The holdout set is generated identically under seed + 1.  When a
    box-restricted basis is supplied, snapshots that leave the box are
    dropped; so are all snapshots of a trajectory that blows up.  Both are
    counted in the provenance record.
    """
    ics = _ic_grid(ic_grid["box"], ic_grid["counts"])
    if ics.shape[1] != model.dim_state:
        raise ConfigError("IC grid dimension does not match the model")

    def one(seed_k):
        pts, dropped = trajectory_snapshots(model, ics, T_traj, stride,
                                            seed_k, dt)
        if basis is not None:
            keep = basis.contains(pts)
            dropped += int((~keep).sum())
            pts = pts[keep]
        return pts, dropped

    train, dropped_t = one(seed)
    hold, dropped_h = one(seed + 1)
    if len(train) == 0:
        raise ConfigError("every generated point fell outside the basis box")
    prov = {"kind": "grid", "box": np.asarray(ic_grid["box"], float).tolist(),
            "counts": list(np.asarray(ic_grid["counts"], int)),
            "T_traj": T_traj, "stride": stride, "seed": seed, "dt": dt,
            "dropped_train": dropped_t, "dropped_holdout": dropped_h}
    return TestPointSet(train, hold, prov)


def sample_gaussian_points(model: SdeModel, mean, std, count: int,
                           seed: int) -> TestPointSet:
    """Independent Gaussian test points (used instead of trajectory data
    when the target density of the points is prescribed directly)."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)

    def one(seed_k):
        rng = derive_path_rng(seed_k, 0)
        return mean + std * rng.standard_normal((count, model.dim_state))

    prov = {"kind": "gaussian", "mean": mean.tolist(), "std": std.tolist(),
            "count": count, "seed": seed}
    return TestPointSet(one(seed), one(seed + 1), prov)


def _chunk_points(n: int, d: int) -> int:
    """Points per assembly chunk: an order-2 jet of n elements in d
    dimensions holds n (1 + d + d(d+1)/2 + 3d) doubles per point (see the
    module docstring)."""
    per_point = n * (1 + d + d * (d + 1) // 2 + 3 * d)
    return max(1, ASSEMBLY_BUFFER_DOUBLES // per_point)


def _assemble_chunk(basis: BasisSet, model: SdeModel, Q, X):
    """Psi and dPsi of one chunk of points X, each a new (n, len(X))."""
    V, G, H = basis.jets(X, 2)
    a = model.drift(X)
    d = basis.dim
    drift = sum(a[:, i] * G[i] for i in range(d))
    return V, drift + sum(Q[i, j] * H[i][j]
                          for i in range(d) for j in range(d))


def assemble_matrices(basis: BasisSet, model: SdeModel, pts):
    """Feature matrix Psi_X and generator-applied matrix dPsi_X, both (n, m).

    The points are taken in chunks of ``_chunk_points`` (the
    ASSEMBLY_BUFFER_DOUBLES budget of the module docstring), each written
    into its columns of the two preallocated arrays; a point set that fits
    one chunk returns that chunk's own arrays, with no copy.  Per chunk,
    one order-2 ``basis.jets`` evaluation gives every element's value,
    gradients G_i and Hessian entries H_ij at every point; the drift a is
    evaluated once, and dPsi = sum_i a_i G_i + sum_ij Q_ij H_ij with the
    model's constant Q = 0.5 B B^T.  The drift sum runs in axis order and
    the trace sum row-major, elementwise, so every column depends only on
    its own point and any chunking gives the same bytes.
    """
    points = pts.points if isinstance(pts, TestPointSet) else np.atleast_2d(pts)
    n, m = basis.size, len(points)
    Q = half_diffusion_sq(model)
    step = _chunk_points(n, basis.dim)
    if m <= step:
        return _assemble_chunk(basis, model, Q, points)
    Psi, dPsi = np.empty((n, m)), np.empty((n, m))
    for lo in range(0, m, step):
        cols = slice(lo, lo + step)
        Psi[:, cols], dPsi[:, cols] = _assemble_chunk(basis, model, Q,
                                                      points[cols])
    return Psi, dPsi


@dataclass(eq=False)
class KoopmanMatrixResult:
    matrix: np.ndarray
    rank: int


def koopman_matrix(Psi: np.ndarray, dPsi: np.ndarray,
                   rtol: float = SVD_RTOL) -> KoopmanMatrixResult:
    """Least-squares projection K = dPsi Psi^+ with truncated-SVD inverse."""
    n = Psi.shape[0]
    U, s, Vt = np.linalg.svd(Psi, full_matrices=False)
    keep = s > rtol * (s[0] if len(s) else 0.0)
    rank = int(keep.sum())
    proj = (dPsi @ Vt[keep].T) / s[keep]
    K = proj @ U[:, keep].T
    if rank < n:
        warnings.warn(
            f"feature matrix rank {rank} below dictionary size {n}",
            RankDeficiencyWarning, stacklevel=2)
    return KoopmanMatrixResult(K, rank)


def exact_koopman_matrix(basis: BasisSet, model: SdeModel) -> KoopmanMatrixResult:
    """Exact generator projection on the monomial dictionary.

    Valid for constant-coefficient linear models, whose generator maps
    polynomials of total degree p into the same space.  Each nonzero
    A[i, l] and Q[i, j] adds its term to every element at once: the
    differentiated monomial is found in a dense, flattened (p+1)^d
    position table, the scatter ``BasisSet.value_grad`` uses.
    """
    if basis.family != "linear_exact":
        raise ConfigError("exact projection requires the linear_exact family")
    if model.linear_spec is None:
        raise ConfigError("exact projection requires a linear model")
    A, _ = model.linear_spec
    Q = half_diffusion_sq(model)
    idx = basis.multi_indices
    n, d = idx.shape
    # E[i]: the unit exponent vector e_i as an offset in the flat table
    E = (basis.degree + 1) ** np.arange(d - 1, -1, -1)
    flat = idx @ E
    pos = np.zeros((basis.degree + 1) ** d, dtype=int)
    pos[flat] = np.arange(n)
    # (coefficient, elements it applies to, shift), in summation order
    terms = [(A[i, l] * idx[:, i], idx[:, i] > 0, E[l] - E[i])
             for i, l in zip(*np.nonzero(A))]
    for i, j in zip(*np.nonzero(Q)):
        a, b = idx[:, i], idx[:, j]
        if i == j:
            terms.append((Q[i, i] * a * (a - 1), a > 1, -2 * E[i]))
        else:
            terms.append((Q[i, j] * a * b, (a > 0) & (b > 0), -E[i] - E[j]))
    K = np.zeros((n, n))
    for coef, applies, shift in terms:
        rows = np.flatnonzero(applies)
        K[rows, pos[flat[rows] + shift]] += coef[rows]
    return KoopmanMatrixResult(K, n)


@dataclass(eq=False)
class KoopmanSpectrum:
    """Eigenpairs of the projected generator, one entry per real
    eigenvalue and one, the Im lambda > 0 member, per conjugate pair; the
    pair's other member is the entry's conjugate, eigenvalue and
    coefficients, with the same validation MSE.  ``n_pairs`` counts
    eigenvalues, so a pair's entry counts as two."""

    basis: BasisSet
    eigenvalues: np.ndarray      # (N,) complex
    coefficients: np.ndarray     # (N, n) complex, RMS-1 over training points
    validation_mse: np.ndarray   # (N,), nan until validated

    @property
    def pairs(self) -> np.ndarray:
        """(N,) bool: which entries stand for a conjugate pair,
        |Im lambda| > CONJUGATE_TOL."""
        return np.abs(self.eigenvalues.imag) > CONJUGATE_TOL

    @property
    def n_pairs(self) -> int:
        """The number of eigenvalues: a conjugate pair counts as two."""
        return len(self.eigenvalues) + int(np.count_nonzero(self.pairs))

    def constant_index(self) -> int:
        """Index of the constant eigenfunction, or -1 if absent."""
        found = np.flatnonzero(_is_constant(self.eigenvalues,
                                            self.coefficients))
        return int(found[0]) if len(found) else -1


def _is_constant(eigs, coeffs):
    """Per pair, is it the constant eigenfunction: |lambda| <= 1e-10 max(1,
    max |lambda|), and every coefficient but the first (the dictionary's
    constant element) negligible?"""
    lam_tol = 1e-10 * max(1.0, float(np.abs(eigs).max(initial=0.0)))
    rest = np.linalg.norm(coeffs[:, 1:], axis=1)
    return (np.abs(eigs) <= lam_tol) \
        & (rest <= 1e-8 * np.linalg.norm(coeffs, axis=1))


def _sorted_order(eigs):
    return np.lexsort((-eigs.imag, np.abs(eigs.imag), eigs.real,
                       np.abs(eigs.real)))


def eigenpairs(K_result: KoopmanMatrixResult, basis: BasisSet,
               training_points) -> KoopmanSpectrum:
    """Eigenpairs of the projected generator, normalized and sorted.

    Coefficients solve K^T c = lambda c; each eigenfunction is scaled to
    unit root-mean-square over the training points, and entries are ordered
    by ascending |Re lambda|.  Of each conjugate pair only the Im lambda > 0
    member is kept, the one place where pairs are formed: the Im < 0 member
    sorts right after it and is its exact conjugate, and ``n_pairs`` still
    counts it.  A constant
    eigenfunction becomes lambda = 0 and the first dictionary element,
    identically 1 in every basis family.
    """
    K = K_result.matrix
    try:
        eigs, vecs = np.linalg.eig(K.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolve failed: {exc}") from exc
    points = np.atleast_2d(training_points)
    feats = basis.values(points)  # (m, n)
    order = _sorted_order(eigs)
    eigs = eigs[order]
    vecs = vecs[:, order]
    resid = np.linalg.norm(K.T @ vecs - vecs * eigs, axis=0)
    rms = np.sqrt(np.mean(np.abs(feats @ vecs) ** 2, axis=0))
    keep = (resid <= RESIDUAL_TOL * np.linalg.norm(vecs, axis=0)) & (rms > 0)
    if not keep.any():
        raise NumericalError("no eigenpair met the residual tolerance")
    dropped = len(keep) - int(keep.sum())
    if dropped:
        warnings.warn(f"dropped {dropped} eigenpairs failing the residual "
                      f"tolerance {RESIDUAL_TOL}", stacklevel=2)
    keep &= eigs.imag >= -CONJUGATE_TOL
    eigs = eigs[keep]
    coeffs = (vecs[:, keep] / rms[keep]).T
    const = _is_constant(eigs, coeffs)
    eigs[const] = 0.0
    coeffs[const] = 0.0
    coeffs[const, 0] = 1.0
    return KoopmanSpectrum(basis, eigs, coeffs, np.full(len(eigs), np.nan))


def eigen_mse(spectrum: KoopmanSpectrum, model: SdeModel, points) -> np.ndarray:
    """Mean-square generator residual of each eigenpair over a point set."""
    Psi, dPsi = assemble_matrices(spectrum.basis, model, points)
    phi = spectrum.coefficients @ Psi        # (N, m)
    aphi = spectrum.coefficients @ dPsi
    resid = aphi - spectrum.eigenvalues[:, None] * phi
    return np.mean(np.abs(resid) ** 2, axis=1)


def validate_eigenpairs(spectrum: KoopmanSpectrum, model: SdeModel,
                        holdout, threshold: float = 0.04) -> KoopmanSpectrum:
    """Retain the entries whose holdout MSE is below the threshold.

    An entry of a conjugate pair stands for both members, whose MSE is
    the same, so the pair is kept or dropped as one, two eigenvalues of
    ``n_pairs``.
    """
    holdout = np.atleast_2d(holdout)
    if len(holdout) == 0:
        raise ConfigError("holdout set is empty")
    mse = eigen_mse(spectrum, model, holdout)
    keep = mse <= threshold
    if not keep.any():
        raise EmptySpectrumError(
            f"all {spectrum.n_pairs} eigenpairs exceeded validation MSE "
            f"{threshold}; enlarge the basis or the point set")
    return KoopmanSpectrum(spectrum.basis, spectrum.eigenvalues[keep],
                           spectrum.coefficients[keep], mse[keep])


def truncate_spectrum(spectrum: KoopmanSpectrum, max_pairs: int | None):
    """Keep the leading entries by |Re lambda| while they hold at most
    ``max_pairs`` eigenvalues, a conjugate pair's entry counting as two."""
    if max_pairs is not None and max_pairs < 1:
        raise ConfigError(f"max_eigenfunctions must be at least 1, "
                          f"got {max_pairs}")
    if max_pairs is None or spectrum.n_pairs <= max_pairs:
        return spectrum
    cut = int(np.count_nonzero(np.cumsum(1 + spectrum.pairs) <= max_pairs))
    return KoopmanSpectrum(spectrum.basis, spectrum.eigenvalues[:cut],
                           spectrum.coefficients[:cut],
                           spectrum.validation_mse[:cut])
