"""Generator EDMD: feature matrices, the projected generator, and eigenpairs.

The finite-dimensional generator K minimizes ||dPsi_X - K Psi_X||_F over
the dictionary, so a function f = c^T psi evolves with K^T acting on its
coefficient vector; eigenfunction coefficients are therefore eigenvectors
of K^T.  For constant-coefficient linear models the projection is computed
exactly by exponent bookkeeping on the monomial dictionary, with no test
points involved, which makes the retained spectrum exact up to round-off.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .basis import BasisSet
from .errors import (ConfigError, EmptySpectrumError, NumericalError,
                     RankDeficiencyWarning)
from .model import SdeModel, half_diffusion_sq
from .paths import (default_scheme, derive_path_rng, sde_stepper,
                    trajectory_snapshots)

RESIDUAL_TOL = 1e-8
SVD_RTOL = 1e-10


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
                         scheme: str | None = None,
                         basis: BasisSet | None = None) -> TestPointSet:
    """Sample test points from trajectories started on a uniform IC grid.

    The holdout set is generated identically under seed + 1.  When a
    box-restricted basis is supplied, snapshots that leave the box are
    dropped; so are all snapshots of a trajectory that blows up.  Both are
    counted in the provenance record.
    """
    scheme = scheme or default_scheme(model)
    ics = _ic_grid(ic_grid["box"], ic_grid["counts"])
    if ics.shape[1] != model.dim_state:
        raise ConfigError("IC grid dimension does not match the model")

    def one(seed_k):
        pts, dropped = trajectory_snapshots(
            partial(sde_stepper, model, scheme), model.dim_noise, ics,
            T_traj, stride, seed_k, dt)
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


def assemble_matrices(basis: BasisSet, model: SdeModel, pts):
    """Feature matrix Psi_X and generator-applied matrix dPsi_X, both (n, m).

    One order-2 ``basis.jets`` evaluation gives every element's value,
    gradients G_i and Hessian entries H_ij at every point; the drift a is
    evaluated once, and dPsi = sum_i a_i G_i + sum_ij Q_ij H_ij with
    Q = 0.5 B B^T, constant or per point when the model has no
    ``diffusion_const``.  The drift sum runs in axis order and the trace
    sum row-major, elementwise, so every column depends only on its own
    point.
    """
    points = pts.points if isinstance(pts, TestPointSet) else np.atleast_2d(pts)
    Psi, G, H = basis.jets(points, 2)
    a = model.drift(points)
    if model.diffusion_const is not None:
        Q = half_diffusion_sq(model)
    else:
        B = model.diffusion(points)
        Q = np.moveaxis(0.5 * np.einsum("mik,mjk->mij", B, B), 0, -1)
    d = basis.dim
    drift = sum(a[:, i] * G[i] for i in range(d))
    return Psi, drift + sum(Q[i, j] * H[i][j]
                            for i in range(d) for j in range(d))


@dataclass(eq=False)
class KoopmanMatrixResult:
    matrix: np.ndarray
    singular_values: np.ndarray
    rank: int
    rank_deficient: bool


def koopman_matrix(Psi: np.ndarray, dPsi: np.ndarray,
                   rtol: float = SVD_RTOL) -> KoopmanMatrixResult:
    """Least-squares projection K = dPsi Psi^+ with truncated-SVD inverse."""
    n = Psi.shape[0]
    U, s, Vt = np.linalg.svd(Psi, full_matrices=False)
    keep = s > rtol * (s[0] if len(s) else 0.0)
    rank = int(keep.sum())
    proj = (dPsi @ Vt[keep].T) / s[keep]
    K = proj @ U[:, keep].T
    deficient = rank < n
    if deficient:
        warnings.warn(
            f"feature matrix rank {rank} below dictionary size {n}",
            RankDeficiencyWarning, stacklevel=2)
    return KoopmanMatrixResult(K, s, rank, deficient)


def exact_koopman_matrix(basis: BasisSet, model: SdeModel) -> KoopmanMatrixResult:
    """Exact generator projection on the monomial dictionary.

    Valid for constant-coefficient linear models, whose generator maps
    polynomials of total degree p into the same space.
    """
    if basis.family != "linear_exact":
        raise ConfigError("exact projection requires the linear_exact family")
    if model.linear_spec is None:
        raise ConfigError("exact projection requires a linear model")
    A, _ = model.linear_spec
    Q = half_diffusion_sq(model)
    idx = basis.multi_indices
    col = {tuple(a): i for i, a in enumerate(idx)}
    n, d = idx.shape
    K = np.zeros((n, n))
    for k, alpha in enumerate(idx):
        alpha = tuple(alpha)
        for i in range(d):
            if alpha[i] == 0:
                continue
            for l in range(d):
                if A[i, l] == 0.0:
                    continue
                beta = list(alpha)
                beta[i] -= 1
                beta[l] += 1
                K[k, col[tuple(beta)]] += A[i, l] * alpha[i]
        for i in range(d):
            for j in range(d):
                if Q[i, j] == 0.0:
                    continue
                if i == j:
                    if alpha[i] < 2:
                        continue
                    beta = list(alpha)
                    beta[i] -= 2
                    K[k, col[tuple(beta)]] += Q[i, i] * alpha[i] * (alpha[i] - 1)
                else:
                    if alpha[i] == 0 or alpha[j] == 0:
                        continue
                    beta = list(alpha)
                    beta[i] -= 1
                    beta[j] -= 1
                    K[k, col[tuple(beta)]] += Q[i, j] * alpha[i] * alpha[j]
    return KoopmanMatrixResult(K, np.array([]), n, False)


@dataclass(eq=False)
class KoopmanSpectrum:
    basis: BasisSet
    eigenvalues: np.ndarray      # (N,) complex
    coefficients: np.ndarray     # (N, n) complex, RMS-1 over training points
    validation_mse: np.ndarray   # (N,), nan until validated
    conjugate_closed: bool = True

    @property
    def n_pairs(self) -> int:
        return len(self.eigenvalues)

    def values(self, points) -> np.ndarray:
        """Eigenfunction values at points, (m, N) complex."""
        return self.basis.values(points) @ self.coefficients.T

    def constant_index(self) -> int:
        """Index of the constant eigenfunction, or -1 if absent."""
        for i, (lam, c) in enumerate(zip(self.eigenvalues, self.coefficients)):
            rest = np.linalg.norm(np.delete(c, 0))
            if abs(lam) <= 1e-10 and rest <= 1e-8 * np.linalg.norm(c):
                return i
        return -1


def _sorted_order(eigs):
    return np.lexsort((-eigs.imag, np.abs(eigs.imag), eigs.real,
                       np.abs(eigs.real)))


def eigenpairs(K_result, basis: BasisSet, training_points) -> KoopmanSpectrum:
    """Eigenpairs of the projected generator, normalized and sorted.

    Coefficients solve K^T c = lambda c; each eigenfunction is scaled to
    unit root-mean-square over the training points, the pair list is closed
    under conjugation, and pairs are ordered by ascending |Re lambda|.
    """
    K = K_result.matrix if isinstance(K_result, KoopmanMatrixResult) else K_result
    try:
        eigs, vecs = np.linalg.eig(K.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolve failed: {exc}") from exc
    points = np.atleast_2d(training_points)
    feats = basis.values(points)  # (m, n)
    order = _sorted_order(eigs)
    eigs = eigs[order]
    vecs = vecs[:, order]
    coeffs = []
    kept_eigs = []
    dropped = 0
    for i in range(len(eigs)):
        c = vecs[:, i]
        resid = np.linalg.norm(K.T @ c - eigs[i] * c)
        if resid > RESIDUAL_TOL * np.linalg.norm(c):
            dropped += 1
            continue
        phi = feats @ c
        rms = math.sqrt(float(np.mean(np.abs(phi) ** 2)))
        if rms == 0.0:
            dropped += 1
            continue
        c = c / rms
        kept_eigs.append(eigs[i])
        coeffs.append(c)
    if not kept_eigs:
        raise NumericalError("no eigenpair met the residual tolerance")
    if dropped:
        warnings.warn(f"dropped {dropped} eigenpairs failing the residual "
                      f"tolerance {RESIDUAL_TOL}", stacklevel=2)
    eigs = np.array(kept_eigs, dtype=complex)
    coeffs = np.array(coeffs, dtype=complex)
    # canonicalize the constant eigenfunction when the span contains it
    for i in range(len(eigs)):
        c = coeffs[i]
        rest = np.linalg.norm(np.delete(c, 0))
        if abs(eigs[i]) <= 1e-10 * max(1.0, np.abs(eigs).max()) \
                and rest <= 1e-8 * np.linalg.norm(c):
            eigs[i] = 0.0
            e0 = np.zeros(basis.size, dtype=complex)
            e0[0] = 1.0 / feats[0, 0]
            coeffs[i] = e0
    closed = _is_conjugate_closed(eigs)
    return KoopmanSpectrum(basis, eigs, coeffs,
                           np.full(len(eigs), np.nan), closed)


def _is_conjugate_closed(eigs, tol=1e-8):
    for lam in eigs:
        if abs(lam.imag) > tol:
            if not np.any(np.abs(eigs - lam.conjugate()) <= tol * max(1.0, abs(lam))):
                return False
    return True


def _conjugate_partner(eigs, i, tol=1e-8):
    lam = eigs[i]
    if abs(lam.imag) <= tol:
        return None
    diffs = np.abs(eigs - lam.conjugate())
    j = int(np.argmin(diffs))
    return j if diffs[j] <= tol * max(1.0, abs(lam)) else None


def eigen_mse(spectrum: KoopmanSpectrum, model: SdeModel, points) -> np.ndarray:
    """Mean-square generator residual of each eigenpair over a point set."""
    Psi, dPsi = assemble_matrices(spectrum.basis, model, points)
    phi = spectrum.coefficients @ Psi        # (N, m)
    aphi = spectrum.coefficients @ dPsi
    resid = aphi - spectrum.eigenvalues[:, None] * phi
    return np.mean(np.abs(resid) ** 2, axis=1)


def validate_eigenpairs(spectrum: KoopmanSpectrum, model: SdeModel,
                        holdout, threshold: float = 0.04) -> KoopmanSpectrum:
    """Retain pairs whose holdout MSE is below the threshold.

    Conjugate partners are kept or dropped jointly so the retained set
    stays closed under conjugation.
    """
    holdout = np.atleast_2d(holdout)
    if len(holdout) == 0:
        raise ConfigError("holdout set is empty")
    mse = eigen_mse(spectrum, model, holdout)
    keep = mse <= threshold
    for i in range(len(keep)):
        j = _conjugate_partner(spectrum.eigenvalues, i)
        if j is not None and not (keep[i] and keep[j]):
            keep[i] = keep[j] = False
    if not keep.any():
        raise EmptySpectrumError(
            f"all {len(keep)} eigenpairs exceeded validation MSE {threshold}; "
            "enlarge the basis or the point set")
    return KoopmanSpectrum(spectrum.basis, spectrum.eigenvalues[keep],
                           spectrum.coefficients[keep], mse[keep],
                           _is_conjugate_closed(spectrum.eigenvalues[keep]))


def truncate_spectrum(spectrum: KoopmanSpectrum, max_pairs: int | None):
    """Keep the leading pairs by |Re lambda| without splitting conjugates."""
    if max_pairs is None or spectrum.n_pairs <= max_pairs:
        return spectrum
    cut = max_pairs
    lam = spectrum.eigenvalues
    if abs(lam[cut - 1].imag) > 1e-8:
        j = _conjugate_partner(lam, cut - 1)
        if j is not None and j >= cut:
            cut -= 1
    keep = np.zeros(len(lam), dtype=bool)
    keep[:cut] = True
    return KoopmanSpectrum(spectrum.basis, lam[keep],
                           spectrum.coefficients[keep],
                           spectrum.validation_mse[keep],
                           _is_conjugate_closed(lam[keep]))
