import math
from pathlib import Path

import numpy as np
import pytest

from koopmanis import build_basis, cli, make_builtin_model, make_event
from koopmanis.errors import (ConfigError, EmptySpectrumError,
                              RankDeficiencyWarning)
from koopmanis import gedmd
from koopmanis.model import SdeModel, _linear_model, half_diffusion_sq
from koopmanis.paths import SdeStepper, adjust_steps, derive_path_rng
from reference import exact_koopman_loop, two_entry_eigenpairs

_BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


@pytest.fixture(scope="module")
def ou_setup():
    m = make_builtin_model("ou1d")
    b = build_basis("hermite", 1, 3)
    pts = gedmd.sample_gaussian_points(m, [0.0], [2.0], 10_000, seed=1)
    return m, b, pts


def test_point_counts_nonnormal():
    m = make_builtin_model("nonnormal2d")
    pts = gedmd.generate_test_points(
        m, {"box": [[-0.8, 0.8], [-0.8, 0.8]], "counts": [11, 11]},
        T_traj=10.0, stride=0.02, seed=4, dt=0.01)
    assert pts.m == 121 * 501 == 60621
    assert len(pts.holdout) == 60621
    # holdout generated under a different seed: disjoint with probability 1
    assert not np.array_equal(pts.points[:100], pts.holdout[:100])


def test_point_counts_trivial_grid():
    m = make_builtin_model("ou1d")
    pts = gedmd.generate_test_points(m, {"box": [[0.3, 0.3]], "counts": [1]},
                                     T_traj=0.0, stride=1.0, seed=0)
    assert pts.m == 1
    assert pts.points[0, 0] == pytest.approx(0.3)


def test_vdp_points_approx_count_and_box():
    m = make_builtin_model("vdp")
    b = build_basis("legendre_box", 2, 10, [[-4, 4], [-4, 4]])
    pts = gedmd.generate_test_points(
        m, {"box": [[-4, 4], [-4, 4]], "counts": [20, 20]},
        T_traj=10.0, stride=0.05, seed=2, dt=5e-3, basis=b)
    # 400 trajectories x 201 snapshots, minus the few leaving the box
    assert 400 * 201 * 0.97 <= pts.m <= 400 * 201
    assert b.contains(pts.points).all()
    assert pts.provenance["dropped_train"] == 400 * 201 - pts.m


def _reference_snapshots(model, ics, T_traj, stride, seed, dt):
    """Loop version of the test-point trajectories, kept as the reference
    for the block engine: each path's whole (K, r) noise stream is drawn
    at once."""
    n_ic, d = ics.shape
    K, dt = adjust_steps(T_traj, dt)
    step_per = max(1, int(round(stride / dt)))
    r = model.dim_noise
    step = SdeStepper(model, dt)
    xi = np.array([derive_path_rng(seed, i).standard_normal((K, r))
                   for i in range(n_ic)])
    x = ics.astype(float).copy()
    snaps = [x.copy()]
    for k in range(K):
        x = step.segment(x, None, xi[:, k, :], 1)[0]
        if (k + 1) % step_per == 0:
            snaps.append(x.copy())
    return np.stack(snaps, axis=1).reshape(-1, d)


def test_test_points_match_reference_loop():
    m = make_builtin_model("vdp", {"mu": 0.3, "eps": 0.01})
    grid = {"box": [[-4.0, 4.0], [-4.0, 4.0]], "counts": [20, 20]}
    pts = gedmd.generate_test_points(m, grid, T_traj=1.0, stride=0.1,
                                     seed=11, dt=5e-3)
    ics = gedmd._ic_grid(grid["box"], grid["counts"])
    for got, seed in ((pts.points, 11), (pts.holdout, 12)):
        ref = _reference_snapshots(m, ics, 1.0, 0.1, seed, 5e-3)
        assert np.array_equal(got, ref)


def test_blown_trajectories_are_dropped_and_counted():
    m = SdeModel("explode", lambda x: np.asarray(x, float) ** 3,
                 np.zeros((1, 1)))
    # from 0.5 the ODE x' = x^3 stays finite up to t = 2; from 10 it
    # blows up at t = 0.005
    pts = gedmd.generate_test_points(m, {"box": [[0.5, 10.0]], "counts": [2]},
                                     T_traj=1.0, stride=0.1, seed=0, dt=0.05)
    assert pts.m == 11 and np.isfinite(pts.points).all()
    assert pts.points[0, 0] == 0.5
    assert pts.provenance["dropped_train"] == 11


def test_assembly_shapes_and_rows(ou_setup):
    m, b, pts = ou_setup
    Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
    assert Psi.shape == dPsi.shape == (4, pts.m)
    assert np.allclose(dPsi[0], 0.0)           # constants are annihilated
    assert np.allclose(dPsi[1], -pts.points[:, 0])  # A(He_1) = -He_1


def _reference_assembly(basis, model, points):
    """The per-element loop ``assemble_matrices`` replaced: one jet per
    dictionary element and, per element, one generator application that
    evaluates the drift again."""
    tables = basis._dim_tables(points)
    n, m, d = basis.size, len(points), basis.dim
    Psi, dPsi = np.empty((n, m)), np.empty((n, m))
    for k, alpha in enumerate(basis.multi_indices):
        v1, d1, d2 = ([tables[j][o][alpha[j]] for j in range(d)]
                      for o in range(3))

        def prod_except(skip):
            out = np.ones(m)
            for j in range(d):
                if j not in skip:
                    out = out * v1[j]
            return out

        grad, hess = np.empty((m, d)), np.empty((m, d, d))
        for i in range(d):
            grad[:, i] = d1[i] * prod_except((i,))
            hess[:, i, i] = d2[i] * prod_except((i,))
            for j in range(i + 1, d):
                hess[:, i, j] = hess[:, j, i] = \
                    d1[i] * d1[j] * prod_except((i, j))
        Psi[k] = prod_except(())
        drift = (model.drift(points) * grad).sum(axis=1)
        trace = np.einsum("mij,ij->m", hess, half_diffusion_sq(model))
        dPsi[k] = drift + trace
    return Psi, dPsi


@pytest.mark.parametrize("name,family,degree,box", [
    ("vdp", "legendre_box", 10, [[-4.0, 4.0], [-4.0, 4.0]]),
    ("nonnormal2d", "hermite", 6, None),
    ("duffing", "legendre_box", 8, [[-3.0, 3.0], [-3.0, 3.0]]),
    ("ou1d", "hermite", 5, None)])
def test_assembly_matches_reference_loop(name, family, degree, box):
    m = make_builtin_model(name)
    b = build_basis(family, m.dim_state, degree, box)
    lo = -2.5 if box is None else box[0][0] + 0.5
    grid = {"box": [[lo, -lo]] * m.dim_state, "counts": [6] * m.dim_state}
    pts = gedmd.generate_test_points(m, grid, T_traj=1.0, stride=0.1, seed=3,
                                     dt=1e-2, basis=b)
    Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
    ref_Psi, ref_dPsi = _reference_assembly(b, m, pts.points)
    assert np.array_equal(Psi, ref_Psi)
    assert np.array_equal(dPsi, ref_dPsi)


def test_koopman_matrix_ou_spectrum(ou_setup):
    m, b, pts = ou_setup
    Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
    res = gedmd.koopman_matrix(Psi, dPsi)
    eigs = np.sort(np.linalg.eigvals(res.matrix).real)
    assert np.allclose(eigs, [-3, -2, -1, 0], atol=1e-8)
    assert res.rank == b.size


def test_koopman_matrix_zero_and_rank_warning():
    Psi = np.ones((3, 50)) * np.array([[1.0], [2.0], [3.0]])  # rank one
    dPsi = np.zeros((3, 50))
    with pytest.warns(RankDeficiencyWarning):
        res = gedmd.koopman_matrix(Psi, dPsi)
    assert np.allclose(res.matrix, 0.0)
    assert res.rank == 1


def test_exact_projection_nonnormal_eigenvalues():
    m = make_builtin_model("nonnormal2d")
    b = build_basis("linear_exact", 2, 2)
    res = gedmd.exact_koopman_matrix(b, m)
    eigs = np.sort(np.linalg.eigvals(res.matrix).real)
    assert np.allclose(np.sort(eigs), [-2.0, -1.3, -1.0, -0.6, -0.3, 0.0],
                       atol=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_exact_projection_matches_the_loop(d):
    """The scatter over all elements per term gives the entry-by-entry
    loop bit for bit, for degrees 1-5: sparse A and B, dense A with a
    diagonal Q, and dense A with a full Q."""
    rng = np.random.default_rng(d)

    def sparse(*shape):
        return rng.standard_normal(shape) * (rng.random(shape) < 0.5)

    cases = [(sparse(d, d), sparse(d, d)),
             (rng.standard_normal((d, d)), np.diag(rng.random(d) + 0.5)),
             (rng.standard_normal((d, d)), rng.standard_normal((d, 2)))]
    for p in range(1, 6):
        b = build_basis("linear_exact", d, p)
        for k, (A, B) in enumerate(cases):
            m = _linear_model("random", A, B, {})
            assert np.array_equal(gedmd.exact_koopman_matrix(b, m).matrix,
                                  exact_koopman_loop(b, m)), (p, k)


def test_exact_projection_left_eigenvector_alignment():
    m = make_builtin_model("nonnormal2d")
    b = build_basis("linear_exact", 2, 2)
    res = gedmd.exact_koopman_matrix(b, m)
    pts = gedmd.generate_test_points(
        m, {"box": [[-0.8, 0.8], [-0.8, 0.8]], "counts": [5, 5]},
        T_traj=2.0, stride=0.1, seed=3, dt=0.01)
    spec = gedmd.eigenpairs(res, b, pts.points)
    # degree-1 coefficients of the lam=-0.3 / lam=-1 eigenfunctions align
    # with the left eigenvectors of the drift matrix
    for lam_target, w_ref in ((-0.3, np.array([0.82, 0.57])),
                              (-1.0, np.array([1.0, 0.0]))):
        i = int(np.argmin(np.abs(spec.eigenvalues - lam_target)))
        c = spec.coefficients[i].real
        w = c[1:3]
        w = w / np.linalg.norm(w)
        w_ref = w_ref / np.linalg.norm(w_ref)
        assert min(np.linalg.norm(w - w_ref), np.linalg.norm(w + w_ref)) < 1e-2


def test_brownian_osc_conjugate_pair():
    m = make_builtin_model("brownian_osc")
    b = build_basis("linear_exact", 2, 1)
    res = gedmd.exact_koopman_matrix(b, m)
    rng = np.random.default_rng(0)
    spec = gedmd.eigenpairs(res, b, rng.normal(size=(200, 2)))
    # the pair -1/2 +- i sqrt(3)/2 is one entry, its Im > 0 member, and
    # counts as two eigenvalues beside the constant
    cplx = spec.eigenvalues[np.abs(spec.eigenvalues.imag) > 1e-10]
    assert len(cplx) == 1 and cplx[0].imag > 0
    assert np.allclose(cplx.real, -0.5, atol=1e-10)
    assert np.allclose(cplx.imag, math.sqrt(3) / 2, atol=1e-10)
    assert list(spec.pairs) == [False, True]
    assert spec.n_pairs == 3


def test_eigenpair_residuals_and_normalization(ou_setup):
    m, b, pts = ou_setup
    Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
    res = gedmd.koopman_matrix(Psi, dPsi)
    spec = gedmd.eigenpairs(res, b, pts.points)
    K = res.matrix
    for lam, c in zip(spec.eigenvalues, spec.coefficients):
        assert np.linalg.norm(K.T @ c - lam * c) <= 1e-8 * np.linalg.norm(c)
    vals = spec.basis.values(pts.points) @ spec.coefficients.T
    rms = np.sqrt(np.mean(np.abs(vals) ** 2, axis=0))
    assert np.allclose(rms, 1.0, atol=1e-10)


def test_constant_eigenfunction_canonical(ou_setup):
    m, b, pts = ou_setup
    Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
    spec = gedmd.eigenpairs(gedmd.koopman_matrix(Psi, dPsi), b, pts.points)
    i = spec.constant_index()
    assert i >= 0
    assert spec.eigenvalues[i] == 0.0
    vals = (spec.basis.values(pts.points) @ spec.coefficients.T)[:, i]
    assert np.allclose(vals, 1.0)


def test_validation_keeps_exact_pairs(ou_setup):
    m, b, pts = ou_setup
    Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
    spec = gedmd.eigenpairs(gedmd.koopman_matrix(Psi, dPsi), b, pts.points)
    val = gedmd.validate_eigenpairs(spec, m, pts.holdout, threshold=0.04)
    assert val.n_pairs == spec.n_pairs
    assert np.all(val.validation_mse < 1e-16)


def test_validation_rejects_perturbed_eigenvalue(ou_setup):
    """Shifting lambda by 0.5 on an RMS-1 eigenfunction gives MSE ~ 0.25."""
    m, b, pts = ou_setup
    Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
    spec = gedmd.eigenpairs(gedmd.koopman_matrix(Psi, dPsi), b, pts.points)
    bad = gedmd.KoopmanSpectrum(
        b, spec.eigenvalues + 0.5, spec.coefficients,
        np.full(spec.n_pairs, np.nan))
    mse = gedmd.eigen_mse(bad, m, pts.holdout)
    vals = b.values(pts.holdout) @ bad.coefficients.T
    phi2 = np.mean(np.abs(vals) ** 2, axis=0)
    assert np.allclose(mse, 0.25 * phi2, rtol=1e-10)
    assert np.all(mse > 0.04)
    with pytest.raises(EmptySpectrumError):
        gedmd.validate_eigenpairs(bad, m, pts.holdout, threshold=0.04)


def test_validation_mse_stable_on_fresh_holdout(ou_setup):
    m, b, pts = ou_setup
    Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
    spec = gedmd.eigenpairs(gedmd.koopman_matrix(Psi, dPsi), b, pts.points)
    val = gedmd.validate_eigenpairs(spec, m, pts.holdout, threshold=0.04)
    fresh = gedmd.sample_gaussian_points(m, [0.0], [2.0], 10_000, seed=3)
    mse2 = gedmd.eigen_mse(val, m, fresh.points)
    assert np.all(mse2 <= 2.0 * np.maximum(val.validation_mse, 1e-12))


def test_eigenvalues_stable_under_point_doubling():
    m = make_builtin_model("ou1d")
    b = build_basis("hermite", 1, 3)
    eigs = []
    for count in (1000, 10_000):
        pts = gedmd.sample_gaussian_points(m, [0.0], [2.0], count, seed=6)
        Psi, dPsi = gedmd.assemble_matrices(b, m, pts)
        spec = gedmd.eigenpairs(gedmd.koopman_matrix(Psi, dPsi), b, pts.points)
        eigs.append(np.sort(spec.eigenvalues.real))
    assert np.abs(eigs[0] - eigs[1]).max() < 1e-6


def test_truncation_keeps_conjugates_whole():
    m = make_builtin_model("brownian_osc")
    b = build_basis("linear_exact", 2, 3)
    res = gedmd.exact_koopman_matrix(b, m)
    rng = np.random.default_rng(0)
    spec = gedmd.eigenpairs(res, b, rng.normal(size=(500, 2)))
    assert spec.pairs.any()
    for cut in range(1, spec.n_pairs + 1):
        tr = gedmd.truncate_spectrum(spec, cut)
        # the longest leading run of entries that holds at most cut
        # eigenvalues: one short of cut only where a pair would split
        n = len(tr.eigenvalues)
        assert cut - 1 <= tr.n_pairs <= cut
        assert tr.n_pairs == cut or spec.pairs[n]
        assert np.array_equal(tr.eigenvalues, spec.eigenvalues[:n])
        assert np.array_equal(tr.coefficients, spec.coefficients[:n])


def test_truncation_counts_a_pair_as_two():
    spec = gedmd.KoopmanSpectrum(build_basis("hermite", 1, 2),
                                 np.array([0.0, -1 + 2j, -2.0]),
                                 np.eye(3, dtype=complex), np.zeros(3))
    assert spec.n_pairs == 4
    kept = [list(gedmd.truncate_spectrum(spec, cut).eigenvalues)
            for cut in (1, 2, 3, 4)]
    assert kept == [[0.0], [0.0], [0.0, -1 + 2j], [0.0, -1 + 2j, -2.0]]


def test_validation_drops_a_pair_as_one_entry():
    """A pair whose eigenvalue is off by 0.5 fails validation as one
    entry, two eigenvalues; the constant stays."""
    m = make_builtin_model("brownian_osc")
    b = build_basis("linear_exact", 2, 1)
    rng = np.random.default_rng(0)
    spec = gedmd.eigenpairs(gedmd.exact_koopman_matrix(b, m), b,
                            rng.normal(size=(200, 2)))
    assert spec.n_pairs == 3
    bad = gedmd.KoopmanSpectrum(b, spec.eigenvalues + [0.0, 0.5],
                                spec.coefficients, spec.validation_mse)
    val = gedmd.validate_eigenpairs(bad, m, rng.normal(size=(200, 2)))
    assert val.n_pairs == 1 and len(val.eigenvalues) == 1
    assert val.eigenvalues[0] == 0.0


@pytest.mark.parametrize("max_pairs", [0, -1])
def test_truncation_to_no_pairs_is_a_config_error(max_pairs):
    """A cut below one pair used to index pair -1: on {0, -1+2i}, whose
    -1+2i stands for -1-2i too, two pairs were kept."""
    spec = gedmd.KoopmanSpectrum(build_basis("hermite", 1, 2),
                                 np.array([0.0, -1 + 2j]),
                                 np.eye(3, dtype=complex)[:2], np.zeros(2))
    assert gedmd.truncate_spectrum(spec, 1).n_pairs == 1
    with pytest.raises(ConfigError, match="max_eigenfunctions"):
        gedmd.truncate_spectrum(spec, max_pairs)


def test_gaussian_points_reproducible():
    m = make_builtin_model("ou1d")
    a = gedmd.sample_gaussian_points(m, [0.0], [2.0], 50, seed=8)
    b2 = gedmd.sample_gaussian_points(m, [0.0], [2.0], 50, seed=8)
    assert np.array_equal(a.points, b2.points)
    assert np.array_equal(a.holdout, b2.holdout)
    assert not np.array_equal(a.points, a.holdout)


def _expanded(spec):
    """(eigenvalues, coefficients, validation MSE) of ``spec`` with each
    pair's Im < 0 member, the entry's conjugate, listed after it."""
    idx = np.repeat(np.arange(len(spec.eigenvalues)), 1 + spec.pairs)
    second = np.r_[False, idx[1:] == idx[:-1]]
    eigs, coeffs = spec.eigenvalues[idx], spec.coefficients[idx]
    eigs[second] = eigs[second].conj()
    coeffs[second] = coeffs[second].conj()
    return eigs, coeffs, spec.validation_mse[idx]


def _assert_same_as_two_entry(spec, ref_eigs, ref_coeffs, model, holdout):
    """``spec``, expanded by its conjugates, is the two-entry spectrum
    (ref_eigs, ref_coeffs) as floats, and so is its MSE on ``holdout``."""
    eigs, coeffs, _ = _expanded(spec)
    assert np.array_equal(eigs, ref_eigs)
    assert np.array_equal(coeffs, ref_coeffs)
    ref = gedmd.KoopmanSpectrum(spec.basis, ref_eigs, ref_coeffs,
                                np.full(len(ref_eigs), np.nan))
    mse = gedmd.eigen_mse(spec, model, holdout)
    assert np.array_equal(mse[np.repeat(np.arange(len(mse)), 1 + spec.pairs)],
                          gedmd.eigen_mse(ref, model, holdout))


@pytest.mark.parametrize("degree", range(1, 9))
def test_brownian_osc_spectrum_is_the_two_entry_one_halved(degree):
    m = make_builtin_model("brownian_osc")
    b = build_basis("linear_exact", 2, degree)
    res = gedmd.exact_koopman_matrix(b, m)
    rng = np.random.default_rng(degree)
    pts = rng.normal(size=(300, 2))
    spec = gedmd.eigenpairs(res, b, pts)
    assert spec.pairs.any()
    _assert_same_as_two_entry(spec, *two_entry_eigenpairs(res, b, pts), m,
                              rng.normal(size=(300, 2)))


@pytest.mark.parametrize("workload", ["vdp_eigen_is", "brownian_osc_exact_is",
                                      "advdiff_spde_is"])
def test_workload_spectra_are_the_two_entry_ones_halved(workload,
                                                         monkeypatch):
    """Through ``cli.prepare_controller`` on each benchmark workload: the
    eigensolve before validation (on vdp, every entry of its 66
    eigenvalues, and their MSE on the holdout points), and the validated
    spectrum with its MSE, against the two-entry eigensolve with each
    eigenvalue validated on its own."""
    cfg = cli.load_config(_BENCH_WORKLOADS / f"{workload}.json")
    calls = {}

    def record(name):
        func = getattr(gedmd, name)

        def wrapped(*args, **kwargs):
            calls[name] = (args, func(*args, **kwargs))
            return calls[name][1]
        monkeypatch.setattr(gedmd, name, wrapped)
    record("eigenpairs")
    record("validate_eigenpairs")
    state = cli.prepare_controller(cfg)
    (k_res, basis, points), spec = calls["eigenpairs"]
    ref_eigs, ref_coeffs = two_entry_eigenpairs(k_res, basis, points)
    if "validate_eigenpairs" not in calls:    # advdiff: exact, unvalidated
        assert state.spectrum is spec
        eigs, coeffs, _ = _expanded(spec)
        assert np.array_equal(eigs, ref_eigs)
        assert np.array_equal(coeffs, ref_coeffs)
        return
    (_, model, holdout, threshold), _ = calls["validate_eigenpairs"]
    _assert_same_as_two_entry(spec, ref_eigs, ref_coeffs, model, holdout)
    ref = gedmd.KoopmanSpectrum(basis, ref_eigs, ref_coeffs,
                                np.full(len(ref_eigs), np.nan))
    ref_mse = gedmd.eigen_mse(ref, model, holdout)
    keep = ref_mse <= threshold
    eigs, coeffs, mse = _expanded(state.spectrum)
    assert np.array_equal(eigs, ref_eigs[keep])
    assert np.array_equal(coeffs, ref_coeffs[keep])
    assert np.array_equal(mse, ref_mse[keep])
    if workload == "vdp_eigen_is":
        assert spec.n_pairs == 66 and state.spectrum.n_pairs == 11
