import math

import numpy as np
import pytest

from koopmanis import build_basis, hermite_jet
from koopmanis.basis import graded_lex_indices
from koopmanis.errors import ConfigError


def test_hermite_jet_reference():
    assert hermite_jet(0, 1.7) == (1.0, 0.0, 0.0)
    # He_3(x) = x^3 - 3x -> He_3(2) = 2
    v, d1, d2 = hermite_jet(3, 2.0)
    assert v == pytest.approx(2.0)
    # He_2' = 2 He_1 -> 4 at x = 2
    v, d1, d2 = hermite_jet(2, 2.0)
    assert d1 == pytest.approx(4.0)
    assert v == pytest.approx(3.0)
    assert d2 == pytest.approx(2.0)


def test_basis_sizes():
    assert build_basis("legendre_box", 2, 10, [[-4, 4], [-4, 4]]).size == 66
    assert build_basis("legendre_box", 2, 12, [[-2.5, 2.5], [-2.5, 2.5]]).size == 91
    assert build_basis("hermite", 1, 0).size == 1


@pytest.mark.parametrize("d,p", [(1, 5), (2, 7), (3, 4), (4, 3)])
def test_total_degree_count_identity(d, p):
    b = build_basis("hermite", d, p)
    assert b.size == math.comb(p + d, d)
    assert np.all(b.multi_indices.sum(axis=1) <= p)


def test_ordering_constant_first_and_graded():
    idx = graded_lex_indices(2, 3)
    assert tuple(idx[0]) == (0, 0)
    degrees = idx.sum(axis=1)
    assert np.all(np.diff(degrees) >= 0)


def test_missing_box_errors():
    with pytest.raises(ConfigError):
        build_basis("legendre_box", 2, 3)
    with pytest.raises(ConfigError):
        build_basis("fourier", 1, 3)


def test_constant_element_jet():
    for fam, box in (("hermite", None), ("legendre_box", [[-2, 2]]),
                     ("linear_exact", None)):
        b = build_basis(fam, 1, 3, box)
        v, g, h = b.element_jet(0, np.array([0.37]))
        assert v == pytest.approx(1.0)
        assert np.all(g == 0) and np.all(h == 0)


def test_hermite_he2_jet():
    b = build_basis("hermite", 1, 3)
    k = int(np.where((b.multi_indices[:, 0] == 2))[0][0])
    v, g, h = b.element_jet(k, np.array([2.0]))
    assert v == pytest.approx(3.0)
    assert g[0] == pytest.approx(4.0)
    assert h[0, 0] == pytest.approx(2.0)


def test_legendre_degree_one_orthonormal_value():
    b = build_basis("legendre_box", 1, 1, [[-1.0, 1.0]])
    v, g, h = b.element_jet(1, np.array([0.5]))
    assert v == pytest.approx(math.sqrt(3.0) * 0.5)
    assert g[0] == pytest.approx(math.sqrt(3.0))
    assert h[0, 0] == pytest.approx(0.0)


def test_element_out_of_range():
    b = build_basis("hermite", 1, 1)
    with pytest.raises(IndexError):
        b.element_jet(2, np.array([0.0]))


@pytest.mark.parametrize("fam,box", [("hermite", None),
                                     ("legendre_box", [[-4, 4], [-3, 5]]),
                                     ("linear_exact", None)])
def test_gradients_match_finite_differences(fam, box):
    b = build_basis(fam, 2, 5, box)
    rng = np.random.default_rng(9)
    X = rng.uniform(-2.0, 2.0, size=(100, 2))
    step = 1e-5
    for k in range(0, b.size, 3):
        v, g, h = b.element_jet_batch(k, X)
        for i in range(2):
            Xp = X.copy(); Xp[:, i] += step
            Xm = X.copy(); Xm[:, i] -= step
            vp, _, _ = b.element_jet_batch(k, Xp)
            vm, _, _ = b.element_jet_batch(k, Xm)
            fd = (vp - vm) / (2 * step)
            scale = np.maximum(np.abs(fd), 1e-3)
            assert np.all(np.abs(g[:, i] - fd) / scale < 1e-6)


def test_hessian_matches_finite_differences():
    b = build_basis("legendre_box", 2, 6, [[-4, 4], [-4, 4]])
    rng = np.random.default_rng(2)
    X = rng.uniform(-3.0, 3.0, size=(40, 2))
    step = 1e-4
    for k in (3, 10, 17):
        _, _, h = b.element_jet_batch(k, X)
        for i in range(2):
            Xp = X.copy(); Xp[:, i] += step
            Xm = X.copy(); Xm[:, i] -= step
            _, gp, _ = b.element_jet_batch(k, Xp)
            _, gm, _ = b.element_jet_batch(k, Xm)
            fd = (gp - gm) / (2 * step)
            assert np.allclose(h[:, i, :], fd, rtol=1e-4, atol=1e-5)


def test_legendre_gram_is_identity():
    b = build_basis("legendre_box", 2, 6, [[-4, 4], [-4, 4]])
    rng = np.random.default_rng(123)
    X = rng.uniform(-4.0, 4.0, size=(120_000, 2))
    V = b.values(X)
    gram = V.T @ V / len(X)
    assert np.abs(gram - np.eye(b.size)).max() < 0.05


def test_values_and_grads_consistent_with_jets():
    b = build_basis("legendre_box", 2, 8, [[-2.5, 2.5], [-2.5, 2.5]])
    rng = np.random.default_rng(4)
    X = rng.uniform(-2.0, 2.0, size=(30, 2))
    V, G = b.values_and_grads(X)
    for k in range(b.size):
        v, g, _ = b.element_jet_batch(k, X)
        assert np.allclose(V[:, k], v)
        assert np.allclose(G[:, k, :], g)


def test_basis_jet_is_element_jet():
    b = build_basis("hermite", 2, 3)
    x = np.array([0.4, -1.2])
    v, g, h = b.element_jet_batch(5, x[None, :])
    val, grad, hess = b.element_jet(5, x)
    assert val == v[0]
    assert np.array_equal(grad, g[0]) and np.array_equal(hess, h[0])
