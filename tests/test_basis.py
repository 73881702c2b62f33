import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import legendre

from koopmanis import build_basis
from koopmanis.basis import (FAMILIES, BasisSet, _legendre_tables,
                             graded_lex_indices)
from koopmanis.errors import ConfigError


def hermite_jet(n, x):
    """He_n(x) with its first two derivatives, from the dictionary jets."""
    V, G, H = build_basis("hermite", 1, n).jets(x, 2)
    return V[n, 0], G[0][n, 0], H[0][0][n, 0]


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


def _point_jet(b, k, x):
    """Value, gradient (d,) and Hessian (d, d) of element k at one point."""
    V, G, H = b.jets(np.asarray(x, dtype=float)[None, :], 2)
    return (V[k, 0], np.array([g[k, 0] for g in G]),
            np.array([[h[k, 0] for h in row] for row in H]))


def test_constant_element_jet():
    for fam, box in (("hermite", None), ("legendre_box", [[-2, 2]]),
                     ("linear_exact", None)):
        b = build_basis(fam, 1, 3, box)
        v, g, h = _point_jet(b, 0, [0.37])
        assert v == pytest.approx(1.0)
        assert np.all(g == 0) and np.all(h == 0)


def test_hermite_he2_jet():
    b = build_basis("hermite", 1, 3)
    k = int(np.where((b.multi_indices[:, 0] == 2))[0][0])
    v, g, h = _point_jet(b, k, [2.0])
    assert v == pytest.approx(3.0)
    assert g[0] == pytest.approx(4.0)
    assert h[0, 0] == pytest.approx(2.0)


def test_legendre_degree_one_orthonormal_value():
    b = build_basis("legendre_box", 1, 1, [[-1.0, 1.0]])
    v, g, h = _point_jet(b, 1, [0.5])
    assert v == pytest.approx(math.sqrt(3.0) * 0.5)
    assert g[0] == pytest.approx(math.sqrt(3.0))
    assert h[0, 0] == pytest.approx(0.0)


@pytest.mark.parametrize("fam,box", [("hermite", None),
                                     ("legendre_box", [[-4, 4], [-3, 5]]),
                                     ("linear_exact", None)])
def test_gradients_match_finite_differences(fam, box):
    b = build_basis(fam, 2, 5, box)
    rng = np.random.default_rng(9)
    X = rng.uniform(-2.0, 2.0, size=(100, 2))
    step = 1e-5
    _, G = b.jets(X, 1)
    for i in range(2):
        Xp = X.copy(); Xp[:, i] += step
        Xm = X.copy(); Xm[:, i] -= step
        fd = (b.jets(Xp, 0)[0] - b.jets(Xm, 0)[0]) / (2 * step)
        scale = np.maximum(np.abs(fd), 1e-3)
        assert np.all(np.abs(G[i] - fd) / scale < 1e-6)


def test_hessian_matches_finite_differences():
    b = build_basis("legendre_box", 2, 6, [[-4, 4], [-4, 4]])
    rng = np.random.default_rng(2)
    X = rng.uniform(-3.0, 3.0, size=(40, 2))
    step = 1e-4
    _, _, H = b.jets(X, 2)
    for i in range(2):
        Xp = X.copy(); Xp[:, i] += step
        Xm = X.copy(); Xm[:, i] -= step
        _, Gp = b.jets(Xp, 1)
        _, Gm = b.jets(Xm, 1)
        for j in range(2):
            fd = (Gp[j] - Gm[j]) / (2 * step)
            assert np.allclose(H[i][j], fd, rtol=1e-4, atol=1e-5)


def test_legendre_gram_is_identity():
    b = build_basis("legendre_box", 2, 6, [[-4, 4], [-4, 4]])
    rng = np.random.default_rng(123)
    X = rng.uniform(-4.0, 4.0, size=(120_000, 2))
    V = b.values(X)
    gram = V.T @ V / len(X)
    assert np.abs(gram - np.eye(b.size)).max() < 0.05


def test_values_and_grads_consistent_with_jets():
    """``values`` and ``values_and_grads`` are the order-2 jets' leading
    arrays, bit for bit, although they build only order-1 tables."""
    rng = np.random.default_rng(4)
    X = rng.uniform(-2.0, 2.0, size=(30, 2))
    for family in FAMILIES:
        b = build_basis(family, 2, 8, [[-2.5, 2.5], [-2.5, 2.5]])
        V2, G2, _ = b.jets(X, 2)
        V, G = b.values_and_grads(X)
        assert np.array_equal(b.values(X), V2.T) and np.array_equal(V, V2.T)
        for i in range(2):
            assert np.array_equal(G[:, :, i], G2[i].T)


def _index_set(kind, d, p):
    """Irregular multi-index sets for the contraction's extents skip."""
    grid = np.array(list(itertools.product(range(p + 1), repeat=d)))
    if kind == "tensor":   # full (p+1)^d grid: no zeros in the tensor
        return grid
    if kind == "hyperbolic":   # hyperbolic cross: prod(alpha_i + 1) <= p + 1
        return grid[np.prod(grid + 1, axis=1) <= p + 1]
    # "hole": total degree without the slab alpha_last = 1 (a slab with no
    # index at all) and without the alpha_last = 0 indices with alpha_0 >= 2,
    # so the slab alpha_last = 0 is narrower than the slab alpha_last = 2
    idx = graded_lex_indices(d, p)
    keep = (idx[:, -1] != 1) & ((idx[:, -1] != 0) | (idx[:, 0] < 2))
    return idx[keep]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d,p,index_set", [
    (1, 6, "total"), (2, 10, "total"), (3, 4, "total"),
    (2, 4, "tensor"), (3, 3, "tensor"),
    (2, 7, "hole"), (3, 5, "hole"), (2, 9, "hyperbolic"),
    (3, 7, "hyperbolic"), (1, 0, "total"), (3, 0, "total"),
    (1, 1, "total"), (2, 1, "total"), (3, 1, "total")])
def test_value_grad_contraction_matches_per_function_reference(
        family, d, p, index_set):
    box = [[-3.0, 2.5], [-2.0, 4.0], [-2.5, 2.5]][:d]
    b = build_basis(family, d, p, box)
    if index_set != "total":
        b = BasisSet(family, d, p, _index_set(index_set, d, p), b.box)
    rng = np.random.default_rng(d * 100 + p)
    X = rng.uniform(-2.0, 2.0, size=(200, d))
    a = rng.normal(size=b.size)
    V, G = b.values_and_grads(X)
    val, grad = b.value_grad(a, X)
    assert val.shape == (200,) and grad.shape == (200, d)
    np.testing.assert_allclose(val, V @ a, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(grad, np.einsum("mnd,n->md", G, a),
                               rtol=1e-12, atol=1e-14)


def test_basis_jet_is_element_jet():
    """One point's jet is that point's column of a batch, bit for bit."""
    b = build_basis("hermite", 2, 3)
    X = np.array([[0.4, -1.2], [1.7, 0.3], [-0.9, 2.2]])
    V, G, H = b.jets(X, 2)
    for p, x in enumerate(X):
        for k in range(b.size):
            val, grad, hess = _point_jet(b, k, x)
            assert val == V[k, p]
            assert np.array_equal(grad, [g[k, p] for g in G])
            assert np.array_equal(hess, [[h[k, p] for h in row] for row in H])


def test_legendre_derivative_identity_is_stable_at_high_degree():
    """p = 20 at the box edges and outside the box, where engine states
    go: the tables match numpy's Legendre series, ``value_grad`` matches the
    per-function reference, and the order-2 jets match finite differences
    of the order-1 gradients."""
    p, (lo, hi) = 20, (-2.0, 3.0)
    b = build_basis("legendre_box", 1, p, [[lo, hi]])
    rng = np.random.default_rng(20)
    X = np.concatenate([[lo, hi, lo - 1e-9, hi + 1e-9, lo - 0.25, hi + 0.25,
                         lo - 1.0, hi + 1.0], rng.uniform(lo, hi, 40)])[:, None]
    u = (2.0 * X[:, 0] - (lo + hi)) / (hi - lo)
    for k, table in enumerate(_legendre_tables(p, u, 2)):
        for n in range(p + 1):
            ref = legendre.legval(u, legendre.legder(np.eye(p + 1)[n], k))
            np.testing.assert_allclose(table[n], ref, rtol=1e-12,
                                       atol=1e-13 * np.abs(ref).max())
    a = rng.normal(size=b.size)
    V, G = b.values_and_grads(X)
    val, grad = b.value_grad(a, X)
    np.testing.assert_allclose(val, V @ a, rtol=1e-12)
    np.testing.assert_allclose(grad[:, 0], G[:, :, 0] @ a, rtol=1e-12)
    step = 1e-6
    _, _, H = b.jets(X, 2)
    fd = (b.jets(X + step, 1)[1][0] - b.jets(X - step, 1)[1][0]) / (2 * step)
    np.testing.assert_allclose(H[0][0], fd, rtol=1e-6,
                               atol=1e-8 * np.abs(fd).max())
