"""Differentiable polynomial dictionaries with exact value/gradient/Hessian jets.

Families:
  * ``hermite``      -- probabilists' Hermite polynomials, tensorized over
                        dimensions by total degree.
  * ``legendre_box`` -- tensorized Legendre polynomials rescaled to a box and
                        orthonormal under the uniform probability measure on
                        it (so the first element is identically 1).
  * ``linear_exact`` -- plain monomials; paired with exact generator
                        projection for constant-coefficient linear models.

Multi-indices are ordered graded-lexicographically (degree first, then
lexicographic), which puts the constant element first.  All jets come from
derivative recurrences, never finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError

FAMILIES = ("hermite", "legendre_box", "linear_exact")


def hermite_jet(n_order: int, x):
    """He_n(x) with first and second derivatives.

    Uses He_{k+1} = x He_k - k He_{k-1} and He_n' = n He_{n-1}.
    """
    x = np.asarray(x, dtype=float)
    V = _hermite_values(n_order, x)
    val = V[n_order]
    d1 = n_order * V[n_order - 1] if n_order >= 1 else np.zeros_like(x)
    d2 = n_order * (n_order - 1) * V[n_order - 2] if n_order >= 2 \
        else np.zeros_like(x)
    if np.ndim(x) == 0:
        return float(val), float(d1), float(d2)
    return val, d1, d2


def _hermite_values(p, x):
    V = np.empty((p + 1,) + np.shape(x))
    V[0] = 1.0
    if p >= 1:
        V[1] = x
    for k in range(1, p):
        V[k + 1] = x * V[k] - k * V[k - 1]
    return V


def _hermite_tables(p, x):
    V = _hermite_values(p, x)
    D1 = np.zeros_like(V)
    D2 = np.zeros_like(V)
    for n in range(1, p + 1):
        D1[n] = n * V[n - 1]
    for n in range(2, p + 1):
        D2[n] = n * (n - 1) * V[n - 2]
    return V, D1, D2


def _legendre_tables(p, u):
    """Orthonormal-on-[-1,1] (uniform probability measure) Legendre tables."""
    m = np.shape(u)
    V = np.empty((p + 1,) + m)
    D1 = np.zeros((p + 1,) + m)
    D2 = np.zeros((p + 1,) + m)
    V[0] = 1.0
    if p >= 1:
        V[1] = u
        D1[1] = 1.0
    for n in range(1, p):
        # P_{n+1} = ((2n+1) u P_n - n P_{n-1}) / (n+1), differentiated twice
        a, b = (2 * n + 1) / (n + 1), n / (n + 1)
        V[n + 1] = a * u * V[n] - b * V[n - 1]
        D1[n + 1] = a * (V[n] + u * D1[n]) - b * D1[n - 1]
        D2[n + 1] = a * (2.0 * D1[n] + u * D2[n]) - b * D2[n - 1]
    scale = np.sqrt(2.0 * np.arange(p + 1) + 1.0).reshape((p + 1,) + (1,) * len(m))
    return V * scale, D1 * scale, D2 * scale


def _monomial_tables(p, x):
    m = np.shape(x)
    V = np.empty((p + 1,) + m)
    D1 = np.zeros((p + 1,) + m)
    D2 = np.zeros((p + 1,) + m)
    V[0] = 1.0
    for n in range(1, p + 1):
        V[n] = V[n - 1] * x
    for n in range(1, p + 1):
        D1[n] = n * V[n - 1]
    for n in range(2, p + 1):
        D2[n] = n * (n - 1) * V[n - 2]
    return V, D1, D2


def graded_lex_indices(d: int, p: int) -> np.ndarray:
    """All multi-indices with total degree <= p, degree-major then lex.

    Within a degree the first coordinate dominates (x1^2 before x1*x2
    before x2^2), matching the usual graded lexicographic order.
    """
    idx = [alpha for alpha in product(range(p + 1), repeat=d) if sum(alpha) <= p]
    idx.sort(key=lambda a: (sum(a), tuple(-e for e in a)))
    return np.array(idx, dtype=int).reshape(len(idx), d)


@dataclass(eq=False)
class BasisSet:
    family: str
    dim: int
    degree: int
    multi_indices: np.ndarray
    box: np.ndarray | None = None   # (d, 2) for legendre_box

    @property
    def size(self) -> int:
        return len(self.multi_indices)

    def _dim_tables(self, X):
        """Per-dimension 1-D tables (values, d1, d2), chain rule applied."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tables = []
        for j in range(self.dim):
            xj = X[:, j]
            if self.family == "hermite":
                tables.append(_hermite_tables(self.degree, xj))
            elif self.family == "linear_exact":
                tables.append(_monomial_tables(self.degree, xj))
            else:
                a, b = self.box[j]
                u = (2.0 * xj - (a + b)) / (b - a)
                V, D1, D2 = _legendre_tables(self.degree, u)
                s = 2.0 / (b - a)
                tables.append((V, D1 * s, D2 * s * s))
        return tables

    def values(self, X):
        """(m, n) matrix of basis values."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tables = self._dim_tables(X)
        out = np.ones((len(self.multi_indices), X.shape[0]))
        for j in range(self.dim):
            out *= tables[j][0][self.multi_indices[:, j]]
        return out.T

    def values_and_grads(self, X):
        """Values (m, n) and gradients (m, n, d)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tables = self._dim_tables(X)
        idx = self.multi_indices
        n, d, m = len(idx), self.dim, X.shape[0]
        A = [tables[j][0][idx[:, j]] for j in range(d)]   # each (n, m)
        D = [tables[j][1][idx[:, j]] for j in range(d)]
        vals = np.ones((n, m))
        for j in range(d):
            vals *= A[j]
        grads = np.empty((d, n, m))
        for i in range(d):
            g = D[i].copy()
            for j in range(d):
                if j != i:
                    g *= A[j]
            grads[i] = g
        return vals.T, np.ascontiguousarray(grads.transpose(2, 1, 0))

    def element_jet_batch(self, k, X, tables=None):
        """Jet of element k at many points: (m,), (m, d), (m, d, d)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if tables is None:
            tables = self._dim_tables(X)
        alpha = self.multi_indices[k]
        d, m = self.dim, X.shape[0]
        v1 = [tables[j][0][alpha[j]] for j in range(d)]
        d1 = [tables[j][1][alpha[j]] for j in range(d)]
        d2 = [tables[j][2][alpha[j]] for j in range(d)]

        def prod_except(skip):
            out = np.ones(m)
            for j in range(d):
                if j not in skip:
                    out = out * v1[j]
            return out

        val = prod_except(())
        grad = np.empty((m, d))
        hess = np.empty((m, d, d))
        for i in range(d):
            grad[:, i] = d1[i] * prod_except((i,))
        for i in range(d):
            hess[:, i, i] = d2[i] * prod_except((i,))
            for j in range(i + 1, d):
                hij = d1[i] * d1[j] * prod_except((i, j))
                hess[:, i, j] = hij
                hess[:, j, i] = hij
        return val, grad, hess

    def element_jet(self, k, x):
        """Scalar jet (value, gradient (d,), Hessian (d, d)) of element k."""
        if not 0 <= k < self.size:
            raise IndexError(f"basis element {k} out of range [0, {self.size})")
        x = np.asarray(x, dtype=float)
        v, g, h = self.element_jet_batch(k, x[None, :])
        return float(v[0]), g[0], h[0]

    def contains(self, X):
        """True per point when inside the evaluation box (legendre only)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.family != "legendre_box":
            return np.ones(X.shape[0], dtype=bool)
        ok = np.ones(X.shape[0], dtype=bool)
        for j in range(self.dim):
            a, b = self.box[j]
            ok &= (X[:, j] >= a) & (X[:, j] <= b)
        return ok

    def descriptor(self) -> dict:
        out = {"family": self.family, "dim": self.dim, "degree": self.degree}
        if self.box is not None:
            out["box"] = self.box.tolist()
        return out


def build_basis(family: str, d: int, p: int, box=None) -> BasisSet:
    """Construct a total-degree dictionary of size binomial(p + d, d)."""
    if family not in FAMILIES:
        raise ConfigError(f"unknown basis family {family!r}")
    if p < 0 or d < 1:
        raise ConfigError("need degree >= 0 and dimension >= 1")
    if family == "legendre_box":
        if box is None:
            raise ConfigError("legendre_box requires a box")
        box = np.asarray(box, dtype=float).reshape(d, 2)
        if np.any(box[:, 1] <= box[:, 0]):
            raise ConfigError("box intervals must have positive length")
    elif box is not None:
        box = None
    return BasisSet(family, d, p, graded_lex_indices(d, p), box)


def basis_from_descriptor(desc: dict) -> BasisSet:
    return build_basis(desc["family"], desc["dim"], desc["degree"],
                       desc.get("box"))

