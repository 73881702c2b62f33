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

``BasisSet.jets`` is the one per-function evaluator: it gathers each
element's 1-D table entries and multiplies them into (n, m) arrays of
values, gradients and Hessians for all n elements at all m points at once.
``values`` and ``values_and_grads`` are views of it; the gEDMD set-up
applies the generator to its order-2 output.  An expansion
sum_k a_k psi_k -- the controller's value surrogate at time t -- is
evaluated by ``value_grad`` as a tensor-product contraction instead: a is
scattered into a (p+1)^d coefficient tensor (zero outside the index set),
and its axes are contracted one at a time, last first, against the 1-D
value tables.  The gradient along x_j takes the derivative table on axis j
instead, so the value and the d gradient chains share their partial
contractions.  Only value and first-derivative tables are built, and no
(m, n, d) per-function tensor is formed.  Every sum over a coefficient axis
is an explicit elementwise multiply-add (no BLAS, ``einsum`` or pairwise
``np.sum``), so each row's result is independent of the number of rows.
"""

from __future__ import annotations

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
    val, d1, d2 = (D[n_order] for D in
                   _power_rule_tables(_hermite_values(n_order, x), 2))
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


def _monomial_values(p, x):
    V = np.empty((p + 1,) + np.shape(x))
    V[0] = 1.0
    for n in range(1, p + 1):
        V[n] = V[n - 1] * x
    return V


# The table builders return (V, D1, D2) for order 2 and (V, D1) for
# order 1; V and D1 are the same arrays either way.

def _power_rule_tables(V, order):
    """Derivative tables of a family with P_n' = n P_{n-1} (Hermite,
    monomials): D1[n] = n V[n-1] and, for order 2, D2[n] = n(n-1) V[n-2]."""
    D1 = np.zeros(V.shape)
    for n in range(1, len(V)):
        D1[n] = n * V[n - 1]
    if order == 1:
        return V, D1
    D2 = np.zeros(V.shape)
    for n in range(2, len(V)):
        D2[n] = n * (n - 1) * V[n - 2]
    return V, D1, D2


def _legendre_tables(p, u, order=2):
    """Orthonormal-on-[-1,1] (uniform probability measure) Legendre tables."""
    m = np.shape(u)
    V = np.empty((p + 1,) + m)
    D1 = np.zeros((p + 1,) + m)
    D2 = np.zeros((p + 1,) + m) if order == 2 else None
    V[0] = 1.0
    if p >= 1:
        V[1] = u
        D1[1] = 1.0
    for n in range(1, p):
        # P_{n+1} = ((2n+1) u P_n - n P_{n-1}) / (n+1), differentiated twice
        a, b = (2 * n + 1) / (n + 1), n / (n + 1)
        V[n + 1] = a * u * V[n] - b * V[n - 1]
        D1[n + 1] = a * (V[n] + u * D1[n]) - b * D1[n - 1]
        if order == 2:
            D2[n + 1] = a * (2.0 * D1[n] + u * D2[n]) - b * D2[n - 1]
    scale = np.sqrt(2.0 * np.arange(p + 1) + 1.0).reshape((p + 1,) + (1,) * len(m))
    if order == 1:
        return V * scale, D1 * scale
    return V * scale, D1 * scale, D2 * scale


def _contract(T, W):
    """sum_q T[..., q, :] * W[q]: the last coefficient axis of T against a
    (p+1, m) table, as an explicit multiply-add in q so that every row's
    result is independent of the number of rows."""
    out = T[..., 0, :] * W[0]
    for q in range(1, len(W)):
        out += T[..., q, :] * W[q]
    return out


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

    def _dim_tables(self, X, order=2):
        """Per-dimension 1-D tables (values, d1, d2), chain rule applied;
        (values, d1) only when ``order`` is 1."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tables = []
        for j in range(self.dim):
            xj = X[:, j]
            if self.family == "hermite":
                tables.append(_power_rule_tables(
                    _hermite_values(self.degree, xj), order))
            elif self.family == "linear_exact":
                tables.append(_power_rule_tables(
                    _monomial_values(self.degree, xj), order))
            else:
                a, b = self.box[j]
                u = (2.0 * xj - (a + b)) / (b - a)
                V, D1, *D2 = _legendre_tables(self.degree, u, order)
                s = 2.0 / (b - a)
                tables.append((V, D1 * s) + tuple(D * s * s for D in D2))
        return tables

    def jets(self, X, order=2):
        """Every element's jet at every point, from the gathered 1-D tables.

        Returns [V] for order 0, [V, G] for order 1 and [V, G, H] for
        order 2: V is (n, m), G a list of d gradient arrays (n, m) and H a
        d x d grid of Hessian arrays (n, m), H[i][j] the same array as
        H[j][i].  Each entry is the derivative factors times the product of
        the value factors of the other dimensions, taken in order 0..d-1.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tables = self._dim_tables(X, max(order, 1))
        idx, d = self.multi_indices, self.dim
        # T[k][j]: k-th derivative factor along x_j of every element, (n, m)
        T = [[tables[j][k][idx[:, j]] for j in range(d)]
             for k in range(order + 1)]

        def rest(*skip):   # 1 * a * b ... leaves the bits of a * b ...
            out = 1.0
            for j in range(d):
                if j not in skip:
                    out = out * T[0][j]
            return out

        out = [rest()]
        if order >= 1:
            R = [rest(i) for i in range(d)]
            out.append([T[1][i] * R[i] for i in range(d)])
        if order == 2:
            H = [[None] * d for _ in range(d)]
            for i in range(d):
                H[i][i] = T[2][i] * R[i]
                for j in range(i + 1, d):
                    H[i][j] = H[j][i] = T[1][i] * T[1][j] * rest(i, j)
            out.append(H)
        return out

    def values(self, X):
        """(m, n) matrix of basis values."""
        return self.jets(X, 0)[0].T

    def values_and_grads(self, X):
        """Values (m, n) and gradients (m, n, d): the per-function reference
        ``value_grad`` is tested against."""
        V, G = self.jets(X, 1)
        return V.T, np.ascontiguousarray(np.transpose(G, (2, 1, 0)))

    def value_grad(self, a, X):
        """Value (m,) and gradient (m, d) of the expansion sum_k a[k] psi_k,
        by the row-local tensor-product contraction the module docstring
        describes."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tables = self._dim_tables(X, order=1)
        coef = np.zeros((self.degree + 1,) * self.dim)
        coef[tuple(self.multi_indices.T)] = a
        val, grads = coef[..., None], []   # the row axis is always last
        for V, D in reversed(tables):
            grads = [_contract(val, D)] + [_contract(g, V) for g in grads]
            val = _contract(val, V)
        return val, np.stack(grads, axis=1)

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

