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
recurrences, never finite differences.  Each family has one 1-D table
builder for its plain polynomials.  Legendre values come from Bonnet's
recurrence, and each derivative table from the table below it by the
identity (2n+1) P_n = P'_{n+1} - P'_{n-1}, applied to P for P' and to P'
for P'': one multiply-add per row.

``BasisSet.jets`` is the one per-function evaluator: it gathers each
element's 1-D table entries and multiplies them into (n, m) arrays of
values, gradients and Hessians for all n elements at all m points at once.
Its tables carry the Legendre orthonormal factors sqrt(2n+1) and the box
chain rule 2/(b-a) per row.  ``values`` and ``values_and_grads`` are views
of it; the gEDMD set-up applies the generator to its order-2 output.

An expansion sum_k a_k psi_k -- the controller's value surrogate at time
t, evaluated at every step of every path -- goes through ``value_grad``, a
tensor-product contraction, instead.  a is scattered into a (p+1)^d
coefficient tensor (zero outside the index set), and its axes are
contracted one at a time, last first, against the plain 1-D value tables.
The gradient along x_j takes the derivative table on axis j instead, so the
value and the d gradient chains share their partial contractions.  Three
things keep the per-row arithmetic small:

- scales are folded: each coefficient is multiplied once per call by its
  element's prod_j sqrt(2 alpha_j + 1), and each of the d gradients by
  its 2/(b_j - a_j) at the end, so no table row is scaled;
- slab q of the axis being contracted adds only into the leading box that
  the multi-indices with that alpha_j = q occupy (cached on the basis;
  for total degree, the box of side p+1-q), and slabs no multi-index has
  are skipped;
- every derivative chain starts at q = 1, since the derivative of the
  constant is zero.

Only exact zeros are skipped, so hermite and linear_exact keep their bits.
Only value and first-derivative tables are built, and no (m, n, d)
per-function tensor is formed.  Every sum over a coefficient axis is an
explicit elementwise multiply-add (no BLAS, ``einsum`` or pairwise
``np.sum``), so each row's result is independent of the number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import ConfigError

FAMILIES = ("hermite", "legendre_box", "linear_exact")


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
    """Plain Legendre tables on [-1, 1] (P_n(1) = 1): values, then ``order``
    derivative tables.  Values come from Bonnet's recurrence, each
    derivative table from the one below it by (2n+1) F_n = F'_{n+1} -
    F'_{n-1} (F = P, then P'), one multiply-add per row."""
    V = np.empty((p + 1,) + np.shape(u))
    V[0] = 1.0
    if p >= 1:
        V[1] = u
    for n in range(1, p):
        # P_{n+1} = ((2n+1) u P_n - n P_{n-1}) / (n+1)
        a, b = (2 * n + 1) / (n + 1), n / (n + 1)
        V[n + 1] = a * u * V[n] - b * V[n - 1]
    tables = [V]
    for _ in range(order):
        F = tables[-1]
        Fp = np.empty(F.shape)
        Fp[0] = 0.0
        if p >= 1:
            Fp[1] = F[0]
        for n in range(1, p):
            np.multiply(F[n], 2 * n + 1, out=Fp[n + 1])
            Fp[n + 1] += Fp[n - 1]
        tables.append(Fp)
    return tuple(tables)


def _contract(T, W, boxes, first=0):
    """sum_q T[..., q, :] * W[q]: the last coefficient axis of T against a
    (p+1, m) table, as an explicit multiply-add in q so that every row's
    result is independent of the number of rows.  Slabs q < ``first`` and
    slabs whose ``boxes`` entry is None are skipped, and slab q adds only
    into the leading box boxes[q] (a tuple of slices): everything outside
    is zero by structure."""
    shape = T.shape[:-2] + W.shape[1:]
    out = None
    for q in range(first, len(W)):
        box = boxes[q]
        if box is None:
            continue
        term = T[box + (q,)] * W[q]
        if out is None and term.shape == shape:
            out = term   # a first slab that spans every leading index
            continue
        if out is None:
            out = np.zeros(shape)
        acc = out[box]   # a view: ``out[box] += term`` would copy it back
        acc += term
    return np.zeros(shape) if out is None else out


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

    def _unit_tables(self, X, order):
        """Per-dimension 1-D tables (values, d1[, d2]) of the family's
        plain polynomials in each coordinate's own variable: x for hermite
        and linear_exact, u = (2x - a - b)/(b - a) for legendre_box, whose
        orthonormal factors and chain rule are left to the caller.  One
        (p+1, d, m) table per order covers all coordinates; dimension j
        gets its (p+1, m) views."""
        if self.family == "legendre_box":
            a, b = self.box[:, :1], self.box[:, 1:]
            tables = _legendre_tables(self.degree,
                                      (2.0 * X.T - (a + b)) / (b - a), order)
        else:
            values = (_hermite_values if self.family == "hermite"
                      else _monomial_values)
            tables = _power_rule_tables(
                values(self.degree, np.ascontiguousarray(X.T)), order)
        return [tuple(T[:, j] for T in tables) for j in range(self.dim)]

    def _dim_tables(self, X, order=2):
        """Per-dimension 1-D tables of the dictionary's own elements
        (values, d1, d2), chain rule applied; (values, d1) only when
        ``order`` is 1."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tables = self._unit_tables(X, order)
        if self.family != "legendre_box":
            return tables
        r = np.sqrt(2.0 * np.arange(self.degree + 1) + 1.0)[:, None]
        for (V, D1, *D2), s in zip(tables, self._chain_factors):
            V *= r   # in place: the tables are this call's own
            D1 *= r * s
            for D in D2:
                D *= r * s * s
        return tables

    @cached_property
    def _chain_factors(self):
        """d(u_j)/d(x_j) = 2/(b_j - a_j) of each box coordinate."""
        return 2.0 / (self.box[:, 1] - self.box[:, 0])

    @cached_property
    def _element_factors(self):
        """Each element's orthonormal factor prod_j sqrt(2 alpha_j + 1),
        which ``value_grad`` folds into the coefficients (legendre_box)."""
        return np.prod(np.sqrt(2.0 * self.multi_indices + 1.0), axis=1)

    @cached_property
    def _slab_boxes(self):
        """boxes[j][q]: for the contraction of axis j and its slab q, the
        leading box (slices up to max alpha_i + 1 for i < j) that the
        multi-indices with alpha_j = q occupy, or None when there are
        none."""
        idx = self.multi_indices
        out = []
        for j in range(self.dim):
            boxes = []
            for q in range(self.degree + 1):
                rows = idx[idx[:, j] == q, :j]
                boxes.append(tuple(slice(e) for e in rows.max(axis=0) + 1)
                             if len(rows) else None)
            out.append(boxes)
        return out

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
        tables = self._unit_tables(X, order=1)
        coef = np.zeros((self.degree + 1,) * self.dim)
        if self.family == "legendre_box":
            a = a * self._element_factors
        coef[tuple(self.multi_indices.T)] = a
        val, grads = coef[..., None], []   # the row axis is always last
        for (V, D), boxes in zip(reversed(tables), reversed(self._slab_boxes)):
            grads = [_contract(val, D, boxes, first=1)] \
                + [_contract(g, V, boxes) for g in grads]
            val = _contract(val, V, boxes)
        grad = np.stack(grads, axis=1)
        if self.family == "legendre_box":
            grad *= self._chain_factors
        return val, grad

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
    for key, val, least in (("degree", p, 0), ("dim", d, 1)):
        if not (isinstance(val, (int, np.integer)) and val >= least):
            raise ConfigError(f"the basis {key!r} must be a whole number >= "
                              f"{least}, got {val!r}")
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

