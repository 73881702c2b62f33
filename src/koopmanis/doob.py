"""Approximate Doob-transform controllers built from a validated spectrum.

The terminal observable is regressed onto the eigenfunctions (complex
pairs realified into Re/Im columns), the fit is shifted positive through
the constant eigenfunction, and the value surrogate is propagated in time
through the eigenvalue exponentials.  The biasing is
c * B(x)^T grad(Phi)/max(Phi, floor).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, basis_from_descriptor
from .errors import ConfigError, EmptySpectrumError, TuningFailedError
from .gedmd import KoopmanSpectrum, SVD_RTOL

_PAIR_TOL = 1e-8


@dataclass(eq=False)
class _Component:
    """One realified spectral component: a real pair or a conjugate pair."""

    lam_re: float
    lam_im: float                 # 0.0 for real eigenvalues
    c_re: np.ndarray              # (n,)
    c_im: np.ndarray | None       # None for real eigenvalues
    is_constant: bool = False

    @property
    def n_columns(self) -> int:
        return 1 if self.c_im is None else 2


def realify_spectrum(spectrum: KoopmanSpectrum) -> list[_Component]:
    """Collapse the conjugate-closed pair list into real components.

    Complex pairs are represented once (the Im > 0 member); their real and
    imaginary parts become two regression columns.
    """
    if not spectrum.conjugate_closed:
        raise ConfigError("spectrum is not closed under conjugation")
    const_idx = spectrum.constant_index()
    comps = []
    for i, lam in enumerate(spectrum.eigenvalues):
        c = spectrum.coefficients[i]
        if abs(lam.imag) <= _PAIR_TOL:
            comps.append(_Component(float(lam.real), 0.0, c.real.copy(),
                                    None, i == const_idx))
        elif lam.imag > 0:
            comps.append(_Component(float(lam.real), float(lam.imag),
                                    c.real.copy(), c.imag.copy()))
    return comps


def design_matrix(components, basis: BasisSet, points) -> np.ndarray:
    """(m, n_columns) real design matrix of eigenfunction values."""
    feats = basis.values(points)  # (m, n)
    cols = []
    for comp in components:
        cols.append(feats @ comp.c_re)
        if comp.c_im is not None:
            cols.append(feats @ comp.c_im)
    return np.stack(cols, axis=1)


def _svd_lstsq(C, rhs, rtol=SVD_RTOL):
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    keep = s > rtol * (s[0] if len(s) else 0.0)
    return Vt[keep].T @ ((U[:, keep].T @ rhs) / s[keep])


@dataclass(eq=False)
class RegressionResult:
    components: list
    coefficients: np.ndarray   # over realified columns
    fitted: np.ndarray         # C @ coefficients at the regression points


def regress_observable(spectrum: KoopmanSpectrum, points,
                       f_values) -> RegressionResult:
    """Least-squares fit of the observable values onto the eigenfunctions."""
    if spectrum.n_pairs == 0:
        raise EmptySpectrumError("cannot regress on an empty spectrum")
    comps = realify_spectrum(spectrum)
    C = design_matrix(comps, spectrum.basis, points)
    f_values = np.asarray(f_values, dtype=float)
    coeffs = _svd_lstsq(C, f_values)
    return RegressionResult(comps, coeffs, C @ coeffs)


def _constant_column(components) -> int:
    col = 0
    for comp in components:
        if comp.is_constant:
            return col
        col += comp.n_columns
    raise ConfigError("constant eigenfunction absent; cannot positivize")


def positivize(components, coefficients, fitted, margin: float | None = None):
    """Shift the constant coefficient so every fitted value is positive.

    If the minimum fitted value -eps falls below the margin, the constant
    coefficient gains max(eps, 0) + margin; the gradient field of the
    surrogate is untouched.  Returns (coefficients, fitted, shift).
    """
    coefficients = np.asarray(coefficients, dtype=float).copy()
    fitted = np.asarray(fitted, dtype=float)
    if margin is None:
        margin = 1e-6 * float(np.max(np.abs(fitted))) if len(fitted) else 0.0
    col = _constant_column(components)
    lo = float(fitted.min())
    shift = 0.0
    if lo < margin:
        shift = max(-lo, 0.0) + margin
        coefficients[col] += shift
        fitted = fitted + shift
    return coefficients, fitted, shift


class Controller:
    """Base of every biasing controller: the Doob bias c B(x)^T grad(Phi)/Phi.

    A subclass sets ``horizon``, ``multiplier`` (c) and ``floor`` and
    supplies three things:

    - ``value_grad_batch(t, X) -> (Phi (m,), grad Phi (m, d))`` for
      t in [0, horizon], which it enforces with ``_check_time``;
    - ``bias_batch(t, X) -> (u (m, r), floored)``: c times its own B-map
      applied to grad Phi, over Phi floored by ``_floor``; ``floored`` counts
      the rows where the floor was active.  Each subclass keeps its own
      order of that product, which fixes the last bit of every weight;
    - its serialization, where it has one.

    Controllers are immutable after construction: ``with_multiplier``
    returns a copy with a new c, so multiplier sweeps never mutate a
    controller in flight.
    """

    horizon: float
    multiplier: float
    floor: float

    def with_multiplier(self, c: float):
        out = copy.copy(self)
        out.multiplier = float(c)
        return out

    def _check_time(self, t):
        if t < -1e-12 or t > self.horizon + 1e-12:
            raise ValueError("t outside [0, T]")

    def _floor(self, val):
        """max(Phi, floor) per row and the number of rows it floored."""
        return (np.maximum(val, self.floor),
                int(np.count_nonzero(val < self.floor)))


class DoobController(Controller):
    """Value surrogate built from a validated spectrum; B-map the constant
    diffusion matrix."""

    def __init__(self, basis: BasisSet, components, coefficients,
                 diffusion_const, T, multiplier=1.0, floor=1e-12,
                 margin=0.0, model_name=""):
        self.basis = basis
        self.components = list(components)
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.diffusion_const = np.asarray(diffusion_const, dtype=float)
        self.horizon = float(T)
        self.multiplier = float(multiplier)
        self.floor = float(floor)
        self.margin = float(margin)
        self.model_name = model_name

    @property
    def n_eigenfunctions(self) -> int:
        return sum(2 if comp.c_im is not None else 1
                   for comp in self.components)

    def basis_coefficients(self, t: float) -> np.ndarray:
        """Combined dictionary coefficients of the surrogate at time t."""
        tau = self.horizon - t
        a = np.zeros(self.basis.size)
        col = 0
        for comp in self.components:
            decay = math.exp(comp.lam_re * tau)
            if comp.c_im is None:
                a += self.coefficients[col] * decay * comp.c_re
                col += 1
            else:
                cw, sw = math.cos(comp.lam_im * tau), math.sin(comp.lam_im * tau)
                f_re, f_im = self.coefficients[col], self.coefficients[col + 1]
                a += decay * ((f_re * cw + f_im * sw) * comp.c_re
                              + (f_im * cw - f_re * sw) * comp.c_im)
                col += 2
        return a

    def value_grad_batch(self, t, X):
        self._check_time(t)
        a = self.basis_coefficients(t)
        vals, grads = self.basis.values_and_grads(X)
        return vals @ a, np.einsum("mnd,n->md", grads, a)

    def bias_batch(self, t, X):
        val, grad = self.value_grad_batch(t, X)
        denom, nf = self._floor(val)
        u = (self.multiplier / denom)[:, None] * (grad @ self.diffusion_const)
        return u, nf

    def to_dict(self) -> dict:
        return {
            "type": "eigen",
            "model": self.model_name,
            "basis": self.basis.descriptor(),
            "components": [
                {"lam_re": comp.lam_re, "lam_im": comp.lam_im,
                 "c_re": comp.c_re.tolist(),
                 "c_im": None if comp.c_im is None else comp.c_im.tolist(),
                 "is_constant": comp.is_constant}
                for comp in self.components
            ],
            "coefficients": self.coefficients.tolist(),
            "diffusion": self.diffusion_const.tolist(),
            "T": self.horizon,
            "multiplier": self.multiplier,
            "floor": self.floor,
            "margin": self.margin,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DoobController":
        comps = [
            _Component(c["lam_re"], c["lam_im"], np.array(c["c_re"]),
                       None if c["c_im"] is None else np.array(c["c_im"]),
                       c["is_constant"])
            for c in data["components"]
        ]
        return cls(basis_from_descriptor(data["basis"]), comps,
                   np.array(data["coefficients"]), np.array(data["diffusion"]),
                   data["T"], data["multiplier"], data["floor"],
                   data["margin"], data.get("model", ""))


def build_controller(spectrum: KoopmanSpectrum, model, points, f_values, T,
                     multiplier=1.0, offset=None) -> DoobController:
    """Regress, positivize and assemble a controller in one step.

    By default the constant coefficient is shifted by the automatic
    minimum rule; passing ``offset`` applies exactly that shift instead
    (the protocol behind the reference sweep tables, where the offset is
    tuned rather than taken from the fitted minimum).
    """
    reg = regress_observable(spectrum, points, f_values)
    scale = float(np.max(np.abs(reg.fitted))) if len(reg.fitted) else 1.0
    margin = 1e-6 * scale
    if offset is None:
        coeffs, _, _ = positivize(reg.components, reg.coefficients,
                                  reg.fitted, margin)
    else:
        coeffs = np.asarray(reg.coefficients, dtype=float).copy()
        coeffs[_constant_column(reg.components)] += float(offset)
    if model.diffusion_const is None:
        raise ConfigError("eigen controllers require constant diffusion")
    return DoobController(spectrum.basis, reg.components, coeffs,
                          model.diffusion_const, T, multiplier,
                          floor=1e-8 * scale, margin=margin,
                          model_name=model.name)


@dataclass(eq=False)
class TuneResult:
    multiplier: float
    table: list  # rows (c, hit_fraction, estimate, variance, rel_error)


def tune_multiplier(controller, model, obs, x0, T, dt, grid, batch,
                    target=0.5, seed=0, scheme=None, workers=1) -> TuneResult:
    """Sweep the multiplier grid with common random numbers per value.

    Returns the multiplier whose event-hit fraction is closest to the
    target, breaking ties toward the smaller value, along with the full
    sweep table.
    """
    from .estimator import run_ensemble  # local import: estimator uses paths only

    grid = sorted(float(c) for c in grid)
    if not grid:
        raise ConfigError("multiplier grid is empty")
    if batch < 50:
        raise ConfigError("tuning batch must be at least 50")
    rows = []
    for c in grid:
        rep = run_ensemble(model, controller.with_multiplier(c), obs, x0, T,
                           dt, scheme=scheme, M=batch, master_seed=seed,
                           workers=workers)
        rows.append((c, rep.proportion_in_event, rep.estimate,
                     rep.sample_variance, rep.relative_error_per_sample))
    if all(row[1] == 0.0 for row in rows):
        raise TuningFailedError(
            "no trajectories reached the event at any multiplier; widen the "
            "grid or improve the spectrum")
    best = min(rows, key=lambda row: (abs(row[1] - target), row[0]))
    return TuneResult(best[0], rows)
