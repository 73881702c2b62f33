"""Approximate Doob-transform controllers built from a validated spectrum.

The spectrum holds one entry per real eigenvalue and one, the Im > 0
member, per conjugate pair (``gedmd``), and the controller reads it as it
is: one real term of the surrogate per entry, and its ``n_pairs``, which
counts eigenvalues, is the number of realified columns.  The terminal
observable is regressed onto the eigenfunctions (a pair's entry realified
into Re/Im columns), the fit is shifted positive through the constant
eigenfunction, and the value surrogate is propagated in time through the
eigenvalue exponentials.  The biasing is c * B^T grad(Phi)/max(Phi,
floor), with B the model's constant noise matrix.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import estimator
from .basis import basis_from_descriptor
from .errors import (ConfigError, EmptySpectrumError, InvalidParameterError,
                     TuningFailedError)
from .gedmd import CONJUGATE_TOL, SVD_RTOL, KoopmanSpectrum
from .paths import HOLD_TIME, rowlocal_product, run_paths

# the event-hit fraction tune_multiplier picks the multiplier by
TARGET_HIT_FRACTION = 0.5


def _columns(spectrum: KoopmanSpectrum):
    """Per entry, whether it is a conjugate pair, and the first of its
    realified columns: Re phi of a real eigenvalue, Re phi and Im phi of a
    pair.  An entry with Im lambda < -CONJUGATE_TOL, the second member of
    a pair, is a ``ConfigError``: the pair would count twice."""
    if (spectrum.eigenvalues.imag < -CONJUGATE_TOL).any():
        raise ConfigError("the spectrum lists the Im < 0 member of a "
                          "conjugate pair; keep only the Im > 0 entry")
    pairs = spectrum.pairs
    return pairs, np.cumsum(1 + pairs) - 1 - pairs


def _read(block, key, shape):
    """``block[key]`` of a controller file as a float array of ``shape``
    (an axis of None takes any length) with every entry finite; a
    ``ConfigError`` that names the key otherwise."""
    try:
        out = np.array(block[key], dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.ndim != len(shape) or not np.isfinite(out).all() \
            or any(w is not None and n != w for n, w in zip(out.shape, shape)):
        want = "a finite number" if shape == () \
            else "a list of rows of finite numbers" if len(shape) == 2 \
            else f"a list of {shape[0]} finite numbers"
        raise ConfigError(f"the controller file's {key!r} must be {want}; "
                          f"refit it")
    return out


def _svd_lstsq(C, rhs, rtol=SVD_RTOL):
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    keep = s > rtol * (s[0] if len(s) else 0.0)
    return Vt[keep].T @ ((U[:, keep].T @ rhs) / s[keep])


def positivize(coefficients, fitted, col, margin: float):
    """Shift the constant coefficient so every fitted value is positive.

    If the minimum fitted value -eps falls below the margin, coefficient
    ``col``, the constant function's, gains max(eps, 0) + margin; the
    gradient field of the surrogate is untouched.  Returns (coefficients,
    fitted, shift).
    """
    coefficients = np.asarray(coefficients, dtype=float).copy()
    fitted = np.asarray(fitted, dtype=float)
    lo = float(fitted.min())
    shift = 0.0
    if lo < margin:
        shift = max(-lo, 0.0) + margin
        coefficients[col] += shift
        fitted = fitted + shift
    return coefficients, fitted, shift


def fit_surrogate(C, f_values, col):
    """The one surrogate fit of every controller: a truncated-SVD solve of
    C a = f, with the constant column ``col`` shifted by ``positivize`` at
    margin 1e-6 * scale, scale = max |C a|, so the surrogate is positive at
    every fitted point.  Returns (a, floor), with floor = 1e-8 * scale the
    value at which every controller floors Phi.
    """
    coeffs = _svd_lstsq(C, np.asarray(f_values, dtype=float))
    fitted = C @ coeffs
    scale = float(np.max(np.abs(fitted))) if len(fitted) else 1.0
    coeffs, _, _ = positivize(coeffs, fitted, col, 1e-6 * scale)
    return coeffs, 1e-8 * scale


class Controller:
    """Base of every biasing controller: the Doob bias c B^T grad(Phi)/Phi.

    A subclass sets ``horizon``, ``multiplier`` (c) and ``floor`` and
    supplies three things:

    - ``value_grad_batch(t, X) -> (Phi (m,), grad Phi)`` for t in
      [0, horizon], which it enforces with ``_check_time``; the gradient
      is taken in the controller's coordinates, X itself or
      ``DoobController``'s q = X W;
    - ``_noise_map(grad) -> (m, r)``: the constant map of that gradient to
      B^T grad_X Phi (every model has additive noise, so B does not
      depend on X); where it is a matrix this is
      ``paths.rowlocal_product``, the one per-step product;
    - its serialization.

    ``bias_batch(t, X) -> (u (m, r), floored)`` is the one bias formula,
    (c / max(Phi, floor)) * B^T grad Phi, with ``floored`` the (m,) mask of
    the rows where the floor was active.  The multiplier c is a scalar or
    one value per row of X.  The formula is row-local when both methods
    are: row i of its result depends only on X[i] and c[i], bit for bit,
    whatever the number of rows.  The path engine's worker-count
    invariance and the stacked multiplier sweep rest on this.

    The path engine calls ``bias_batch`` once per control hold of
    ``hold_time`` model time units (``paths.HOLD_TIME`` unless set), at
    the hold's first step, and drives the hold's remaining steps, and
    their Girsanov terms, with the same u (``paths`` has the rule);
    ``floored`` then counts for every step of the hold.

    Controllers are immutable after construction: ``with_multiplier`` and
    ``with_hold_time`` return a copy with a new c or hold, so multiplier
    sweeps never mutate a controller in flight.
    """

    horizon: float
    multiplier: float | np.ndarray
    floor: float
    hold_time: float = HOLD_TIME

    def with_multiplier(self, c):
        """A copy at multiplier c: a scalar, or an array with one value
        per row of the ensemble it runs (the engine slices it per block)."""
        out = copy.copy(self)
        out.multiplier = float(c) if np.ndim(c) == 0 \
            else np.asarray(c, dtype=float)
        return out

    def with_hold_time(self, hold_time):
        """A copy that holds its control for ``hold_time`` model time
        units; 0 evaluates it at every step."""
        out = copy.copy(self)
        out.hold_time = float(hold_time)
        return out

    def _check_time(self, t):
        if t < -1e-12 or t > self.horizon + 1e-12:
            raise InvalidParameterError("t outside the horizon [0, T]")

    def bias_batch(self, t, X):
        val, grad = self.value_grad_batch(t, X)
        u = (self.multiplier / np.maximum(val, self.floor))[:, None] \
            * self._noise_map(grad)
        return u, val < self.floor


class DoobController(Controller):
    """Value surrogate built from a validated spectrum; B-map the constant
    diffusion matrix.

    ``coefficients`` are the fit's, one per realified column of the
    spectrum's entries (``build_controller``): one for a real eigenvalue,
    two for a conjugate pair's entry, which stands for both members, so
    ``spectrum.n_pairs`` in all.  A spectrum that also lists a pair's
    Im < 0 member is a ``ConfigError``.

    With a coordinate matrix W (d, r) the surrogate is a function of
    q = X W: the basis is evaluated at ``rowlocal_product(X, W)``, the
    gradient is taken in q, and ``diffusion_const`` is W^T B (r, noise),
    so the B-map still gives B^T grad_X Phi.  The SPDE's controller is
    this controller on the adjoint coordinate q = <Y, w1> (``spde``).
    """

    def __init__(self, spectrum: KoopmanSpectrum, coefficients,
                 diffusion_const, T, multiplier=1.0, floor=1e-12,
                 model_name="", coordinates=None):
        self.spectrum = spectrum
        self.basis = spectrum.basis
        self.coordinates = None if coordinates is None \
            else np.asarray(coordinates, dtype=float)
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.diffusion_const = np.asarray(diffusion_const, dtype=float)
        self.horizon = float(T)
        self.multiplier = float(multiplier)
        self.floor = float(floor)
        self.model_name = model_name
        self.n_eigenfunctions = len(self.coefficients)
        # a(t) = Re sum_k exp(lam_k tau) g_k c_k with g_k = f_re,k - i f_im,k
        # over the entries k; a real entry is read as Im lam = f_im = Im c = 0
        pairs, first = _columns(spectrum)
        lam, c = spectrum.eigenvalues, spectrum.coefficients
        f = self.coefficients
        self._lam = np.where(pairs, lam, lam.real.astype(complex))
        self._g = f[first].astype(complex)
        self._g.imag[pairs] = -f[first[pairs] + 1]
        self._c = np.stack([c.real, np.where(pairs[:, None], -c.imag, 0.0)],
                           axis=1).reshape(2 * len(lam), self.basis.size)

    def basis_coefficients(self, t: float) -> np.ndarray:
        """Combined dictionary coefficients of the surrogate at time t."""
        z = np.exp(self._lam * (self.horizon - t)) * self._g
        return z.view(float) @ self._c   # [Re z_0, Im z_0, Re z_1, ...]

    def value_grad_batch(self, t, X):
        self._check_time(t)
        if self.coordinates is not None:
            X = rowlocal_product(X, self.coordinates)
        return self.basis.value_grad(self.basis_coefficients(t), X)

    # own binding: the benchmark's layer trace patches each class's bias_batch
    bias_batch = Controller.bias_batch

    def _noise_map(self, grad):
        return rowlocal_product(grad, self.diffusion_const)

    def to_dict(self) -> dict:
        spec, const = self.spectrum, self.spectrum.constant_index()
        out = {
            "type": "eigen",
            "model": self.model_name,
            "basis": self.basis.descriptor(),
            "components": [
                {"lam_re": float(lam.real),
                 "lam_im": float(lam.imag) if pair else 0.0,
                 "c_re": c.real.tolist(),
                 "c_im": c.imag.tolist() if pair else None,
                 "is_constant": k == const}
                for k, (lam, c, pair) in enumerate(zip(
                    spec.eigenvalues, spec.coefficients, spec.pairs))
            ],
            "coefficients": self.coefficients.tolist(),
            "diffusion": self.diffusion_const.tolist(),
            "T": self.horizon,
            "multiplier": self.multiplier,
            "floor": self.floor,
        }
        if self.coordinates is not None:
            out["coordinates"] = self.coordinates.tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DoobController":
        """Inverse of ``to_dict``; the ``margin`` key of older files is
        ignored, and ``is_constant`` is recomputed from the spectrum.  A
        file of another ``type`` (the "spde" files written before the SPDE
        controller became this one), one that lacks a key, or one whose
        arrays do not fit its basis and components, or whose ``diffusion``
        and ``coordinates`` are not finite 2-D arrays (``_read``; their
        shapes against the model are ``check_fits``'s), is a
        ``ConfigError``."""
        if data.get("type") != "eigen":
            raise ConfigError(f"cannot load a controller of type "
                              f"{data.get('type')!r}: only 'eigen' "
                              f"controllers load; refit it")
        try:
            comps = data["components"]
            basis = basis_from_descriptor(data["basis"])
            n = basis.size
            lam = np.zeros(len(comps), dtype=complex)
            coeffs = np.zeros((len(comps), n), dtype=complex)
            for k, comp in enumerate(comps):
                lam[k] = complex(_read(comp, "lam_re", ()),
                                 _read(comp, "lam_im", ()))
                coeffs.real[k] = _read(comp, "c_re", (n,))
                if abs(lam[k].imag) > CONJUGATE_TOL:
                    coeffs.imag[k] = _read(comp, "c_im", (n,))
            spectrum = KoopmanSpectrum(basis, lam, coeffs,
                                       np.full(len(comps), np.nan))
            # one coefficient per eigenvalue: a pair's entry has two columns
            args = (_read(data, "coefficients", (spectrum.n_pairs,)),
                    _read(data, "diffusion", (None, None)),
                    *(_read(data, key, ())
                      for key in ("T", "multiplier", "floor")))
        except KeyError as exc:
            raise ConfigError(f"the controller file lacks the key "
                              f"{exc.args[0]!r}; refit it") from exc
        coordinates = None if data.get("coordinates") is None \
            else _read(data, "coordinates", (None, None))
        return cls(spectrum, *args, data.get("model", ""), coordinates)

    def check_fits(self, model):
        """Raise ``ConfigError`` unless this controller can drive
        ``model``: its diffusion map has one row per basis dimension and
        the model's noise columns, and its rows are the model's state
        dimensions or, with coordinates W, W's columns, W having one row
        per state dimension."""
        rows, cols = self.diffusion_const.shape
        W = self.coordinates
        if not (cols == model.dim_noise and self.basis.dim == rows
                and (rows == model.dim_state if W is None
                     else W.shape == (model.dim_state, rows))):
            on = "" if W is None else f" on {W.shape[0]} x {W.shape[1]} " \
                "coordinates"
            raise ConfigError(
                f"the controller does not fit the model {model.name!r}: its "
                f"diffusion map is {rows} x {cols}{on}, the model has "
                f"{model.dim_state} state dimensions and {model.dim_noise} "
                f"noise columns")


def build_controller(spectrum: KoopmanSpectrum, model, points, f_values, T,
                     coordinates=None) -> DoobController:
    """Fit the observable onto the realified eigenfunctions, Re phi for
    a real eigenvalue and Re phi, Im phi for a conjugate pair, with
    ``fit_surrogate``, and assemble the controller.  With ``coordinates``
    W, ``model`` and ``points`` are those of q = X W and ``f_values`` the
    observable at the X the points came from."""
    if spectrum.n_pairs == 0:
        raise EmptySpectrumError("cannot regress on an empty spectrum")
    pairs, first = _columns(spectrum)
    const = spectrum.constant_index()
    if const < 0:
        raise ConfigError("constant eigenfunction absent; cannot positivize")
    c = spectrum.coefficients
    columns = np.insert(c.real, np.flatnonzero(pairs) + 1, c.imag[pairs],
                        axis=0)
    coeffs, floor = fit_surrogate(
        spectrum.basis.values(points) @ columns.T, f_values, first[const])
    return DoobController(spectrum, coeffs, model.diffusion_const, T,
                          floor=floor, model_name=model.name,
                          coordinates=coordinates)


@dataclass(eq=False)
class TuneResult:
    multiplier: float
    table: list  # rows (c, hit_fraction, estimate, variance, rel_error)


def tune_multiplier(controller, model, obs, x0, T, dt, grid, batch, seed=0,
                    workers=1) -> TuneResult:
    """Sweep the multiplier grid with common random numbers per value.

    The sweep runs as one stacked ``paths.run_paths`` ensemble of
    len(grid) * batch rows: row g * batch + i is path i of ``seed`` at
    multiplier grid[g], so each path's noise is drawn once and replayed
    for every c.  Because the engine and the controllers are row-local,
    every row is bit for bit the path an ensemble at that c alone would
    give.  The rows hold the control for the controller's ``hold_time``,
    as the final ensemble does, so the chosen c fits the run that uses it.
    Each c's rows are then reduced by ``estimator.run_ensemble``.  Returns
    the multiplier whose event-hit fraction is closest to
    ``TARGET_HIT_FRACTION``, breaking ties toward the smaller value, along
    with the full sweep table.
    """
    grid = sorted(float(c) for c in grid)
    if not grid:
        raise ConfigError("multiplier grid is empty")
    if batch < 50:
        raise ConfigError("tuning batch must be at least 50")
    n = len(grid)
    stacked = run_paths(
        model, controller.with_multiplier(np.repeat(grid, batch)), x0, T,
        dt, M=n * batch, master_seed=seed, workers=workers,
        path_index=np.tile(np.arange(batch), n))
    rows = []
    for g, c in enumerate(grid):
        rep = estimator.run_ensemble(
            model, controller.with_multiplier(c), obs, x0, T, dt,
            M=batch, master_seed=seed,
            ensemble=stacked.rows(g * batch, (g + 1) * batch))
        rows.append((c, rep.proportion_in_event, rep.estimate,
                     rep.sample_variance, rep.relative_error_per_sample))
    if all(row[1] == 0.0 for row in rows):
        raise TuningFailedError(
            "no trajectories reached the event at any multiplier; widen the "
            "grid or improve the spectrum")
    best = min(rows, key=lambda row: (abs(row[1] - TARGET_HIT_FRACTION),
                                      row[0]))
    return TuneResult(best[0], rows)
