"""SDE models and rare-event observables.

Every model is an additive-noise SDE dX = a(X) dt + B dW: a drift callable
(batched over states) and one constant noise matrix B of shape (d, r),
from which the state and noise dimensions are read.  Noise never depends
on the state because the biasing control c B^T grad(Phi)/Phi maps the
gradient through B: a constant B keeps that map, the path engine's
diffusion term and the generator's second-order part 0.5 B B^T one fixed
matrix each.  The six built-in models, rank-deficient B included
(brownian_osc, duffing), all have this form.  Constant-coefficient linear
systems also carry (A_lin, B_lin), enabling exact spectra, Gaussian
oracles and the exact hold map that steps them.  Events are described by
a signed margin g(x): positive strictly inside the event, zero on its
boundary.  A single mollifier 0.5*(1 + tanh(s*g(x))) serves every
benchmark.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import InvalidParameterError, ModelNotFoundError, ShapeError
from .paths import rowlocal_product

if TYPE_CHECKING:
    from .spde import SpectralSpde

BUILTIN_MODELS = ("ou1d", "nonnormal2d", "brownian_osc", "advdiff", "vdp",
                  "duffing")


@dataclass(eq=False)
class SdeModel:
    """dX = drift(X) dt + diffusion_const dW.

    ``diffusion_const`` must be a finite 2-D float array with at least one
    row and one column (``ShapeError`` or ``InvalidParameterError``
    otherwise); ``dim_state`` and ``dim_noise`` are its shape.
    """

    name: str
    drift: Callable                  # (..., d) -> (..., d)
    diffusion_const: np.ndarray      # B, (d, r)
    linear_spec: tuple | None = None          # (A_lin, B_lin)
    params: dict = field(default_factory=dict)
    spde: SpectralSpde | None = None

    def __post_init__(self):
        B = self.diffusion_const
        try:
            if np.iscomplexobj(B):
                raise TypeError("it has complex entries")
            B = np.asarray(B, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"diffusion_const of {self.name!r} is not a real float "
                f"array: {exc}") from exc
        if B.ndim != 2 or 0 in B.shape:
            raise ShapeError(f"diffusion_const of {self.name!r} must be a "
                             f"(d, r) matrix, got shape {B.shape}")
        if not np.isfinite(B).all():
            raise InvalidParameterError(
                f"diffusion_const of {self.name!r} must be finite")
        self.diffusion_const = B

    @property
    def dim_state(self) -> int:
        return self.diffusion_const.shape[0]

    @property
    def dim_noise(self) -> int:
        return self.diffusion_const.shape[1]


@dataclass(eq=False)
class EventObservable:
    """Rare-event predicate with signed margin and mollified surrogate."""

    margin: Callable         # (..., d) -> (...)
    sharpness: float = 3.0
    mode: str = "indicator"  # "indicator" | "mollified"
    kind: str = "custom"     # coordinate | abs_coordinate | norm | custom
    threshold: float = 0.0
    component: int = 0

    def indicator(self, x):
        g = self.margin(np.asarray(x, dtype=float))
        return (g > 0).astype(float)

    def mollified(self, x):
        g = self.margin(np.asarray(x, dtype=float))
        return 0.5 * (1.0 + np.tanh(self.sharpness * g))

    def statistic(self, x):
        """Raw scalar the event thresholds (margin shifted back by L)."""
        return self.margin(np.asarray(x, dtype=float)) + self.threshold


def make_event(kind: str, threshold: float, component: int = 0,
               sharpness: float = 3.0, mode: str = "indicator") -> EventObservable:
    """The event of ``kind`` at ``threshold``.  ``mode`` is "indicator" or
    "mollified", spelt exactly: the estimator takes the mollified branch
    for anything but "indicator", so any other mode is an
    ``InvalidParameterError``.  So is a ``sharpness`` that is not a finite
    positive number: a negative one mollifies the complement event, and
    a norm event with a ``component`` other than 0, which it would not
    read."""
    if mode not in ("indicator", "mollified"):
        raise InvalidParameterError(
            f"unknown event mode {mode!r}: use 'indicator' or 'mollified'")
    if not (isinstance(sharpness, numbers.Real) and math.isfinite(sharpness)
            and sharpness > 0):
        raise InvalidParameterError(f"event sharpness must be a finite "
                                    f"positive number, got {sharpness!r}")
    if kind == "coordinate":
        margin = lambda x: x[..., component] - threshold
    elif kind == "abs_coordinate":
        margin = lambda x: np.abs(x[..., component]) - threshold
    elif kind == "norm":
        if component != 0:
            raise InvalidParameterError(
                f"a norm event reads every component, so its component "
                f"must be 0, got {component!r}")
        margin = lambda x: np.sqrt((x * x).sum(axis=-1)) - threshold
    else:
        raise InvalidParameterError(f"unknown event kind {kind!r}")
    return EventObservable(margin, sharpness, mode, kind, threshold, component)


def _merge_params(defaults, params, model_name, positive=()):
    """The defaults updated by ``params``; a key without a default, a
    value that is not a finite number, or one of ``positive`` at or below
    0, is an ``InvalidParameterError`` naming the key."""
    params = dict(params or {})
    unknown = set(params) - set(defaults)
    if unknown:
        raise InvalidParameterError(
            f"unrecognized parameters for {model_name}: {sorted(unknown)}"
        )
    for key, val in params.items():
        if isinstance(val, bool) or not (isinstance(val, numbers.Real)
                                         and math.isfinite(val)):
            raise InvalidParameterError(f"parameter {key!r} of {model_name} "
                                        f"must be a finite number, got "
                                        f"{val!r}")
    out = {**defaults, **params}
    for key in positive:
        if out[key] <= 0:
            raise InvalidParameterError(f"parameter {key!r} must be positive")
    return out


def _linear_model(name, A, B, params):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)

    def drift(x):
        # row-local, unlike the BLAS x @ A.T: a row's drift must not
        # depend on how many rows share its block
        x = np.asarray(x, dtype=float)
        return rowlocal_product(x.reshape(-1, x.shape[-1]),
                                A.T).reshape(x.shape)

    return SdeModel(name, drift, B, linear_spec=(A, B), params=params)


def make_builtin_model(name: str, params: dict | None = None) -> SdeModel:
    """Construct one of the six benchmark systems.

    Missing parameters take the reference values; each given one must be a
    finite number, and damping and noise parameters positive.
    """
    if name == "ou1d":
        p = _merge_params({"rate": 1.0, "noise": math.sqrt(2.0)}, params, name,
                          ("rate", "noise"))
        return _linear_model(name, [[-p["rate"]]], [[p["noise"]]], p)

    if name == "nonnormal2d":
        p = _merge_params({"noise": 0.1, "slow_rate": 0.3}, params, name,
                          ("noise", "slow_rate"))
        A = [[-1.0, 0.0], [1.0, -p["slow_rate"]]]
        B = p["noise"] * np.eye(2)
        return _linear_model(name, A, B, p)

    if name == "brownian_osc":
        p = _merge_params({"omega0": 1.0, "zeta": 0.5, "noise": 1.0}, params,
                          name, ("omega0", "zeta", "noise"))
        w0, ze = p["omega0"], p["zeta"]
        A = [[0.0, 1.0], [-w0 * w0, -2.0 * ze * w0]]
        B = [[0.0], [p["noise"]]]
        return _linear_model(name, A, B, p)

    if name == "advdiff":
        # spectral_setup checks alpha and n_modes
        p = _merge_params({"b": 1.0, "alpha": 0.1, "eps_noise": 1.0,
                           "n_modes": 64}, params, name, ("eps_noise",))
        # local import: spde builds on doob, which imports this module
        from .spde import spectral_setup
        sp = spectral_setup(p["n_modes"], p["alpha"], p["b"])
        m = _linear_model(name, sp.drift_matrix,
                          math.sqrt(p["eps_noise"]) * np.eye(sp.n_modes), p)
        m.spde = sp
        return m

    if name == "vdp":
        p = _merge_params({"mu": 0.3, "eps": 0.01}, params, name, ("eps",))
        if p["mu"] < 0:
            raise InvalidParameterError("parameter 'mu' must be nonnegative")
        mu = p["mu"]
        B = math.sqrt(2.0 * p["eps"]) * np.eye(2)

        def drift(x):
            x = np.asarray(x, dtype=float)
            x1, x2 = x[..., 0], x[..., 1]
            out = np.empty_like(x)  # keeps the layout of x
            out[..., 0], out[..., 1] = x2, mu * (1.0 - x1 * x1) * x2 - x1
            return out

        return SdeModel(name, drift, B, params=p)

    if name == "duffing":
        p = _merge_params({"alpha": 1.0, "beta": -1.0, "delta": 0.5,
                           "eps": 0.0025}, params, name,
                          ("alpha", "delta", "eps"))
        al, be, de = p["alpha"], p["beta"], p["delta"]
        B = np.array([[0.0], [math.sqrt(2.0 * p["eps"])]])

        def drift(x):
            x = np.asarray(x, dtype=float)
            x1, x2 = x[..., 0], x[..., 1]
            out = np.empty_like(x)  # keeps the layout of x
            out[..., 0], out[..., 1] = x2, -de * x2 - x1 * (be + al * x1 * x1)
            return out

        return SdeModel(name, drift, B, params=p)

    raise ModelNotFoundError(f"no built-in model named {name!r}")


def default_event(model: SdeModel) -> EventObservable:
    """The benchmark event attached to each built-in system."""
    table = {
        "ou1d": ("coordinate", 2.0, 0),
        "nonnormal2d": ("norm", 0.75, 0),
        "brownian_osc": ("abs_coordinate", 3.0, 0),
        "vdp": ("norm", 2.7, 0),
        "duffing": ("coordinate", 0.0, 0),
        "advdiff": ("norm", 2.5, 0),
    }
    if model.name not in table:
        raise ModelNotFoundError(f"no default event for {model.name!r}")
    kind, threshold, comp = table[model.name]
    return make_event(kind, threshold, comp)


def half_diffusion_sq(model: SdeModel):
    """Q = 0.5 B B^T, the generator's second-order coefficient, (d, d)."""
    B = model.diffusion_const
    return 0.5 * B @ B.T
