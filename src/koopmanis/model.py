"""SDE models and rare-event observables.

A model bundles drift/diffusion callables (batched over states), the state
and noise dimensions, and, for constant-coefficient linear systems, the
(A_lin, B_lin) matrices enabling exact spectra and Gaussian oracles.
Events are described by a signed margin g(x): positive strictly inside the
event, zero on its boundary.  A single mollifier 0.5*(1 + tanh(s*g(x)))
serves every benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import InvalidParameterError, ModelNotFoundError, ShapeError

if TYPE_CHECKING:
    from .spde import SpectralSpde

BUILTIN_MODELS = ("ou1d", "nonnormal2d", "brownian_osc", "advdiff", "vdp",
                  "duffing")


@dataclass(eq=False)
class SdeModel:
    name: str
    dim_state: int
    dim_noise: int
    drift: Callable          # (..., d) -> (..., d)
    diffusion: Callable      # x -> (d, r), or (m, d, r) for batches
    linear_spec: tuple | None = None          # (A_lin, B_lin)
    diffusion_const: np.ndarray | None = None  # set iff diffusion is additive
    params: dict = field(default_factory=dict)
    spde: SpectralSpde | None = None


@dataclass(eq=False)
class EventObservable:
    """Rare-event predicate with signed margin and mollified surrogate."""

    margin: Callable         # (..., d) -> (...)
    sharpness: float = 3.0
    mode: str = "mollified"  # "indicator" | "mollified"
    kind: str = "custom"     # coordinate | abs_coordinate | norm | custom
    threshold: float = 0.0
    component: int = 0

    def indicator(self, x):
        g = self.margin(np.asarray(x, dtype=float))
        return (g > 0).astype(float)

    def mollified(self, x):
        g = self.margin(np.asarray(x, dtype=float))
        return 0.5 * (1.0 + np.tanh(self.sharpness * g))

    def value(self, x):
        return self.indicator(x) if self.mode == "indicator" else self.mollified(x)

    def statistic(self, x):
        """Raw scalar the event thresholds (margin shifted back by L)."""
        return self.margin(np.asarray(x, dtype=float)) + self.threshold


def make_event(kind: str, threshold: float, component: int = 0,
               sharpness: float = 3.0, mode: str = "mollified") -> EventObservable:
    if kind == "coordinate":
        margin = lambda x: x[..., component] - threshold
    elif kind == "abs_coordinate":
        margin = lambda x: np.abs(x[..., component]) - threshold
    elif kind == "norm":
        margin = lambda x: np.sqrt((x * x).sum(axis=-1)) - threshold
    else:
        raise InvalidParameterError(f"unknown event kind {kind!r}")
    return EventObservable(margin, sharpness, mode, kind, threshold, component)


def _require_positive(params, keys):
    for key in keys:
        if params[key] <= 0:
            raise InvalidParameterError(f"parameter {key!r} must be positive")


def _merge_params(defaults, params, model_name):
    params = dict(params or {})
    unknown = set(params) - set(defaults)
    if unknown:
        raise InvalidParameterError(
            f"unrecognized parameters for {model_name}: {sorted(unknown)}"
        )
    out = dict(defaults)
    out.update(params)
    return out


def _linear_model(name, A, B, params):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    d, r = B.shape

    def drift(x):
        return np.asarray(x, dtype=float) @ A.T

    def diffusion(x):
        return B

    return SdeModel(name, d, r, drift, diffusion, linear_spec=(A, B),
                    diffusion_const=B, params=params)


def make_builtin_model(name: str, params: dict | None = None) -> SdeModel:
    """Construct one of the six benchmark systems.

    Missing parameters take the reference values; positivity of damping and
    noise parameters is enforced.
    """
    if name == "ou1d":
        p = _merge_params({"rate": 1.0, "noise": math.sqrt(2.0)}, params, name)
        _require_positive(p, ("rate", "noise"))
        return _linear_model(name, [[-p["rate"]]], [[p["noise"]]], p)

    if name == "nonnormal2d":
        p = _merge_params({"noise": 0.1, "slow_rate": 0.3}, params, name)
        _require_positive(p, ("noise", "slow_rate"))
        A = [[-1.0, 0.0], [1.0, -p["slow_rate"]]]
        B = p["noise"] * np.eye(2)
        return _linear_model(name, A, B, p)

    if name == "brownian_osc":
        p = _merge_params({"omega0": 1.0, "zeta": 0.5, "noise": 1.0}, params, name)
        _require_positive(p, ("omega0", "zeta", "noise"))
        w0, ze = p["omega0"], p["zeta"]
        A = [[0.0, 1.0], [-w0 * w0, -2.0 * ze * w0]]
        B = [[0.0], [p["noise"]]]
        return _linear_model(name, A, B, p)

    if name == "advdiff":
        p = _merge_params({"b": 1.0, "alpha": 0.1, "eps_noise": 1.0,
                           "n_modes": 64}, params, name)
        _require_positive(p, ("alpha", "eps_noise"))
        # local import: spde builds on doob, which imports this module
        from .spde import spectral_setup
        sp = spectral_setup(int(p["n_modes"]), p["alpha"], p["b"],
                            p["eps_noise"])
        A = sp.drift_matrix
        B = math.sqrt(p["eps_noise"]) * np.eye(sp.n_modes)
        m = _linear_model(name, A, B, p)
        m.spde = sp
        return m

    if name == "vdp":
        p = _merge_params({"mu": 0.3, "eps": 0.01}, params, name)
        if p["mu"] < 0:
            raise InvalidParameterError("parameter 'mu' must be nonnegative")
        _require_positive(p, ("eps",))
        mu = p["mu"]
        B = math.sqrt(2.0 * p["eps"]) * np.eye(2)

        def drift(x):
            x = np.asarray(x, dtype=float)
            x1, x2 = x[..., 0], x[..., 1]
            return np.stack([x2, mu * (1.0 - x1 * x1) * x2 - x1], axis=-1)

        return SdeModel(name, 2, 2, drift, lambda x: B,
                        diffusion_const=B, params=p)

    if name == "duffing":
        p = _merge_params({"alpha": 1.0, "beta": -1.0, "delta": 0.5,
                           "eps": 0.0025}, params, name)
        _require_positive(p, ("alpha", "delta", "eps"))
        al, be, de = p["alpha"], p["beta"], p["delta"]
        B = np.array([[0.0], [math.sqrt(2.0 * p["eps"])]])

        def drift(x):
            x = np.asarray(x, dtype=float)
            x1, x2 = x[..., 0], x[..., 1]
            return np.stack([x2, -de * x2 - x1 * (be + al * x1 * x1)], axis=-1)

        return SdeModel(name, 2, 1, drift, lambda x: B,
                        diffusion_const=B, params=p)

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


def half_diffusion_sq(model: SdeModel, x=None):
    """Q(x) = 0.5 B(x) B(x)^T as a (d, d) matrix (constant-diffusion path)."""
    B = model.diffusion_const if model.diffusion_const is not None \
        else model.diffusion(np.asarray(x, dtype=float))
    return 0.5 * B @ B.T


def generator_apply(model: SdeModel, jet, x) -> float:
    """Apply the infinitesimal generator to a function jet at a state.

    jet = (value, gradient, hessian); returns
    <drift(x), grad> + Tr[0.5 B(x) B(x)^T hess].
    """
    _, grad, hess = jet
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    d = model.dim_state
    if x.shape != (d,) or grad.shape != (d,) or hess.shape != (d, d):
        raise ShapeError("jet/state dimensions do not match the model")
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise ValueError("jet components must be finite")
    a = model.drift(x[None, :])[0]
    Q = half_diffusion_sq(model, x)
    return float(a @ grad + (Q * hess).sum())
