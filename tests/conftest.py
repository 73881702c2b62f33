import numpy as np
import pytest

from koopmanis import (build_basis, doob, gedmd, make_builtin_model,
                       make_event, spde)
from reference import fit_spde_controller

# basis family -> (model, degree, box, x0): one fitted Doob controller for
# each family the package has
_FITS = {
    "hermite": ("nonnormal2d", 4, None, [0.5, 0.5]),
    "legendre_box": ("vdp", 10, [[-4.0, 4.0], [-4.0, 4.0]], [2.0, 0.0]),
    "linear_exact": ("brownian_osc", 2, None, [0.0, 0.0]),
}


@pytest.fixture(scope="session")
def fitted_controllers():
    """Doob controllers fitted through regression and positivization on a
    gEDMD spectrum, keyed by basis family: family -> (model, controller, x0),
    and "spde" -> the 8-mode advdiff controller on its adjoint coordinate.
    The horizon is T = 1."""
    out = {}
    for family, (name, degree, box, x0) in _FITS.items():
        model = make_builtin_model(name)
        basis = build_basis(family, model.dim_state, degree, box)
        pts = gedmd.sample_gaussian_points(model, [0.0, 0.0], [1.5, 1.5],
                                           600, seed=3)
        if family == "linear_exact":
            k_res = gedmd.exact_koopman_matrix(basis, model)
        else:
            k_res = gedmd.koopman_matrix(*gedmd.assemble_matrices(basis, model,
                                                                  pts))
        spec = gedmd.eigenpairs(k_res, basis, pts.points)
        event = make_event("norm", 2.0, sharpness=3.0, mode="mollified")
        ctrl = doob.build_controller(spec, model, pts.points,
                                     event.mollified(pts.points), T=1.0)
        out[family] = (model, ctrl, np.array(x0))
    model = make_builtin_model("advdiff", {"n_modes": 8})
    snaps = spde.generate_mode_snapshots(model, np.linspace(-2, 2, 5),
                                         1.0, 0.25, seed=3, dt=5e-3)
    _, ctrl = fit_spde_controller(
        model, snaps, make_event("norm", 2.0, sharpness=3.0, mode="mollified"),
        T=1.0)
    out["spde"] = (model, ctrl, np.zeros(8))
    return out
