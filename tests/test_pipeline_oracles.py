"""Full-pipeline estimates against the exact oracles on the linear models.

Each case goes from a config through ``cli.run_pipeline``: Gaussian test
points, the exact degree-2 Koopman matrix of ``linear_exact``, the Doob
controller, the multiplier sweep and the final ensemble.  The estimate
must land within 4 standard errors of ``estimator.analytic_oracles``, and
its relative error per sample must beat plain Monte Carlo's
sqrt((1 - rho) / rho).
"""

import json
import math
from pathlib import Path

import pytest

from koopmanis import cli, estimator

# model -> (event kind, threshold, T, test-point std per coordinate)
_CASES = {
    "ou1d": ("coordinate", 2.0, 1.0, [1.5]),
    "brownian_osc": ("abs_coordinate", 3.0, 10.0, [1.5, 1.5]),
    "nonnormal2d": ("norm", 0.75, 10.0, [0.3, 0.3]),
}


@pytest.mark.parametrize("seed", [5, 6, 7])
@pytest.mark.parametrize("name", sorted(_CASES))
def test_pipeline_estimate_matches_oracle(name, seed):
    kind, L, T, std = _CASES[name]
    origin = [0.0] * len(std)
    cfg = cli.ExperimentConfig.from_dict({
        "model": {"name": name},
        "event": {"kind": kind, "threshold": L},
        "points": {"kind": "gaussian", "mean": origin, "std": std,
                   "count": 500, "seed": 3},
        "basis": {"family": "linear_exact", "degree": 2},
        "gedmd": {}, "doob": {},
        "run": {"M": 1000, "T": T, "dt": 0.01, "x0": origin,
                "master_seed": seed},
        "output": {},
    })
    state = cli.run_pipeline(cfg)
    rep = state.report
    rho = estimator.analytic_oracles(state.model, state.event, T, origin).rho
    assert rep.method == "is" and rep.blowup_count == 0
    assert abs(rep.estimate - rho) < 4.0 * rep.standard_error
    assert rep.relative_error_per_sample < math.sqrt((1.0 - rho) / rho)


_ADVDIFF = Path(__file__).resolve().parents[1] / "bench" / "workloads" \
    / "advdiff_spde_is.json"


@pytest.mark.xfail(strict=True, reason="the controller on the one adjoint "
                   "coordinate misses the paths that reach the event along "
                   "the other modes, so estimate and standard error both "
                   "miss their mass")
def test_advdiff_workload_estimates_match_oracle():
    """The committed advdiff workload config at master seeds 1-6, against
    the exact 1.93153e-5 of ``analytic_oracles``: every estimate within 4
    standard errors.  On the exact hold map z reads -4.3, -14.1, -3.6,
    -1.5, -15.4 and -1.5."""
    raw = json.loads(_ADVDIFF.read_text())
    z = []
    for seed in range(1, 7):
        raw["run"]["master_seed"] = seed
        state = cli.run_pipeline(cli.ExperimentConfig.from_dict(raw))
        rho = estimator.analytic_oracles(state.model, state.event,
                                         raw["run"]["T"]).rho
        rep = state.report
        z.append((rep.estimate - rho) / rep.standard_error)
    assert max(map(abs, z)) < 4.0, z
