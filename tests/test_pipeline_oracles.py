"""Full-pipeline estimates against the exact oracles on the linear models.

Each case goes from a config through ``cli.run_pipeline``: Gaussian test
points, the exact degree-2 Koopman matrix of ``linear_exact``, the Doob
controller, the multiplier sweep and the final ensemble.  The estimate
must land within 4 standard errors of ``estimator.analytic_oracles``, and
its relative error per sample must beat plain Monte Carlo's
sqrt((1 - rho) / rho).
"""

import math

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
