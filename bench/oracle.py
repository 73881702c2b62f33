"""Write the Monte Carlo oracles of the benchmark workloads.

Run from the repository root:

    python3 bench/oracle.py

The advdiff norm event has no closed form, so ``estimator.analytic_oracles``
estimates it by sampling the terminal Gaussian law.  That costs seconds and
about a gigabyte per million samples in one call, so it is pooled here
from small independent calls and committed to
``bench/workloads/oracles.json`` instead of being recomputed in every run.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from koopmanis import cli, estimator   # noqa: E402
from koopmanis.model import make_builtin_model   # noqa: E402

from harness import REFERENCE_ORACLES, load_workload   # noqa: E402

CALLS = 40
SAMPLES_PER_CALL = 100_000


def pooled_oracle(name):
    cfg = load_workload(name, 0)
    model = make_builtin_model(cfg.model["name"], cfg.model.get("params"))
    event = cli._build_event(cfg)
    rhos = [estimator.analytic_oracles(model, event, float(cfg.run["T"]),
                                       cfg.run.get("x0"),
                                       norm_mc_samples=SAMPLES_PER_CALL,
                                       seed=s).rho
            for s in range(CALLS)]
    n = CALLS * SAMPLES_PER_CALL
    rho = math.fsum(rhos) / CALLS
    return {"rho": rho, "standard_error": math.sqrt(rho * (1 - rho) / n),
            "samples": n, "method": "diagonal_gaussian_mc"}


def main():
    out = {"advdiff_spde_is": pooled_oracle("advdiff_spde_is")}
    REFERENCE_ORACLES.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
