"""Pipeline benchmark: time-to-accuracy and sampling throughput.

Run from the repository root:

    python3 bench/run.py --workload vdp_eigen_is --seed 0 --seconds 30 --trace 0

The workload is a committed ``cli`` config under ``bench/workloads/``;
``--seed`` offsets its seeds.  The command repeats ``cli.run_pipeline``
for about ``--seconds`` seconds, checks the outputs, prints every metric
with its unit and ends with one JSON line: the metrics BENCHMARK.json
declares as end-to-end (``--trace 0``) or per-layer (``--trace 1``).
``--report PATH`` also writes the full report of the run as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

# one process, one thread: the pipeline runs with workers=1, and a threaded
# BLAS would add load the benchmark does not account for
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _fmt(value):
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(out, units):
    if not out["complete"]:
        print(f"workload {out['workload']}  seed {out['seed']}  trace "
              f"{out['trace']}  no pipeline run completed")
    else:
        print_metrics(out, units)
    for msg in out["failures"]:
        print(f"  CHECK FAILED: {msg}")
    print(f"  checks {'ok' if out['correct'] else 'FAILED'}")


def print_metrics(out, units):
    print(f"workload {out['workload']}  seed {out['seed']}  trace "
          f"{out['trace']}  pipeline runs {out['reps']} untraced, "
          f"{out['traced_reps']} traced  measured {out['measured_s']:.1f} s")
    print(f"  chosen c {_fmt(out['multiplier'])}  estimate "
          f"{_fmt(out['estimate'])} +- {_fmt(out['standard_error'])}  oracle "
          f"{_fmt(out['oracle'][0]) if out['oracle'] else 'n/a'}")
    print(f"  cold first setup {out['setup_cold_s']:.4f} s, not in setup_s; "
          f"warm setup median {out['setup_raw_s']:.4f} s over "
          f"{len(out['setups'])} blocks, reference kernel median "
          f"{statistics.median(out['ref_s']):.4f} s; pipeline run times "
          f"{' '.join(f'{t:.3f}' for t in out['rep_total_s'])} s")
    for key, value in out["end_to_end"].items():
        print(f"  {key:<32} {_fmt(value):>14} {units[key]}")
    if out["trace"]:
        for key, value in out["per_layer"].items():
            print(f"  {key:<32} {_fmt(value):>14} {units[key]}")
        ens = out["breakdown"]["ensemble_s"]
        print(f"  one traced ensemble {ens:.4f} s (median "
              f"{out['traced_ensemble_s']:.4f} s), self time by component:")
        for label, secs in out["breakdown"]["self_s"]:
            print(f"    {label:<28} {secs:10.4f} s {100 * secs / ens:6.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--report", default=None)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "koopmanis" / "__init__.py").is_file():
        print("error: run from the root of a koopmanis checkout "
              "(src/koopmanis not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import harness   # needs koopmanis importable

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out = harness.run(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    units = {**harness.END_TO_END_UNITS, **harness.PER_LAYER_UNITS}
    print_report(out, units)
    if args.report:
        Path(args.report).write_text(json.dumps(out, indent=1) + "\n")
    # a run that completed no pipeline run has no values
    values = out.get("per_layer" if args.trace else "end_to_end", {})
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
