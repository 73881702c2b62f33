"""Run the benchmark over several seeds and write a baseline record.

Run from the repository root:

    python3 bench/record.py --first-seed 101 --out bench/records/baseline.json

Ten seeds from ``--first-seed`` on are run on every workload.  Each run is a fresh ``bench/run.py`` process.  Workloads are interleaved
seed by seed, so drift in machine load spreads over all of them.  For each
workload the record keeps every run's end-to-end metrics with their median,
quartiles and spread (quartile distance over median), and the per-layer
metrics of one traced run.  The summary flags every end-to-end metric
whose spread is above a third of its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

sys.path.insert(0, str(Path.cwd() / "src"))
from harness import WORKLOADS   # noqa: E402

RUNS_DIR = Path("bench/.runs")
SEEDS = 10


def spread(values):
    """Quartile distance over the median, as the acceptance rule takes it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2) if q2 else None}


def one_run(workload, seed, seconds, trace):
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    path = RUNS_DIR / f"{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--report", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    out = json.loads(path.read_text())
    print(f"{workload} seed {seed} trace {trace}: correct {out['correct']} "
          f"total_s {out['end_to_end']['total_s']:.4f}", flush=True)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = WORKLOADS
    seeds = range(args.first_seed, args.first_seed + SEEDS)
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(one_run(w, seed, seconds, 0))
    traced = {w: one_run(w, args.first_seed, seconds, 1) for w in workloads}

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "run_seconds": seconds, "seeds": list(seeds), "workloads": {},
    }
    steady = True
    for w in workloads:
        e2e = {}
        for key in runs[w][0]["end_to_end"]:
            values = [r["end_to_end"][key] for r in runs[w]]
            e2e[key] = {"values": values}
            if all(v is not None for v in values):
                e2e[key].update(spread(values))
        record["workloads"][w] = {
            "correct": all(r["correct"] for r in runs[w] + [traced[w]]),
            "end_to_end": e2e,
            "per_layer": traced[w]["per_layer"],
            "trace_breakdown": traced[w]["breakdown"],
        }
        print(f"\n{w}: correct {record['workloads'][w]['correct']}")
        for key, stats in e2e.items():
            if "median" not in stats:
                continue
            flag = ""
            if key in bounds and (stats["spread"] or 0) > bounds[key] / 3:
                flag = f"  above a third of bound {bounds[key]}"
                steady = False
            print(f"  {key:<22} median {stats['median']:<12.6g} "
                  f"spread {stats['spread'] or 0:.4f}{flag}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("\nsteady" if steady else "\nNOT steady")


if __name__ == "__main__":
    main()
