"""Measurement loop, metrics and output checks of the pipeline benchmark.

One benchmark run repeats ``cli.run_pipeline`` on one workload config for a
fixed wall-clock budget, in this process, with ``workers=1``.  End-to-end
timings are medians over the repetitions, in seconds; the gated ones are
mean stage times over the mean time of a fixed reference kernel run in
between.  Set-up is timed in blocks spread over the whole run, each next to
a reference-kernel run, and reported as seconds at the kernel's nominal
speed.  Stage times come from three wrappers at the stage boundaries
(``cli.prepare_controller``, ``doob.tune_multiplier``,
``estimator.run_ensemble``); every other wrapper is installed only for the
traced repetitions of a ``--trace 1`` run.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from koopmanis import cli, estimator
from koopmanis.errors import KoopmanisError

from layertrace import Patches, Tracer, installed_wrappers

WORKLOAD_DIR = Path(__file__).resolve().parent / "workloads"
# Monte Carlo oracles too costly to recompute per run; written by oracle.py
REFERENCE_ORACLES = WORKLOAD_DIR / "oracles.json"
WORKLOADS = ("vdp_eigen_is", "brownian_osc_exact_is", "advdiff_spde_is")
# |estimate - rho| / SE above which a run is incorrect.  advdiff is reported
# but not gated: its IS estimate is biased low (see README.md).
ORACLE_Z_GATE = {"brownian_osc_exact_is": 4.0}
TARGET_REL_ERR = 0.1
# one set-up sample repeats cli.prepare_controller for at least this long,
# so that a set-up of a few milliseconds is not lost in timer noise
SETUP_BLOCK_S = 0.05
# the reference kernel's time on the machine the benchmark was built on, in
# its fast phase: setup_s is set-up time scaled to that speed (README.md)
REF_SECONDS = 0.15
MIN_REPS = 3       # pipeline repetitions in an untraced run, at least
REF_STEPS = 30     # size of the reference kernel, about 0.2 s
REF_EVERY_S = 2.0  # one reference-kernel run per this much pipeline time

END_TO_END_UNITS = {
    "total_s": "s", "setup_s": "s", "tune_s": "s",
    "path_steps_per_s": "1/s", "time_to_10pct_s": "s",
    "speedup_vs_mc": "x", "rel_err_per_sample": "1",
    "oracle_abs_z": "1", "ess_frac": "1", "failed_frac": "1",
    "peak_rss_mb": "MB",
    "total_xref": "ref", "tune_xref": "ref", "ensemble_xref": "ref",
}
PER_LAYER_UNITS = {
    "basis.values_and_grads_s": "s", "basis.jet_share": "1",
    "doob.bias_s": "s", "doob.bias_calls": "count", "doob.floor_frac": "1",
    "paths.noise_s": "s", "paths.noise_calls": "count",
    "paths.engine_self_s": "s", "spde.engine_self_s": "s",
    "spde.bias_s": "s", "model.drift_s": "s", "model.drift_calls": "count",
    "gedmd.points_s": "s", "gedmd.points_n": "count",
    "gedmd.points_dropped": "count", "gedmd.assemble_s": "s",
    "gedmd.eigensolve_s": "s", "gedmd.rank": "count",
    "gedmd.pairs_dropped": "count", "gedmd.validate_s": "s",
    "gedmd.pairs_kept": "count", "doob.fit_s": "s",
    "doob.tune_path_steps_per_s": "1/s", "paths.hit_frac": "1",
    "estimator.reduce_s": "s", "estimator.mc_path_steps_per_s": "1/s",
    "estimator.rel_err_per_sample": "1", "estimator.ess_frac": "1",
    "trace.overhead": "1",
}
# per-layer metrics that must repeat exactly between traced repetitions
COUNT_METRICS = ("doob.bias_calls", "paths.noise_calls", "model.drift_calls",
                 "gedmd.points_n", "gedmd.points_dropped", "gedmd.rank",
                 "gedmd.pairs_dropped", "gedmd.pairs_kept")


def time_to_accuracy(setup_s, tune_s, rel_err_per_sample, ensemble_s, M,
                     target=TARGET_REL_ERR):
    """Seconds to reach relative standard error ``target``: set-up and sweep
    once, then (rel/target)^2 paths at the measured seconds per path."""
    return setup_s + tune_s + (rel_err_per_sample / target) ** 2 * ensemble_s / M


def speedup_vs_mc(rho, mc_s_per_path, rel_err_per_sample, is_s_per_path):
    """Work-normalised cost of plain MC over that of IS, where cost is
    relative variance per sample times seconds per path and plain MC's
    relative variance per sample is (1 - rho) / rho."""
    mc_cost = (1.0 - rho) / rho * mc_s_per_path
    return mc_cost / (rel_err_per_sample ** 2 * is_s_per_path)


def ess_fraction(log_weight):
    """(sum w)^2 / sum w^2 over the number of weights, overflow-free."""
    w = np.exp(log_weight - np.max(log_weight))
    return float(w.sum() ** 2 / (w * w).sum() / len(w))


def reference_kernel():
    """Fixed NumPy work independent of koopmanis, in the mix the pipeline's
    hot loops run: per step, draws from many small Philox streams, a
    (2000, 64) by (64, 64) product, gathers of 1-D table rows into (66, 2000)
    products with a transposing copy, and small-array arithmetic.

    It is timed between pipeline runs.  The host's speed drifts by 20-40%
    for tens of seconds at a time, so the gated timings are pipeline time
    over this kernel's time in the same run (README.md)."""
    gens = [np.random.Generator(np.random.Philox(key=k)) for k in range(100)]
    C = gens[0].standard_normal((64, 64)) / 64.0
    table = gens[0].standard_normal((11, 2000))
    idx = np.arange(66) % 11
    a = table[idx, 0]
    Y = np.zeros((2000, 64))
    x = np.zeros((2000, 2))
    acc = 0.0
    for _ in range(REF_STEPS):
        xi = np.stack([g.standard_normal((20, 64)) for g in gens])
        Y = 0.9 * Y + Y @ C + 0.1 * xi.reshape(2000, 64)
        x = x + 0.01 * (-x) + 0.1 * Y[:, :2]
        rows = np.empty((2, 66, 2000))
        for j in range(2):
            rows[j] = table[idx] * table[idx[::-1]] * x[:, j]
        g = np.ascontiguousarray(rows.transpose(2, 1, 0))
        acc += float(np.einsum("mnd,n->md", g, a).sum())
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def time_setup(cfg) -> float:
    """Seconds per ``cli.prepare_controller`` call, over a block of calls
    that lasts at least SETUP_BLOCK_S."""
    n, t0 = 0, time.perf_counter()
    while True:
        cli.prepare_controller(cfg)
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= SETUP_BLOCK_S:
            return elapsed / n


def scaled_setup_s(setups, refs) -> float:
    """Median set-up time over the reference-kernel time next to it, in
    seconds of a machine on which the kernel takes REF_SECONDS."""
    return REF_SECONDS * statistics.median(s / r for s, r in zip(setups, refs))


def load_workload(name: str, seed: int) -> cli.ExperimentConfig:
    """Committed config with its seeds offset by ``seed`` (0 keeps them)."""
    raw = json.loads((WORKLOAD_DIR / f"{name}.json").read_text())
    raw["run"]["master_seed"] += seed
    raw["points"]["seed"] += 2 * seed   # the holdout set uses points seed + 1
    return cli.ExperimentConfig.from_dict(raw)


@dataclass
class Rep:
    total_s: float
    tune_s: float
    ensemble_s: float
    state: cli.PipelineState
    tracer: Tracer


def pipeline_rep(cfg, layers: bool) -> Rep:
    """One ``cli.run_pipeline`` call under stage or full-layer wrappers."""
    tracer = Tracer()
    with Patches(tracer, layers=layers):
        t0 = time.perf_counter()
        state = cli.run_pipeline(cfg)
        total = time.perf_counter() - t0
    return Rep(total, tracer.total("tune", "doob.tune_multiplier"),
               tracer.total("ensemble", "estimator.run_ensemble"),
               state, tracer)


def layer_metrics(rep: Rep, cfg) -> dict:
    """Per-layer metrics of one traced repetition."""
    tr, st = rep.tracer, rep.state
    ens = rep.ensemble_s
    report = st.report
    K = report.ensemble.K
    pts = st.points
    prov = getattr(pts, "provenance", {})
    rank = tr.last.get("gedmd.koopman_matrix")
    n_basis = st.spectrum.basis.size if st.spectrum is not None else 0
    kept = st.spectrum.n_pairs if st.spectrum is not None else 0
    vag = tr.total("ensemble", "basis.values_and_grads")
    return {
        "basis.values_and_grads_s": vag,
        "basis.jet_share": vag / ens,
        "doob.bias_s": tr.total("ensemble", "doob.bias_batch"),
        "doob.bias_calls": tr.calls("ensemble", "doob.bias_batch"),
        "doob.floor_frac": report.floor_count / (int(cfg.run["M"]) * K),
        "paths.noise_s": tr.total("ensemble", "paths.noise"),
        "paths.noise_calls": tr.calls("ensemble", "paths.noise"),
        "paths.engine_self_s": tr.self_time("ensemble", "paths.run_paths"),
        "spde.engine_self_s": tr.self_time("ensemble", "spde.run_spde_paths"),
        "spde.bias_s": tr.total("ensemble", "spde.bias_batch"),
        "model.drift_s": tr.total("ensemble", "model.drift"),
        "model.drift_calls": tr.calls("ensemble", "model.drift"),
        "gedmd.points_s": tr.total("setup", "gedmd.points"),
        "gedmd.points_n": pts.m if hasattr(pts, "m") else 0,
        "gedmd.points_dropped": prov.get("dropped_train", 0)
        + prov.get("dropped_holdout", 0),
        "gedmd.assemble_s": tr.total("setup", "gedmd.assemble",
                                     parent="cli.prepare_controller")
        + tr.total("setup", "gedmd.koopman_matrix"),
        "gedmd.eigensolve_s": tr.total("setup", "gedmd.eigenpairs"),
        "gedmd.rank": rank.rank if rank is not None else 0,
        "gedmd.pairs_dropped": n_basis - kept,
        "gedmd.validate_s": tr.total("setup", "gedmd.validate"),
        "gedmd.pairs_kept": kept,
        "doob.fit_s": tr.total("setup", "doob.fit"),
        "estimator.reduce_s": tr.self_time("ensemble",
                                           "estimator.run_ensemble"),
    }


def ensemble_breakdown(rep: Rep) -> list:
    """(component, self seconds) pairs that partition one traced ensemble;
    "other" is what no listed span accounts for and should be ~0."""
    tr = rep.tracer
    parts = [("estimator reduce", "estimator.run_ensemble"),
             ("paths engine", "paths.run_paths"),
             ("spde engine", "spde.run_spde_paths"),
             ("noise draw", "paths.noise"), ("model drift", "model.drift"),
             ("doob bias", "doob.bias_batch"),
             ("basis values_and_grads", "basis.values_and_grads"),
             ("spde bias", "spde.bias_batch")]
    rows = [(label, tr.self_time("ensemble", name)) for label, name in parts]
    rows.append(("other", tr.phase_self_sum("ensemble")
                 - sum(s for _, s in rows)))
    return rows


def _oracle(name, cfg, state):
    """(rho, standard error) for linear models, else None."""
    if state.model.linear_spec is None:
        return None
    known = json.loads(REFERENCE_ORACLES.read_text())
    if name in known:
        return known[name]["rho"], known[name]["standard_error"]
    res = estimator.analytic_oracles(state.model, state.event,
                                     float(cfg.run["T"]), cfg.run.get("x0"))
    return res.rho, res.standard_error


def _bits(report):
    return (report.estimate.hex(), report.sample_variance.hex())


@dataclass
class Samples:
    setup_cold: float  # the first set-up of the process, seconds
    setups: list     # warm set-up seconds, each next to the ref in refs
    refs: list       # reference-kernel seconds
    plain: list      # untraced Reps
    traced: list     # traced Reps
    errors: int      # pipeline runs that raised KoopmanisError
    failures: list   # failed checks, as messages
    mc_s: float = 0.0  # one plain Monte Carlo ensemble, seconds


def time_plain_mc(cfg, state) -> float:
    """Seconds of one plain Monte Carlo ensemble on the workload's grid."""
    t0 = time.perf_counter()
    estimator.run_ensemble(state.model, None, state.event, cfg.run.get("x0"),
                           float(cfg.run["T"]), float(cfg.run["dt"]),
                           M=int(cfg.run["M"]),
                           master_seed=cfg.run["master_seed"], workers=1)
    return time.perf_counter() - t0


def measure(cfg, seconds: float, trace: bool) -> Samples:
    """A cold set-up, then pipeline runs until the next would end after
    ``seconds``; with ``trace`` each untraced run is followed by a traced
    one.  The reference kernel runs before the first pipeline run and then
    about once per REF_EVERY_S of untraced pipeline time, each time followed
    by a block of warm set-ups.  One plain Monte Carlo ensemble runs after
    the first round.  A ``KoopmanisError`` ends the measuring."""
    start = time.perf_counter()
    s = Samples(math.nan, [], [], [], [], 0, [])

    def ref_and_setup():
        s.refs.append(time_reference())
        s.setups.append(time_setup(cfg))

    try:
        t0 = time.perf_counter()
        cli.prepare_controller(cfg)
        s.setup_cold = time.perf_counter() - t0
        time_reference()
        ref_and_setup()
        while True:
            leftover = installed_wrappers()
            if leftover:
                s.failures.append(
                    f"wrappers left before an untraced run: {leftover}")
            s.plain.append(pipeline_rep(cfg, layers=False))
            for _ in range(max(1, round(s.plain[-1].total_s / REF_EVERY_S))):
                ref_and_setup()
            if trace:
                s.traced.append(pipeline_rep(cfg, layers=True))
            if len(s.plain) == 1:
                s.mc_s = time_plain_mc(cfg, s.plain[0].state)
            elapsed = time.perf_counter() - start
            per_round = (elapsed - s.mc_s) / len(s.plain)
            enough = len(s.plain) >= (1 if trace else MIN_REPS)
            if enough and elapsed + per_round > seconds:
                break
    except KoopmanisError as exc:
        s.errors += 1
        s.failures.append(f"pipeline raised {type(exc).__name__}: {exc}")
    return s


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full report of the run."""
    cfg = load_workload(name, seed)
    M = int(cfg.run["M"])
    start = time.perf_counter()
    s = measure(cfg, seconds, trace)
    measured_s = time.perf_counter() - start
    if not s.plain:
        return {"workload": name, "seed": seed, "trace": int(trace),
                "complete": False, "attempted": M * s.errors,
                "failed": M * s.errors, "failures": s.failures,
                "correct": False}
    plain, traced, failures = s.plain, s.traced, s.failures

    first = plain[0].state
    report = first.report
    K = report.ensemble.K
    mc_s = s.mc_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # --- output checks ------------------------------------------------------
    reps = plain + traced
    for rep in reps:
        est = rep.state.report.estimate
        if not (math.isfinite(est) and est > 0):
            failures.append(f"estimate {est!r} is not finite and positive")
    if any(_bits(r.state.report) != _bits(report) for r in plain):
        failures.append("untraced repetitions differ bit-wise")
    if any(_bits(r.state.report) != _bits(report) for r in traced):
        failures.append("traced estimate or variance differs from untraced")
    attempted = M * (len(reps) + s.errors)
    failed = sum(r.state.report.blowup_count for r in reps) + M * s.errors
    if failed:
        failures.append(f"{failed} of {attempted} paths failed")

    med = statistics.median
    setup_s = scaled_setup_s(s.setups, s.refs)
    setup_raw_s = med(s.setups)
    tune_s = med(r.tune_s for r in plain)
    ensemble_s = med(r.ensemble_s for r in plain)
    # means, not medians: the reference runs are spread over the run in
    # proportion to pipeline time, so both means cover the same host phases
    mean = statistics.fmean
    ref_s = mean(s.refs)

    rel = report.relative_error_per_sample
    oracle = _oracle(name, cfg, first)   # outside every timed region
    rho = oracle[0] if oracle else report.estimate
    total_s = med(r.total_s for r in plain)
    e2e = {
        "total_s": total_s,
        "setup_s": setup_s,
        "tune_s": tune_s,
        "path_steps_per_s": M * K / ensemble_s,
        "time_to_10pct_s": time_to_accuracy(setup_raw_s, tune_s, rel,
                                            ensemble_s, M),
        "speedup_vs_mc": speedup_vs_mc(rho, mc_s / M, rel, ensemble_s / M),
        "rel_err_per_sample": rel,
        "oracle_abs_z": None,
        "ess_frac": ess_fraction(report.ensemble.log_weight[~report.ensemble.blown]),
        "failed_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "total_xref": mean(r.total_s for r in plain) / ref_s,
        "tune_xref": mean(r.tune_s for r in plain) / ref_s,
        "ensemble_xref": mean(r.ensemble_s for r in plain) / ref_s,
    }
    if oracle:
        se = math.sqrt(report.standard_error ** 2 + oracle[1] ** 2)
        e2e["oracle_abs_z"] = abs(report.estimate - oracle[0]) / se
        gate = ORACLE_Z_GATE.get(name)
        if gate is not None and e2e["oracle_abs_z"] > gate:
            failures.append(f"oracle |z| {e2e['oracle_abs_z']:.3g} > {gate}")

    out = {
        "workload": name, "seed": seed, "trace": int(trace),
        "complete": True, "seconds": seconds, "measured_s": measured_s,
        "reps": len(plain), "traced_reps": len(traced),
        "setup_cold_s": s.setup_cold, "setup_raw_s": setup_raw_s,
        "setups": s.setups,
        "ensemble_s": ensemble_s, "mc_s": mc_s,
        "rep_total_s": [r.total_s for r in plain],
        "rep_tune_s": [r.tune_s for r in plain],
        "rep_ensemble_s": [r.ensemble_s for r in plain], "ref_s": s.refs,
        "estimate": report.estimate,
        "standard_error": report.standard_error,
        "multiplier": first.tune.multiplier,
        "oracle": oracle, "end_to_end": e2e,
        "attempted": attempted, "failed": failed,
    }
    if trace:
        per_rep = [layer_metrics(r, cfg) for r in traced]
        for key in COUNT_METRICS:
            if len({m[key] for m in per_rep}) > 1:
                failures.append(f"count {key} differs between traced runs")
        layers = {k: per_rep[0][k] if k in COUNT_METRICS
                  else med(m[k] for m in per_rep) for k in per_rep[0]}
        traced_ens = med(r.ensemble_s for r in traced)
        grid = cfg.doob["multiplier_grid"]
        layers.update({
            "doob.tune_path_steps_per_s":
                len(grid) * cfg.doob["tuning_batch"] * K / tune_s,
            "paths.hit_frac": report.proportion_in_event,
            "estimator.mc_path_steps_per_s": M * K / mc_s,
            "estimator.rel_err_per_sample": rel,
            "estimator.ess_frac": e2e["ess_frac"],
            # each traced run against the untraced run just before it
            "trace.overhead": med(t.ensemble_s / p.ensemble_s
                                  for p, t in zip(plain, traced)) - 1.0,
        })
        out["per_layer"] = layers
        out["traced_ensemble_s"] = traced_ens
        shown = traced[len(traced) // 2]
        out["breakdown"] = {"ensemble_s": shown.ensemble_s,
                            "self_s": ensemble_breakdown(shown)}
    out["failures"] = failures
    out["correct"] = not failures
    return out
