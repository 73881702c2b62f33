"""Config-driven experiment runner and command-line interface.

Verbs:
  run <config>           full pipeline: points -> spectrum -> controller ->
                         multiplier sweep -> ensemble; writes results row,
                         eigenfunction report, controller file, sweep table
                         and histogram into the output directory.
  sweep-c <config>       multiplier sweep only.
  oracle <model>         exact event probability for linear models.
  export-eigen <config>  eigenfunction report only.

All seeds come from the config; nothing is time-seeded.  Identical
(config, seed) runs produce byte-identical outputs.  A config block or key
the runner does not know is a ``ConfigError``, not ignored.

The ``run`` block: M, T, master_seed (required), x0, method, dt, scheme
and workers, the one parallelism knob: the path engine splits each
ensemble into ``workers`` blocks on as many threads (``paths`` has the
layout rule), with byte-identical SDE outputs.  Threads pay off only where
numpy releases the interpreter lock long enough.  Final ensembles at c = 8
on 2 cores, one BLAS thread, 1 -> 2 workers: advdiff 5.01 -> 2.84 s, vdp
1.99 -> 2.79 s, brownian_osc 0.55 -> 1.31 s.  The default is 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import doob, estimator, gedmd, spde
from .basis import build_basis
from .errors import ConfigError, KoopmanisError
from .model import default_event, make_builtin_model, make_event

ENV_OUTPUT_DIR = "KOOPMANIS_OUTPUT_DIR"
TUNE_SEED_OFFSET = 1_000_003

_DEFAULT_T = {"ou1d": 1.0}

_BLOCK_DEFAULTS = {
    "event": {"sharpness": 3.0, "component": 0, "mode": "indicator"},
    "points": {"kind": "grid"},
    "gedmd": {"validation_threshold": 0.04, "max_eigenfunctions": None},
    "doob": {"multiplier_grid": [1, 2, 4, 6, 8, 16], "tuning_batch": 100,
             "target_fraction": 0.5, "offset": None},
    "run": {"method": "is", "dt": 1e-3, "scheme": None, "workers": 1},
    "output": {"histogram_bins": 50, "histogram_range": None,
               "trajectory_stride": None, "trajectory_count": 0},
}
# the keys each block accepts besides its defaults above; any other key,
# or any other block, is a ConfigError
_BLOCK_KEYS = {
    "model": ("name", "params"),
    "event": ("kind", "threshold"),
    "points": ("box", "counts", "T_traj", "stride", "dt", "seed", "mean",
               "std", "count"),
    "basis": ("family", "degree", "box"),
    "gedmd": (),
    "doob": (),
    "run": ("M", "T", "master_seed", "x0"),
    "output": ("directory",),
}


def _controller_blocks(model_name) -> list:
    """The config blocks the controller stages read: the SPDE model
    (advdiff) samples its own snapshots and needs no basis or gEDMD."""
    if model_name == "advdiff":
        return ["points"]
    return ["points", "basis", "gedmd"]


@dataclass
class ExperimentConfig:
    model: dict
    event: dict
    run: dict
    output: dict
    points: dict | None = None
    basis: dict | None = None
    gedmd: dict | None = None
    doob: dict | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        unknown = []
        for blk, val in data.items():
            if blk not in _BLOCK_KEYS:
                unknown.append(blk)
            elif val is not None:
                known = {*_BLOCK_KEYS[blk], *_BLOCK_DEFAULTS.get(blk, {})}
                unknown += [f"{blk}.{key}" for key in val if key not in known]
        if unknown:
            raise ConfigError(f"unknown config blocks or keys: {unknown}")
        required = ["model", "event", "run", "output"]
        method = data.get("run", {}).get("method",
                                         _BLOCK_DEFAULTS["run"]["method"])
        if method == "is":
            required += _controller_blocks(data.get("model", {}).get("name"))
            required.append("doob")
        missing = [blk for blk in required if blk not in data]
        if missing:
            raise ConfigError(f"missing config blocks: {missing}")
        cfg = {}
        for blk in _BLOCK_KEYS:
            val = data.get(blk)
            if val is None:
                cfg[blk] = None
                continue
            merged = dict(_BLOCK_DEFAULTS.get(blk, {}))
            merged.update(val)
            cfg[blk] = merged
        for key in ("M", "T", "master_seed"):
            if key not in (cfg["run"] or {}):
                raise ConfigError(f"run block must define {key!r}")
        return cls(**cfg)

    def to_dict(self) -> dict:
        out = {}
        for blk in ("model", "event", "points", "basis", "gedmd", "doob",
                    "run", "output"):
            val = getattr(self, blk)
            if val is not None:
                out[blk] = val
        return out


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def _build_event(cfg: ExperimentConfig):
    ev = cfg.event
    return make_event(ev["kind"], ev["threshold"], ev["component"],
                      ev["sharpness"], ev["mode"])


def _tuning_seed(cfg: ExperimentConfig) -> int:
    return cfg.run["master_seed"] + TUNE_SEED_OFFSET


@dataclass(eq=False)
class PipelineState:
    model: object
    event: object
    controller: object = None
    spectrum: object = None
    points: object = None
    tune: object = None
    report: object = None


def prepare_controller(cfg: ExperimentConfig) -> PipelineState:
    """Stages 1-5: points, spectrum, regression, positivization."""
    # an is config has these blocks; an mc config reaches here only
    # through sweep-c or export-eigen
    missing = [blk for blk in _controller_blocks(cfg.model["name"])
               if getattr(cfg, blk) is None]
    if missing:
        raise ConfigError(f"the controller stages need the config blocks "
                          f"{missing}")
    model = make_builtin_model(cfg.model["name"], cfg.model.get("params"))
    event = _build_event(cfg)
    state = PipelineState(model, event)
    T = float(cfg.run["T"])

    if model.spde is not None:
        pts = cfg.points
        amps = np.linspace(pts["box"][0][0], pts["box"][0][1],
                           int(pts["counts"][0]))
        snaps = spde.generate_mode_snapshots(
            model.spde, amps, pts["T_traj"], pts["stride"], pts["seed"],
            dt=pts.get("dt", cfg.run["dt"]))
        state.points = snaps
        state.controller = spde.build_spde_controller(model.spde, snaps,
                                                      event, T)
        return state

    b = cfg.basis
    basis = build_basis(b["family"], model.dim_state, b["degree"],
                        b.get("box"))
    pts_cfg = cfg.points
    if pts_cfg["kind"] == "gaussian":
        pts = gedmd.sample_gaussian_points(model, pts_cfg["mean"],
                                           pts_cfg["std"], pts_cfg["count"],
                                           pts_cfg["seed"])
    else:
        pts = gedmd.generate_test_points(
            model, {"box": pts_cfg["box"], "counts": pts_cfg["counts"]},
            pts_cfg["T_traj"], pts_cfg["stride"], pts_cfg["seed"],
            dt=pts_cfg.get("dt", cfg.run["dt"]), basis=basis)
    state.points = pts

    if basis.family == "linear_exact":
        k_res = gedmd.exact_koopman_matrix(basis, model)
    else:
        Psi, dPsi = gedmd.assemble_matrices(basis, model, pts)
        k_res = gedmd.koopman_matrix(Psi, dPsi)
    spec = gedmd.eigenpairs(k_res, basis, pts.points)
    spec = gedmd.validate_eigenpairs(spec, model, pts.holdout,
                                     cfg.gedmd["validation_threshold"])
    spec = gedmd.truncate_spectrum(spec, cfg.gedmd["max_eigenfunctions"])
    state.spectrum = spec
    f_vals = event.mollified(pts.points)
    # an mc config may omit the doob block and still export its spectrum
    doob_cfg = cfg.doob or _BLOCK_DEFAULTS["doob"]
    state.controller = doob.build_controller(
        spec, model, pts.points, f_vals, T, offset=doob_cfg["offset"])
    return state


def _tune(cfg: ExperimentConfig, state: PipelineState):
    """Multiplier sweep for the state's controller."""
    run = cfg.run
    return doob.tune_multiplier(
        state.controller, state.model, state.event, run.get("x0"),
        float(run["T"]), float(run["dt"]), cfg.doob["multiplier_grid"],
        cfg.doob["tuning_batch"], cfg.doob["target_fraction"],
        seed=_tuning_seed(cfg), scheme=run["scheme"],
        workers=run["workers"])


def _ensemble(cfg: ExperimentConfig, state: PipelineState):
    """The configured final ensemble under the state's controller."""
    run = cfg.run
    return estimator.run_ensemble(
        state.model, state.controller, state.event, run.get("x0"),
        float(run["T"]), float(run["dt"]), scheme=run["scheme"],
        M=int(run["M"]), master_seed=run["master_seed"],
        workers=run["workers"],
        trajectory_count=cfg.output["trajectory_count"],
        trajectory_stride=cfg.output["trajectory_stride"])


def run_pipeline(cfg: ExperimentConfig) -> PipelineState:
    """Full pipeline; for method mc the controller stages are skipped."""
    if cfg.run["method"] == "mc":
        model = make_builtin_model(cfg.model["name"], cfg.model.get("params"))
        state = PipelineState(model, _build_event(cfg))
    else:
        state = prepare_controller(cfg)
        state.tune = _tune(cfg, state)
        state.controller = state.controller.with_multiplier(
            state.tune.multiplier)
    state.report = _ensemble(cfg, state)
    return state


def emit_histogram(samples, bins: int, value_range) -> list:
    """Fixed-width histogram rows (lo, hi, count) with under/overflow rows."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ConfigError("cannot histogram an empty sample set")
    if bins < 1:
        raise ConfigError("need at least one bin")
    lo, hi = float(value_range[0]), float(value_range[1])
    counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    under = int((samples < lo).sum())
    over = int((samples > hi).sum())
    # np.histogram puts values == hi into the last bin; values < lo / > hi
    # fall outside and land in the flow rows
    rows = [(-np.inf, lo, under)]
    rows += [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
             for i in range(bins)]
    rows.append((hi, np.inf, over))
    return rows


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_sweep(outdir, tune) -> Path:
    path = outdir / "sweep.csv"
    _write_csv(path,
               ["c", "hit_fraction", "estimate", "variance", "relative_error"],
               [[repr(float(c)), repr(f), repr(e), repr(v), repr(r)]
                for c, f, e, v, r in tune.table])
    return path


def _append_results_row(path, report):
    new = not Path(path).exists()
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh)
        if new:
            w.writerow(estimator.CSV_COLUMNS)
        w.writerow(report.csv_row())


def _eigen_report_rows(spectrum):
    n = spectrum.basis.size
    header = ["index", "eigenvalue_re", "eigenvalue_im", "validation_mse"]
    header += [f"c{k}_re" for k in range(n)] + [f"c{k}_im" for k in range(n)]
    rows = []
    for i, lam in enumerate(spectrum.eigenvalues):
        c = spectrum.coefficients[i]
        rows.append([i, repr(float(lam.real)), repr(float(lam.imag)),
                     repr(float(spectrum.validation_mse[i]))]
                    + [repr(float(v)) for v in c.real]
                    + [repr(float(v)) for v in c.imag])
    return header, rows


def _resolve_outdir(cfg: ExperimentConfig, override=None) -> Path:
    base = override or cfg.output.get("directory") \
        or os.environ.get(ENV_OUTPUT_DIR) or "koopmanis-out"
    out = Path(base)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _histogram_range(cfg, stats):
    rng = cfg.output["histogram_range"]
    if rng is not None:
        return rng
    return [float(np.floor(stats.min())), float(np.ceil(stats.max()))]


def run_experiment(cfg: ExperimentConfig, output_dir=None,
                   reuse_controller=False) -> dict:
    """Execute the configured experiment and write every output file.

    Outputs are written only after all stages succeed, so a failed run
    leaves no partial files behind.
    """
    outdir = _resolve_outdir(cfg, output_dir)
    controller_path = outdir / "controller.json"
    state = None
    if reuse_controller and cfg.run["method"] == "is" \
            and controller_path.exists():
        with open(controller_path) as fh:
            data = json.load(fh)
        ctrl = (spde.SpdeController if data["type"] == "spde"
                else doob.DoobController).from_dict(data)
        model = make_builtin_model(cfg.model["name"], cfg.model.get("params"))
        state = PipelineState(model, _build_event(cfg), controller=ctrl)
        state.report = _ensemble(cfg, state)
    else:
        state = run_pipeline(cfg)

    written = {}
    results_path = outdir / "results.csv"
    _append_results_row(results_path, state.report)
    written["results"] = results_path

    stats = state.event.statistic(state.report.ensemble.terminal)
    rows = emit_histogram(stats, cfg.output["histogram_bins"],
                          _histogram_range(cfg, stats))
    hist_path = outdir / "histogram.csv"
    _write_csv(hist_path, ["bin_lo", "bin_hi", "count"],
               [[repr(lo), repr(hi), n] for lo, hi, n in rows])
    written["histogram"] = hist_path

    if state.controller is not None:
        with open(controller_path, "w") as fh:
            json.dump(state.controller.to_dict(), fh, indent=1, sort_keys=True)
        written["controller"] = controller_path
    if state.tune is not None:
        written["sweep"] = _write_sweep(outdir, state.tune)
    if state.spectrum is not None:
        header, rows = _eigen_report_rows(state.spectrum)
        eig_path = outdir / "eigen_report.csv"
        _write_csv(eig_path, header, rows)
        written["eigen_report"] = eig_path
    traj = state.report.ensemble.trajectories
    if traj:
        d = state.model.dim_state
        traj_path = outdir / "trajectories.csv"
        _write_csv(traj_path,
                   ["path_index", "time"] + [f"x{i+1}" for i in range(d)],
                   [[idx, repr(float(t))] + [repr(float(v)) for v in x]
                    for idx, t, x in traj])
        written["trajectories"] = traj_path
    return written


def _cmd_run(args):
    cfg = load_config(args.config)
    written = run_experiment(cfg, args.output_dir, args.reuse_controller)
    rep = None
    with open(written["results"]) as fh:
        rep = list(csv.reader(fh))[-1]
    print(f"method={rep[0]} model={rep[1]} estimate={rep[2]} "
          f"variance={rep[3]} relative_error={rep[4]}")
    for name, path in written.items():
        print(f"wrote {name}: {path}")
    return 0


def _cmd_sweep(args):
    cfg = load_config(args.config)
    if cfg.doob is None:
        raise ConfigError("sweep-c needs a doob block")
    tune = _tune(cfg, prepare_controller(cfg))
    sweep_path = _write_sweep(_resolve_outdir(cfg, args.output_dir), tune)
    print("c  hit_fraction  estimate  variance  relative_error")
    for c, f, e, v, r in tune.table:
        print(f"{c:g}  {f:.6g}  {e:.6g}  {v:.6g}  {r:.6g}")
    print(f"chosen c = {tune.multiplier:g}")
    print(f"wrote sweep: {sweep_path}")
    return 0


def _cmd_oracle(args):
    model = make_builtin_model(args.model)
    event = default_event(model)
    threshold = event.threshold if args.threshold is None else args.threshold
    event = make_event(event.kind, threshold, event.component,
                       mode="indicator")
    T = args.T if args.T is not None else _DEFAULT_T.get(args.model, 10.0)
    res = estimator.analytic_oracles(model, event, T)
    print(f"model={args.model} event={event.kind}>={event.threshold} T={T}")
    print(f"rho = {res.rho:.6e}  (method {res.method})")
    return 0


def _cmd_export_eigen(args):
    cfg = load_config(args.config)
    state = prepare_controller(cfg)
    if state.spectrum is None:
        raise ConfigError("this model has no eigenfunction report")
    outdir = _resolve_outdir(cfg, args.output_dir)
    header, rows = _eigen_report_rows(state.spectrum)
    path = outdir / "eigen_report.csv"
    _write_csv(path, header, rows)
    print(f"wrote eigen report ({len(rows)} pairs): {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopmanis",
        description="Rare-event importance sampling for SDEs via stochastic "
                    "Koopman eigenfunctions")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--reuse-controller", action="store_true",
                       help="load controller.json instead of refitting")
    p_run.set_defaults(func=_cmd_run)

    p_sw = sub.add_parser("sweep-c", help="multiplier sweep only")
    p_sw.add_argument("config")
    p_sw.add_argument("--output-dir", default=None)
    p_sw.set_defaults(func=_cmd_sweep)

    p_or = sub.add_parser("oracle", help="analytic event probability")
    p_or.add_argument("model")
    p_or.add_argument("--T", type=float, default=None)
    p_or.add_argument("--threshold", type=float, default=None)
    p_or.set_defaults(func=_cmd_oracle)

    p_ex = sub.add_parser("export-eigen", help="eigenfunction report only")
    p_ex.add_argument("config")
    p_ex.add_argument("--output-dir", default=None)
    p_ex.set_defaults(func=_cmd_export_eigen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KoopmanisError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
