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
the runner does not know, or that the run does not read (``_CONFIG`` and
``_controller_blocks`` say which), is a ``ConfigError``, not ignored.

The ``run`` block: M, T, master_seed (required), x0, method, dt and
workers.  ``run`` and ``sweep-c`` need x0 (advdiff starts at the zero
field), checked before any stage runs.  Every model's ensemble, advdiff's
included, is one ``paths.run_paths`` call, and every fitted controller a
plain ``doob.DoobController``, the class ``--reuse-controller`` loads back
from controller.json.  Every path, of an ensemble or of the test points,
steps by its model's one stepper: a linear model by its exact hold map, a
nonlinear one by the additive-noise SRK step (``paths.model_stepper``).
``run.workers`` is the one parallelism knob: the path engine splits each
ensemble into ``workers`` blocks on as many threads (``paths`` has the
layout rule), with byte-identical SDE outputs.  Threads pay off only
where numpy releases the interpreter lock long enough.  Final ensembles
of the bench workloads at c = 8 on 2 cores of a Xeon, one BLAS thread,
1 -> 2 workers (median of 5, alternated, at the default control hold):
advdiff 0.65 -> 0.42 s, vdp 0.46 -> 1.1 s, brownian_osc 0.38 -> 0.76 s.
Memory grows with workers: each running block holds its own noise buffer
of up to ``paths.NOISE_BUFFER_DOUBLES`` doubles (32 MB).  The default is 1.

The multiplier sweep and the final ensemble hold the importance-sampling
control for ``paths.HOLD_TIME`` model time units (the controller's
``hold_time``): the path engine evaluates it once per
``paths.hold_steps(HOLD_TIME, dt)`` steps, and the Girsanov weight uses
the held control, so estimates stay unbiased.  A run with dt >= 0.02 is
per-step control.

Each config key has one row in ``_CONFIG``: its default, whether its
block must set it, and the check its value must pass when the config is
read, each failure a ``ConfigError`` that names the key.  Two rules are
not rows: the per-axis lists must have one entry per axis, and
event.component must be below the model dimension, both checked when the
model is built, before any stage runs; and the output directory is made
only when the first file is written, so a run that fails leaves none
behind.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import doob, estimator, gedmd, spde
from .basis import build_basis
from .errors import ConfigError, KoopmanisError, NoHitsError
from .model import default_event, make_builtin_model, make_event
from .paths import rowlocal_product, trajectory_snapshots

ENV_OUTPUT_DIR = "KOOPMANIS_OUTPUT_DIR"
TUNE_SEED_OFFSET = 1_000_003

_DEFAULT_T = {"ou1d": 1.0}

_NO_DEFAULT = object()   # the key's block must set it
_OPTIONAL = object()     # the key may be left out, and has no default


class _Row(NamedTuple):
    """How one config key is read: see ``_CONFIG``."""
    check: str | None            # what _checked takes; None: a stage checks it
    arg: object = None           # least value or choices (of a list's entries)
    default: object = _NO_DEFAULT  # filled in when the key is absent
    kind: str | None = None      # the one points.kind that reads it
    per_axis: bool = False       # one entry per axis of the model's state


# One row per config key, block by block; any other block or key is a
# ConfigError.  A present block gets the defaults of its absent keys and
# must set each other key that is not _OPTIONAL (a null does not set it);
# each set key is checked (a null passes where the key is optional or its
# default null), and one of the other points.kind is unread, an error.
_CONFIG = {
    "model": {"name": _Row(None),
              "params": _Row("mapping", default=_OPTIONAL)},
    "event": {"kind": _Row(None),
              "threshold": _Row("real"),
              "component": _Row("whole", 0, 0),
              "sharpness": _Row("real", default=3.0),
              "mode": _Row(None, default="indicator")},
    "points": {"kind": _Row("choice", ("grid", "gaussian"), "grid"),
               "box": _Row("list of intervals", kind="grid", per_axis=True),
               "counts": _Row("list of whole numbers", 0, kind="grid",
                              per_axis=True),
               "T_traj": _Row("nonnegative", kind="grid"),
               "stride": _Row("positive", kind="grid"),
               "dt": _Row("positive", default=_OPTIONAL, kind="grid"),
               "seed": _Row("whole"),
               "mean": _Row("list of reals", kind="gaussian", per_axis=True),
               "std": _Row("list of reals", kind="gaussian", per_axis=True),
               "count": _Row("whole", 1, kind="gaussian")},
    "basis": {"family": _Row(None),
              "degree": _Row("whole"),
              "box": _Row("list of intervals", default=_OPTIONAL,
                          per_axis=True)},
    "gedmd": {"validation_threshold": _Row("real", default=0.04),
              "max_eigenfunctions": _Row("whole", 1, None)},
    "doob": {"multiplier_grid": _Row(
                 "non-empty list of reals", default=[1, 2, 4, 6, 8, 16]),
             "tuning_batch": _Row("whole", 50, 100)},
    "run": {"method": _Row("choice", ("is", "mc"), "is"),
            "M": _Row("whole", 2),
            "T": _Row("positive"),
            "master_seed": _Row("whole"),
            "x0": _Row("list of reals", default=_OPTIONAL, per_axis=True),
            "dt": _Row("positive", default=1e-3),
            "workers": _Row("whole", 1, 1)},
    "output": {"directory": _Row("path", default=_OPTIONAL),
               "histogram_bins": _Row("whole", 1, 50),
               "histogram_range": _Row("interval", default=None),
               "trajectory_count": _Row("whole", 0, 0),
               "trajectory_stride": _Row("whole", 1, None)},
}
# the list checks, each with the check of its entries
_LISTS = {"list of reals": "real", "non-empty list of reals": "real",
          "list of whole numbers": "whole", "list of intervals": "interval"}


def _finite(val) -> bool:
    return isinstance(val, numbers.Real) and not isinstance(val, bool) \
        and math.isfinite(val)


def _checked(name, val, check, arg=None):
    """``val`` of the config key ``name`` when it passes ``check`` (a
    whole number as an int, 2000 or 2000.0, at least ``arg`` when that is
    given); a ``ConfigError`` naming the key otherwise."""
    if check in _LISTS:
        if not isinstance(val, (list, tuple)) \
                or check.startswith("non-empty") and not val:
            raise ConfigError(f"{name} must be a {check}, got {val!r}")
        return [_checked(f"each entry of {name}", v, _LISTS[check], arg)
                for v in val]
    if check == "mapping":
        if not isinstance(val, dict):
            raise ConfigError(f"{name} must be a mapping, got {val!r}")
        return {k: _checked(f"{name}.{k}", v, "real") for k, v in val.items()}
    if check == "whole":
        if isinstance(val, bool) or not (
                isinstance(val, numbers.Integral)
                or isinstance(val, float) and val.is_integer()):
            raise ConfigError(f"{name} must be a whole number, got {val!r}")
        if arg is not None and val < arg:
            raise ConfigError(f"{name} must be at least {arg}, got {val!r}")
        return int(val)
    if check == "real":
        ok, want = _finite(val), "a finite number"
    elif check in ("positive", "nonnegative"):
        ok = _finite(val) and (val > 0 or check == "nonnegative" and val == 0)
        want = f"a finite {check} number"
    elif check == "choice":
        ok, want = val in arg, f"one of {list(arg)}"
    elif check == "path":
        ok, want = isinstance(val, (str, os.PathLike)), "a path"
    else:  # interval
        ok = isinstance(val, (list, tuple)) and len(val) == 2 \
            and all(map(_finite, val)) and val[0] < val[1]
        want = "[lo, hi] with finite lo < hi"
    if not ok:
        raise ConfigError(f"{name} must be {want}, got {val!r}")
    return val


def _controller_blocks(model_name) -> list:
    """The config blocks the controller stages read: the SPDE model
    (advdiff) fits the exact spectrum of its adjoint coordinate, with a
    basis of its own, and reads no basis or gEDMD block."""
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
        """The config ``data`` read by the rows of ``_CONFIG``."""
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be a mapping of blocks, got "
                              f"{data!r}")
        for blk, val in data.items():
            if blk in _CONFIG and not isinstance(val, (dict, type(None))):
                raise ConfigError(f"config block {blk!r} must be a "
                                  f"mapping, got {val!r}")
        unknown = [blk for blk in data if blk not in _CONFIG]
        unknown += [f"{blk}.{key}" for blk, val in data.items()
                    if blk in _CONFIG and val is not None
                    for key in val if key not in _CONFIG[blk]]
        if unknown:
            raise ConfigError(f"unknown config blocks or keys, which the "
                              f"run does not read: {unknown}")
        required = ["model", "event", "run", "output"]
        name = (data.get("model") or {}).get("name")
        if (data.get("run") or {}).get(
                "method", _CONFIG["run"]["method"].default) == "is":
            required += _controller_blocks(name) + ["doob"]
        missing = [blk for blk in required if data.get(blk) is None]
        if missing:
            raise ConfigError(f"missing config blocks: {missing}")
        unread = [blk for blk in ("basis", "gedmd") if data.get(blk)
                  is not None and blk not in _controller_blocks(name)]
        cfg, missing = dict.fromkeys(_CONFIG), []
        for blk, rows in _CONFIG.items():
            if data.get(blk) is None or blk in unread:
                continue
            block = cfg[blk] = dict(data[blk])
            for key, row in rows.items():
                if key not in block \
                        and row.default not in (_NO_DEFAULT, _OPTIONAL):
                    block[key] = row.default
                val = block.get(key)
                if row.kind not in (None, block.get("kind")):
                    if val is not None:
                        unread.append(f"{blk}.{key}")
                elif val is None and row.default is _NO_DEFAULT:
                    missing.append(f"{blk}.{key}")
                elif key in block and row.check is not None and not (
                        val is None and row.default in (None, _OPTIONAL)):
                    block[key] = _checked(f"{blk}.{key}", val, row.check,
                                          row.arg)
        if unread:
            raise ConfigError(f"config blocks or keys the run does not "
                              f"read: {unread}")
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        if cfg["points"] is not None and name == "advdiff" \
                and cfg["points"]["kind"] != "grid":
            raise ConfigError("points.kind must be 'grid' for advdiff, "
                              "which starts its snapshots on a grid of "
                              "amplitudes")
        return cls(**cfg)

    def to_dict(self) -> dict:
        return {blk: getattr(self, blk) for blk in _CONFIG
                if getattr(self, blk) is not None}


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def _build_event(cfg: ExperimentConfig):
    # also called by bench/oracle.py
    ev = cfg.event
    return make_event(ev["kind"], ev["threshold"], ev["component"],
                      ev["sharpness"], ev["mode"])


def _model_and_event(cfg: ExperimentConfig):
    """The configured model and event, built before any stage runs; an
    event component outside the model's state, or a per-axis list whose
    length is not the number of axes, is a ``ConfigError``.  The points
    of the SPDE model have one axis, the amplitude along its adjoint
    mode."""
    model = make_builtin_model(cfg.model["name"], cfg.model.get("params"))
    d = model.dim_state
    if cfg.event["component"] >= d:
        raise ConfigError(f"event.component must be below the dimension "
                          f"{d} of {model.name!r}, got "
                          f"{cfg.event['component']}")
    axes = {"points": 1 if model.spde else d, "basis": d, "run": d}
    for blk, rows in _CONFIG.items():
        for key, row in rows.items():
            val = (getattr(cfg, blk) or {}).get(key)
            if row.per_axis and val is not None and len(val) != axes[blk]:
                raise ConfigError(f"{blk}.{key} must have {axes[blk]} "
                                  f"entries, one per axis of "
                                  f"{model.name!r}, got {len(val)}")
    return model, _build_event(cfg)


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
    model, event = _model_and_event(cfg)
    state = PipelineState(model, event)
    T = float(cfg.run["T"])
    pts_cfg = cfg.points
    pts_dt = pts_cfg.get("dt") or cfg.run["dt"]

    if model.spde:
        # the Doob controller on the adjoint coordinate q = Y W, fitted on
        # the exact spectrum of q's OU process: nothing to validate; the
        # points are mode snapshots from a * w1, a on the grid
        W, fit_model = spde.adjoint_model(model)
        amps = np.linspace(pts_cfg["box"][0][0], pts_cfg["box"][0][1],
                           pts_cfg["counts"][0])
        snaps, _ = trajectory_snapshots(
            model, np.multiply.outer(amps, W[:, 0]), pts_cfg["T_traj"],
            pts_cfg["stride"], pts_cfg["seed"], pts_dt)
        basis = build_basis("linear_exact", 1, 2)
        state.points, points, f_vals = (snaps, rowlocal_product(snaps, W),
                                        event.mollified(snaps))
    else:
        W, fit_model = None, model
        b = cfg.basis
        basis = build_basis(b["family"], model.dim_state, b["degree"],
                            b.get("box"))
        if pts_cfg["kind"] == "gaussian":
            pts = gedmd.sample_gaussian_points(
                model, pts_cfg["mean"], pts_cfg["std"], pts_cfg["count"],
                pts_cfg["seed"])
        else:
            pts = gedmd.generate_test_points(
                model, {"box": pts_cfg["box"], "counts": pts_cfg["counts"]},
                pts_cfg["T_traj"], pts_cfg["stride"], pts_cfg["seed"],
                dt=pts_dt, basis=basis)
        state.points, points, f_vals = (pts, pts.points,
                                        event.mollified(pts.points))

    if basis.family == "linear_exact":
        k_res = gedmd.exact_koopman_matrix(basis, fit_model)
    else:
        Psi, dPsi = gedmd.assemble_matrices(basis, model, pts)
        k_res = gedmd.koopman_matrix(Psi, dPsi)
    spec = gedmd.eigenpairs(k_res, basis, points)
    if W is None:
        spec = gedmd.validate_eigenpairs(spec, model, pts.holdout,
                                         cfg.gedmd["validation_threshold"])
        spec = gedmd.truncate_spectrum(spec,
                                       cfg.gedmd["max_eigenfunctions"])
    state.spectrum = spec
    state.controller = doob.build_controller(
        spec, fit_model, points, f_vals, T, coordinates=W)
    return state


def _check_x0(cfg: ExperimentConfig):
    """Paths start at run.x0, which only advdiff (the zero field) omits."""
    if cfg.run.get("x0") is None and cfg.model["name"] != "advdiff":
        raise ConfigError("missing config keys: ['run.x0']")


def _tune(cfg: ExperimentConfig, state: PipelineState):
    """Multiplier sweep for the state's controller."""
    run = cfg.run
    return doob.tune_multiplier(
        state.controller, state.model, state.event, run.get("x0"),
        float(run["T"]), float(run["dt"]), cfg.doob["multiplier_grid"],
        cfg.doob["tuning_batch"], seed=_tuning_seed(cfg),
        workers=run["workers"])


def run_pipeline(cfg: ExperimentConfig, controller=None) -> PipelineState:
    """Full pipeline, ending in the configured final ensemble.  For method
    mc the controller stages and the sweep are skipped; a given
    ``controller`` (one loaded by ``--reuse-controller``) replaces them.
    A controlled final ensemble with no path in the event is a
    ``NoHitsError``: its estimate 0 with variance 0 would say nothing."""
    _check_x0(cfg)
    if cfg.run["method"] == "mc" or controller is not None:
        state = PipelineState(*_model_and_event(cfg), controller=controller)
        if controller is not None:
            controller.check_fits(state.model)
    else:
        state = prepare_controller(cfg)
        state.tune = _tune(cfg, state)
        state.controller = state.controller.with_multiplier(
            state.tune.multiplier)
    run = cfg.run
    state.report = estimator.run_ensemble(
        state.model, state.controller, state.event, run.get("x0"),
        float(run["T"]), float(run["dt"]),
        M=run["M"], master_seed=run["master_seed"],
        workers=run["workers"],
        trajectory_count=cfg.output["trajectory_count"],
        trajectory_stride=cfg.output["trajectory_stride"])
    if state.controller is not None and state.report.proportion_in_event == 0:
        raise NoHitsError(
            f"no path of the final ensemble reached the event (M = "
            f"{run['M']}, c = {state.controller.multiplier:g}); raise the "
            f"multiplier or M")
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


def _sweep_rows(tune):
    return (["c", "hit_fraction", "estimate", "variance", "relative_error"],
            [[repr(float(c)), repr(f), repr(e), repr(v), repr(r)]
             for c, f, e, v, r in tune.table])


def _append_results_row(path, row):
    new = not Path(path).exists()
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh)
        if new:
            w.writerow(estimator.CSV_COLUMNS)
        w.writerow(row)


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
    return Path(override or cfg.output.get("directory")
                or os.environ.get(ENV_OUTPUT_DIR) or "koopmanis-out")


def _write_outputs(outdir: Path, outputs: dict) -> dict:
    """Write each name -> (file, writer, content) of ``outputs`` in order
    into ``outdir``, made only now, and return name -> path."""
    outdir.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, (file, write, content) in outputs.items():
        written[name] = outdir / file
        write(written[name], *content)
    return written


def _histogram_range(cfg, stats):
    rng = cfg.output["histogram_range"]
    if rng is not None:
        return rng
    return [float(np.floor(stats.min())), float(np.ceil(stats.max()))]


def run_experiment(cfg: ExperimentConfig, output_dir=None,
                   reuse_controller=False) -> dict:
    """Execute the configured experiment and write every output file.

    Every output is computed before the first is written, so a run that
    fails in any stage, or while forming its outputs, leaves no partial
    files behind, and no output directory it would have made.
    """
    outdir = _resolve_outdir(cfg, output_dir)
    controller_path = outdir / "controller.json"
    controller = None
    if reuse_controller and cfg.run["method"] == "is" \
            and controller_path.exists():
        controller = doob.DoobController.from_dict(
            json.loads(controller_path.read_text()))
    state = run_pipeline(cfg, controller)

    # name -> (file, writer of the file, its content), in writing order
    stats = state.report.statistic
    hist = emit_histogram(stats, cfg.output["histogram_bins"],
                          _histogram_range(cfg, stats))
    outputs = {
        "results": ("results.csv", _append_results_row,
                    (state.report.csv_row(),)),
        "histogram": ("histogram.csv", _write_csv,
                      (["bin_lo", "bin_hi", "count"],
                       [[repr(lo), repr(hi), n] for lo, hi, n in hist]))}
    if state.controller is not None:
        outputs["controller"] = (
            "controller.json", Path.write_text,
            (json.dumps(state.controller.to_dict(), indent=1,
                        sort_keys=True),))
    if state.tune is not None:
        outputs["sweep"] = ("sweep.csv", _write_csv,
                            _sweep_rows(state.tune))
    if state.spectrum is not None:
        outputs["eigen_report"] = ("eigen_report.csv", _write_csv,
                                   _eigen_report_rows(state.spectrum))
    traj = state.report.trajectories
    if traj:
        d = state.model.dim_state
        outputs["trajectories"] = (
            "trajectories.csv", _write_csv,
            (["path_index", "time"] + [f"x{i+1}" for i in range(d)],
             [[idx, repr(float(t))] + [repr(float(v)) for v in x]
              for idx, t, x in traj]))
    return _write_outputs(outdir, outputs)


def _cmd_run(args):
    cfg = load_config(args.config)
    written = run_experiment(cfg, args.output_dir, args.reuse_controller)
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
    _check_x0(cfg)
    tune = _tune(cfg, prepare_controller(cfg))
    written = _write_outputs(_resolve_outdir(cfg, args.output_dir), {
        "sweep": ("sweep.csv", _write_csv, _sweep_rows(tune))})
    print("c  hit_fraction  estimate  variance  relative_error")
    for c, f, e, v, r in tune.table:
        print(f"{c:g}  {f:.6g}  {e:.6g}  {v:.6g}  {r:.6g}")
    print(f"chosen c = {tune.multiplier:g}")
    print(f"wrote sweep: {written['sweep']}")
    return 0


def _cmd_oracle(args):
    model = make_builtin_model(args.model)
    event = default_event(model)
    threshold = event.threshold if args.threshold is None else args.threshold
    event = make_event(event.kind, threshold, event.component,
                       mode="indicator")
    T = args.T if args.T is not None else _DEFAULT_T.get(args.model, 10.0)
    res = estimator.analytic_oracles(model, event, T)
    print(f"model={args.model} event={event.kind}>{event.threshold} T={T}")
    print(f"rho = {res.rho:.6e}  (method {res.method})")
    return 0


def _cmd_export_eigen(args):
    cfg = load_config(args.config)
    header, rows = _eigen_report_rows(prepare_controller(cfg).spectrum)
    written = _write_outputs(_resolve_outdir(cfg, args.output_dir), {
        "eigen_report": ("eigen_report.csv", _write_csv, (header, rows))})
    print(f"wrote eigen report ({len(rows)} pairs): "
          f"{written['eigen_report']}")
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
