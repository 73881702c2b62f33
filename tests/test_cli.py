import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from koopmanis import cli, doob, make_builtin_model
from koopmanis.errors import ConfigError
from reference import fit_spde_controller


def _tiny_ou_config(tmp_path, method="is", seed=77):
    return {
        "model": {"name": "ou1d", "params": {}},
        "event": {"kind": "coordinate", "component": 0, "threshold": 2.0,
                  "sharpness": 3.0, "mode": "indicator"},
        "points": {"kind": "gaussian", "mean": [0.0], "std": [2.0],
                   "count": 50, "seed": 8},
        "basis": {"family": "hermite", "degree": 1},
        "gedmd": {"validation_threshold": 0.04},
        "doob": {"multiplier_grid": [1, 4], "tuning_batch": 200},
        "run": {"method": method, "M": 400, "T": 1.0, "dt": 1e-2,
                "x0": [0.0], "master_seed": seed},
        "output": {"directory": str(tmp_path / "out"), "histogram_bins": 20,
                   "histogram_range": [-4.0, 6.0]},
    }


def test_config_roundtrip(tmp_path):
    raw = _tiny_ou_config(tmp_path)
    cfg = cli.ExperimentConfig.from_dict(raw)
    once = cfg.to_dict()
    twice = cli.ExperimentConfig.from_dict(json.loads(json.dumps(once))).to_dict()
    assert once == twice


def test_config_missing_blocks(tmp_path):
    raw = _tiny_ou_config(tmp_path)
    del raw["points"]
    with pytest.raises(ConfigError):
        cli.ExperimentConfig.from_dict(raw)
    mc = _tiny_ou_config(tmp_path, method="mc")
    del mc["points"], mc["basis"], mc["gedmd"], mc["doob"]
    cfg = cli.ExperimentConfig.from_dict(mc)  # mc needs only 4 blocks
    assert cfg.points is None


def test_run_experiment_outputs(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(_tiny_ou_config(tmp_path))
    written = cli.run_experiment(cfg)
    for key in ("results", "histogram", "controller", "sweep", "eigen_report"):
        assert key in written and written[key].exists()
    with open(written["results"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["method", "model", "estimate", "variance"]
    assert rows[1][0] == "is" and rows[1][1] == "ou1d"


def test_run_rows_identical_across_reruns(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(_tiny_ou_config(tmp_path))
    w1 = cli.run_experiment(cfg)
    with open(w1["results"]) as fh:
        first = list(csv.reader(fh))[-1]
    # every non-appending output, read before the rerun overwrites it
    outputs = ("controller", "sweep", "eigen_report", "histogram")
    blobs = {key: w1[key].read_bytes() for key in outputs}
    w2 = cli.run_experiment(cfg)
    with open(w2["results"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[-1] == first == rows[-2]
    for key in outputs:
        assert w2[key].read_bytes() == blobs[key], key


def test_controller_file_reproduced_when_deleted(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(_tiny_ou_config(tmp_path))
    w1 = cli.run_experiment(cfg)
    blob = w1["controller"].read_bytes()
    w1["controller"].unlink()
    cli.run_experiment(cfg)
    assert w1["controller"].read_bytes() == blob


def test_reuse_controller_flag(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(_tiny_ou_config(tmp_path))
    w1 = cli.run_experiment(cfg)
    data = json.loads(w1["controller"].read_text())
    data["multiplier"] = 2.5
    w1["controller"].write_text(json.dumps(data))
    cli.run_experiment(cfg, reuse_controller=True)
    with open(w1["results"]) as fh:
        rows = list(csv.reader(fh))
    # multiplier column reflects the reloaded controller, not refitting
    assert rows[-1][9] == repr(2.5)


def test_reuse_controller_writes_the_same_trajectories(tmp_path):
    raw = _tiny_ou_config(tmp_path)
    raw["output"].update(trajectory_count=2, trajectory_stride=10)
    cfg = cli.ExperimentConfig.from_dict(raw)
    fresh = cli.run_experiment(cfg)["trajectories"].read_bytes()
    (tmp_path / "out" / "trajectories.csv").unlink()
    reused = cli.run_experiment(cfg, reuse_controller=True)
    assert reused["trajectories"].read_bytes() == fresh


def test_unknown_model_exit_code(tmp_path):
    raw = _tiny_ou_config(tmp_path)
    raw["model"]["name"] = "lorenz"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1


def test_cli_run_and_sweep_verbs(tmp_path, capsys):
    raw = _tiny_ou_config(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "estimate=" in out
    assert cli.main(["sweep-c", str(path)]) == 0
    out = capsys.readouterr().out
    assert "chosen c" in out


def test_sweep_without_doob_block_is_a_config_error(tmp_path, capsys):
    """An mc config may omit the doob block; sweep-c then has no grid."""
    raw = _tiny_ou_config(tmp_path, method="mc")
    del raw["doob"]
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["sweep-c", str(path)]) == 1
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["sweep-c", "export-eigen"])
@pytest.mark.parametrize("dropped", [["points"], ["basis"],
                                     ["points", "basis", "gedmd"]])
def test_controller_verbs_name_a_missing_block(tmp_path, capsys, verb,
                                               dropped):
    """An mc config may omit the controller blocks; the verbs that fit a
    controller then fail with a ConfigError naming them."""
    raw = _tiny_ou_config(tmp_path, method="mc")
    for blk in dropped:
        del raw[blk]
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(raw))
    assert cli.main([verb, str(path)]) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert all(repr(blk) in err for blk in dropped)


@pytest.mark.parametrize("block, key", [("run", "wrokers"),
                                        ("run", "block_size"),
                                        ("points", "cuont"),
                                        ("dob", None), ("run", "scheme"),
                                        ("doob", "offset"),
                                        ("doob", "target_fraction")])
def test_unknown_config_key_is_a_config_error(tmp_path, capsys, block, key):
    """A misspelt or removed key, or an unknown block, stops the run
    instead of being ignored.  run.scheme, doob.offset and
    doob.target_fraction are removed keys: every nonlinear model steps by
    the SRK step, every surrogate is shifted by ``doob.positivize``, and
    the sweep aims at ``doob.TARGET_HIT_FRACTION``."""
    raw = _tiny_ou_config(tmp_path)
    if key is None:
        raw[block] = {}
        name = block
    else:
        raw[block][key] = 2
        name = f"{block}.{key}"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and repr(name) in err
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_scipy_integrate_unloaded():
    """Only the norm-event oracle needs scipy.integrate; importing the
    CLI must not pay for it."""
    code = ("import sys, koopmanis.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]),
         env.get("PYTHONPATH", "")])
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode \
        == 0


def test_cli_oracle_verb(capsys):
    assert cli.main(["oracle", "ou1d", "--T", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "1.57" in out  # 1.5745e-2
    # the oracle gives the indicator probability, with or without a
    # threshold override of the default event
    assert cli.main(["oracle", "ou1d", "--T", "1.0", "--threshold", "2.0"]) == 0
    assert capsys.readouterr().out == out
    assert cli.main(["oracle", "lorenz"]) == 1


@pytest.mark.parametrize("model, out", [
    ("ou1d", "model=ou1d event=coordinate>2.0 T=1.0\n"
             "rho = 1.574480e-02  (method gaussian_tail)\n"),
    ("brownian_osc", "model=brownian_osc event=abs_coordinate>3.0 T=10.0\n"
                     "rho = 2.208346e-05  (method gaussian_tail)\n"),
    ("nonnormal2d", "model=nonnormal2d event=norm>0.75 T=10.0\n"
                    "rho = 1.596508e-05  (method imhof)\n")])
def test_the_oracle_verb_prints_the_strict_event(capsys, model, out):
    """Every event is strict (x > L, |x| > L, |X| > L), and the oracle
    verb prints it so: it once printed ">=" next to the default event."""
    assert cli.main(["oracle", model]) == 0
    assert capsys.readouterr().out == out


def test_cli_export_eigen(tmp_path):
    raw = _tiny_ou_config(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["export-eigen", str(path)]) == 0
    report = tmp_path / "out" / "eigen_report.csv"
    with open(report) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["index", "eigenvalue_re", "eigenvalue_im"]
    assert len(rows) == 3  # constant + He_1
    # an mc config without a doob block exports the same spectrum
    blob = report.read_bytes()
    report.unlink()
    raw["run"]["method"] = "mc"
    del raw["doob"]
    path.write_text(json.dumps(raw))
    assert cli.main(["export-eigen", str(path)]) == 0
    assert report.read_bytes() == blob


def test_emit_histogram_cases():
    rows = cli.emit_histogram(np.arange(10, dtype=float), 1, (0.0, 9.0))
    assert rows[1][2] == 10 and rows[0][2] == 0 and rows[-1][2] == 0
    rows = cli.emit_histogram(np.array([-5.0, 0.5, 0.6, 99.0]), 4, (0.0, 1.0))
    assert sum(r[2] for r in rows) == 4
    assert rows[0][2] == 1 and rows[-1][2] == 1
    with pytest.raises(ConfigError):
        cli.emit_histogram(np.array([]), 4, (0.0, 1.0))
    with pytest.raises(ConfigError):
        cli.emit_histogram(np.array([1.0]), 0, (0.0, 1.0))


def test_histogram_counts_sum_to_paths(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(_tiny_ou_config(tmp_path))
    written = cli.run_experiment(cfg)
    with open(written["histogram"]) as fh:
        rows = list(csv.reader(fh))[1:]
    assert sum(int(r[2]) for r in rows) == 400


def test_output_dir_env_var(tmp_path, monkeypatch):
    raw = _tiny_ou_config(tmp_path, method="mc")
    del raw["output"]["directory"]
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path / "envout"))
    cfg = cli.ExperimentConfig.from_dict(raw)
    written = cli.run_experiment(cfg)
    assert str(written["results"]).startswith(str(tmp_path / "envout"))


def test_worker_count_does_not_change_rows(tmp_path):
    raw = _tiny_ou_config(tmp_path)
    cfg1 = cli.ExperimentConfig.from_dict(raw)
    w1 = cli.run_experiment(cfg1)
    with open(w1["results"]) as fh:
        base = list(csv.reader(fh))[-1]
    raw2 = _tiny_ou_config(tmp_path)
    raw2["run"]["workers"] = 3
    raw2["output"]["directory"] = str(tmp_path / "out2")
    cfg2 = cli.ExperimentConfig.from_dict(raw2)
    w2 = cli.run_experiment(cfg2)
    with open(w2["results"]) as fh:
        alt = list(csv.reader(fh))[-1]
    assert base == alt


@pytest.mark.parametrize("key, value, error",
                         [("dt", 0, "ConfigError"),
                          ("dt", -1e-2, "ConfigError"),
                          ("workers", 0, "ConfigError"),
                          ("workers", -2, "ConfigError")])
def test_bad_run_parameters_are_typed_errors(tmp_path, capsys, key, value,
                                             error):
    """run.dt 0 or below was an InvalidParameterError of the path engine,
    after the set-up had run; now it fails when the config is read."""
    raw = _tiny_ou_config(tmp_path)
    raw["run"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1
    assert f"error ({error})" in capsys.readouterr().err


@pytest.mark.parametrize("verb, block, key, value",
                         [("run", "run", "M", 2.5),
                          ("run", "run", "workers", 1.5),
                          ("run", "run", "M", "400"),
                          ("run", "run", "workers", True),
                          ("sweep-c", "doob", "tuning_batch", 100.5)])
def test_counts_must_be_whole_numbers(tmp_path, capsys, verb, block, key,
                                      value):
    """run.M 2.5 would run 2 paths and doob.tuning_batch 100.5 would stop
    in np.repeat: each count is checked once, when the config is read."""
    raw = _tiny_ou_config(tmp_path)
    raw[block][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main([verb, str(path)]) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and f"{block}.{key}" in err


@pytest.mark.parametrize("key, value", [
    ("histogram_bins", 0), ("histogram_bins", -3), ("histogram_bins", 2.5),
    ("histogram_bins", True), ("histogram_bins", "20"),
    ("histogram_range", [6.0, -4.0]), ("histogram_range", [1.0, 1.0]),
    ("histogram_range", [0.0, math.inf]), ("histogram_range", [math.nan, 1]),
    ("histogram_range", [-4.0, 0.0, 6.0]), ("histogram_range", "[-4, 6]"),
    ("histogram_range", [False, 6.0])])
def test_bad_histogram_options_fail_when_read(tmp_path, capsys, key, value):
    """Not after the whole pipeline has run, nor as a raw TypeError or
    numpy ValueError, and with no results row left behind."""
    raw = _tiny_ou_config(tmp_path, method="mc")
    raw["output"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and f"output.{key}" in err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_misspelt_event_mode_writes_nothing(tmp_path, capsys):
    """"Indicator" would run the mollified estimator without a word."""
    raw = _tiny_ou_config(tmp_path, method="mc")
    raw["event"]["mode"] = "Indicator"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1
    assert "error (InvalidParameterError)" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_a_norm_event_with_a_component_writes_nothing(tmp_path, capsys):
    """A norm event reads every component: event.component 1 once gave
    the component-0 indicator without a word, and is now refused."""
    raw = _tiny_ou_config(tmp_path, method="mc")
    del raw["points"], raw["basis"], raw["gedmd"], raw["doob"]
    raw["model"]["name"] = "nonnormal2d"
    raw["run"]["x0"] = [0.0, 0.0]
    raw["event"].update(kind="norm", threshold=0.75, component=1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error (InvalidParameterError)" in err and "component" in err
    assert not (tmp_path / "out").exists()
    raw["event"]["component"] = 0
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 0


def test_a_failing_output_leaves_no_partial_files(tmp_path, monkeypatch):
    """The eigenfunction report is formed last but before any file is
    written: when it fails, not even the results row, nor the output
    directory, is left."""
    cfg = cli.ExperimentConfig.from_dict(_tiny_ou_config(tmp_path))

    def broken(spectrum):
        raise RuntimeError("report failed")

    monkeypatch.setattr(cli, "_eigen_report_rows", broken)
    with pytest.raises(RuntimeError, match="report failed"):
        cli.run_experiment(cfg)
    assert not (tmp_path / "out").exists()


_GRID_POINTS = {"kind": "grid", "box": [[-2.0, 2.0]], "counts": [4],
                "T_traj": 0.5, "stride": 0.1, "seed": 3}


@pytest.mark.parametrize("block, key, value", [
    ("run", "method", "MC"), ("run", "method", "qmc"),
    ("points", "kind", "sobol"), ("run", "scheme", "rk4"),
    ("doob", "multiplier_grid", ["x"]), ("doob", "multiplier_grid", 4),
    ("doob", "multiplier_grid", []), ("doob", "target_fraction", "half"),
    ("doob", "tuning_batch", 49), ("run", "T", "abc"),
    ("run", "T", math.inf), ("event", "threshold", "a"),
    ("event", "sharpness", "a"), ("gedmd", "validation_threshold", "a"),
    ("gedmd", "max_eigenfunctions", "a"), ("points", "count", "a"),
    ("basis", "degree", "a"), ("event", "component", 5),
    ("event", "component", "a"), ("event", "component", -1),
    ("model", "params", {"rate": "a"}), ("model", "params", [1.0]),
    ("points", "mean", ["a"]), ("points", "std", [None]),
    ("points", "std", 2.0), ("points", "box", [[-1.0, "a"]]),
    ("basis", "box", [[1.0, -1.0]]), ("points", "mean", [0.0, 0.0]),
    ("points", "box", [[-1.0, 1.0], [-1.0, 1.0]]),
    ("basis", "box", [[-1.0, 1.0], [-1.0, 1.0]]), ("run", "x0", ["a"]),
    ("run", "x0", [0.0, 0.0]), ("run", "x0", 0.0),
    ("output", "directory", 3), ("points", "count", 0),
    ("points", "stride", 0), ("points", "stride", -0.25),
    ("points", "T_traj", -1), ("points", "dt", 0), ("points", "dt", -0.01),
    ("run", "T", 0), ("run", "T", -1.0)])
def test_bad_config_values_fail_before_any_stage(tmp_path, capsys, block,
                                                  key, value):
    """Each value once ended in a raw traceback, ran another method
    ("MC" ran importance sampling), or failed only after the set-up; now
    each is a ConfigError naming its key, and nothing is written.  A grid
    key is set in a grid points block.  points.stride 0 or -0.25 recorded
    every step and T_traj -1 only the starts; run.T 0 was an error only of
    the path engine."""
    raw = _tiny_ou_config(tmp_path)
    if block == "points" and cli._CONFIG["points"][key].kind == "grid":
        raw["points"] = dict(_GRID_POINTS)
    raw[block][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and f"{block}.{key}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block, key", [
    ("points", "box"), ("points", "counts"), ("points", "seed"),
    ("points", "mean"), ("points", "std"), ("points", "count"),
    ("basis", "degree"), ("basis", "family"), ("event", "threshold"),
    ("model", "name")])
def test_a_block_without_a_key_its_stage_reads_is_a_config_error(
        tmp_path, capsys, block, key):
    """Each once ended in a raw KeyError from the stage that reads it: the
    grid keys for a grid points block, the gaussian keys for a gaussian
    one, and the keys of the other blocks."""
    raw = _tiny_ou_config(tmp_path)
    if key in _GRID_POINTS:
        raw["points"] = dict(_GRID_POINTS)
    del raw[block][key]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and f"{block}.{key}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block, value", [("run", [1]), ("output", "x"),
                                          ("event", 3), (None, [1])])
def test_a_config_block_that_is_not_a_mapping_is_a_config_error(
        tmp_path, block, value):
    """Not a list of unknown keys such as 'run.1': the block itself, or
    the whole config (block None), is named."""
    if block is None:
        raw, want = value, "a config must be a mapping"
    else:
        raw = {**_tiny_ou_config(tmp_path), block: value}
        want = f"config block '{block}' must be a mapping"
    with pytest.raises(ConfigError, match=want):
        cli.ExperimentConfig.from_dict(raw)


def _tiny_advdiff_config(tmp_path):
    return {
        "model": {"name": "advdiff", "params": {"n_modes": 8}},
        "event": {"kind": "norm", "threshold": 0.5},
        "points": {"box": [[-2.0, 2.0]], "counts": [5], "T_traj": 1.0,
                   "stride": 0.25, "dt": 0.01, "seed": 11},
        "doob": {"multiplier_grid": [1, 4]},
        "run": {"M": 50, "T": 0.5, "dt": 0.01, "master_seed": 1},
        "output": {"directory": str(tmp_path / "out")},
    }


def test_advdiff_controller_is_the_eigen_controller_on_its_adjoint_coordinate(
        tmp_path):
    """The SPDE set-up fits the exact spectrum of q = <Y, w1> and writes
    it as an eigen report, with no validation MSE; its controller file is
    an eigen controller with coordinates, which reloads as the class that
    was fitted, and reusing it gives the same results row."""
    cfg = cli.ExperimentConfig.from_dict(_tiny_advdiff_config(tmp_path))
    state = cli.prepare_controller(cfg)
    model = make_builtin_model("advdiff", {"n_modes": 8})
    spec, want = fit_spde_controller(model, state.points, state.event, 0.5)
    assert type(state.controller) is doob.DoobController
    assert state.controller.to_dict() == want.to_dict()
    assert np.array_equal(state.spectrum.coefficients, spec.coefficients)
    written = cli.run_experiment(cfg)
    with open(written["eigen_report"]) as fh:
        rows = list(csv.reader(fh))
    assert [r[3] for r in rows[1:]] == ["nan"] * 3
    data = json.loads(written["controller"].read_text())
    assert data["type"] == "eigen" and len(data["coordinates"]) == 8
    assert type(doob.DoobController.from_dict(data)) \
        is type(state.controller)
    with open(written["results"]) as fh:
        fresh = list(csv.reader(fh))[-1]
    assert fresh[10] == "3"  # N_eigenfunctions
    cli.run_experiment(cfg, reuse_controller=True)
    with open(written["results"]) as fh:
        assert list(csv.reader(fh))[-1] == fresh


def test_an_old_spde_controller_file_is_a_config_error(tmp_path, capsys):
    """A controller.json of type "spde", the file advdiff runs wrote
    before its controller became an eigen controller, is refused by
    --reuse-controller with its type named, and nothing is written."""
    path = tmp_path / "advdiff.json"
    path.write_text(json.dumps(_tiny_advdiff_config(tmp_path)))
    old = {"type": "spde", "f0": 0.01, "f2": 0.2, "T": 0.5,
           "multiplier": 4.0, "floor": 1e-10,
           "spde": {"n_modes": 8, "alpha": 0.1, "b": 1.0, "eps_noise": 1.0}}
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "controller.json").write_text(json.dumps(old))
    assert cli.main(["run", str(path), "--reuse-controller"]) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and "'spde'" in err
    assert [p.name for p in (tmp_path / "out").iterdir()] \
        == ["controller.json"]
    assert json.loads((tmp_path / "out" / "controller.json").read_text()) \
        == old


@pytest.fixture(scope="module")
def ou_controller_file(tmp_path_factory):
    """The controller.json of the tiny ou1d config, as a dict."""
    cfg = cli.ExperimentConfig.from_dict(
        _tiny_ou_config(tmp_path_factory.mktemp("ou")))
    return json.loads(cli.run_experiment(cfg)["controller"].read_text())


def _reuse(tmp_path, raw, controller):
    """``koopmanis run --reuse-controller`` of the config ``raw`` with
    ``controller`` as its controller.json: (exit code, stderr lines)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "controller.json").write_text(json.dumps(controller))
    return cli.main(["run", str(path), "--reuse-controller"])


@pytest.mark.parametrize("key", [
    "components", "basis", "coefficients", "diffusion", "T", "multiplier",
    "floor", "components.lam_re", "basis.degree"])
def test_a_controller_file_without_a_key_is_a_config_error(
        tmp_path, capsys, ou_controller_file, key):
    """--reuse-controller on an eigen controller file that lacks a key,
    at the top or in a component or the basis, is a ConfigError that
    names the key, not a KeyError, and nothing is written."""
    data = json.loads(json.dumps(ou_controller_file))
    *outer, leaf = key.split(".")
    for block in (data[k] for k in outer):
        for entry in block if isinstance(block, list) else [block]:
            del entry[leaf]
    if not outer:
        del data[leaf]
    assert _reuse(tmp_path, _tiny_ou_config(tmp_path), data) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and f"{leaf!r}" in err
    assert [p.name for p in (tmp_path / "out").iterdir()] \
        == ["controller.json"]


def test_the_minimal_eigen_file_names_its_first_missing_key(tmp_path,
                                                            capsys):
    assert _reuse(tmp_path, _tiny_ou_config(tmp_path),
                  {"type": "eigen", "T": 10.0}) == 1
    assert "'components'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def brownian_osc_controller_file(tmp_path_factory):
    """The controller.json of a tiny brownian_osc config, one of whose
    components is a conjugate pair, as a dict."""
    tmp_path = tmp_path_factory.mktemp("brownian_osc")
    raw = _tiny_brownian_osc_config(tmp_path)
    data = json.loads(cli.run_experiment(cli.ExperimentConfig.from_dict(
        raw))["controller"].read_text())
    assert any(comp["c_im"] is not None for comp in data["components"])
    return data


def _tiny_brownian_osc_config(tmp_path):
    raw = _tiny_ou_config(tmp_path)
    raw["model"]["name"] = "brownian_osc"
    raw["event"].update(kind="abs_coordinate", threshold=1.5)
    raw["basis"] = {"family": "linear_exact", "degree": 2}
    raw["run"].update(x0=[0.0, 0.0], T=2.0)
    raw["points"].update(mean=[0.0, 0.0], std=[2.0, 2.0])
    return raw


def _pair(data):
    """The first component of a controller file that is a conjugate pair."""
    return next(c for c in data["components"] if c["c_im"] is not None)


@pytest.mark.parametrize("edit, key", [
    (lambda data: data["coefficients"].pop(), "coefficients"),
    (lambda data: _pair(data)["c_re"].pop(), "c_re"),
    (lambda data: _pair(data).update(c_im=None), "c_im"),
    (lambda data: data["coefficients"].__setitem__(1, None), "coefficients"),
    (lambda data: data.update(multiplier=None), "multiplier"),
], ids=["a coefficient dropped", "a c_re entry dropped",
        "a pair without c_im", "a null coefficient", "a null multiplier"])
def test_a_controller_file_whose_arrays_do_not_fit_is_a_config_error(
        tmp_path, capsys, brownian_osc_controller_file, edit, key):
    """--reuse-controller on a brownian_osc controller file with one array
    cut short or nulled is a ConfigError that names the key, where it was
    an IndexError, a ValueError, a pair run as a real component into a
    NoHitsError, a run of nan weights or a TypeError; nothing is
    written."""
    data = json.loads(json.dumps(brownian_osc_controller_file))
    edit(data)
    assert _reuse(tmp_path, _tiny_brownian_osc_config(tmp_path), data) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and f"{key!r}" in err
    assert [p.name for p in (tmp_path / "out").iterdir()] \
        == ["controller.json"]


@pytest.mark.parametrize("key", ["diffusion", "coordinates"])
@pytest.mark.parametrize("value", [[["x"]], [1.0], 1.0, [[None]]],
                         ids=["not a number", "1-D", "a scalar", "null"])
def test_a_diffusion_or_coordinates_that_is_no_finite_matrix_is_a_config_error(
        tmp_path, capsys, ou_controller_file, key, value):
    """--reuse-controller on the ou1d controller file with its diffusion
    map, or a coordinate matrix, set to a non-number, a flat list, a
    scalar or a null entry is a ConfigError that names the key, where it
    was a raw ValueError, or a NaN bias that ran into "fewer than two
    paths survived"; nothing is written."""
    data = dict(ou_controller_file, **{key: value})
    assert _reuse(tmp_path, _tiny_ou_config(tmp_path), data) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (ConfigError)") and f"{key!r}" in err
    assert "Traceback" not in err
    assert [p.name for p in (tmp_path / "out").iterdir()] \
        == ["controller.json"]


@pytest.mark.parametrize("verb", ["run", "sweep-c", "export-eigen"])
@pytest.mark.parametrize("content", [None, "{\"model\": ", "\xff"],
                         ids=["missing", "not JSON", "not text"])
def test_an_unreadable_config_file_is_a_config_error(tmp_path, capsys, verb,
                                                      content):
    """A config file that is missing, or is not valid JSON, is a
    ConfigError that names the file, not a traceback."""
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_bytes(content.encode("latin-1"))
    assert cli.main([verb, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (ConfigError)") and str(path) in err
    assert [p.name for p in tmp_path.iterdir()] \
        == ([] if content is None else ["cfg.json"])


def test_a_controller_file_that_is_not_json_is_a_config_error(tmp_path,
                                                              capsys):
    """--reuse-controller on a controller.json that is not valid JSON is a
    ConfigError that names the file, and nothing is written."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_ou_config(tmp_path)))
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "controller.json").write_text('{"type": "eigen",')
    assert cli.main(["run", str(path), "--reuse-controller"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (ConfigError)") and "controller.json" in err
    assert [p.name for p in (tmp_path / "out").iterdir()] \
        == ["controller.json"]


@pytest.mark.parametrize("target", ["brownian_osc", "advdiff"])
def test_a_reused_controller_of_another_model_is_a_config_error(
        tmp_path, capsys, ou_controller_file, target):
    """The ou1d controller, a 1 x 1 diffusion map, reused on brownian_osc
    (2 state dimensions, 1 noise column) or on 8-mode advdiff (8 noise
    columns) is a ConfigError that names the shapes, where it ran a
    control of the wrong width; nothing is written."""
    if target == "brownian_osc":
        raw = _tiny_ou_config(tmp_path)
        raw["model"]["name"] = "brownian_osc"
        raw["run"]["x0"] = [0.0, 0.0]
        raw["points"].update(mean=[0.0, 0.0], std=[2.0, 2.0])
    else:
        raw = _tiny_advdiff_config(tmp_path)
        raw["run"]["T"] = 1.0
    assert _reuse(tmp_path, raw, ou_controller_file) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and "does not fit" in err
    assert [p.name for p in (tmp_path / "out").iterdir()] \
        == ["controller.json"]


def test_a_final_ensemble_without_a_hit_is_an_error(tmp_path, capsys,
                                                    ou_controller_file):
    """ou1d at L 5 (rho about 4e-8) under the reused controller at c 0 with
    M 50 puts no path in the event; the run exits 1 naming M and c and
    writes no results row, where it reported 0 with variance 0.  Plain MC
    on the same config still reports its 0."""
    raw = _tiny_ou_config(tmp_path)
    raw["event"]["threshold"] = 5.0
    raw["run"]["M"] = 50
    ctrl = dict(ou_controller_file, multiplier=0.0)
    assert _reuse(tmp_path, raw, ctrl) == 1
    err = capsys.readouterr().err
    assert "error (NoHitsError)" in err
    assert "M = 50" in err and "c = 0" in err
    assert [p.name for p in (tmp_path / "out").iterdir()] \
        == ["controller.json"]
    mc = cli.ExperimentConfig.from_dict(dict(raw, run=dict(raw["run"],
                                                            method="mc")))
    report = cli.run_pipeline(mc).report
    assert report.estimate == 0.0 and report.proportion_in_event == 0.0


@pytest.mark.parametrize("points, model, block, key, value", [
    ("grid", "ou1d", "points", "mean", [0.0]),
    ("grid", "ou1d", "points", "std", [2.0]),
    ("grid", "ou1d", "points", "count", 50),
    ("gaussian", "ou1d", "points", "box", [[-2.0, 2.0]]),
    ("gaussian", "ou1d", "points", "counts", [4]),
    ("gaussian", "ou1d", "points", "T_traj", 0.5),
    ("gaussian", "ou1d", "points", "stride", 0.1),
    ("gaussian", "ou1d", "points", "dt", 0.01),
    ("grid", "advdiff", "basis", None, {"family": "hermite", "degree": 7}),
    ("grid", "advdiff", "gedmd", None, {"max_eigenfunctions": 1}),
    ("grid", "advdiff", "run", "scheme", "euler_maruyama"),
    ("gaussian", "ou1d", "run", "scheme", "euler_maruyama"),
    ("grid", "ou1d", "run", "scheme", "srk_additive")])
def test_a_block_or_key_the_run_does_not_read_is_a_config_error(
        tmp_path, capsys, points, model, block, key, value):
    """Each was accepted and ignored: a grid block's gaussian keys, a
    gaussian block's grid keys, advdiff's basis and gedmd blocks (advdiff
    with a degree-7 Hermite basis and max_eigenfunctions 1 still fitted
    its 3-pair exact spectrum), and the run.scheme of a linear model,
    which steps by its exact hold map.  Now each is a ConfigError naming
    it, and nothing is written; run.scheme, a removed key, is read by no
    run."""
    raw = _tiny_advdiff_config(tmp_path) if model == "advdiff" \
        else _tiny_ou_config(tmp_path)
    if points == "grid":
        raw["points"] = dict(_GRID_POINTS)
    if key is None:
        raw[block] = value
    else:
        raw[block][key] = value
    path = tmp_path / "unread.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and "does not read" in err
    assert (block if key is None else f"{block}.{key}") in err
    assert not (tmp_path / "out").exists()


def test_a_grid_with_no_trajectory_time_keeps_its_starts(tmp_path):
    """points.T_traj 0 is read: the grid's starts are the points."""
    raw = _tiny_ou_config(tmp_path)
    raw["points"] = {**_GRID_POINTS, "T_traj": 0}
    state = cli.prepare_controller(cli.ExperimentConfig.from_dict(raw))
    assert state.points.m == 4


def test_a_null_points_dt_steps_at_the_run_dt(tmp_path):
    """points.dt is optional: a null, like no key, means run.dt."""
    raw = _tiny_ou_config(tmp_path)
    raw["points"] = dict(_GRID_POINTS)
    absent = cli.prepare_controller(cli.ExperimentConfig.from_dict(raw))
    raw["points"]["dt"] = None
    null = cli.prepare_controller(cli.ExperimentConfig.from_dict(raw))
    assert np.array_equal(null.points.points, absent.points.points)


def test_advdiff_points_must_be_a_grid(tmp_path):
    raw = _tiny_ou_config(tmp_path)
    raw["model"] = {"name": "advdiff", "params": {"n_modes": 8}}
    raw["event"] = {"kind": "norm", "threshold": 0.5}
    del raw["basis"], raw["gedmd"]
    with pytest.raises(ConfigError, match="points.kind"):
        cli.ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("verb, failing", [
    ("run", None), ("sweep-c", None), ("export-eigen", None),
    ("run", "_eigen_report_rows"), ("sweep-c", "_sweep_rows"),
    ("export-eigen", "_eigen_report_rows")])
def test_a_failing_verb_leaves_no_output_directory(tmp_path, capsys,
                                                   monkeypatch, verb,
                                                   failing):
    """The output directory is made when the first file is written: not
    when the set-up fails (a negative validation threshold drops every
    eigenpair), nor when forming the verb's output fails."""
    raw = _tiny_ou_config(tmp_path)
    if failing is None:
        raw["gedmd"]["validation_threshold"] = -1.0
        error = "EmptySpectrumError"
    else:
        def broken(*args):
            raise ConfigError("output failed")

        monkeypatch.setattr(cli, failing, broken)
        error = "ConfigError"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main([verb, str(path)]) == 1
    assert f"error ({error})" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_whole_float_counts_are_read_as_integers(tmp_path):
    raw = _tiny_ou_config(tmp_path)
    raw["run"].update(M=400.0, workers=1.0)
    raw["doob"]["tuning_batch"] = 200.0
    cfg = cli.ExperimentConfig.from_dict(raw)
    assert [type(cfg.run["M"]), type(cfg.run["workers"]),
            type(cfg.doob["tuning_batch"])] == [int, int, int]
    assert cfg.to_dict() == cli.ExperimentConfig.from_dict(
        _tiny_ou_config(tmp_path)).to_dict()


@pytest.mark.parametrize("model", ["ou1d", "advdiff"])
def test_empty_point_grid_is_a_config_error(tmp_path, capsys, model):
    raw = _tiny_ou_config(tmp_path)
    raw["points"] = {"kind": "grid", "box": [[-2.0, 2.0]], "counts": [0],
                     "T_traj": 1.0, "stride": 0.1, "seed": 3}
    if model == "advdiff":
        raw["model"] = {"name": "advdiff", "params": {"n_modes": 8}}
        raw["event"] = {"kind": "norm", "threshold": 0.5}
        raw["run"]["x0"] = None
        del raw["basis"], raw["gedmd"]
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and "point grid is empty" in err


@pytest.mark.parametrize("model", ["ou1d", "advdiff"])
@pytest.mark.parametrize("counts", [[2.5], [-1], 3])
def test_point_counts_are_checked_when_read(tmp_path, capsys, model, counts):
    """counts 2.5 would run a grid of 2 and -1 would stop in np.linspace,
    on the SDE grid and on the SPDE amplitudes alike."""
    raw = _tiny_ou_config(tmp_path)
    raw["points"] = {"kind": "grid", "box": [[-2.0, 2.0]], "counts": counts,
                     "T_traj": 1.0, "stride": 0.1, "seed": 3}
    if model == "advdiff":
        raw["model"] = {"name": "advdiff", "params": {"n_modes": 8}}
        raw["event"] = {"kind": "norm", "threshold": 0.5}
        raw["run"]["x0"] = None
        del raw["basis"], raw["gedmd"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and "points.counts" in err


def test_spde_run_writes_trajectories(tmp_path):
    """The SPDE ensemble reports output.trajectory_count rows like an SDE
    ensemble: 3 paths at t = 0 and every 10 of the 50 steps."""
    raw = _tiny_advdiff_config(tmp_path)
    raw["output"].update(trajectory_count=3, trajectory_stride=10)
    path = tmp_path / "advdiff.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 0
    with open(tmp_path / "out" / "trajectories.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path_index", "time"] + [f"x{i}" for i in range(1, 9)]
    assert [(int(r[0]), round(float(r[1]), 9)) for r in rows[1:]] == [
        (p, round(0.1 * k, 9)) for p in range(3) for k in range(6)]


_EVENT_DEFAULTS = {"sharpness": 3.0, "component": 0, "mode": "indicator"}
_GEDMD_DEFAULTS = {"validation_threshold": 0.04, "max_eigenfunctions": None}
_DOOB_DEFAULTS = {"multiplier_grid": [1, 2, 4, 6, 8, 16], "tuning_batch": 100}
_OUTPUT_DEFAULTS = {"histogram_bins": 50, "histogram_range": None,
                    "trajectory_stride": None, "trajectory_count": 0}
_RESOLVED = {
    "vdp_eigen_is": {
        "model": {"name": "vdp", "params": {"mu": 0.3, "eps": 0.01}},
        "event": {**_EVENT_DEFAULTS, "kind": "norm", "threshold": 2.7},
        "points": {"kind": "grid", "box": [[-4.0, 4.0], [-4.0, 4.0]],
                   "counts": [20, 20], "T_traj": 1.0, "stride": 0.1,
                   "seed": 11},
        "basis": {"family": "legendre_box", "degree": 10,
                  "box": [[-4.0, 4.0], [-4.0, 4.0]]},
        "gedmd": _GEDMD_DEFAULTS, "doob": _DOOB_DEFAULTS,
        "run": {"method": "is", "dt": 0.005, "workers": 1,
                "M": 2000, "T": 5.0, "x0": [2.0, 0.0], "master_seed": 1},
        "output": _OUTPUT_DEFAULTS},
    "brownian_osc_exact_is": {
        "model": {"name": "brownian_osc", "params": {}},
        "event": {**_EVENT_DEFAULTS, "kind": "abs_coordinate",
                  "threshold": 3.0},
        "points": {"kind": "gaussian", "mean": [0.0, 0.0],
                   "std": [1.5, 1.5], "count": 2000, "seed": 11},
        "basis": {"family": "linear_exact", "degree": 2},
        "gedmd": _GEDMD_DEFAULTS, "doob": _DOOB_DEFAULTS,
        "run": {"method": "is", "dt": 0.01, "workers": 1,
                "M": 4000, "T": 10.0, "x0": [0.0, 0.0], "master_seed": 1},
        "output": _OUTPUT_DEFAULTS},
    "advdiff_spde_is": {
        "model": {"name": "advdiff", "params": {"n_modes": 64}},
        "event": {**_EVENT_DEFAULTS, "kind": "norm", "threshold": 2.5},
        "points": {"kind": "grid", "box": [[-4.0, 4.0]], "counts": [9],
                   "T_traj": 2.0, "stride": 0.25, "dt": 0.005, "seed": 11},
        "doob": _DOOB_DEFAULTS,
        "run": {"method": "is", "dt": 0.001, "workers": 1,
                "M": 2000, "T": 1.0, "master_seed": 1},
        "output": _OUTPUT_DEFAULTS},
}
_BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


@pytest.mark.parametrize("workload", sorted(_RESOLVED))
def test_bench_workload_configs_resolve_to_pinned_dicts(workload):
    """Every default the reader fills in, and no other key: points.dt and
    run.x0 have none, so a null default would reach the stages."""
    cfg = cli.load_config(_BENCH_WORKLOADS / f"{workload}.json")
    assert cfg.to_dict() == _RESOLVED[workload]


def test_tiny_config_resolves_to_a_pinned_dict(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(_tiny_ou_config(tmp_path))
    assert cfg.to_dict() == {
        "model": {"name": "ou1d", "params": {}},
        "event": {**_EVENT_DEFAULTS, "kind": "coordinate", "threshold": 2.0},
        "points": {"kind": "gaussian", "mean": [0.0], "std": [2.0],
                   "count": 50, "seed": 8},
        "basis": {"family": "hermite", "degree": 1},
        "gedmd": _GEDMD_DEFAULTS,
        "doob": {"multiplier_grid": [1, 4], "tuning_batch": 200},
        "run": {"method": "is", "dt": 0.01, "workers": 1,
                "M": 400, "T": 1.0, "x0": [0.0], "master_seed": 77},
        "output": {"histogram_bins": 20, "histogram_range": [-4.0, 6.0],
                   "trajectory_stride": None, "trajectory_count": 0,
                   "directory": str(tmp_path / "out")}}


@pytest.mark.parametrize("key", ["trajectory_count", "trajectory_stride"])
def test_trajectory_keys_are_checked_when_read(tmp_path, key):
    """Not only in the path engine, after the set-up, the sweep and the
    final ensemble have run; a whole float is read as an int."""
    raw = _tiny_ou_config(tmp_path)
    for value in (2.5, -1, "a"):
        raw["output"][key] = value
        with pytest.raises(ConfigError, match=f"output.{key}"):
            cli.ExperimentConfig.from_dict(raw)
    raw["output"][key] = 10.0
    val = cli.ExperimentConfig.from_dict(raw).output[key]
    assert (val, type(val)) == (10, int)


@pytest.mark.parametrize("verb, method", [("run", "is"), ("run", "mc"),
                                          ("sweep-c", "is")])
def test_a_missing_x0_fails_before_any_stage(tmp_path, capsys, monkeypatch,
                                             verb, method):
    """A config without run.x0 once passed the config check and the whole
    controller set-up, and failed only in the sweep, with a ShapeError
    from the path engine.  Now ``run`` and ``sweep-c`` name run.x0 before
    any stage runs, and write nothing; ``export-eigen`` runs no path and
    does not read it."""
    raw = _tiny_ou_config(tmp_path, method=method)
    del raw["run"]["x0"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))

    def no_stage(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(cli, "prepare_controller", no_stage)
    assert cli.main([verb, str(path)]) == 1
    err = capsys.readouterr().err
    assert "error (ConfigError)" in err and "run.x0" in err
    assert not (tmp_path / "out").exists()
    monkeypatch.undo()
    assert cli.main(["export-eigen", str(path)]) == 0


@pytest.mark.parametrize("args", [
    ["brownian_osc", "--threshold", "-1"],
    ["nonnormal2d", "--threshold", "-0.5"],
    ["nonnormal2d", "--threshold", "nan"],
    ["ou1d", "--T", "-1"], ["ou1d", "--T", "nan"]])
def test_the_oracle_verb_refuses_what_it_cannot_answer(capsys, args):
    """A negative threshold of an abs_coordinate or norm event once printed
    an impossible rho (1.84, and 4.2e-3 for a certain event), and a
    negative or nan T, or a nan threshold, a traceback; each is now an
    InvalidParameterError and exit code 1."""
    assert cli.main(["oracle", *args]) == 1
    assert "error (InvalidParameterError)" in capsys.readouterr().err


@pytest.mark.parametrize("args, rho", [
    (["ou1d", "--T", "0", "--threshold", "0"], "0.000000e+00"),
    (["brownian_osc", "--T", "0", "--threshold", "0"], "0.000000e+00"),
    (["ou1d", "--T", "0", "--threshold", "-1"], "1.000000e+00"),
    (["nonnormal2d", "--T", "0", "--threshold", "0"], "0.000000e+00")])
def test_the_oracle_verb_answers_a_point_mass(capsys, args, rho):
    """At T = 0 the start (the origin) is in the strict event or not:
    ou1d and brownian_osc at threshold 0 printed rho = nan with a
    RuntimeWarning, and nonnormal2d printed 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["oracle", *args]) == 0
    assert f"rho = {rho}  (method point_mass)" in capsys.readouterr().out
