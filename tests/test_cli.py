import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from koopmanis import cli
from koopmanis.errors import ConfigError


def _tiny_ou_config(tmp_path, method="is", seed=77):
    return {
        "model": {"name": "ou1d", "params": {}},
        "event": {"kind": "coordinate", "component": 0, "threshold": 2.0,
                  "sharpness": 3.0, "mode": "indicator"},
        "points": {"kind": "gaussian", "mean": [0.0], "std": [2.0],
                   "count": 50, "seed": 8},
        "basis": {"family": "hermite", "degree": 1},
        "gedmd": {"validation_threshold": 0.04},
        "doob": {"multiplier_grid": [1, 4], "tuning_batch": 200,
                 "target_fraction": 0.5, "offset": 0.0},
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
                                        ("dob", None)])
def test_unknown_config_key_is_a_config_error(tmp_path, capsys, block, key):
    """A misspelt or removed key, or an unknown block, stops the run
    instead of being ignored."""
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
                         [("dt", 0, "InvalidParameterError"),
                          ("dt", -1e-2, "InvalidParameterError"),
                          ("workers", 0, "ConfigError"),
                          ("workers", -2, "ConfigError")])
def test_bad_run_parameters_are_typed_errors(tmp_path, capsys, key, value,
                                             error):
    raw = _tiny_ou_config(tmp_path)
    raw["run"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1
    assert f"error ({error})" in capsys.readouterr().err


def test_spde_run_writes_trajectories(tmp_path):
    """The SPDE ensemble reports output.trajectory_count rows like an SDE
    ensemble: 3 paths at t = 0 and every 10 of the 50 steps."""
    raw = {
        "model": {"name": "advdiff", "params": {"n_modes": 8}},
        "event": {"kind": "norm", "threshold": 0.5},
        "points": {"box": [[-2.0, 2.0]], "counts": [5], "T_traj": 1.0,
                   "stride": 0.25, "dt": 0.01, "seed": 11},
        "doob": {"multiplier_grid": [1, 4]},
        "run": {"M": 50, "T": 0.5, "dt": 0.01, "master_seed": 1},
        "output": {"directory": str(tmp_path / "out"),
                   "trajectory_count": 3, "trajectory_stride": 10},
    }
    path = tmp_path / "advdiff.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 0
    with open(tmp_path / "out" / "trajectories.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path_index", "time"] + [f"x{i}" for i in range(1, 9)]
    assert [(int(r[0]), round(float(r[1]), 9)) for r in rows[1:]] == [
        (p, round(0.1 * k, 9)) for p in range(3) for k in range(6)]
