import csv
import json
import math

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
    w2 = cli.run_experiment(cfg)
    with open(w2["results"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[-1] == first == rows[-2]
    # every non-appending output byte-identical under rerun
    h1 = w1["histogram"].read_bytes()
    assert h1 == w2["histogram"].read_bytes()


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


def test_cli_oracle_verb(capsys):
    assert cli.main(["oracle", "ou1d", "--T", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "1.57" in out  # 1.5745e-2
    # the oracle gives the indicator probability, with or without a
    # threshold override of the (mollified) default event
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
