"""Tests of the benchmark's own code: metric formulas, self-time
arithmetic, and that tracing wrappers change nothing and are removed."""

import math

import numpy as np
import pytest

import harness
import layertrace
from koopmanis import basis, cli, estimator, paths
from layertrace import Patches, Tracer, installed_wrappers


def test_time_to_accuracy_hand_built():
    # rel 2 per sample needs (2 / 0.1)^2 = 400 paths at 0.5 s / 1000 paths
    assert harness.time_to_accuracy(1.0, 3.0, 2.0, 0.5, 1000) == \
        pytest.approx(1.0 + 3.0 + 400 * 0.5e-3)


def test_speedup_vs_mc_hand_built():
    # MC: (1 - 0.01) / 0.01 = 99 per sample at 1 ms per path -> 0.099;
    # IS: rel 3 per sample (9) at 2 ms per path -> 0.018
    assert harness.speedup_vs_mc(0.01, 1e-3, 3.0, 2e-3) == \
        pytest.approx(0.099 / 0.018)


def test_speedup_is_one_for_plain_mc_against_itself():
    rho = 0.2
    rel = math.sqrt((1 - rho) / rho)
    assert harness.speedup_vs_mc(rho, 4e-4, rel, 4e-4) == pytest.approx(1.0)


def test_ess_fraction():
    assert harness.ess_fraction(np.zeros(8)) == pytest.approx(1.0)
    # one weight dominating: ESS -> 1 path of 4, overflow-free
    assert harness.ess_fraction(np.array([800.0, 0.0, 0.0, 0.0])) == \
        pytest.approx(0.25)


def test_scaled_setup_cancels_a_uniform_slowdown():
    setups, refs = [0.02, 0.03, 0.01], [0.2, 0.3, 0.1]
    assert harness.scaled_setup_s(setups, refs) == \
        pytest.approx(0.1 * harness.REF_SECONDS)
    slower = [1.4 * s for s in setups], [1.4 * r for r in refs]
    assert harness.scaled_setup_s(*slower) == \
        pytest.approx(harness.scaled_setup_s(setups, refs))


def test_error_in_setup_is_a_failed_run(monkeypatch):
    from koopmanis.errors import KoopmanisError

    def fail(cfg):
        raise KoopmanisError("no controller")

    monkeypatch.setattr(cli, "prepare_controller", fail)
    out = harness.run("brownian_osc_exact_is", 0, 5.0, trace=False)
    M = harness.load_workload("brownian_osc_exact_is", 0).run["M"]
    assert out["correct"] is False
    assert out["attempted"] == out["failed"] == M
    assert "no controller" in out["failures"][0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_arithmetic():
    clock = FakeClock()
    tr = Tracer(clock)
    root = tr.enter("estimator.run_ensemble")      # 0 .. 10
    clock.now = 1.0
    engine = tr.enter("paths.run_paths")           # 1 .. 9
    for start in (2.0, 5.0):                       # two 2 s bias calls
        clock.now = start
        bias = tr.enter("doob.bias_batch")
        clock.now = start + 0.5
        jet = tr.enter("basis.values_and_grads")   # 1.5 s of each bias call
        clock.now = start + 2.0
        tr.exit(jet)
        tr.exit(bias)
    clock.now = 9.0
    tr.exit(engine)
    clock.now = 10.0
    tr.exit(root)

    assert tr.total("ensemble", "estimator.run_ensemble") == 10.0
    assert tr.self_time("ensemble", "estimator.run_ensemble") == 2.0
    assert tr.self_time("ensemble", "paths.run_paths") == 4.0
    assert tr.calls("ensemble", "doob.bias_batch") == 2
    assert tr.total("ensemble", "doob.bias_batch") == 4.0
    assert tr.self_time("ensemble", "doob.bias_batch") == 1.0
    assert tr.self_time("ensemble", "basis.values_and_grads") == 3.0
    assert tr.phase_self_sum("ensemble") == 10.0


def test_nested_ensembles_belong_to_the_sweep():
    clock = FakeClock()
    tr = Tracer(clock)
    sweep = tr.enter("doob.tune_multiplier")
    clock.now = 1.0
    inner = tr.enter("estimator.run_ensemble")
    clock.now = 3.0
    tr.exit(inner)
    tr.exit(sweep)
    final = tr.enter("estimator.run_ensemble")
    clock.now = 7.0
    tr.exit(final)
    assert tr.total("tune", "estimator.run_ensemble") == 2.0
    assert tr.total("ensemble", "estimator.run_ensemble") == 4.0
    assert tr.total("tune", "doob.tune_multiplier") == 3.0


def _originals():
    out = {}
    for module, attr in layertrace.patch_points():
        owner, leaf = layertrace._resolve(module, attr)
        out[(module, attr)] = owner.__dict__[leaf]
    return out


@pytest.mark.parametrize("layers", [False, True])
def test_wrappers_are_restored(layers):
    before = _originals()
    with Patches(Tracer(), layers=layers):
        assert installed_wrappers()
        assert estimator.run_ensemble is not before[("estimator",
                                                     "run_ensemble")]
    assert installed_wrappers() == []
    after = _originals()
    assert all(after[k] is before[k] for k in before)
    assert basis.BasisSet.values_and_grads is \
        before[("basis", "BasisSet.values_and_grads")]
    assert paths.derive_path_rng is before[("paths", "derive_path_rng")]


def test_wrappers_are_restored_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Patches(Tracer()):
            raise RuntimeError("boom")
    assert installed_wrappers() == []
    assert all(_originals()[k] is before[k] for k in before)


def test_failed_install_restores_what_it_patched(monkeypatch):
    before = _originals()
    monkeypatch.setattr(layertrace, "RNG_BINDINGS", ["paths", "no_such"])
    with pytest.raises(ModuleNotFoundError):
        with Patches(Tracer()):
            pass
    monkeypatch.undo()
    assert installed_wrappers() == []
    assert all(_originals()[k] is before[k] for k in before)


def test_timed_generator_draws_the_same_stream():
    tr = Tracer()
    proxy = layertrace.TimedGenerator(paths.derive_path_rng(5, 3), tr)
    plain = paths.derive_path_rng(5, 3)
    assert np.array_equal(proxy.standard_normal((4, 2)),
                          plain.standard_normal((4, 2)))
    assert tr.calls(None, "paths.noise") == 1


def _tiny_config(model, points, basis_block, x0):
    return cli.ExperimentConfig.from_dict({
        "model": {"name": model},
        "event": {"kind": "coordinate", "threshold": 2.0},
        "points": points, "basis": basis_block,
        "gedmd": {}, "doob": {"multiplier_grid": [1, 4],
                              "tuning_batch": 60},
        "run": {"M": 200, "T": 1.0, "dt": 2e-2, "x0": x0,
                "master_seed": 7},
        "output": {},
    })


def test_traced_pipeline_is_bit_identical_and_attributed():
    cfg = _tiny_config("ou1d", {"kind": "gaussian", "mean": [0.0],
                                "std": [2.0], "count": 50, "seed": 8},
                       {"family": "hermite", "degree": 2}, [0.0])
    plain = harness.pipeline_rep(cfg, layers=False)
    traced = harness.pipeline_rep(cfg, layers=True)
    assert installed_wrappers() == []
    a, b = plain.state.report, traced.state.report
    assert a.estimate.hex() == b.estimate.hex()
    assert a.sample_variance.hex() == b.sample_variance.hex()
    tr = traced.tracer
    K = a.ensemble.K
    assert tr.calls("ensemble", "doob.bias_batch") == K
    assert tr.calls("tune", "estimator.run_ensemble") == 2
    assert tr.calls("ensemble", "paths.noise") == 200
    assert tr.calls("setup", "gedmd.points") == 1
    assert tr.phase_self_sum("ensemble") == \
        pytest.approx(traced.ensemble_s, rel=1e-9)
    metrics = harness.layer_metrics(traced, cfg)
    assert set(metrics) | {"doob.tune_path_steps_per_s", "paths.hit_frac",
                           "estimator.mc_path_steps_per_s",
                           "estimator.rel_err_per_sample",
                           "estimator.ess_frac", "trace.overhead"} \
        == set(harness.PER_LAYER_UNITS)


def test_workload_seed_offsets_every_seed():
    base = harness.load_workload("vdp_eigen_is", 0)
    moved = harness.load_workload("vdp_eigen_is", 3)
    assert moved.run["master_seed"] == base.run["master_seed"] + 3
    assert moved.points["seed"] == base.points["seed"] + 6
    assert cli._tuning_seed(moved) != cli._tuning_seed(base)


def test_committed_workloads_load():
    for name in harness.WORKLOADS:
        cfg = cli.load_config(harness.WORKLOAD_DIR / f"{name}.json")
        assert cfg.run["workers"] == 1
        assert cfg.run["method"] == "is"

