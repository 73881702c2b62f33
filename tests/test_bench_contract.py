"""The benchmark's layer trace patches named callables of the package.

``bench/layertrace.py`` resolves every patch point through the owner's own
``__dict__`` and checks before each untraced benchmark run that no wrapper
is left installed.  Moving one of those callables (for example into a base
class) or unbinding an imported name therefore breaks every benchmark run;
these tests make that show up in the test suite.

Three of those names exist only for the trace, and the package never calls
them: ``estimator.run_spde_paths`` (a second binding of ``paths.run_paths``),
``spde.SpdeController`` (a ``doob.DoobController`` subclass with its own
``bias_batch`` binding, of which the package makes no instance) and
``spde.derive_path_rng``.  The spans of the first two read zero: advdiff's
engine and bias time fall under ``paths.run_paths`` and
``doob.bias_batch`` like every model's.  ROADMAP item 5 deletes them together with the trace.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_wrapper_installed_at_rest(layertrace):
    assert layertrace.installed_wrappers() == []


def test_patches_install_every_wrapper_and_restore_originals(layertrace):
    points = layertrace.patch_points()
    originals = {}
    for module, attr in points:
        owner, leaf = layertrace._resolve(module, attr)
        originals[(module, attr)] = owner.__dict__[leaf]
    with layertrace.Patches(layertrace.Tracer()):
        installed = layertrace.installed_wrappers()
    assert sorted(installed) == sorted(f"{m}.{a}" for m, a in points)
    assert layertrace.installed_wrappers() == []
    for (module, attr), original in originals.items():
        owner, leaf = layertrace._resolve(module, attr)
        assert owner.__dict__[leaf] is original
