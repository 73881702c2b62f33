"""The benchmark's layer trace patches named callables of the package.

``bench/layertrace.py`` resolves every patch point through the owner's own
``__dict__`` and checks before each untraced benchmark run that no wrapper
is left installed.  Moving one of those callables (for example into a base
class) or unbinding an imported name therefore breaks every benchmark run;
these tests make that show up in the test suite.
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
