"""Outside-in layer tracing for the benchmark.

Timed wrappers are patched over the public callables of the ``koopmanis``
modules and removed again afterwards; nothing under ``src/`` is edited.
Each wrapped call is a span.  Spans are aggregated in memory by
(phase, parent span, span name) into call counts, inclusive time and self
time, where self time is the span's duration minus the durations of the
spans it directly contains.  The phase is the pipeline stage a span runs
under: ``setup`` (``cli.prepare_controller``), ``tune``
(``doob.tune_multiplier``, including the ensembles it runs) or
``ensemble`` (the final ``estimator.run_ensemble``).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

STAGES = {
    "cli.prepare_controller": "setup",
    "doob.tune_multiplier": "tune",
    "estimator.run_ensemble": "ensemble",
}

# (module, attribute, span name).  The attribute is looked up on the module
# the pipeline calls through: ``estimator`` imported ``run_paths`` by name,
# so the engine is patched there, while ``cli`` calls ``gedmd.*`` and
# ``doob.*`` through the module objects.
STAGE_CALLABLES = [
    ("cli", "prepare_controller", "cli.prepare_controller"),
    ("doob", "tune_multiplier", "doob.tune_multiplier"),
    ("estimator", "run_ensemble", "estimator.run_ensemble"),
]
LAYER_CALLABLES = STAGE_CALLABLES + [
    ("gedmd", "generate_test_points", "gedmd.points"),
    ("gedmd", "sample_gaussian_points", "gedmd.points"),
    ("gedmd", "assemble_matrices", "gedmd.assemble"),
    ("gedmd", "koopman_matrix", "gedmd.koopman_matrix"),
    ("gedmd", "exact_koopman_matrix", "gedmd.koopman_matrix"),
    ("gedmd", "eigenpairs", "gedmd.eigenpairs"),
    ("gedmd", "validate_eigenpairs", "gedmd.validate"),
    ("doob", "build_controller", "doob.fit"),
    ("doob", "DoobController.bias_batch", "doob.bias_batch"),
    ("spde", "SpdeController.bias_batch", "spde.bias_batch"),
    ("basis", "BasisSet.values_and_grads", "basis.values_and_grads"),
    ("estimator", "run_paths", "paths.run_paths"),
    ("estimator", "run_spde_paths", "spde.run_spde_paths"),
]
# every binding of derive_path_rng the engines and point generators use;
# the returned generators are proxied so each draw is a "paths.noise" span
RNG_BINDINGS = ["paths", "spde", "gedmd"]
# models are built by cli; their drift callable becomes a "model.drift" span
MODEL_FACTORY = ("cli", "make_builtin_model")

_MARK = "_layertrace_span"


class Tracer:
    """In-memory span aggregator with a call stack for self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []   # frames [name, phase, start, child_time]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.last = {}    # span name -> value its latest call returned

    def enter(self, name):
        phase = self.stack[-1][1] if self.stack else None
        frame = [name, phase or STAGES.get(name), self.clock(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        dur = self.clock() - frame[2]
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        rec = self.spans[(frame[1], parent[0] if parent else None, frame[0])]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[3]
        if parent is not None:
            parent[3] += dur

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            tracer.last[name] = result
            return result

        setattr(traced, _MARK, name)
        return traced

    def _select(self, phase, name, parent, field):
        return sum(rec[field] for (ph, par, nm), rec in self.spans.items()
                   if ph == phase and nm == name
                   and (parent is None or par == parent))

    def calls(self, phase, name, parent=None):
        return self._select(phase, name, parent, 0)

    def total(self, phase, name, parent=None):
        """Inclusive seconds of a span; ``parent`` restricts to one caller."""
        return self._select(phase, name, parent, 1)

    def self_time(self, phase, name, parent=None):
        return self._select(phase, name, parent, 2)

    def phase_self_sum(self, phase):
        return sum(rec[2] for (ph, _, _), rec in self.spans.items()
                   if ph == phase)


class TimedGenerator:
    """Proxy for a numpy Generator that times each ``standard_normal`` draw."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        frame = self._tracer.enter("paths.noise")
        try:
            return self._gen.standard_normal(*args, **kwargs)
        finally:
            self._tracer.exit(frame)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _resolve(module, attr):
    owner = importlib.import_module(f"koopmanis.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Patches:
    """Installs wrappers on entry and restores every original on exit."""

    def __init__(self, tracer, layers=True):
        self.tracer = tracer
        self.layers = layers
        self.saved = []   # (owner, attribute, original)

    def _patch(self, owner, leaf, replacement):
        self.saved.append((owner, leaf, owner.__dict__[leaf]))
        setattr(owner, leaf, replacement)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        table = LAYER_CALLABLES if self.layers else STAGE_CALLABLES
        for module, attr, name in table:
            owner, leaf = _resolve(module, attr)
            self._patch(owner, leaf, self.tracer.wrap(name, getattr(owner, leaf)))
        if self.layers:
            tracer = self.tracer
            for module in RNG_BINDINGS:
                owner, leaf = _resolve(module, "derive_path_rng")
                derive = getattr(owner, leaf)

                def timed_rng(*args, _derive=derive, **kwargs):
                    return TimedGenerator(_derive(*args, **kwargs), tracer)

                setattr(timed_rng, _MARK, "paths.derive_path_rng")
                self._patch(owner, leaf, timed_rng)
            owner, leaf = _resolve(*MODEL_FACTORY)
            make_model = getattr(owner, leaf)

            def traced_model(*args, **kwargs):
                model = make_model(*args, **kwargs)
                model.drift = tracer.wrap("model.drift", model.drift)
                return model

            setattr(traced_model, _MARK, "model")
            self._patch(owner, leaf, traced_model)

    def __exit__(self, *exc):
        while self.saved:
            owner, leaf, original = self.saved.pop()
            setattr(owner, leaf, original)
        return False


def patch_points():
    """(module, attribute) of every callable a full-layer install wraps."""
    points = [(m, a) for m, a, _ in LAYER_CALLABLES]
    points += [(m, "derive_path_rng") for m in RNG_BINDINGS]
    points.append(MODEL_FACTORY)
    return points


def installed_wrappers():
    """Names of every patch point that currently holds a wrapper."""
    found = []
    for module, attr in patch_points():
        owner, leaf = _resolve(module, attr)
        if hasattr(owner.__dict__[leaf], _MARK):
            found.append(f"{module}.{attr}")
    return found
