"""The package holds only code the pipeline runs.

Every module-level function and class in ``src/koopmanis`` must be
referenced somewhere in the package other than its own definition, or be
exported through ``koopmanis.__all__``.  A helper only the tests use
belongs in ``tests/reference.py``, and a helper nothing uses should be
deleted.  Every config key the CLI accepts must be read by the package.
"""

import ast
from pathlib import Path

import koopmanis
from koopmanis import cli

SRC = Path(koopmanis.__file__).resolve().parent


def _trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _references(tree):
    """Names a module uses: bare names and attribute names."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def _unused(kinds):
    """Module-level definitions of the given node kinds that nothing in
    the package uses and ``__all__`` does not export, as module.name."""
    trees = _trees()
    refs = {name: _references(tree) for name, tree in trees.items()}
    exported = set(koopmanis.__all__)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            name = node.name
            if name in exported:
                continue
            # a definition's own body does not count as a use of it
            rest = ast.Module(body=[n for n in tree.body if n is not node],
                              type_ignores=[])
            if name not in _references(rest) and not any(
                    name in r for m, r in refs.items() if m != module):
                unused.append(f"{module}.{name}")
    return unused


def test_every_module_function_is_used_or_exported():
    unused = _unused((ast.FunctionDef, ast.AsyncFunctionDef))
    assert unused == [], f"unused module-level functions: {unused}"


def test_every_module_class_is_used_or_exported():
    unused = _unused(ast.ClassDef)
    assert unused == [], f"unused module-level classes: {unused}"


def _read_keys():
    """String keys the package reads: ``d["key"]`` and ``d.get("key")``."""
    keys = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript):
                key = node.slice
            elif isinstance(node, ast.Call) and node.args \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get":
                key = node.args[0]
            else:
                continue
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
    return keys


def test_every_config_default_is_read():
    read = _read_keys()
    unread = [f"{blk}.{key}" for blk, rows in cli._CONFIG.items()
              for key, row in rows.items()
              if row.default is not cli._NO_DEFAULT and key not in read]
    assert unread == [], f"config defaults nothing reads: {unread}"


def test_every_accepted_config_key_is_read():
    read = _read_keys()
    unread = [f"{blk}.{key}" for blk, rows in cli._CONFIG.items()
              for key in rows if key not in read]
    assert unread == [], f"accepted config keys nothing reads: {unread}"
