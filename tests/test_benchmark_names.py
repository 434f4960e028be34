"""The library names that the benchmark harness reaches by name.

`perfbench/tracer.py` wraps the functions of its LAYERS table, and
`perfbench/worker.py` calls the library through `sl.<name>`, through the
package modules it imports, and through `from scattered_lab.<module> import
<name>`.  Both files are read here by path, so a library change that drops
one of these names fails here and not only in the traced benchmark runs.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def tracer_layers():
    """The (module, attribute) pairs of the tracer's LAYERS table."""
    for node in _tree("tracer.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return [(module, attr) for module, attr, _, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def worker_names():
    """The (module, attribute) pairs that perfbench/worker.py reads: every
    `from scattered_lab[.<module>] import <name>`, and every attribute of
    `sl` (the package) or of a package module imported by name."""
    tree = _tree("worker.py")
    names, modules = set(), {"sl": "scattered_lab"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scattered_lab"):
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "scattered_lab":
                    modules[alias.asname or alias.name] = f"scattered_lab.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


def _resolves(module, attr):
    """Does `from <module> import <attr>` succeed: an attribute of the
    module, or else a submodule of that name?"""
    if hasattr(importlib.import_module(module), attr):
        return True
    try:
        importlib.import_module(f"{module}.{attr}")
    except ModuleNotFoundError:
        return False
    return True


def test_tracer_layers_resolve():
    # as Tracer.install resolves them: methods from the class's own __dict__
    layers = tracer_layers()
    missing = []
    for module, attr in layers:
        mod = importlib.import_module(f"scattered_lab.{module}")
        owner, _, meth = attr.rpartition(".")
        try:
            if owner:
                getattr(mod, owner).__dict__[meth]
            else:
                getattr(mod, attr)
        except (AttributeError, KeyError):
            missing.append(f"{module}.{attr}")
    assert not missing, f"perfbench/tracer.py wraps names the library lacks: {missing}"
    assert ("stabilizer", "Mat2.__mul__") in layers and len(layers) > 20


def test_worker_names_resolve():
    names = worker_names()
    missing = sorted(f"{module}.{attr}" for module, attr in names if not _resolves(module, attr))
    assert not missing, f"perfbench/worker.py calls names the library lacks: {missing}"
    assert {("scattered_lab", "verify_spread_axioms"), ("scattered_lab", "cli"),
            ("scattered_lab.cli", "main"),
            ("scattered_lab.standard_form", "image_polynomial"),
            ("scattered_lab.field_tower", "make_field")} <= names
