"""The names the benchmark's traced run resolves still exist.

``perfbench/layers.py`` looks up layer functions and classes by
``(module, name)`` and wraps class methods by name; a name that moved
or was renamed does not fail the run — its metrics silently go
missing.  This test reads ``layers.py`` (parsed, never executed or
imported, so nothing is written next to it) and resolves every such
name against ``src/``.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / \
    "layers.py"


@pytest.fixture(scope="module")
def layers():
    return ast.parse(LAYERS_PATH.read_text(), str(LAYERS_PATH))


def constant(tree, name):
    """The literal value of the module-level assignment to ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"layers.py no longer defines {name}")


def resolve(module, name):
    value = getattr(importlib.import_module(module), name, None)
    assert value is not None, f"{module}.{name} is missing"
    return value


def resolve_calls(tree):
    """``(module, name)`` of every ``resolve("module", "name")`` call."""
    targets = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "resolve"
                and len(node.args) == 2
                and all(isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        for arg in node.args)):
            targets.append(tuple(arg.value for arg in node.args))
    return targets


def test_pass_sequence_resolves(layers):
    passes = constant(layers, "PASSES")
    assert passes
    for module, name in passes:
        assert callable(resolve(module, name))


def test_wrapped_methods_are_in_their_class_dict(layers):
    wrapped = constant(layers, "WRAPPED")
    assert wrapped
    for module, cls, attr, _span in wrapped:
        owner = resolve(module, cls)
        assert attr in owner.__dict__, f"{cls}.{attr} is not defined there"


def test_layer_functions_resolve(layers):
    classes = [node for node in layers.body
               if isinstance(node, ast.ClassDef) and node.name == "Layers"]
    assert classes, "layers.py no longer defines Layers"
    in_layers = resolve_calls(classes[0])
    assert ("repro.idioms", "find_reductions") in in_layers
    for module, name in resolve_calls(layers):
        resolve(module, name)


def test_lazy_analyses_exist(layers):
    context = resolve("repro.constraints", "SolverContext")
    analyses = constant(layers, "LAZY_ANALYSES")
    assert analyses
    for attr in analyses:
        assert hasattr(context, attr), f"SolverContext.{attr} is missing"
