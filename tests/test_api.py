"""The package surface: each module lists its public names in its own
``__all__``, and ``rooklab.__all__`` is their concatenation."""

import ast
import importlib
import inspect
import pkgutil
import types

import pytest

import rooklab

MODULES = [
    module
    for module in (importlib.import_module(f"rooklab.{info.name}") for info in pkgutil.iter_modules(rooklab.__path__))
    if hasattr(module, "__all__")
]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rooklab import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(rooklab.__all__)


def test_all_has_no_duplicates():
    assert len(set(rooklab.__all__)) == len(rooklab.__all__)


def test_all_is_the_modules_lists_and_every_public_name_but_the_modules():
    assert sorted(rooklab.__all__) == sorted(name for module in MODULES for name in module.__all__)
    public = {n for n, v in vars(rooklab).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(rooklab.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_all_names_are_defined_in_the_module(module):
    defined = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert set(module.__all__) <= defined - {"__all__"}
