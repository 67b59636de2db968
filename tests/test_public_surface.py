"""The package's public surface resolves: no export names a missing object."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rigidflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(rigidflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"rigidflow.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [entry for entry in exported if not hasattr(module, entry)] == []


def test_every_package_import_exists():
    tree = ast.parse(Path(rigidflow.__file__).read_text(encoding="utf-8"))
    imports = [
        (node.module, alias)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imports
    for module, alias in imports:
        assert hasattr(importlib.import_module(f"rigidflow.{module}"), alias.name), (module, alias.name)
        assert hasattr(rigidflow, alias.asname or alias.name)
