"""Every name the package exports resolves: each module's `__all__`, and
every name `phasecomm/__init__.py` imports from its modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import phasecomm

MODULES = sorted(info.name for info in pkgutil.iter_modules(phasecomm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"phasecomm.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"phasecomm.{name}.__all__ names {missing}"


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(phasecomm.__file__).read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name, bound in imports
        if not hasattr(importlib.import_module(f"phasecomm.{module}"), name) or not hasattr(phasecomm, bound)
    ]
    assert not missing, missing
