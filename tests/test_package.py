"""The package's export lists: every entry exists, and the package imports
only exported names."""

import ast
import importlib
from pathlib import Path

import pytest

import optlab

PACKAGE_DIR = Path(optlab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from optlab.{module} import *", namespace)  # a stale __all__ entry raises here
    assert set(importlib.import_module(f"optlab.{module}").__all__) <= set(namespace)


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        assert name in importlib.import_module(f"optlab.{module}").__all__, (module, name)
