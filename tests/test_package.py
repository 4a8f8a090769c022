"""The package's export lists: every entry of each module's `__all__` exists."""

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

