"""The package's export lists and what importing it loads."""

import importlib
import os
import subprocess
import sys
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


def test_import_loads_no_scipy():
    # The design's products are numpy folds; importing scipy.sparse for them
    # used to make up most of every command's start-up time and memory.
    path = os.pathsep.join(p for p in (str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")) if p)
    code = "import sys, optlab.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
