"""The package's export lists, what importing it loads, README's layout of
it, and the input checks of its entry points (and of the tests' lemma
reference)."""

import ast
import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optlab
from optlab import lsq, training, tune
from optlab.optim import MethodKind, OptimizerSpec
from reference import verify_lemma_trajectory

PACKAGE_DIR = Path(optlab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")
ROOT = Path(__file__).resolve().parent.parent


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


def _names_used_by_the_program() -> set[str]:
    """Every name that code in the package or in `scripts/` refers to: an
    AST `Name`, an `Attribute` or an imported name.  Strings (docstrings and
    `__all__` entries among them) and definitions do not count."""
    used = set()
    for path in sorted([*PACKAGE_DIR.glob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_export_has_a_user_elsewhere(module):
    # An exported name that no command or script uses is API without a
    # caller: the tests keep their references to themselves.
    exported = set(importlib.import_module(f"optlab.{module}").__all__)
    assert sorted(exported - _names_used_by_the_program()) == []


def test_readme_layout_names_every_module_and_script():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = text.split("## Layout", 1)[1].split("```")[1]
    files = [*(p.name for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"),
             *(f"scripts/{p.name}" for p in (ROOT / "scripts").glob("*.py"))]
    assert sorted(f for f in files if not re.search(rf"(^|\s){re.escape(f)}\s", layout)) == []


def test_json_files_have_one_writer():
    # Every JSON file goes through `lsq.write_json` (or `lsq.save_dataset`);
    # `json.dumps` in an error message is fine.
    calls = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE_DIR.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "dump"]
    assert calls == []


_DS = lsq.generate_synthetic(4, 0.75, seed=1)
_SGD = OptimizerSpec(method=MethodKind.SGD, alpha=0.1)


@pytest.mark.parametrize("call, message", [
    (lambda: lsq.generate_synthetic(0, 0.75, 1), "n must be at least 1"),
    (lambda: OptimizerSpec(method=MethodKind.SGD, alpha=0.1, g_init=-1.0),
     "g_init must be nonnegative"),
    (lambda: tune.make_log_grid(0, 2), "center must be positive"),
    (lambda: tune.Grid(values=(), ratio=2.0), "grid must not be empty"),
    (lambda: training.run_lockstep(_DS, _SGD, [0.1], -1), "iters must be nonnegative"),
    (lambda: lsq.Dataset(n=2, d=3, rows=((), ()), y=np.ones(3)),
     r"labels must have shape \(2,\)"),
    (lambda: lsq.error_rates(np.zeros((1, 2)), [[1, 0]]), "at least 3 coordinates"),
    (lambda: verify_lemma_trajectory([], _DS), "empty trajectory"),
    (lambda: tune.make_log_grid(math.inf, 2), "center must be finite, got inf"),
    (lambda: tune.make_log_grid(0.5, math.inf), "ratio must be finite, got inf"),
], ids=["generate_n0", "spec_g_init", "grid_center", "grid_empty", "lockstep_iters",
        "label_shape", "test_scores_dim", "lemma_empty", "grid_center_inf", "grid_ratio_inf"])
def test_input_checks_raise_their_stated_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
