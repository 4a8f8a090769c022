"""The package's export lists, what importing it loads, and the input
checks of its entry points."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optlab
from optlab import lsq, oracle, training, tune
from optlab.optim import MethodKind, OptimizerSpec

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


@pytest.mark.parametrize("module", MODULES)
def test_every_export_has_a_user_elsewhere(module):
    # An exported name that no other file names is API without a caller.
    own = (PACKAGE_DIR / f"{module}.py").resolve()
    texts = [p.read_text(encoding="utf-8") for d in (PACKAGE_DIR, ROOT / "tests", ROOT / "bench")
             for p in sorted(d.rglob("*.py")) if p.resolve() != own]
    unused = [name for name in importlib.import_module(f"optlab.{module}").__all__
              if not any(re.search(rf"\b{name}\b", text) for text in texts)]
    assert unused == []


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
    (lambda: lsq.test_scores(np.zeros(2), np.ones(5)), "at least 3 coordinates"),
    (lambda: oracle.verify_lemma_trajectory([], _DS), "empty trajectory"),
], ids=["generate_n0", "spec_g_init", "grid_center", "grid_empty", "lockstep_iters",
        "label_shape", "test_scores_dim", "lemma_empty"])
def test_input_checks_raise_their_stated_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
