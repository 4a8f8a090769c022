"""Smoke tests of the benchmark: every workload at reduced size on seeds 1 and 2.

Every workload `run.py` knows is run, including `tune_dev_decay`, which
BENCHMARK.json leaves out of the measured set.

    python3 -m pytest bench/tests -q

Each run must pass all of its output checks and print exactly the metric
names, with their units, that BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))

from tracer import Tracer, stop_reason  # noqa: E402
from workloads import WORKLOADS, distinct_iterations  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_checks_and_emits_every_metric(workload, seed):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                         "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
        values = [m["value"] for m in result["metrics"].values()]
        assert all(isinstance(v, (int, float)) for v in values)
        if kind == "end_to_end":
            assert all(v > 0 for v in values)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(tmp_path, "--workload", "paper_default", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_distinct_iterations_counts_shared_step_sizes_once():
    trials = [
        {"alpha0": 0.5, "best_dev": None, "iterations": 10},
        {"alpha0": 0.5, "best_dev": None, "iterations": 10},
        {"alpha0": 0.25, "best_dev": None, "iterations": 7},
        {"alpha0": 0.5, "best_dev": 0.1, "iterations": 3},
        {"alpha0": 0.5, "best_dev": 0.2, "iterations": 4},
    ]
    assert distinct_iterations(trials) == 10 + 7 + 3 + 4


def test_stop_reason_buckets():
    assert stop_reason("ok", True, 5, 100) == "converged"
    assert stop_reason("ok", False, 100, 100) == "budget_exhausted"
    assert stop_reason("diverged", False, 3, 100) == "diverged"
    assert stop_reason("singular_preconditioner", False, 1, 100) == "singular_preconditioner"


def test_tracer_reports_missing_names_as_absent():
    tracer = Tracer()
    tracer.install(traced=(("json", "no_such_function", "json.missing", False),
                           ("no_such_module_xyz", "f", "missing.module", True)))
    assert tracer.absent == ["json.no_such_function", "no_such_module_xyz.f"]
    metrics = tracer.metrics(timed_start=0.0, wall_s=1.0, bytes_written=0)
    assert metrics["optim.step.calls"] == 0
    assert metrics["trace.unattributed_s"] == 1.0


def test_tracer_records_self_time_and_parents():
    import types

    module = types.ModuleType("fake_layer")
    module.inner = lambda: sum(range(1000))
    module.outer = lambda: module.inner() + module.inner()
    sys.modules["fake_layer"] = module
    try:
        tracer = Tracer()
        tracer.install(traced=(("fake_layer", "outer", "fake.outer", False),
                               ("fake_layer", "inner", "fake.inner", True)))
        module.outer()
        tracer.uninstall()
    finally:
        del sys.modules["fake_layer"]
    calls, seconds, self_seconds = tracer.totals("fake.inner", parent="fake.outer")
    outer_calls, outer_s, outer_self = tracer.totals("fake.outer", parent=None)
    assert (calls, outer_calls) == (2, 1)
    assert outer_self == pytest.approx(outer_s - seconds)
    assert self_seconds == seconds
    assert [span[1] for span in tracer.spans] == ["fake.outer"]
    assert module.outer.__name__ == "<lambda>"  # uninstall restored the original
