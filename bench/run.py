"""optlab benchmark: one workload, repeated in a few processes, one JSON result.

    python3 bench/run.py --workload paper_default --seed 1 --seconds 60 --trace 0

Run from the repository root.  With `--trace 0` a run starts six fresh
`worker.py` processes one after the other, each with one BLAS thread and an
equal share of `--seconds`; each sets the workload up once and repeats its
timed phase until its share is spent.  The run reports the median set-up
time and the timed phase as each CLI call's fastest time among all
repetitions, summed: on a shared host the same call's time swings by half
from one second to the next, and a call's fastest repetition is the least
disturbed measurement of it.  With `--trace 1` it runs one untraced process
for half of `--seconds` and then one traced repetition, and prints the traced
one's per-layer metrics with the tracing overhead.
The last line of standard output is the JSON result; the full record
(environment, every repetition, checks, stop-reason buckets, spans) is
written under `.bench_runs/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

PROCESSES = 6  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # the whole run ends before this, whatever the workers do
BLAS_THREADS = 1  # a second BLAS thread waits on the other vCPU whenever the host takes it
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its measure (the last part of its name)."""
    measure = name.rsplit(".", 1)[1]
    if measure == "s" or measure.endswith("_s"):
        return "s"
    if measure.endswith("us") or measure == "us_per_call":
        return "us"
    if measure == "bytes_written":
        return "bytes"
    if measure in ("runs_per_trial", "overhead_frac"):
        return "ratio"
    return "count"


def _first_line(path: str, prefix: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    """What the numbers were measured on; nothing about the machine is changed."""
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _first_line("/proc/cpuinfo", "model name") or platform.processor(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {var: str(BLAS_THREADS) for var in BLAS_VARS}},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "loadavg_start": list(os.getloadavg()),
    }


class Runner:
    """Starts worker processes one at a time and collects their records."""

    def __init__(self, args, run_dir: Path, started: float) -> None:
        self.args = args
        self.run_dir = run_dir
        self.started = started
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **{var: str(BLAS_THREADS) for var in BLAS_VARS})

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def __call__(self, budget: float, trace: int) -> dict:
        self.count += 1
        workdir = self.run_dir / f"proc{self.count}"
        record_path = self.run_dir / f"proc{self.count}.json"
        log_path = self.run_dir / f"proc{self.count}.log"
        cmd = [sys.executable, str(WORKER), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--budget", str(budget), "--trace", str(trace),
               "--dir", str(workdir), "--record", str(record_path)]
        if self.args.smoke:
            cmd.append("--smoke")
        with open(log_path, "w", encoding="utf-8") as log:
            # On timeout, subprocess.run kills the worker and waits for it.
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=max(1.0, DEADLINE_S - self.elapsed()))
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
        shutil.rmtree(workdir, ignore_errors=True)
        return record

    def processes(self, count: int, seconds: float) -> list[dict]:
        """`count` untraced processes, each given an equal share of what is left of `seconds`."""
        records = []
        for left in range(count, 0, -1):
            records.append(self(max(0.0, seconds - self.elapsed()) / left, trace=0))
        return records


def median(values) -> float:
    return float(statistics.median(values))


def fastest_phase(reps: list[dict]) -> float:
    """Seconds of the timed phase: each CLI call at its fastest among `reps`, summed."""
    return sum(min(r["call_s"][i] for r in reps) for i in range(len(reps[0]["call_s"])))


def summarize(args, records: list[dict]) -> dict:
    untraced = [rep for r in records if not r["traced"] for rep in r["reps"]]
    if args.trace:
        traced = next(r for r in records if r["traced"])
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = (traced["reps"][0]["wall_s"]
                                          / median([r["wall_s"] for r in untraced]) - 1.0)
        units = {name: layer_unit(name) for name in metrics}
    else:
        wall_s = fastest_phase(untraced)
        metrics = {
            "wall_s": wall_s,
            "setup_s": median([r["setup_s"] for r in records]),
            "iters_per_s": median([r["iterations"] for r in untraced]) / wall_s,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in records]),
        }
        units = END_TO_END
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "optlab" / "__init__.py").is_file():
        print(f"bench: no optlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env = environment()
    run_dir = ROOT / ".bench_runs" / f"work-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, run_dir, started)
    try:
        if args.trace:
            records = runner.processes(1, args.seconds / 2) + [runner(0.0, trace=1)]
        else:
            records = runner.processes(2 if args.smoke else PROCESSES, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    reps = [rep for r in records for rep in r["reps"]]
    attempted = sum(len(r["checks"]) for r in reps)
    failed_checks = sorted({name for r in reps for name, ok in r["checks"].items() if not ok})
    failed = sum(not ok for r in reps for ok in r["checks"].values())
    metrics = summarize(args, records)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "elapsed_s": time.perf_counter() - started, "checks_failed": failed,
        "checks": attempted, "failed_check_names": failed_checks,
        "metrics": metrics, "processes": records,
    }
    out = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(f"environment: {json.dumps(env)}")
    print(f"checks_failed={failed} of checks={attempted} {failed_checks}; "
          f"artifacts sha256 {sorted({r['artifact_sha256'][:16] for r in reps})}; detail in {out}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
