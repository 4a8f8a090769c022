"""Outside-in tracer for optlab: wraps the public functions the program calls.

Each traced name is replaced, in the module where the caller looks it up, by
a wrapper that records a span (name, start, end, parent).  Nothing under
`src/` changes.  Spans that fire once per optimizer step or per trace row are
aggregated in memory per (name, parent); the coarse ones (CLI calls, tuning,
runs, oracles, file I/O) are also kept one by one.  Both are reported when the
run ends.  A name that no longer exists in the program is reported as absent
and its metrics read 0, so a later refactor does not crash the benchmark.
"""

from __future__ import annotations

import importlib
import itertools
import time

METHODS = ("sgd", "hb", "nag", "adagrad", "rmsprop", "adam")
STOP_REASONS = ("converged", "budget_exhausted", "diverged", "singular_preconditioner")

# (module looked up by the caller, attribute, span name, aggregated per step/row)
TRACED = (
    ("optlab.cli", "main", "cli.main", False),
    ("optlab.cli", "tune", "tune.tune", False),
    ("optlab.cli", "run_training", "training.run_training", False),
    ("optlab.cli", "write_trace_csv", "training.write_trace_csv", False),
    # `tune` imports run_training late, from the training module.
    ("optlab.training", "run_training", "training.run_training", False),
    ("optlab.training", "step", "optim.step", True),
    ("optlab.training", "next_alpha", "schedules.next_alpha", True),
    ("optlab.lsq", "gradient", "lsq.gradient", True),
    ("optlab.lsq", "loss", "lsq.loss", True),
    ("optlab.lsq", "test_scores", "lsq.test_scores", True),
    ("optlab.lsq", "margin", "lsq.margin", True),
    ("optlab.lsq", "row_span_residual", "lsq.row_span_residual", True),
    ("optlab.lsq", "generate_synthetic", "lsq.generate_synthetic", False),
    ("optlab.lsq", "save_dataset", "lsq.save_dataset", False),
    ("optlab.lsq", "load_dataset", "lsq.load_dataset", False),
    ("optlab.oracle", "min_norm_solution", "oracle.min_norm_solution", False),
    ("optlab.oracle", "sign_solution", "oracle.sign_solution", False),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _step_method(args, kwargs):
    spec = _arg(args, kwargs, 1, "spec")
    return getattr(getattr(spec, "method", None), "value", None)


def stop_reason(status: str, converged: bool, iterations: int, budget: int) -> str:
    """Why a run ended; `budget_exhausted` is status ok, not converged, at the budget."""
    if status != "ok":
        return status
    if converged:
        return "converged"
    return "budget_exhausted" if iterations == budget else "stopped_early"


class Tracer:
    """Span recorder installed by monkeypatching module attributes."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[list] = []  # frames: [name, start, child_seconds, span_id]
        self.stats: dict[tuple, list] = {}  # (name, parent, tag) -> [calls, seconds, self seconds]
        self.spans: list[tuple] = []  # coarse spans: (id, name, parent_id, parent, start, end)
        self.buckets: dict[tuple[str, str], list] = {}  # (method, stop reason) -> [runs, iters, s]
        self.trace_rows = 0
        self.tune_trials = 0
        self.tune_extensions = 0
        self.absent: list[str] = []
        self._patched: list[tuple] = []
        self._ids = itertools.count(1)

    def install(self, traced=TRACED) -> None:
        for module_name, attr, name, aggregate in traced:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            tag = _step_method if name == "optim.step" else None
            after = {"training.run_training": self._after_run, "tune.tune": self._after_tune}.get(name)
            setattr(module, attr, self._wrap(name, original, aggregate, tag, after))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, aggregate, tag, after):
        stack, stats, spans, clock, ids = self.stack, self.stats, self.spans, self.clock, self._ids

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, 0.0, 0 if aggregate else next(ids)]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                parent_name = None
                if parent is not None:
                    parent[2] += seconds
                    parent_name = parent[0]
                key = (name, parent_name, tag(args, kwargs) if tag else None)
                entry = stats.get(key)
                if entry is None:
                    stats[key] = [1, seconds, seconds - frame[2]]
                else:
                    entry[0] += 1
                    entry[1] += seconds
                    entry[2] += seconds - frame[2]
                if not aggregate:
                    parent_id = parent[3] if parent is not None else None
                    spans.append((frame[3], name, parent_id, parent_name, start, end))
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_run(self, args, kwargs, result, seconds) -> None:
        spec = _arg(args, kwargs, 1, "spec")
        method = getattr(getattr(spec, "method", None), "value", "unknown")
        budget = _arg(args, kwargs, 2, "iters")
        iterations = getattr(result, "iterations", 0)
        reason = stop_reason(getattr(result, "status", "unknown"),
                             bool(getattr(result, "converged", False)), iterations, budget)
        bucket = self.buckets.setdefault((method, reason), [0, 0, 0.0])
        bucket[0] += 1
        bucket[1] += iterations
        bucket[2] += seconds
        self.trace_rows += len(getattr(result, "trace", None) or ())

    def _after_tune(self, args, kwargs, result, seconds) -> None:
        self.tune_trials += len(getattr(result, "trials", ()))
        self.tune_extensions += int(getattr(result, "extensions", 0))

    # -- reporting ---------------------------------------------------------

    def totals(self, name: str, parent=..., tag=...) -> tuple[int, float, float]:
        """(calls, seconds, self seconds) summed over matching aggregates."""
        calls = seconds = self_seconds = 0
        for (n, p, t), (c, s, ss) in self.stats.items():
            if n == name and parent in (..., p) and tag in (..., t):
                calls += c
                seconds += s
                self_seconds += ss
        return calls, seconds, self_seconds

    def metrics(self, timed_start: float, wall_s: float, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics, named `module.function.measure`."""
        m: dict[str, float] = {}

        def calls_s(name, *measures):
            calls, seconds, self_seconds = self.totals(name)
            values = {"calls": calls, "s": seconds, "self_s": self_seconds,
                      "us_per_call": 1e6 * seconds / calls if calls else 0.0}
            for measure in measures:
                m[f"{name}.{measure}"] = values[measure]

        calls_s("optim.step", "calls", "self_s")
        for method in METHODS:
            calls, _, self_seconds = self.totals("optim.step", tag=method)
            m[f"optim.step.{method}.self_us"] = 1e6 * self_seconds / calls if calls else 0.0
        calls_s("lsq.gradient", "calls", "s", "us_per_call")
        calls_s("lsq.loss", "calls", "s")
        calls_s("lsq.row_span_residual", "calls", "s")
        calls_s("lsq.margin", "calls", "s")
        m["training.trace_rows"] = self.trace_rows
        calls_s("oracle.min_norm_solution", "calls", "s")
        calls_s("oracle.sign_solution", "calls", "s")
        calls_s("lsq.load_dataset", "s")
        calls_s("lsq.save_dataset", "s")
        calls_s("lsq.generate_synthetic", "s")
        calls_s("training.run_training", "calls", "self_s")
        for reason in STOP_REASONS:
            runs = iters = seconds = 0
            for (_, r), (b_runs, b_iters, b_s) in self.buckets.items():
                if r == reason:
                    runs, iters, seconds = runs + b_runs, iters + b_iters, seconds + b_s
            m[f"training.{reason}.runs"] = runs
            m[f"training.{reason}.iters"] = iters
            m[f"training.{reason}.s"] = seconds
        calls_s("lsq.test_scores", "calls", "s")
        calls_s("schedules.next_alpha", "calls", "s")
        calls_s("tune.tune", "calls", "self_s")
        runs_in_tune = self.totals("training.run_training", parent="tune.tune")[0]
        m["tune.trials"] = self.tune_trials
        m["tune.runs"] = runs_in_tune
        m["tune.runs_per_trial"] = runs_in_tune / self.tune_trials if self.tune_trials else 0.0
        m["tune.extensions"] = self.tune_extensions
        calls_s("cli.main", "calls", "s")
        m["cli.self_s"] = self.totals("cli.main")[2]
        m["cli.bytes_written"] = bytes_written
        calls_s("training.write_trace_csv", "s")
        roots = sum(end - start for _, _, parent_id, _, start, end in self.spans
                    if parent_id is None and start >= timed_start)
        m["trace.unattributed_s"] = wall_s - roots
        return m

    def report(self) -> dict:
        """Everything recorded, for the run's detail file."""
        return {
            "absent": list(self.absent),
            "aggregates": [
                {"name": n, "parent": p, "tag": t, "calls": c, "s": s, "self_s": ss}
                for (n, p, t), (c, s, ss) in sorted(self.stats.items(), key=lambda kv: -kv[1][1])
            ],
            "stop_buckets": [
                {"method": method, "reason": reason, "runs": r, "iters": i, "s": s}
                for (method, reason), (r, i, s) in sorted(self.buckets.items())
            ],
            "spans": [
                {"id": i, "name": n, "parent_id": pid, "parent": p, "start": a, "end": b}
                for i, n, pid, p, a, b in self.spans
            ],
        }
