"""Step-size grids, edge extension, and the trial harness.

Step sizes live on a geometric grid (five points by default).  Whenever the
best-performing point sits at an edge of the grid, one more point is added
past that edge -- upward from the maximum, downward from the minimum -- and
the trials re-ranked, until the best point is interior or the extension cap
is hit.  Diverged trials rank below every completed trial; among diverged
trials the one that survived longest ranks best, which is what steers the
extension walk toward smaller steps when the whole initial grid blows up.
Exact ties break toward the larger step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AllTrialsDivergedError
from .lsq import Dataset
from .optim import MethodKind, OptimizerSpec, spec_to_document
from .schedules import DecayPolicy

__all__ = [
    "Grid",
    "TrialResult",
    "TuneReport",
    "make_log_grid",
    "extend_if_edge",
    "tune",
    "tune_report_to_document",
]

DEFAULT_EXTENSION_CAP = 8


@dataclass(frozen=True)
class Grid:
    """Geometric step-size grid, stored largest first."""

    values: tuple[float, ...]
    ratio: float
    extensions: int = 0

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("grid must not be empty")
        if self.ratio <= 1.0:
            raise ValueError("ratio must exceed 1")
        if any(v <= 0 for v in self.values):
            raise ValueError("step sizes must be positive")
        ordered = tuple(sorted(self.values, reverse=True))
        if len(set(ordered)) != len(ordered):
            raise ValueError("grid contains duplicate step sizes")
        object.__setattr__(self, "values", ordered)

    def with_value(self, value: float) -> "Grid":
        return Grid(self.values + (value,), self.ratio, self.extensions + 1)


def make_log_grid(center: float, ratio: float, count: int = 5) -> Grid:
    """Geometric grid of `count` step sizes around `center`."""
    if center <= 0:
        raise ValueError("center must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    half = (count - 1) // 2
    values = tuple(center * ratio ** (half - i) for i in range(count))
    return Grid(values=values, ratio=float(ratio))


def extend_if_edge(grid: Grid, best: float) -> float | None:
    """Next step size to try when `best` sits at an edge of `grid`.

    Returns None for an interior best.  The upward rule multiplies the
    maximum by the grid ratio; the downward rule divides the minimum by it.
    """
    if best not in grid.values:
        raise ValueError(f"step size {best!r} is not in the grid")
    if best == grid.values[0]:
        return best * grid.ratio
    if best == grid.values[-1]:
        return best / grid.ratio
    return None


@dataclass(frozen=True)
class TrialResult:
    spec: OptimizerSpec
    policy: DecayPolicy
    seed: int
    alpha0: float
    final_train_loss: float
    best_dev_metric: float | None
    epoch_of_best: int
    status: str
    iterations: int


@dataclass(frozen=True)
class WinnerSummary:
    alpha: float
    spec: OptimizerSpec
    policy: DecayPolicy
    selection: str
    metric_mean: float
    metric_std: float
    final_loss_mean: float
    final_loss_std: float


@dataclass(frozen=True)
class TuneReport:
    method: MethodKind
    trials: tuple[TrialResult, ...]
    winner: WinnerSummary
    grid: Grid
    extensions: int
    seeds: tuple[int, ...]


def _trial_metric(trial: TrialResult, selection: str) -> float:
    if selection == "dev":
        return trial.best_dev_metric if trial.best_dev_metric is not None else math.inf
    return trial.final_train_loss


def _rank_key(alpha: float, trials: list[TrialResult], selection: str):
    completed = [t for t in trials if t.status == "ok"]
    if len(completed) == len(trials):
        metric = float(np.mean([_trial_metric(t, selection) for t in completed]))
        return (0, metric, -alpha)
    survived = float(np.mean([t.iterations for t in trials]))
    return (1, -survived, -alpha)


def tune(
    ds: Dataset,
    method: MethodKind,
    grid: Grid,
    policy: DecayPolicy,
    epochs: int,
    seeds: int,
    *,
    base_spec: OptimizerSpec | None = None,
    dev_size: int | None = 2000,
    extension_cap: int = DEFAULT_EXTENSION_CAP,
    stop_loss: float | None = None,
) -> TuneReport:
    """Grid-search the step size for `method` on `ds`.

    `seeds` counts the seeds ``0 .. seeds-1``; each (step size, seed) pair is
    one trial and seeds only drive the per-trial development stream (runs
    start from the zero vector, so full-batch trajectories are seed
    independent).  Selection uses the best dev metric when a dev stream
    exists, otherwise the final training loss.  Dev labels are drawn with
    the dataset's `p`, so a dataset without one needs ``dev_size=None``.

    Raises `AllTrialsDivergedError` when every step size, extensions
    included, diverged.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    seed_values = tuple(range(seeds))
    selection = "dev" if dev_size is not None else "train_loss"
    if policy.kind == "dev_decay" and dev_size is None:
        raise ValueError("dev_decay policy needs a dev stream")
    if dev_size is not None and ds.p is None:
        raise ValueError("dataset has no label probability p to draw dev labels from; "
                         "pass dev_size=None")

    base = base_spec if base_spec is not None else OptimizerSpec(method=method, alpha=1.0)
    if base.method is not method:
        raise ValueError("base_spec method does not match")

    # Looked up at call time, so the run loop can be substituted.
    from .training import dev_labels_for, run_lockstep

    by_alpha: dict[float, list[TrialResult]] = {}  # in the order of evaluation

    def evaluate(alphas) -> None:
        """One tune round as one lockstep stack: a row per step size and dev
        stream, or a row per step size, shared by every seed, without one."""
        indexed = list(enumerate(alphas, start=len(by_alpha)))
        streams = seed_values if dev_size is not None else (None,)
        keys = [(i, a, s) for i, a in indexed for s in streams]
        labels = None if dev_size is None else [
            dev_labels_for(ds.p, dev_size, np.random.SeedSequence(entropy=s, spawn_key=(i,)))
            for i, _, s in keys]
        runs = iter(run_lockstep(ds, base, [a for _, a, _ in keys], epochs, policy=policy,
                                 dev_labels=labels, stop_loss=stop_loss, record_trace=False))
        for alpha in alphas:
            shared = next(runs) if dev_size is None else None
            by_alpha[alpha] = []
            for seed in seed_values:
                result = shared if shared is not None else next(runs)
                by_alpha[alpha].append(TrialResult(
                    spec=replace(base, alpha=alpha),
                    policy=policy,
                    seed=seed,
                    alpha0=alpha,
                    final_train_loss=result.final_loss,
                    best_dev_metric=result.best_dev,
                    epoch_of_best=result.epoch_of_best,
                    status=result.status,
                    iterations=result.iterations,
                ))

    current = grid
    evaluate(current.values)

    while True:
        best_alpha = min(by_alpha, key=lambda a: _rank_key(a, by_alpha[a], selection))
        if current.extensions >= extension_cap:
            break
        candidate = extend_if_edge(current, best_alpha)
        if candidate is None or candidate in current.values:
            break
        current = current.with_value(candidate)
        evaluate([candidate])

    completed = {a: t for a, t in by_alpha.items() if all(r.status == "ok" for r in t)}
    if not completed:
        raise AllTrialsDivergedError(
            f"every step size diverged for {method.value}: "
            f"{sorted(by_alpha, reverse=True)}"
        )
    best_alpha = min(completed, key=lambda a: _rank_key(a, completed[a], selection))
    winner_trials = completed[best_alpha]
    metrics = np.array([_trial_metric(t, selection) for t in winner_trials])
    losses = np.array([t.final_train_loss for t in winner_trials])
    winner = WinnerSummary(
        alpha=best_alpha,
        spec=winner_trials[0].spec,
        policy=policy,
        selection=selection,
        metric_mean=float(metrics.mean()),
        metric_std=float(metrics.std()),
        final_loss_mean=float(losses.mean()),
        final_loss_std=float(losses.std()),
    )
    return TuneReport(
        method=method,
        trials=tuple(t for trials in by_alpha.values() for t in trials),
        winner=winner,
        grid=current,
        extensions=current.extensions,
        seeds=seed_values,
    )


def tune_report_to_document(report: TuneReport) -> dict:
    """JSON-compatible view of a tuning report."""

    def policy_doc(policy: DecayPolicy) -> dict:
        return {"kind": policy.kind, "delta": policy.delta, "period": policy.period}

    return {
        "method": report.method.value,
        "grid": {
            "values": list(report.grid.values),
            "ratio": report.grid.ratio,
            "extensions": report.grid.extensions,
        },
        "seeds": list(report.seeds),
        "trials": [
            {
                "method": t.spec.method.value,
                "alpha0": t.alpha0,
                "policy": policy_doc(t.policy),
                "seed": t.seed,
                "final_train_loss": t.final_train_loss,
                "best_dev": t.best_dev_metric,
                "epoch_of_best": t.epoch_of_best,
                "status": t.status,
                "iterations": t.iterations,
            }
            for t in report.trials
        ],
        "winner": {
            "alpha": report.winner.alpha,
            "spec": spec_to_document(report.winner.spec),
            "policy": policy_doc(report.winner.policy),
            "selection": report.winner.selection,
            "metric_mean": report.winner.metric_mean,
            "metric_std": report.winner.metric_std,
            "final_train_loss_mean": report.winner.final_loss_mean,
            "final_train_loss_std": report.winner.final_loss_std,
        },
    }
