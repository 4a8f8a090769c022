"""Step-size grids, edge extension, and the trial harness.

Step sizes live on a geometric grid (five points by default).  Whenever the
best-performing point sits at an edge of the grid, one more point is added
past that edge -- upward from the maximum, downward from the minimum -- and
the trials re-ranked, until the best point is interior or the extension cap
is hit.  Diverged trials rank below every completed trial; among diverged
trials the one that survived longest ranks best, which is what steers the
extension walk toward smaller steps when the whole initial grid blows up.
Exact ties break toward the larger step size.

The initial grid runs as one lockstep stack.  The walk runs in batches: when
it asks for a step size, that value and the ones it would ask for next while
each in turn stays best (times the ratio again going up, divided by it going
down), up to the cap, run as one stack.  As rows stop, the walk's rule
replays over the batch's finished step sizes in order, and once it asks for
a value other than the batch's next, the rest of the batch is dropped.  Each
row is bit for bit its solo run, so the trials, their order and their dev
streams are those of a walk that runs one step size at a time.  A batch holds
at most as many rows as the initial grid's stack, `MAX_BATCH_ROWS` rows and
`MAX_BATCH_TERMS` transposed-fold terms, and always one step size's rows: a
row stacked on others saves time only in a short stack at small n.  So a walk
with a dev stream of five seeds or more, as `tune` runs by default, runs one
step size a stack.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import training
from .errors import AllTrialsDivergedError
from .lsq import Dataset, dev_labels_for
from .optim import OptimizerSpec, spec_to_document
from .schedules import DecayPolicy

__all__ = [
    "MAX_BATCH_ROWS",
    "MAX_BATCH_TERMS",
    "Grid",
    "make_log_grid",
    "extend_if_edge",
    "check_tune_budget",
    "tune",
    "tune_report_to_document",
]


#: The most rows, and the most terms of the orbit loop's transposed fold (rows
#: times `lsq.Quotient.terms`), in a stack of the extension walk.  An extra row
#: costs a stack less than a run of its own only while the stack is small:
#: five rows cost 1.2-1.6 times one row's iteration at n = 100 (202 terms a
#: row), 1.9-2.6 at 1 000, 2.6-3.2 at 2 000, 3.6-4.4 at 5 000 and 4.2-4.7 at
#: 10^4 (sgd, nag, rmsprop; one BLAS thread).  Taller stacks were slower: at
#: n = 100 a walk that ended after one step size, in 25-row stacks of five dev
#: streams, made adam's default `tune` 29 % slower.  So on the synthetic design
#: (2n + 2 terms a row) a batch holds 5 rows up to n = 1 000, fewer up to 2 500
#: and one step size's rows above.
MAX_BATCH_ROWS = 5
MAX_BATCH_TERMS = 10_010


@dataclass(frozen=True)
class Grid:
    """Geometric step-size grid, stored largest first."""

    values: tuple[float, ...]
    ratio: float
    extensions: int = 0

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("grid must not be empty")
        if not self.ratio > 1.0:
            raise ValueError(f"ratio must exceed 1, got {self.ratio}")
        if math.isinf(self.ratio):
            raise ValueError(f"ratio must be finite, got {self.ratio}")
        if not all(v > 0 for v in self.values):
            raise ValueError(f"step sizes must be positive, got {self.values}")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"step sizes must be finite, got {self.values}")
        ordered = tuple(sorted(self.values, reverse=True))
        if len(set(ordered)) != len(ordered):
            raise ValueError("grid contains duplicate step sizes")
        object.__setattr__(self, "values", ordered)

    def with_value(self, value: float) -> "Grid":
        return Grid(self.values + (value,), self.ratio, self.extensions + 1)


def make_log_grid(center: float, ratio: float, count: int = 5) -> Grid:
    """Geometric grid of `count` step sizes around `center`."""
    if not center > 0:
        raise ValueError(f"center must be positive, got {center}")
    if math.isinf(center):
        raise ValueError(f"center must be finite, got {center}")
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
    seed: int
    alpha0: float
    final_train_loss: float
    best_dev_metric: float | None
    epoch_of_best: int
    status: str
    iterations: int


@dataclass(frozen=True)
class WinnerSummary:
    spec: OptimizerSpec  # the tuned spec, with the winning step size
    policy: DecayPolicy
    selection: str
    metric_mean: float
    metric_std: float
    final_loss_mean: float
    final_loss_std: float


@dataclass(frozen=True)
class TuneReport:
    trials: tuple[TrialResult, ...]
    winner: WinnerSummary
    grid: Grid
    extensions: int


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


def check_tune_budget(epochs: int, seeds: int, extension_cap: int,
                      stop_loss: float | None) -> None:
    """Reject a negative epoch count or extension cap, fewer than one seed, or
    a NaN stop loss."""
    training.check_run_options(epochs, None, stop_loss)
    if seeds < 1:
        raise ValueError(f"need at least one seed, got {seeds}")
    if extension_cap < 0:
        raise ValueError(f"extension_cap must be nonnegative, got {extension_cap}")


def tune(
    ds: Dataset,
    spec: OptimizerSpec,
    grid: Grid,
    policy: DecayPolicy,
    epochs: int,
    seeds: int,
    *,
    dev_size: int | None,
    extension_cap: int,
    stop_loss: float | None,
) -> TuneReport:
    """Grid-search the step size of `spec` on `ds`: a trial runs `spec` with a
    grid value for ``spec.alpha``, and the winner is `spec` with its value.

    `seeds` counts the seeds ``0 .. seeds-1``; each (step size, seed) pair is
    one trial and seeds only drive the per-trial development stream (runs
    start from the zero vector, so full-batch trajectories are seed
    independent).  Selection uses the best dev metric when a dev stream
    exists, otherwise the final training loss.  Dev labels are drawn with
    the dataset's `p`, so a dataset without one needs ``dev_size=None``.
    The budget (`epochs`, `seeds`, `dev_size`, `extension_cap`, `stop_loss`)
    has no defaults here: the caller's options hold them.  A stack is
    checked (`training.check_stack`) before its dev labels are drawn.

    Raises `AllTrialsDivergedError` when every step size, extensions
    included, diverged.
    """
    check_tune_budget(epochs, seeds, extension_cap, stop_loss)
    selection = "dev" if dev_size is not None else "train_loss"
    if dev_size is not None and ds.p is None:
        raise ValueError("dataset has no label probability p to draw dev labels from; "
                         "pass dev_size=None")
    if dev_size is not None:
        training.check_label_stream("dev_size", dev_size)

    # A stack has a row per step size and dev stream, or a row per step size,
    # shared by every seed, without one.
    streams = range(seeds) if dev_size is not None else (None,)
    width = len(streams)
    by_alpha: dict[float, list[TrialResult]] = {}  # in the order of evaluation

    def run(alphas, cancel=None) -> list:
        """Run `alphas`, the next step sizes in evaluation order, as one
        lockstep stack: their rows' results, `width` per step size."""
        keys = [(i, a, s) for i, a in enumerate(alphas, start=len(by_alpha)) for s in streams]
        training.check_stack(len(keys), ds.orbits.terms, dev_size or 0)
        labels = None if dev_size is None else [
            dev_labels_for(ds.p, dev_size, np.random.SeedSequence(entropy=s, spawn_key=(i,)))
            for i, _, s in keys]
        return training.run_lockstep(
            ds, spec, [a for _, a, _ in keys], epochs, policy=policy, dev_labels=labels,
            stop_loss=stop_loss, record_trace=False, cancel=cancel)

    def accept(alpha: float, results) -> None:
        """Record `alpha`'s trials from the results of its `width` rows."""
        per_seed = results if dev_size is not None else results * seeds
        by_alpha[alpha] = [
            TrialResult(seed, alpha, r.final_loss, r.best_dev, r.epoch_of_best, r.status,
                        r.iterations)
            for seed, r in zip(range(seeds), per_seed)]

    def walk(current: Grid) -> float | None:
        """The walk's rule: the step size to try next, or None where it ends."""
        if current.extensions >= extension_cap:
            return None
        return extend_if_edge(
            current, min(by_alpha, key=lambda a: _rank_key(a, by_alpha[a], selection)))

    results = run(grid.values)
    for j, alpha in enumerate(grid.values):
        accept(alpha, results[j * width:(j + 1) * width])
    current, candidate = grid, walk(grid)
    rows = min(len(grid.values) * width, MAX_BATCH_ROWS,
               MAX_BATCH_TERMS // max(1, ds.orbits.terms))
    height = max(1, rows // width)  # step sizes a batch
    while candidate is not None:
        # The batch: the candidate, then the values the walk tries after it
        # while each in turn stays best, up to the cap.  A value the grid
        # would reject ends it: the walk fails there only if it gets there.
        batch, ahead = [candidate], current.with_value(candidate)
        while len(batch) < min(height, extension_cap - current.extensions):
            rider = extend_if_edge(ahead, batch[-1])
            try:
                ahead = ahead.with_value(rider)
            except ValueError:
                break
            batch.append(rider)
        first, done = current.extensions, {}

        def replay(stopped: dict) -> range:
            """Take the batch's step sizes into the walk, in order, once
            their rows have stopped; drop the rest once the walk leaves it."""
            nonlocal current, candidate
            done.update(stopped)
            taken = current.extensions - first
            while taken < len(batch) and candidate == batch[taken]:
                rows = range(taken * width, (taken + 1) * width)
                if not all(r in done for r in rows):
                    return range(0)
                accept(candidate, [done[r] for r in rows])
                current = current.with_value(candidate)
                candidate, taken = walk(current), taken + 1
            if taken < len(batch):
                return range(taken * width, len(batch) * width)
            return range(0)

        run(batch, replay)

    completed = {a: t for a, t in by_alpha.items() if all(r.status == "ok" for r in t)}
    if not completed:
        raise AllTrialsDivergedError(
            f"every step size diverged for {spec.method.value}: "
            f"{sorted(by_alpha, reverse=True)}, after {current.extensions} of "
            f"{extension_cap} extensions, the smallest step {min(by_alpha)!r}; "
            "raise --extension-cap or start the grid lower"
        )
    best_alpha = min(completed, key=lambda a: _rank_key(a, completed[a], selection))
    winner_trials = completed[best_alpha]
    metrics = np.array([_trial_metric(t, selection) for t in winner_trials])
    losses = np.array([t.final_train_loss for t in winner_trials])
    winner = WinnerSummary(
        spec=replace(spec, alpha=best_alpha),
        policy=policy,
        selection=selection,
        metric_mean=float(metrics.mean()),
        metric_std=float(metrics.std()),
        final_loss_mean=float(losses.mean()),
        final_loss_std=float(losses.std()),
    )
    return TuneReport(
        trials=tuple(t for trials in by_alpha.values() for t in trials),
        winner=winner,
        grid=current,
        extensions=current.extensions,
    )


def tune_report_to_document(report: TuneReport) -> dict:
    """JSON-compatible view of a tuning report."""
    spec, policy = report.winner.spec, asdict(report.winner.policy)  # every trial's policy
    return {
        "method": spec.method.value,
        "grid": {
            "values": list(report.grid.values),
            "ratio": report.grid.ratio,
            "extensions": report.grid.extensions,
        },
        "seeds": sorted({t.seed for t in report.trials}),
        "trials": [
            {
                "method": spec.method.value,
                "alpha0": t.alpha0,
                "policy": policy,
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
            "alpha": spec.alpha,
            "spec": spec_to_document(spec),
            "policy": policy,
            "selection": report.winner.selection,
            "metric_mean": report.winner.metric_mean,
            "metric_std": report.winner.metric_std,
            "final_train_loss_mean": report.winner.final_loss_mean,
            "final_train_loss_std": report.winner.final_loss_std,
        },
    }
