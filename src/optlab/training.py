"""Full-batch training runs with per-iteration traces.

A run owns one optimizer state, advances it with the unified engine, and
records loss/norm/margin/span diagnostics at a configurable cadence.  The
default cadence keeps every iteration up to 1000, then every 10th, plus the
final one.  Divergence (non-finite loss or iterate) and preconditioner
singularities abort the run with a status instead of propagating NaN.

One iteration equals one epoch here: all gradients are full-batch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import lsq
from .errors import DivergedError, SingularPreconditionerError
from .optim import OptimizerSpec, OptimizerState, init_state, preconditioner_diag, step
from .schedules import DecayPolicy, next_alpha

__all__ = [
    "TRACE_HEADER",
    "TraceRow",
    "RunResult",
    "dev_labels_for",
    "run_training",
    "write_trace_csv",
]

TRACE_HEADER = "iter,alpha,train_loss,dev_error,w_l2,w_linf,margin,rowspan_resid"

#: Dense-recording horizon of the default trace cadence.
DENSE_TRACE_LIMIT = 1000
SPARSE_TRACE_EVERY = 10


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    alpha: float
    train_loss: float
    dev_error: float
    w_l2: float
    w_linf: float
    margin: float
    rowspan_resid: float


@dataclass
class RunResult:
    status: str  # "ok" | "diverged" | "singular_preconditioner"
    converged: bool
    state: OptimizerState
    final_loss: float
    iterations: int
    trace: list[TraceRow]
    best_dev: float | None = None
    epoch_of_best: int = 0
    iterates: list[np.ndarray] | None = None
    precond_diags: list[np.ndarray] | None = None
    failure: str | None = None

    @property
    def w(self) -> np.ndarray:
        return self.state.w


def dev_labels_for(p: float, size: int, seed_sequence) -> np.ndarray:
    """Fresh +-1 labels for a development stream."""
    rng = np.random.default_rng(seed_sequence)
    return np.where(rng.random(size) < p, 1.0, -1.0)


def _dev_error(w: np.ndarray, labels: np.ndarray | None) -> float:
    if labels is None:
        return math.nan
    scores = lsq.test_scores(w, labels)
    return float(np.mean(scores * labels <= 0.0))


def _should_record(k: int, trace_every: int | None) -> bool:
    if trace_every is not None:
        return k % trace_every == 0
    return k <= DENSE_TRACE_LIMIT or k % SPARSE_TRACE_EVERY == 0


def run_training(
    ds: lsq.Dataset,
    spec: OptimizerSpec,
    iters: int,
    *,
    policy: DecayPolicy | None = None,
    dev_labels: np.ndarray | None = None,
    stop_loss: float | None = None,
    trace_every: int | None = None,
    record_trace: bool = True,
    keep_iterates: bool = False,
    keep_precond: bool = False,
    w0: np.ndarray | None = None,
) -> RunResult:
    """Run `spec` on `ds` for up to `iters` full-batch iterations.

    The run stops early once the training loss reaches `stop_loss` (that is
    the operational meaning of "converged"; hitting the budget without it
    leaves status "ok" with converged=False).  `policy` adjusts the step
    size between epochs; dev-driven decay requires `dev_labels`.
    """
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    if policy is not None and policy.kind == "dev_decay" and dev_labels is None:
        raise ValueError("dev_decay policy needs a dev label stream")

    if w0 is None:
        w0 = np.zeros(ds.d)
    state = init_state(spec, w0)
    grad_at = lambda w: lsq.gradient(ds, w)

    alpha = spec.alpha
    cur_loss = lsq.loss(ds, state.w)
    trace: list[TraceRow] = []
    iterates = [state.w.copy()] if keep_iterates else None
    precond = [preconditioner_diag(state, spec)] if keep_precond else None

    def record(k: int, loss_value: float, dev_value: float) -> None:
        if not record_trace:
            return
        w = state.w
        norm = float(np.linalg.norm(w))
        trace.append(
            TraceRow(
                iteration=k,
                alpha=alpha,
                train_loss=loss_value,
                dev_error=dev_value,
                w_l2=norm,
                w_linf=float(np.max(np.abs(w))) if w.size else 0.0,
                margin=lsq.margin(ds, w) if norm > 0.0 else math.nan,
                rowspan_resid=lsq.row_span_residual(ds, w),
            )
        )

    dev0 = _dev_error(state.w, dev_labels)
    record(0, cur_loss, dev0)
    best_dev = dev0 if dev_labels is not None else None
    epoch_of_best = 0

    status = "ok"
    failure = None
    converged = stop_loss is not None and cur_loss <= stop_loss
    k = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while k < iters and not converged:
            try:
                state = step(state, spec, grad_at, alpha_override=alpha)
            except DivergedError as exc:
                status, failure = "diverged", str(exc)
                break
            except SingularPreconditionerError as exc:
                status, failure = "singular_preconditioner", str(exc)
                break
            k += 1
            cur_loss = lsq.loss(ds, state.w)
            if not math.isfinite(cur_loss):
                status, failure = "diverged", f"non-finite loss at iteration {k}"
                break
            if keep_iterates:
                iterates.append(state.w.copy())
            if keep_precond:
                precond.append(preconditioner_diag(state, spec))
            dev_value = _dev_error(state.w, dev_labels)
            best_before = best_dev
            if dev_labels is not None and dev_value < best_dev:
                best_dev, epoch_of_best = dev_value, k
            if stop_loss is not None and cur_loss <= stop_loss:
                converged = True
            if converged or k == iters or _should_record(k, trace_every):
                record(k, cur_loss, dev_value)
            if policy is not None and not converged and k < iters:
                # The decay decision compares against the best *before* this
                # epoch, so a new best keeps the rate.
                alpha, _ = next_alpha(
                    policy,
                    alpha,
                    k,
                    dev_metric=dev_value if dev_labels is not None else None,
                    best_so_far=best_before,
                )

    return RunResult(
        status=status,
        converged=converged,
        state=state,
        final_loss=cur_loss,
        iterations=k,
        trace=trace,
        best_dev=best_dev,
        epoch_of_best=epoch_of_best,
        iterates=iterates,
        precond_diags=precond,
        failure=failure,
    )


def write_trace_csv(trace: list[TraceRow], path) -> None:
    """Write the fixed-header learning-curve CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER.split(","))
        for row in trace:
            writer.writerow(
                [
                    row.iteration,
                    repr(row.alpha),
                    repr(row.train_loss),
                    repr(row.dev_error),
                    repr(row.w_l2),
                    repr(row.w_linf),
                    repr(row.margin),
                    repr(row.rowspan_resid),
                ]
            )
