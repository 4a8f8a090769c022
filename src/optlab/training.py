"""Full-batch training runs with per-iteration traces.

The run loop advances a lockstep stack of R rows: one trajectory each, all
with the same spec and policy and all starting at zero, but each with its own
step size and dev labels.  It runs on the design's column quotient: the state
arrays have shape (R, q), one entry per distinct nonzero column, which
identical columns share exactly under every method (their gradients,
accumulators and updates are equal), while all-zero columns stay at zero.
The product is ``X_q diag(multiplicity) u`` and the gradient ``2 X_q^T r``;
full-length vectors appear only at the edges (the results, the trace and the
dev scores), through `Dataset.expand`.

The engine steps the stack once per iteration; a single run is a stack of one
row.  A row that converges, or fails (non-finite loss or iterate, singular
preconditioner), stops with its status and drops out while the others go on,
so each row is bit for bit the run it gives alone.  Each row records
loss/norm/margin/span diagnostics every iteration up to 1000, then every
10th, plus the final one (default); the loss, the next gradient and the
margin and span diagnostics all use the one product ``Xw`` computed per
iterate.

One iteration equals one epoch here: all gradients are full-batch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import lsq
from .optim import OptimizerSpec, OptimizerState, init_state, step
from .schedules import DecayPolicy, next_alpha

__all__ = [
    "TRACE_HEADER",
    "TraceRow",
    "RunResult",
    "dev_labels_for",
    "run_training",
    "run_lockstep",
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
    """Outcome of one trajectory; `w` and `iterates` are full length (d)."""

    status: str  # "ok" | "diverged" | "singular_preconditioner"
    converged: bool
    w: np.ndarray | None
    final_loss: float
    iterations: int
    trace: list[TraceRow]
    best_dev: float | None = None
    epoch_of_best: int = 0
    iterates: list[np.ndarray] | None = None
    failure: str | None = None


def dev_labels_for(p: float, size: int, seed_sequence) -> np.ndarray:
    """Fresh +-1 labels for a development stream."""
    rng = np.random.default_rng(seed_sequence)
    return np.where(rng.random(size) < p, 1.0, -1.0)


#: The two dev label values, in the column order of `_label_counts`.
_SIGNS = np.array([1.0, -1.0])


def _label_counts(labels) -> np.ndarray:
    """Counts of +1 and -1 labels in each row of a stack of dev label streams."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size == 0:
        raise ValueError("a dev label stream must not be empty")
    if not np.all(np.abs(labels) == 1.0):
        raise ValueError("dev labels must be +1 or -1")
    return np.stack([np.sum(labels > 0.0, axis=-1), np.sum(labels < 0.0, axis=-1)], axis=-1)


def _dev_errors(w: np.ndarray, counts: np.ndarray | None) -> np.ndarray | None:
    """Dev error of each row of a stack, on the labels counted in row i of `counts`.

    A fresh point's score depends only on its label, so each row scores the
    two labels once and weights its misses by their counts: the same exact
    count as scoring every label, hence the same bits.
    """
    if counts is None:
        return None
    wrong = lsq.test_scores(w, _SIGNS) * _SIGNS <= 0.0
    return np.sum(wrong * counts, axis=-1) / np.sum(counts, axis=-1)


def _should_record(k: int, trace_every: int | None) -> bool:
    if trace_every is not None:
        return k % trace_every == 0
    return k <= DENSE_TRACE_LIMIT or k % SPARSE_TRACE_EVERY == 0


def _set(mask: np.ndarray | None):
    """Positions set in `mask`, without a scan when none is (the usual case)."""
    return np.flatnonzero(mask) if mask is not None and np.count_nonzero(mask) else ()


def _rows(state: OptimizerState, index) -> OptimizerState:
    """Rows `index` of a stacked state (a single row for an integer)."""
    h = None if state.h is None else state.h[index]
    return OptimizerState(state.k, state.w[index], state.w_prev[index], state.g_accum[index], h)


def run_training(ds: lsq.Dataset, spec: OptimizerSpec, iters: int, *,
                 dev_labels: np.ndarray | None = None, **options) -> RunResult:
    """Run `spec` on `ds` for up to `iters` full-batch iterations: a
    `run_lockstep` stack of one row, with step size ``spec.alpha``."""
    labels = None if dev_labels is None else [dev_labels]
    return run_lockstep(ds, spec, [spec.alpha], iters, dev_labels=labels, **options)[0]


def run_lockstep(ds: lsq.Dataset, spec: OptimizerSpec, alphas, iters: int, *,
                 policy: DecayPolicy | None = None, dev_labels=None,
                 stop_loss: float | None = None, trace_every: int | None = None,
                 record_trace: bool = True, keep_iterates: bool = False) -> list[RunResult]:
    """Run `spec` once per base step size in `alphas`, as one lockstep stack.

    Row i uses step size ``alphas[i]`` (not ``spec.alpha``) and scores its dev
    error on ``dev_labels[i]``, if given; the results come in that order.  A
    row stops early once its training loss reaches `stop_loss` (that is the
    operational meaning of "converged"; hitting the budget without it leaves
    status "ok" with converged=False).  `policy` adjusts each row's step size
    between epochs; dev-driven decay requires `dev_labels`.  `trace_every`,
    if given, records every `trace_every`-th iteration (and the last) instead
    of the default cadence.
    """
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    if trace_every is not None and trace_every < 1:
        raise ValueError(f"trace_every must be at least 1, got {trace_every}")
    if policy is not None and policy.kind == "dev_decay" and dev_labels is None:
        raise ValueError("dev_decay policy needs a dev label stream")

    alpha = np.array(alphas, dtype=np.float64).reshape(-1, 1)
    n_rows = len(alpha)
    counts = None if dev_labels is None else _label_counts(dev_labels)
    m = ds.multiplicity
    state = init_state(spec, np.zeros((n_rows, m.size)))
    # Row r's result collects its trace as it runs and is completed when r stops.
    results = [RunResult("ok", False, None, math.nan, 0, [],
                         iterates=[ds.expand(u)] if keep_iterates else None)
               for u in state.w]
    rows = list(range(n_rows))  # stack position -> row

    def dev_errors(u: np.ndarray) -> np.ndarray | None:
        # test_scores reads features 1-3 only.
        return None if counts is None else _dev_errors(ds.expand(u, slice(3)), counts)

    # One product per iterate: the loss, the next gradient (via the residual)
    # and the trace's margin and span projection all use it.
    xw = lsq.quotient_product(ds, m * state.w)
    resid = xw - ds.y
    loss = lsq.residual_loss(resid)
    dev = best_dev = dev_errors(state.w)
    improved = None  # whether each row's dev error at iteration k is a new best
    epoch_of_best = np.zeros(n_rows, dtype=np.int64)
    decays = policy is not None and policy.kind != "none"

    def grad_at(v: np.ndarray) -> np.ndarray:
        # Without extrapolation the engine asks for the gradient at state.w
        # itself, whose residual the loss has already computed.
        r = resid if v is state.w else lsq.quotient_product(ds, m * v) - ds.y
        return lsq.residual_gradient(ds, r)

    def record(i: int, k: int) -> None:
        w = ds.expand(state.w[i])
        norm = lsq.l2_norm(w)
        results[rows[i]].trace.append(TraceRow(
            iteration=k,
            alpha=float(alpha[i, 0]),
            train_loss=float(loss[i]),
            dev_error=math.nan if dev is None else float(dev[i]),
            w_l2=norm,
            w_linf=float(np.max(np.abs(w))) if w.size else 0.0,
            margin=lsq.margin(ds, w, xw[i]) if norm > 0.0 else math.nan,
            rowspan_resid=lsq.row_span_residual(ds, w, xw[i]),
        ))

    def finish(i: int, st: OptimizerState, k: int, status: str = "ok",
               converged: bool = False, failure: str | None = None) -> None:
        res = results[rows[i]]
        res.status, res.converged, res.failure = status, converged, failure
        res.w, res.final_loss, res.iterations = ds.expand(st.w[i]), float(loss[i]), k
        if best_dev is not None:
            res.best_dev, res.epoch_of_best = float(best_dev[i]), int(epoch_of_best[i])

    k = 0
    done = np.zeros(n_rows, dtype=bool)  # rows finished since the stack last shrank
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            last = k == iters
            converged = None if stop_loss is None else ~done & (loss <= stop_loss)
            if record_trace:
                cadence = last or _should_record(k, trace_every)
                for i in np.flatnonzero(~done) if cadence else _set(converged):
                    record(i, k)
            for i in _set(~done if last else converged):
                finish(i, state, k, converged=converged is not None and bool(converged[i]))
            if last:
                break
            if converged is not None:
                done |= converged
            if decays and k > 0:
                # Before the stack shrinks, so `improved` still lines up with it.
                for i in np.flatnonzero(~done):
                    alpha[i, 0] = next_alpha(policy, float(alpha[i, 0]), k,
                                             improved=improved is not None and bool(improved[i]))
            if np.count_nonzero(done):
                keep = ~done
                rows = [r for r, kept in zip(rows, keep) if kept]
                state, resid = _rows(state, keep), resid[keep]
                loss, alpha, epoch_of_best = loss[keep], alpha[keep], epoch_of_best[keep]
                if counts is not None:
                    counts, best_dev = counts[keep], best_dev[keep]
                if not rows:
                    break
            new = step(state, spec, grad_at, alpha)
            done = np.zeros(len(rows), dtype=bool)
            for i, status, failure in new.failures:
                finish(i, state, k, status, failure=failure)
                done[i] = True
            state = new
            k += 1
            xw = lsq.quotient_product(ds, m * state.w)
            resid = xw - ds.y
            loss = lsq.residual_loss(resid)
            for i in _set(~(done | np.isfinite(loss))):
                finish(i, state, k, "diverged", failure=f"non-finite loss at iteration {k}")
                done[i] = True
            for i in np.flatnonzero(~done) if keep_iterates else ():
                results[rows[i]].iterates.append(ds.expand(state.w[i]))
            if counts is not None:
                dev = dev_errors(state.w)
                improved = dev < best_dev
                best_dev = np.where(improved, dev, best_dev)
                epoch_of_best = np.where(improved, k, epoch_of_best)
    return results


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
