"""Full-batch training runs with per-iteration traces.

The run loop advances a lockstep stack of R rows: one trajectory each, all
with the same spec and policy and all starting at zero, but each with its own
step size and dev labels.  It runs on the design's orbit quotient
(`lsq.Orbits`, 4 column classes and 2 row classes on the synthetic design):
the state arrays have shape (R, C), one entry per column class, while
all-zero columns stay at zero, and the residuals have one entry per row
class.  The product is ``X_q diag(multiplicity) u`` and the gradient
``2 X_q^T r``, one fold each; the loss sums the n residuals, expanded from
their classes.  Full-length vectors appear only at the edges (the results,
the trace and the dev scores), through `Orbits.expand`, and the trace's
span residual solves its CG on the orbit quotient too.

The engine, `step`, steps the stack once per iteration; a single run is a
stack of one row.  A row that converges, or fails (non-finite loss or
iterate, singular preconditioner), stops with its status and drops out while
the others go on, so each row is bit for bit the run it gives alone; a caller
can also drop running rows as others stop (`cancel`).  What a run's constants
fix is computed once: the spec's Table 1 row (not Adam's, which depends on k)
and the class multiplicities, labels and step sizes repeated to the stack's
shape (so no op broadcasts).  Each iterate's product ``Xw``,
residual and loss are computed in one place (`lsq.residual_loss`); the
next gradient (`lsq.residual_gradient`) and the trace reuse them, and the
loop reduces its few per-row numbers as Python floats.  Each row records
loss/norm/margin/span diagnostics every iteration up to 1000, then every
10th, plus the final one (default); they are the stacked `lsq.l2_norm`,
`lsq.linf_norm`, `lsq.margin` and `lsq.row_span_residual` calls, given the
products ``Xw``, once per block of recorded rows (at most
`TRACE_BLOCK_FLOATS` floats).  The dev error of an iterate is
`lsq.error_rates` of its first three coordinates.

One iteration equals one epoch here: all gradients are full-batch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import lsq
from .optim import OptimizerSpec, OptimizerState, init_state, step
from .schedules import DecayPolicy, next_alpha

__all__ = [
    "TRACE_HEADER",
    "RunResult",
    "MAX_LABELS",
    "MAX_STACK_SIZE",
    "check_label_stream",
    "check_stack",
    "run_training",
    "run_lockstep",
    "write_trace_csv",
]

TRACE_HEADER = "iter,alpha,train_loss,dev_error,w_l2,w_linf,margin,rowspan_resid"

#: Dense-recording horizon of the default trace cadence.
DENSE_TRACE_LIMIT = 1000
SPARSE_TRACE_EVERY = 10

#: Floats per block of trace rows, whose diagnostics are computed together:
#: each row counts q + n + d floats, its class values (at most q), its ``X w``
#: expanded to rows and its full-length iterate.
TRACE_BLOCK_FLOATS = 1 << 15


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
    """Outcome of one trajectory; `w` is full length (d)."""

    status: str  # "ok" | "diverged" | "singular_preconditioner"
    converged: bool
    w: np.ndarray | None
    final_loss: float
    iterations: int
    trace: list[TraceRow]
    best_dev: float | None = None
    epoch_of_best: int = 0
    failure: str | None = None


#: The longest dev or test label stream (`dev_size`, `m_test`).  Drawing and
#: scoring take about 24 bytes of peak RSS per label and stream (measured on
#: 25 streams of 10^6, a default tune round with a dev stream), so such a
#: round at the ceiling peaks near 0.6 GB, inside the 2 GiB of `lsq`'s
#: ceilings; `MAX_STACK_SIZE` bounds the number of streams.
MAX_LABELS = 10**6

#: The largest lockstep stack: rows times each row's quotient entries,
#: features and dev labels.  On the orbit loop adam tune rounds of 4.8 * 10^7
#: units peak at 509 MiB (60 rows, n = 10^5) and 559 MiB (30 rows, 2 * 10^5),
#: about 9 bytes per unit (27 on the column-quotient loop it was sized on);
#: it admits the default `experiment` at n = 10^6 (5 rows), not a sixth row.
MAX_STACK_SIZE = 45 * 10**6


def check_label_stream(name: str, size: int) -> None:
    """Reject an empty label stream, or one longer than `MAX_LABELS`, before
    it is drawn; `name` is the option that sets its size."""
    if size < 1:
        raise ValueError(f"{name} must be at least 1, got {size}")
    if size > MAX_LABELS:
        raise ValueError(f"{name} = {size} exceeds the ceiling of {MAX_LABELS} labels "
                         "per stream (training.MAX_LABELS, sized for a 2 GiB peak)")


def check_stack(rows: int, row_size: int) -> None:
    """Reject a stack of `rows` rows above `MAX_STACK_SIZE`; `row_size` is a
    row's quotient entries, features and dev labels."""
    size = rows * row_size
    if size > MAX_STACK_SIZE:
        raise ValueError(f"a lockstep stack of {rows} rows has size {size}, above the ceiling "
                         f"of {MAX_STACK_SIZE} (training.MAX_STACK_SIZE, sized for a 2 GiB peak)")


def _should_record(k: int, trace_every: int | None) -> bool:
    if trace_every is not None:
        return k % trace_every == 0
    return k <= DENSE_TRACE_LIMIT or k % SPARSE_TRACE_EVERY == 0


def _append_trace_rows(ds: lsq.Dataset, pending: list) -> None:
    """Append each of the (nonempty) `pending` ``(trace, iteration, alpha,
    train_loss, dev_error, u, xw)`` to its trace and empty `pending`.

    The block's diagnostics are one stacked call each of `lsq.l2_norm`,
    `lsq.linf_norm`, `lsq.margin` and `lsq.row_span_residual` on its (rows,
    d) full-length iterates, given the products ``X w`` the loop made per row
    class (the margin reads them per row: over the classes, a minimum could
    pick -0.0 where the rows' minimum picks +0.0).
    """
    traces, iterations, alphas, losses, devs, u, xw = zip(*pending)
    orbits = ds.orbits
    w, xw = orbits.expand(np.array(u)), np.array(xw)
    norms, xw_rows = lsq.l2_norm(w), xw.take(orbits.row_class, axis=-1)
    diagnostics = (norms, lsq.linf_norm(w), lsq.margin(ds, w, xw_rows, norms),
                   lsq.row_span_residual(orbits, w, xw))
    for trace, k, alpha, loss, dev, norm, linf, margin, resid in zip(
            traces, iterations, alphas, losses, devs, *(v.tolist() for v in diagnostics)):
        trace.append(TraceRow(k, float(alpha), float(loss), dev, norm, linf,
                              margin if norm > 0.0 else math.nan, resid))
    pending.clear()


def run_training(ds: lsq.Dataset, spec: OptimizerSpec, iters: int, *,
                 dev_labels: np.ndarray | None = None, **options) -> RunResult:
    """Run `spec` on `ds` for up to `iters` full-batch iterations: a
    `run_lockstep` stack of one row, with step size ``spec.alpha``."""
    labels = None if dev_labels is None else [dev_labels]
    return run_lockstep(ds, spec, [spec.alpha], iters, dev_labels=labels, **options)[0]


def run_lockstep(ds: lsq.Dataset, spec: OptimizerSpec, alphas, iters: int, *,
                 policy: DecayPolicy = DecayPolicy(), dev_labels=None,
                 stop_loss: float | None = None, trace_every: int | None = None,
                 record_trace: bool = True, cancel=None) -> list[RunResult | None]:
    """Run `spec` once per base step size in `alphas`, as one lockstep stack.

    Row i uses step size ``alphas[i]`` (not ``spec.alpha``) and scores its dev
    error on ``dev_labels[i]``, if given; the results come in that order.  A
    row stops early once its training loss reaches `stop_loss` (that is the
    operational meaning of "converged"; hitting the budget without it leaves
    status "ok" with converged=False).  `policy` adjusts each row's step size
    between epochs; dev-driven decay requires `dev_labels`.  `trace_every`,
    if given, records every `trace_every`-th iteration (and the last) instead
    of the default cadence.  `cancel`, if given, is called after each
    iteration in which rows stopped, with a dict of those rows' results by
    row; it returns the rows to drop from the stack (rows no longer running
    are ignored).  A dropped row takes no further step and its result is None.
    """
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    if trace_every is not None and trace_every < 1:
        raise ValueError(f"trace_every must be at least 1, got {trace_every}")
    if stop_loss is not None and math.isnan(stop_loss):
        raise ValueError(f"stop_loss must be a number, got {stop_loss}")
    if policy.kind == "dev_decay" and dev_labels is None:
        raise ValueError("dev_decay policy needs a dev label stream")
    alpha = np.array(alphas, dtype=np.float64).reshape(-1, 1)
    n_rows = len(alpha)
    check_stack(n_rows, ds.val.size + ds.d
                + (0 if dev_labels is None else max(map(len, dev_labels), default=0)))

    # The class multiplicities, labels and step sizes repeated to the stack's
    # shape, so that no op of an iteration broadcasts.  Every row of `m` and
    # `y` is the same, so a shorter stack uses their first rows.
    orbits = ds.orbits
    m_rows, y_rows = np.tile(orbits.multiplicity, (n_rows, 1)), np.tile(orbits.y, (n_rows, 1))
    m, y = m_rows, y_rows
    rates = np.repeat(alpha, orbits.multiplicity.size, axis=1)
    state = init_state(spec, np.zeros(m.shape))
    # Row r's result is completed when r stops; its trace rows arrive by block.
    results = [RunResult("ok", False, None, math.nan, 0, []) for _ in range(n_rows)]
    rows = list(range(n_rows))  # stack position -> row
    # Trace rows wait, as views of the arrays the loop makes (and never
    # writes into), until a block of TRACE_BLOCK_FLOATS floats is full.
    pending, block = [], max(1, TRACE_BLOCK_FLOATS // (ds.multiplicity.size + ds.n + ds.d))

    # The dev record, one list entry per row in the stack (Python numbers).
    counts = dev = best_dev = epoch_of_best = improved = None
    if dev_labels is not None:
        counts = lsq.label_counts(dev_labels)
        best_dev, epoch_of_best = [math.inf] * n_rows, [0] * n_rows
    decays = policy.kind != "none"

    def residual_at(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # `lsq.residual` of a class stack, per row class, with the product it
        # subtracts y from.
        xw = lsq.quotient_product(orbits, m * v)
        return xw, xw - y

    def grad_at(v: np.ndarray) -> np.ndarray:
        # Without extrapolation the engine asks for the gradient at state.w
        # itself, whose residual the loss has already computed.
        return lsq.residual_gradient(orbits, resid if v is state.w else residual_at(v)[1])

    def record(i: int, k: int) -> None:
        pending.append((results[rows[i]].trace, k, alpha[i, 0], loss[i],
                        math.nan if dev is None else dev[i], state.w[i], xw[i]))
        if len(pending) == block:
            _append_trace_rows(ds, pending)

    def finish(i: int, k: int, status: str = "ok", converged: bool = False,
               failure: str | None = None) -> None:
        res = results[rows[i]]
        res.status, res.converged, res.failure = status, converged, failure
        res.w, res.final_loss, res.iterations = orbits.expand(state.w[i]), float(loss[i]), k
        if best_dev is not None:
            res.best_dev, res.epoch_of_best = best_dev[i], epoch_of_best[i]

    def keep_rows(keep: np.ndarray) -> None:
        # Every row leaves the stack here, once it has its result.
        nonlocal rows, state, xw, resid, loss, alpha, rates, m, y, counts, best_dev, epoch_of_best
        if cancel is not None:
            dropped = set(cancel({rows[i]: results[rows[i]] for i in np.flatnonzero(~keep)}))
            for i in np.flatnonzero(keep):
                if rows[i] in dropped:
                    keep[i], results[rows[i]] = False, None
        rows = [r for r, kept in zip(rows, keep) if kept]
        state = OptimizerState(state.k, state.w[keep], state.w_prev[keep], state.g_accum[keep],
                               None if state.h is None else state.h[keep])
        xw, resid, loss = xw[keep], resid[keep], loss[keep]
        alpha, rates = alpha[keep], rates[keep]
        m, y = m_rows[:len(rows)], y_rows[:len(rows)]
        if counts is not None:
            counts, best_dev, epoch_of_best = (
                [v for v, kept in zip(values, keep) if kept]
                for values in (counts, best_dev, epoch_of_best))

    # After its checks, the stack holds the rows still running, each with a
    # finite loss.  A stack is short: Python's min and sum of its loss list
    # cost less than a ufunc reduction.
    k, failed = 0, []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            # One product per iterate: the loss, the next gradient (via the
            # residual) and the trace's margin and span projection all use it.
            xw, resid = residual_at(state.w)
            # The loss sums the n residuals, pairwise in row order.
            loss = lsq.residual_loss(resid.take(orbits.row_class, axis=-1))
            if not math.isfinite(sum(loss.tolist())):
                for i in np.flatnonzero(~np.isfinite(loss)):
                    if i not in failed:
                        finish(i, k, "diverged", failure=f"non-finite loss at iteration {k}")
                        failed.append(i)
            if failed:
                keep_rows(np.isin(np.arange(len(rows)), failed, invert=True))
            if not rows:
                break
            if counts is not None:
                # A dev score reads features 1-3 only (`lsq.error_rates`).
                dev = lsq.error_rates(orbits.expand(state.w, slice(3)), counts)
                improved = [d < best for d, best in zip(dev, best_dev)]
                for i in compress(range(len(dev)), improved):
                    best_dev[i], epoch_of_best[i] = dev[i], k
            last = k == iters
            converged = None
            if stop_loss is not None and min(loss.tolist()) <= stop_loss:
                converged = loss <= stop_loss
            if record_trace and (last or _should_record(k, trace_every)):
                for i in range(len(rows)):
                    record(i, k)
            elif record_trace and converged is not None:
                for i in np.flatnonzero(converged):
                    record(i, k)
            if last:
                for i in range(len(rows)):
                    finish(i, k, converged=converged is not None and bool(converged[i]))
                keep_rows(np.zeros(len(rows), dtype=bool))
                break
            if decays and k > 0:  # a converged row's new rate goes with it
                for i in range(len(rows)):
                    a = next_alpha(policy, float(alpha[i, 0]), k,
                                   improved=improved is not None and improved[i])
                    if a != alpha[i, 0]:
                        alpha[i, 0] = rates[i] = a
            if converged is not None:
                for i in np.flatnonzero(converged):
                    finish(i, k, converged=True)
                keep_rows(~converged)
                if not rows:
                    break
            new = step(state, spec, grad_at, rates)
            failed = [i for i, _, _ in new.failures]
            for i, status, failure in new.failures:
                finish(i, k, status, failure=failure)
            state = new
            k += 1
        if pending:
            _append_trace_rows(ds, pending)
    return results


def write_trace_csv(trace: list[TraceRow], path) -> None:
    """Write the fixed-header learning-curve CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER.split(","))
        for row in trace:
            writer.writerow([row.iteration, *map(repr, (
                row.alpha, row.train_loss, row.dev_error, row.w_l2, row.w_linf, row.margin,
                row.rowspan_resid))])
