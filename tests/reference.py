"""Plain reference implementations the tests check the package against.

Each one is written from the dense design or from the definitions, not from
the code paths it checks: the dense matrices, the design's rows in the file
format, the scores of fresh points, the paper's lemma that adaptive methods
started at zero stay on the line ``lambda_k * sign(X^T y)``, and one run on
the column quotient, the run loop's form before its orbit quotient.
"""

import math
from dataclasses import dataclass

import numpy as np

from optlab import lsq, training
from optlab.errors import LemmaPreconditionError
from optlab.optim import init_state, step


def dense_quotient(ds):
    """The n-by-q quotient ``X_q``, dense, from its entry arrays."""
    xq = np.zeros((ds.n, ds.multiplicity.size))
    xq[ds.row, ds.col] = ds.val
    return xq


def dense(ds):
    """The n-by-d design, expanded to dense from its column quotient."""
    return ds.expand(dense_quotient(ds))


def dense_gram(ds):
    """The Gram matrix ``X X^T`` of the design, expanded to dense."""
    x = dense(ds)
    return x @ x.T


def design_rows(ds):
    """The design as n rows of 1-based ``(index, value)`` pairs in index
    order (the file format), read off the dense design."""
    x = dense(ds)
    return tuple(tuple((int(j) + 1, float(x[i, j])) for j in np.flatnonzero(x[i]))
                 for i in range(ds.n))


def test_scores(w, labels):
    """Inner products of `w` with fresh draws of the given labels.

    A fresh point's private block lies outside the training dimensions, so
    only the first three coordinates of `w` contribute.  For an (R, d) stack
    of weight vectors, row i of `labels` goes with row i of `w`.  This is the
    per-label reference for `lsq.error_rates`.
    """
    w = np.asarray(w, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return w[..., 0, None] * labels + w[..., 1, None] + w[..., 2, None]


test_scores.__test__ = False  # a reference, not a test for pytest to collect


@dataclass(frozen=True)
class LemmaTrace:
    """Deviation of a trajectory from the constant-sign-pattern line.

    `lambdas` holds the per-iterate scale read off the first supported
    coordinate; `max_deviation` is the largest gap to ``lambda_k * sign(u)``
    over supported coordinates; `off_support_max` is the largest absolute
    value ever seen on coordinates where ``u = X^T y`` vanishes (exactly 0.0
    for a conforming run).
    """

    lambdas: np.ndarray
    max_deviation: float
    off_support_max: float


def verify_lemma_trajectory(iterates, ds) -> LemmaTrace:
    """Measure how far a trajectory strays from the constant-sign line.

    `iterates` must start at the zero vector (raises otherwise).  For each
    iterate the scale ``lambda_k`` is read off the first supported
    coordinate of ``u = X^T y`` (for synthetic data that is coordinate 1,
    whose correlation is n > 0); the deviation is measured on supported
    coordinates and the largest magnitude seen off support is reported
    separately, since a conforming run keeps those exactly zero.
    """
    iterates = list(iterates)
    if not iterates:
        raise ValueError("empty trajectory")
    first = np.asarray(iterates[0], dtype=np.float64)
    if np.any(first != 0.0):
        raise LemmaPreconditionError("trajectory must start at the zero vector")

    u = ds.expand(lsq.quotient_t_product(ds, ds.y))
    support = u != 0.0
    if not support.any():
        raise LemmaPreconditionError("X^T y vanishes everywhere")
    signs = np.sign(u[support])
    j0 = int(np.argmax(support))
    s0 = np.sign(u[j0])

    lambdas = np.empty(len(iterates))
    max_dev = 0.0
    off_max = 0.0
    for t, w in enumerate(iterates):
        w = np.asarray(w, dtype=np.float64)
        lam = float(w[j0] * s0)
        lambdas[t] = lam
        max_dev = max(max_dev, float(np.max(np.abs(w[support] - lam * signs))))
        if not support.all():
            off_max = max(off_max, float(np.max(np.abs(w[~support]))))

    return LemmaTrace(lambdas=lambdas, max_deviation=max_dev, off_support_max=off_max)


def quotient_run(ds, spec, alpha, iters, *, dev_labels=None, stop_loss=None,
                 trace_every=None):
    """One `training.run_lockstep` row, without a decay policy, run plainly on
    the column quotient: a (q,) state stepped by `step`, the products
    ``X_q diag(multiplicity) u`` and ``2 X_q^T r`` over all n rows, and each
    trace row's diagnostics from the standalone `lsq` calls."""
    counts = None if dev_labels is None else lsq.label_counts([dev_labels])
    state = init_state(spec, np.zeros(ds.multiplicity.size))
    result = training.RunResult("ok", False, None, math.nan, 0, [])
    best, epoch_of_best, k = math.inf, 0, 0

    def residual_at(v):
        xw = lsq.quotient_product(ds, ds.multiplicity * v)
        return xw, xw - ds.y

    def grad_at(v):
        return lsq.residual_gradient(ds, resid if v is state.w else residual_at(v)[1])

    def finish(status="ok", converged=False, failure=None):
        result.status, result.converged, result.failure = status, converged, failure
        result.w, result.final_loss, result.iterations = ds.expand(state.w), float(loss), k
        if counts is not None:
            result.best_dev, result.epoch_of_best = best, epoch_of_best
        return result

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            xw, resid = residual_at(state.w)
            loss = lsq.residual_loss(resid)
            if not math.isfinite(loss):
                return finish("diverged", failure=f"non-finite loss at iteration {k}")
            dev = math.nan
            if counts is not None:
                [dev] = lsq.error_rates(ds.expand(state.w)[None], counts)
                if dev < best:
                    best, epoch_of_best = dev, k
            converged = stop_loss is not None and loss <= stop_loss
            cadence = (k % trace_every == 0 if trace_every is not None
                       else k <= training.DENSE_TRACE_LIMIT
                       or k % training.SPARSE_TRACE_EVERY == 0)
            if k == iters or cadence or converged:
                w = ds.expand(state.w)
                norm = lsq.l2_norm(w)
                result.trace.append(training.TraceRow(
                    k, float(alpha), float(loss), dev, norm, lsq.linf_norm(w),
                    lsq.margin(ds, w, xw, norm) if norm > 0.0 else math.nan,
                    lsq.row_span_residual(ds, w, xw)))
            if k == iters or converged:
                return finish(converged=converged)
            new = step(state, spec, grad_at, alpha)
            if new.failures:
                [(_, status, failure)] = new.failures
                return finish(status, failure=failure)
            state, k = new, k + 1


def orbit_classes(ds):
    """Each row's and each quotient column's orbit class, by the definition:
    refine row classes from the labels and column classes from the
    multiplicities until neither splits, a row keyed by its class and its
    (value bits, column class) entries in column order, a column by its class
    and its (value bits, row class) entries in row order.  Classes are
    numbered in the order of their first member."""
    entries = list(zip(ds.row.tolist(), ds.col.tolist(), ds.val.view(np.uint64).tolist()))
    by_column = sorted(entries, key=lambda e: (e[1], e[0]))

    def numbered(keys):
        first = {}
        return [first.setdefault(key, len(first)) for key in keys]

    rows, cols = numbered(ds.y.tolist()), numbered(ds.multiplicity.tolist())
    while True:
        new_rows = numbered((rows[i], tuple((b, cols[c]) for r, c, b in entries if r == i))
                            for i in range(ds.n))
        new_cols = numbered((cols[j], tuple((b, new_rows[r]) for r, c, b in by_column if c == j))
                            for j in range(len(cols)))
        if (new_rows, new_cols) == (rows, cols):
            return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
        rows, cols = new_rows, new_cols
