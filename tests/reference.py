"""Plain reference implementations the tests check the package against.

Each one is written from the dense design or from the definitions, not from
the code paths it checks: the dense matrices, the design's rows in the file
format, the scores of fresh points, the paper's lemma that adaptive methods
started at zero stay on the line ``lambda_k * sign(X^T y)``, and the column
quotient, the form of the run loop and the oracles before the orbit quotient,
with one run on it and the full-length ``X w = X_q S w`` (`product`) and
what reads it: the residual, the loss and the margin; and the trace's
diagnostics as they were computed over full-length iterates, the margin and
the span residual with its projection ``P w``.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from optlab import lsq, training
from optlab.errors import LemmaPreconditionError
from optlab.optim import init_state, step


def column_quotient(ds):
    """The design's column quotient: the `lsq.Quotient` with one class per
    row and per quotient column."""
    return lsq.Quotient(ds, np.arange(ds.n), np.arange(ds.multiplicity.size))


def group_sums(ds, w):
    """``S w``: w summed over each quotient column's features, one by one in
    feature order, for a full-length weight vector or row by row for an
    (R, d) stack (a fold of weight 1, whose products are exact)."""
    kept = ds.columns >= 0
    fold = lsq._Fold(ds.columns[kept], np.flatnonzero(kept), np.ones(int(kept.sum())),
                     ds.multiplicity.size)
    return fold(np.asarray(w, dtype=np.float64))


def product(ds, w):
    """``X w = X_q S w`` for a full-length weight vector, or row by row for
    an (R, d) stack: the column quotient's forward fold of `group_sums`."""
    return lsq.quotient_product(column_quotient(ds), group_sums(ds, w))


def residual(ds, w):
    """``X w - y`` for a weight vector, or row by row for an (R, d) stack."""
    return product(ds, w) - ds.y


def loss(ds, w):
    """The squared interpolation error ``||X w - y||^2`` of a weight vector."""
    if np.shape(w) != (ds.d,):
        raise ValueError(f"weight vector must have shape ({ds.d},), got {np.shape(w)}")
    return float(lsq.residual_loss(residual(ds, w)))


def full_length(ds, w):
    """`w` as float64, which must be a full-length weight vector or an (R, d)
    stack of them (`ds` is a dataset or a quotient)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1:] != (ds.d,) or w.ndim > 2:
        raise ValueError(f"weight vector must have shape ({ds.d},) or (R, {ds.d}), got {w.shape}")
    return w


def margin(ds, w, xw=None):
    """``min_i y_i (X w)_i / ||w||`` of a full-length `w` (a float; the zero
    vector raises), or of each row of an (R, d) stack (NaN for a zero row),
    with the norm over its d entries, given `xw`, ``X w`` per row (by
    default `product`)."""
    w = full_length(ds, w)
    norm = lsq.l2_norm(w)
    if w.ndim == 1 and norm == 0.0:
        raise ValueError("margin is undefined for the zero vector")
    worst = np.minimum.reduce(ds.y * (product(ds, w) if xw is None else xw), axis=-1)
    with np.errstate(invalid="ignore"):
        return float(worst / norm) if w.ndim == 1 else worst / norm


def gradient(ds, w):
    """The full-length gradient ``2 X^T (X w - y)`` at `w`, on the column
    quotient."""
    cq = column_quotient(ds)
    return cq.expand(lsq.residual_gradient(cq, residual(ds, w)))


def projection(q, w, xw):
    """The full-length projection ``X^T (X X^T)^+ X w`` of `w`, or of each
    row of an (R, d) stack, onto the span of the rows, on the quotient `q`,
    given `xw`, ``X w`` per row class of `q`."""
    full_length(q, w)
    if not np.all(np.isfinite(xw)):
        raise ValueError("array must not contain infs or NaNs")
    return q.expand(lsq.quotient_t_product(q, q.gram_solve(xw)))


def span_residual(ds, w, q=None, xw=None):
    """Distance ``||w - P w||`` from a full-length `w`, or from each row of an
    (R, d) stack, to the span of the rows, subtracted and summed over its d
    entries: `projection` on the quotient `q` given `xw`, by default the
    column quotient and `product`."""
    w = full_length(ds, w)
    if q is None:
        q, xw = column_quotient(ds), product(ds, w)
    return lsq.l2_norm(w - projection(q, w, xw))


def on_column_quotient(ds):
    """A copy of `ds` whose `orbits` is its column quotient, so that the code
    that reads ``ds.orbits`` (the run loop and the oracles) runs on that."""
    ref = copy.copy(ds)
    vars(ref)["orbits"] = column_quotient(ds)
    return ref


def dense_quotient(ds):
    """The n-by-q quotient ``X_q``, dense, from its entry arrays."""
    xq = np.zeros((ds.n, ds.multiplicity.size))
    xq[ds.row, ds.col] = ds.val
    return xq


def dense(ds):
    """The n-by-d design, expanded to dense from its column quotient."""
    return column_quotient(ds).expand(dense_quotient(ds))


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

    cq = column_quotient(ds)
    u = cq.expand(lsq.quotient_t_product(cq, cq.y))
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
    trace row's diagnostics from its full-length iterate."""
    cq = column_quotient(ds)
    counts = None if dev_labels is None else lsq.label_counts([dev_labels])
    state = init_state(spec, np.zeros(ds.multiplicity.size))
    result = training.RunResult("ok", False, None, math.nan, 0, [])
    best, epoch_of_best, k = math.inf, 0, 0

    def residual_at(v):
        xw = lsq.quotient_product(cq, cq.multiplicity * v)
        return xw, xw - cq.y

    def grad_at(v):
        return lsq.residual_gradient(cq, resid if v is state.w else residual_at(v)[1])

    def finish(status="ok", converged=False, failure=None):
        result.status, result.converged, result.failure = status, converged, failure
        result.w, result.final_loss, result.iterations = cq.expand(state.w), float(loss), k
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
                [dev] = lsq.error_rates(cq.expand(state.w)[None], counts)
                if dev < best:
                    best, epoch_of_best = dev, k
            converged = stop_loss is not None and loss <= stop_loss
            cadence = (k % trace_every == 0 if trace_every is not None
                       else k <= training.DENSE_TRACE_LIMIT
                       or k % training.SPARSE_TRACE_EVERY == 0)
            if k == iters or cadence or converged:
                w = cq.expand(state.w)
                norm = lsq.l2_norm(w)
                result.trace.append(training.TraceRow(
                    k, float(alpha), float(loss), dev, norm, lsq.linf_norm(w),
                    margin(ds, w, xw) if norm > 0.0 else math.nan,
                    span_residual(ds, w, cq, xw)))
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
