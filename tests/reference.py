"""Plain reference implementations the tests check the package against.

Each one is written from the dense design or from the definitions, not from
the code paths it checks: the dense matrices, the design's rows in the file
format, the scores of fresh points, and the paper's lemma that adaptive
methods started at zero stay on the line ``lambda_k * sign(X^T y)``.
"""

from dataclasses import dataclass

import numpy as np

from optlab import lsq
from optlab.errors import LemmaPreconditionError


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
