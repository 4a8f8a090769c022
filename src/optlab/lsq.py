"""Least-squares binary classification with sparse rows.

The training objective is the squared interpolation error ``||Xw - y||^2``
over labels in {-1, +1}.  Rows arrive as sparse ``(index, value)`` pairs
with 1-based feature indices (the generator emits values in {-1, +1}; hand-
built designs may use any finite reals).  The design's one numeric form is
its column quotient: CSR over the q distinct nonzero columns, with a
multiplicity per column and a map from every feature to its column, so that
``X w = X_q S w`` where ``S w`` sums w over each group of identical columns.
Every product, loss, gradient and diagnostic reads it, and the Gram system
``X X^T c = b`` is solved by conjugate gradients on it, never formed.

The synthetic family is deliberately overparameterized (``d = 3 + 5n``):
feature 1 equals the label, features 2 and 3 are constant one, and every
example owns a private block of indicator features -- width 1 for positive
examples and width 5 for negative ones -- so only the first feature carries
out-of-sample signal.  Its quotient has n + 2 columns: features 2 and 3
merge, so does each negative example's block, and the 4 unused slots of each
positive example's block are dropped.  Fresh test points are never
materialized as rows: their private block would land outside the training
dimensions, so a test inner product reduces to the first three coordinates
(see `test_scores`).
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain

import numpy as np
from scipy import sparse

from .errors import DataGenerationError

__all__ = [
    "Dataset",
    "generate_synthetic",
    "loss",
    "gradient",
    "product",
    "quotient_product",
    "residual",
    "residual_loss",
    "residual_gradient",
    "l2_norm",
    "test_scores",
    "margin",
    "row_span_residual",
    "dataset_to_document",
    "dataset_from_document",
    "save_dataset",
    "load_dataset",
]

Row = tuple[tuple[int, float], ...]

#: Redraws allowed before the generator gives up on a label imbalance.
MAX_REDRAWS = 1000

#: Relative residual at which `Dataset.gram_solve` stops.
CG_TOL = 1e-14


class Dataset:
    """Design matrix plus labels, held as the design's column quotient.

    `rows` is the n-by-d design: n rows of 1-based ``(index, value)`` pairs,
    or a scipy sparse n-by-d matrix.  Bit-identical columns are merged
    (columns equal only up to sign or scale stay apart) and all-zero columns
    are dropped.  What is kept:

    * `quotient`, the n-by-q CSR matrix ``X_q`` of the distinct nonzero
      columns, in the order of their first feature, and `quotient_t`, its
      transpose as CSR;
    * `columns`, for each (0-based) feature, the index of its quotient
      column, or -1 for an all-zero column;
    * `multiplicity`, the number of features in each quotient column.

    `p`/`seed` are present only for synthetic data; `rejections` counts
    redraws the generator needed before the positive class outnumbered the
    negative one.  Treat instances as immutable.
    """

    def __init__(self, n: int, d: int, rows, y, p: float | None = None,
                 seed: int | None = None, rejections: int = 0) -> None:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {y.shape}")
        if not np.all(np.abs(y) == 1.0):
            raise ValueError("labels must be +1 or -1")
        design = _design_csr(n, d, rows)
        self.n, self.d, self.y = n, d, y
        self.p, self.seed, self.rejections = p, seed, rejections
        self.columns, quotient = _column_quotient(design)
        self.multiplicity = np.bincount(self.columns[self.columns >= 0],
                                        minlength=quotient.shape[1]).astype(np.float64)
        self.quotient = quotient.tocsr()
        self.quotient_t = quotient.T  # CSR: the transpose of CSC

    @property
    def n_pos(self) -> int:
        return int(np.sum(self.y > 0))

    @property
    def n_neg(self) -> int:
        return int(np.sum(self.y < 0))

    @property
    def label_sum(self) -> int:
        return self.n_pos - self.n_neg

    @cached_property
    def _grouping(self) -> sparse.csr_array:
        """The q-by-d 0/1 matrix S with ``X = X_q S``: row c marks the features of column c."""
        kept = np.flatnonzero(self.columns >= 0)
        return sparse.csr_array((np.ones(kept.size), (self.columns[kept], kept)),
                                shape=(self.multiplicity.size, self.d))

    @property
    def rows(self) -> tuple[Row, ...]:
        """The design as n rows of 1-based ``(index, value)`` pairs in index
        order (the file format), rebuilt from the quotient."""
        x = self.quotient @ self._grouping  # one product per entry: exact
        x.sort_indices()
        index, values, ptr = (x.indices + 1).tolist(), x.data.tolist(), x.indptr.tolist()
        return tuple(tuple(zip(index[a:b], values[a:b])) for a, b in zip(ptr[:-1], ptr[1:]))

    def reduce(self, w: np.ndarray) -> np.ndarray:
        """Group sums ``S w`` of a full-length vector, or per row of an (R, d)
        stack: entry c sums w over the features of quotient column c."""
        return np.ascontiguousarray((self._grouping @ w.T).T)

    def expand(self, u: np.ndarray, features=slice(None)) -> np.ndarray:
        """Full-length vector(s) from quotient ones: feature j takes
        ``u[..., columns[j]]``, and an all-zero column takes 0.  `features`
        selects the features to return."""
        cols = self.columns[features]
        kept = cols >= 0
        out = np.zeros(np.shape(u)[:-1] + cols.shape)
        out[..., kept] = u[..., cols[kept]]
        return out

    def gram_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``X X^T c = b`` by conjugate gradients from ``c = 0``, with
        ``X X^T = X_q diag(multiplicity) X_q^T``.

        Each step takes two CSR products and numpy sums (no BLAS threads).  It
        stops once the residual is at most `CG_TOL` times ``|b|``, after 2n
        steps, or on breakdown (no positive curvature).  The iterates stay in
        the range of ``X X^T``, so dependent rows need no special case.  Callers
        check the residual.
        """
        c = np.zeros(self.n)
        r = np.array(b, dtype=np.float64)
        p = r.copy()
        rr = float(np.sum(r * r))
        stop = CG_TOL * CG_TOL * rr
        for _ in range(2 * self.n):
            if not rr > stop:
                break
            q = self.quotient @ (self.multiplicity * (self.quotient_t @ p))
            curvature = float(np.sum(p * q))
            if not curvature > 0.0:
                break
            a = rr / curvature
            c += a * p
            r -= a * q
            rr, rr_old = float(np.sum(r * r)), rr
            p = r + (rr / rr_old) * p
        return c

    def _span_projector(self, w: np.ndarray, xw: np.ndarray | None = None) -> np.ndarray:
        """Projection ``X^T (X X^T)^+ X w`` of w onto the span of the rows;
        `xw` is ``X w`` if the caller already has it."""
        xw = product(self, w) if xw is None else xw
        if not np.all(np.isfinite(xw)):
            raise ValueError("array must not contain infs or NaNs")
        return self.expand(self.quotient_t @ self.gram_solve(xw))


def _design_csr(n: int, d: int, rows) -> sparse.csr_array:
    """Validated canonical CSR (sorted, summed duplicates, no stored zeros) of
    the n-by-d design given as rows of 1-based pairs or as a sparse matrix."""
    if sparse.issparse(rows):
        if rows.shape != (n, d):
            raise ValueError(f"design must have shape ({n}, {d}), got {rows.shape}")
        design = sparse.csr_array(rows, dtype=np.float64, copy=True)
    else:
        lengths = np.fromiter(map(len, rows), dtype=np.int64)
        if lengths.size != n:
            raise ValueError("row count does not match n")
        entries = list(chain.from_iterable(rows))
        if np.any(np.fromiter(map(len, entries), dtype=np.int64, count=len(entries)) != 2):
            raise ValueError("row entries must be (index, value) pairs")
        index, values = np.fromiter(chain.from_iterable(entries), dtype=np.float64,
                                    count=2 * len(entries)).reshape(-1, 2).T
        valid = (index >= 1) & (index <= d) & (index == np.floor(index))
        if not valid.all():
            raise ValueError(f"feature index {index[~valid][0]:.17g} outside 1..{d}")
        design = sparse.csr_array(
            (values, (np.repeat(np.arange(n), lengths), index.astype(np.int64) - 1)),
            shape=(n, d))
    if not np.all(np.isfinite(design.data)):
        raise ValueError("design values must be finite")
    design.sum_duplicates()
    design.eliminate_zeros()
    return design


_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, elementwise on uint64 (wrapping arithmetic)."""
    x = (x ^ (x >> 30)) * _MIX1
    x = (x ^ (x >> 27)) * _MIX2
    return x ^ (x >> 31)


def _column_keys(xc: sparse.csc_array, bits: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each column's (row, value bits) entries; 0 if empty."""
    nonempty = np.flatnonzero(np.diff(xc.indptr))
    keys = np.zeros(xc.shape[1], dtype=np.uint64)
    if nonempty.size:
        entry = _mix(_mix(xc.indices.astype(np.uint64)) ^ bits)
        keys[nonempty] = np.add.reduceat(entry, xc.indptr[nonempty])
    return keys


def _column_quotient(design: sparse.csr_array) -> tuple[np.ndarray, sparse.csc_array]:
    """The feature-to-column map and the CSC matrix of distinct nonzero columns.

    Columns are bucketed by (entry count, hash), and each column is then
    compared entry for entry, value bits included, with the first column of
    its bucket.  Columns that differ from it (a hash collision) go round
    again among themselves, so a merge never rests on the hash alone.
    """
    xc = design.tocsc()
    xc.sort_indices()
    d = xc.shape[1]
    nnz = np.diff(xc.indptr)
    bits = xc.data.view(np.uint64)
    keys = _column_keys(xc, bits)
    rep_of = np.full(d, -1)  # feature -> first feature of its group
    pending = np.flatnonzero(nnz)
    while pending.size:
        cols = pending[np.lexsort((pending, keys[pending], nnz[pending]))]
        first = np.ones(cols.size, dtype=bool)
        first[1:] = (keys[cols[1:]] != keys[cols[:-1]]) | (nnz[cols[1:]] != nnz[cols[:-1]])
        rep = cols[first][np.cumsum(first) - 1]
        count = nnz[cols]
        start = np.cumsum(count) - count
        offset = np.arange(count.sum()) - np.repeat(start, count)
        a = np.repeat(xc.indptr[cols], count) + offset
        b = np.repeat(xc.indptr[rep], count) + offset
        differs = (xc.indices[a] != xc.indices[b]) | (bits[a] != bits[b])
        same = ~np.logical_or.reduceat(differs, start)
        rep_of[cols[same]] = rep[same]
        pending = cols[~same]
    reps = np.flatnonzero(rep_of == np.arange(d))
    rank = np.full(d, -1)
    rank[reps] = np.arange(reps.size)
    columns = np.where(rep_of >= 0, rank[rep_of], -1)
    return columns, xc[:, reps]


def _synthetic_design(y: np.ndarray) -> sparse.csr_array:
    """The synthetic CSR design for labels `y`: row i holds (label, 1, 1) on
    features 1-3 and ones on its private block, starting at feature 4 + 5i."""
    n = y.size
    length = np.where(y > 0, 4, 8)
    indptr = np.concatenate([[0], np.cumsum(length)])
    row = np.repeat(np.arange(n), length)
    slot = np.arange(indptr[-1]) - indptr[row]
    indices = np.where(slot < 3, slot, 5 * row + slot)
    data = np.where(slot == 0, y[row], 1.0)
    return sparse.csr_array((data, indices, indptr), shape=(n, 3 + 5 * n))


def generate_synthetic(n: int, p: float, seed: int, max_redraws: int = MAX_REDRAWS) -> Dataset:
    """Draw a synthetic dataset of `n` examples with positive-class rate `p`.

    Labels are i.i.d. +1 with probability `p`.  Draws whose label sum is not
    strictly positive are rejected and redrawn from a seed derived from
    ``(seed, attempt)``; the number of rejections is recorded on the result.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.5 < p < 1.0:
        raise ValueError(f"p must lie in (1/2, 1), got {p}")
    for attempt in range(max_redraws + 1):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        y = np.where(rng.random(n) < p, 1.0, -1.0)
        if y.sum() > 0:
            return Dataset(n=n, d=3 + 5 * n, rows=_synthetic_design(y), y=y, p=p, seed=seed,
                           rejections=attempt)
    raise DataGenerationError(
        f"no draw with positive label sum in {max_redraws + 1} attempts (n={n}, p={p})"
    )


def _check_dim(ds: Dataset, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (ds.d,):
        raise ValueError(f"weight vector must have shape ({ds.d},), got {w.shape}")
    return w


def quotient_product(ds: Dataset, s: np.ndarray) -> np.ndarray:
    """``X_q s`` for group sums s, shape (q,), or row by row for an (R, q) stack.

    Each row is bit for bit its solo CSR product whatever R is; a stack comes
    back C-contiguous, so reductions over it take the single-vector path.
    """
    return np.ascontiguousarray((ds.quotient @ s.T).T)


def product(ds: Dataset, w: np.ndarray) -> np.ndarray:
    """``Xw = X_q S w`` for a full-length weight vector, or row by row for an
    (R, d) stack."""
    return quotient_product(ds, ds.reduce(w))


def residual(ds: Dataset, w: np.ndarray) -> np.ndarray:
    """``Xw - y`` for a weight vector, or row by row for an (R, d) stack."""
    return product(ds, w) - ds.y


def residual_loss(r: np.ndarray) -> np.ndarray:
    """``r . r`` for a residual, or per row of a stack of them, as a numpy sum
    (not a BLAS dot, whose bits depend on the thread count)."""
    return np.sum(r * r, axis=-1)


def residual_gradient(ds: Dataset, r: np.ndarray) -> np.ndarray:
    """``2 X_q^T r`` for a residual, or per row of a stack of them
    (C-contiguous): entry c is the gradient of every feature of column c."""
    return np.ascontiguousarray(2.0 * (ds.quotient_t @ r.T).T)


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, by the reduction of `residual_loss`."""
    return float(np.sqrt(residual_loss(v)))


def loss(ds: Dataset, w: np.ndarray) -> float:
    """Squared interpolation error ``||Xw - y||^2``."""
    return float(residual_loss(residual(ds, _check_dim(ds, w))))


def gradient(ds: Dataset, w: np.ndarray) -> np.ndarray:
    """Gradient ``2 X^T (Xw - y)`` of `loss` (the factor 2 is kept).

    Sparse columns never touched by any example receive an exact 0.0, which
    the trajectory checks in the oracle module rely on.
    """
    return ds.expand(residual_gradient(ds, residual(ds, _check_dim(ds, w))))


def test_scores(w: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Inner products of `w` with fresh draws of the given labels.

    A fresh point's private block lies outside the training dimensions, so
    only the first three coordinates of `w` contribute.  For an (R, d) stack
    of weight vectors, row i of `labels` goes with row i of `w`.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] < 3:
        raise ValueError("weight vector must have at least 3 coordinates")
    labels = np.asarray(labels, dtype=np.float64)
    return w[..., 0, None] * labels + w[..., 1, None] + w[..., 2, None]


def margin(ds: Dataset, w: np.ndarray, xw: np.ndarray | None = None) -> float:
    """Normalized worst-case score ``min_i y_i <w, x_i> / ||w||``.

    `xw` is the product ``X w`` if the caller already has it.
    """
    w = _check_dim(ds, w)
    norm = l2_norm(w)
    if norm == 0.0:
        raise ValueError("margin is undefined for the zero vector")
    return float(np.min(ds.y * (product(ds, w) if xw is None else xw)) / norm)


def row_span_residual(ds: Dataset, w: np.ndarray, xw: np.ndarray | None = None) -> float:
    """Distance from `w` to the span of the data rows.

    `xw` is the product ``X w`` if the caller already has it.
    """
    w = _check_dim(ds, w)
    return l2_norm(w - ds._span_projector(w, xw))


# ---------------------------------------------------------------------------
# serialization (JSON document; 1-based feature indices)
# ---------------------------------------------------------------------------


def dataset_to_document(ds: Dataset) -> dict:
    return {
        "n": ds.n,
        "d": ds.d,
        "p": ds.p,
        "seed": ds.seed,
        "labels": [int(v) for v in ds.y],
        "rows": [[[j, v] for j, v in row] for row in ds.rows],
        "rejections": ds.rejections,
    }


def dataset_from_document(doc: dict) -> Dataset:
    if not isinstance(doc, dict):
        raise ValueError("dataset document must be a JSON object")
    missing = [key for key in ("n", "d", "labels", "rows") if key not in doc]
    if missing:
        raise ValueError(f"dataset document lacks {', '.join(map(repr, missing))}")
    try:
        return Dataset(
            n=int(doc["n"]),
            d=int(doc["d"]),
            rows=doc["rows"],
            y=np.asarray(doc["labels"], dtype=np.float64),
            p=None if doc.get("p") is None else float(doc["p"]),
            seed=None if doc.get("seed") is None else int(doc["seed"]),
            rejections=int(doc.get("rejections", 0)),
        )
    except (TypeError, OverflowError) as exc:  # a wrong JSON type, or beyond the float range
        raise ValueError(f"malformed dataset document: {exc}") from None


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_document(ds), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return dataset_from_document(json.load(fh))
