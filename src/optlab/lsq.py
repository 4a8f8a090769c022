"""Least-squares binary classification with sparse rows.

The training objective is the squared interpolation error ``||Xw - y||^2``
over labels in {-1, +1}.  Rows are stored as sparse ``(index, value)`` pairs
with 1-based feature indices; the synthetic generator only ever emits values
in {-1, +1}, but general reals are accepted so small hand-built designs can
be used in tests.

The synthetic family is deliberately overparameterized (``d = 3 + 5n``):
feature 1 equals the label, features 2 and 3 are constant one, and every
example owns a private block of indicator features -- width 1 for positive
examples and width 5 for negative ones -- so only the first feature carries
out-of-sample signal.  Fresh test points are never materialized as rows:
their private block would land outside the training dimensions, so a test
inner product reduces to the first three coordinates (see `test_scores`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from .errors import DataGenerationError

__all__ = [
    "Dataset",
    "generate_synthetic",
    "loss",
    "gradient",
    "product",
    "residual",
    "residual_loss",
    "residual_gradient",
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

#: Rows per block of the Gram build, which bounds its sparse intermediate.
GRAM_BLOCK_ROWS = 256


@dataclass(frozen=True)
class Dataset:
    """Immutable design matrix plus labels.

    `rows` uses 1-based feature indices.  `p`/`seed` are present only for
    synthetic data; `rejections` counts redraws the generator needed before
    the positive class outnumbered the negative one.
    """

    n: int
    d: int
    rows: tuple[Row, ...]
    y: np.ndarray
    p: float | None = None
    seed: int | None = None
    rejections: int = 0

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64)
        if y.shape != (self.n,):
            raise ValueError(f"labels must have shape ({self.n},), got {y.shape}")
        if not np.all(np.abs(y) == 1.0):
            raise ValueError("labels must be +1 or -1")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match n")
        for row in self.rows:
            for j, _ in row:
                if not 1 <= j <= self.d:
                    raise ValueError(f"feature index {j} outside 1..{self.d}")
        object.__setattr__(self, "y", y)

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
    def matrix(self) -> sparse.csr_array:
        """The n-by-d design matrix in CSR form (0-based internally)."""
        data, indices, indptr = [], [], [0]
        for row in self.rows:
            for j, v in sorted(row):
                indices.append(j - 1)
                data.append(float(v))
            indptr.append(len(indices))
        return sparse.csr_array(
            (np.asarray(data, dtype=np.float64), indices, indptr),
            shape=(self.n, self.d),
        )

    @cached_property
    def dense(self) -> np.ndarray:
        """Dense copy of the design matrix, used for the matvecs ``Xw`` and
        ``X^T r`` (the run loop computes ``Xw`` once per iterate and its trace
        reuses it) and the span projector's ``X^T c``; `gram` reads CSR.

        Desk-scale dimensions make BLAS on the dense array much faster than
        sparse products; all-zero columns still produce exactly zero
        gradient coordinates, which the trajectory checks rely on.
        """
        a = self.matrix.toarray()
        a.setflags(write=False)
        return a

    @cached_property
    def gram(self) -> np.ndarray:
        """Row inner-product matrix ``X X^T`` (dense, n-by-n).

        Built from the CSR matrix, `GRAM_BLOCK_ROWS` rows at a time into one
        preallocated array, so it needs neither the dense copy nor an n-by-n
        sparse intermediate.  On integer designs (every generated dataset)
        each entry is an exact sum, so it equals ``dense @ dense.T`` bit for
        bit; on real-valued designs the two agree to roundoff.
        """
        X = self.matrix
        g = np.empty((self.n, self.n))
        for start in range(0, self.n, GRAM_BLOCK_ROWS):
            g[start:start + GRAM_BLOCK_ROWS] = (X[start:start + GRAM_BLOCK_ROWS] @ X.T).toarray()
        g.setflags(write=False)
        return g

    @cached_property
    def _span_projector(self):
        """Callable ``project(w, xw=None)`` mapping w onto the span of the rows.

        `xw` is the product ``X w`` when the caller already has it (the run
        loop computes it once per iterate for the loss); without it the
        projector computes it.
        """
        X = self.dense
        try:
            factor = cho_factor(self.gram)
        except np.linalg.LinAlgError:
            factor = None
        if factor is not None:

            def project(w: np.ndarray, xw: np.ndarray | None = None) -> np.ndarray:
                xw = X @ w if xw is None else xw
                # cho_factor checked the Gram it factored and the factor never
                # changes, so only the right-hand side needs checking per call.
                if not np.all(np.isfinite(xw)):
                    raise ValueError("array must not contain infs or NaNs")
                return X.T @ cho_solve(factor, xw, check_finite=False)

        else:
            # Dependent rows: fall back to the pseudo-inverse of the Gram.
            pinv = np.linalg.pinv(self.gram)

            def project(w: np.ndarray, xw: np.ndarray | None = None) -> np.ndarray:
                return X.T @ (pinv @ (X @ w if xw is None else xw))

        return project


def _synthetic_row(i: int, label: float) -> Row:
    """Row template for 1-based example index `i`."""
    start = 4 + 5 * (i - 1)
    width = 1 if label > 0 else 5
    private = tuple((j, 1.0) for j in range(start, start + width))
    return ((1, float(label)), (2, 1.0), (3, 1.0)) + private


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
            rows = tuple(_synthetic_row(i + 1, y[i]) for i in range(n))
            return Dataset(n=n, d=3 + 5 * n, rows=rows, y=y, p=p, seed=seed, rejections=attempt)
    raise DataGenerationError(
        f"no draw with positive label sum in {max_redraws + 1} attempts (n={n}, p={p})"
    )


def _check_dim(ds: Dataset, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (ds.d,):
        raise ValueError(f"weight vector must have shape ({ds.d},), got {w.shape}")
    return w


def product(ds: Dataset, w: np.ndarray) -> np.ndarray:
    """``Xw`` for a weight vector, or row by row for an (R, d) stack.

    The stacked matmul runs one matrix-vector product per row, so each row is
    bit for bit ``ds.dense @ w`` whatever R is (a GEMM would not be).
    """
    return np.matmul(ds.dense, w[..., None])[..., 0]


def residual(ds: Dataset, w: np.ndarray) -> np.ndarray:
    """``Xw - y`` for a weight vector, or row by row for an (R, d) stack."""
    return product(ds, w) - ds.y


def residual_loss(r: np.ndarray) -> np.ndarray:
    """``r . r`` for a residual, or per row of a stack of them."""
    return np.matmul(r[..., None, :], r[..., :, None])[..., 0, 0]


def residual_gradient(ds: Dataset, r: np.ndarray) -> np.ndarray:
    """``2 X^T r`` for a residual, or per row of a stack of them."""
    return 2.0 * np.matmul(r[..., None, :], ds.dense)[..., 0, :]


def loss(ds: Dataset, w: np.ndarray) -> float:
    """Squared interpolation error ``||Xw - y||^2``."""
    return float(residual_loss(residual(ds, _check_dim(ds, w))))


def gradient(ds: Dataset, w: np.ndarray) -> np.ndarray:
    """Gradient ``2 X^T (Xw - y)`` of `loss` (the factor 2 is kept).

    Sparse columns never touched by any example receive an exact 0.0, which
    the trajectory checks in the oracle module rely on.
    """
    return residual_gradient(ds, residual(ds, _check_dim(ds, w)))


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
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ValueError("margin is undefined for the zero vector")
    return float(np.min(ds.y * (ds.dense @ w if xw is None else xw)) / norm)


def row_span_residual(ds: Dataset, w: np.ndarray, xw: np.ndarray | None = None) -> float:
    """Distance from `w` to the span of the data rows.

    `xw` is the product ``X w`` if the caller already has it.
    """
    w = _check_dim(ds, w)
    return float(np.linalg.norm(w - ds._span_projector(w, xw)))


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
        rows = tuple(tuple((int(j), float(v)) for j, v in row) for row in doc["rows"])
        return Dataset(
            n=int(doc["n"]),
            d=int(doc["d"]),
            rows=rows,
            y=np.asarray(doc["labels"], dtype=np.float64),
            p=None if doc.get("p") is None else float(doc["p"]),
            seed=None if doc.get("seed") is None else int(doc["seed"]),
            rejections=int(doc.get("rejections", 0)),
        )
    except TypeError as exc:  # a value of the wrong JSON type
        raise ValueError(f"malformed dataset document: {exc}") from None


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_document(ds), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return dataset_from_document(json.load(fh))
