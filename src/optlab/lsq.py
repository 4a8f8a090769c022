"""Least-squares binary classification with sparse rows.

The training objective is the squared interpolation error ``||Xw - y||^2``
over labels in {-1, +1}.  Rows arrive as sparse ``(index, value)`` pairs
with 1-based feature indices (the generator emits values in {-1, +1}; hand-
built designs may use any reals), and the design's one numeric form is CSR:
every product, loss, gradient and diagnostic reads it, and the Gram system
``X X^T c = b`` is solved by conjugate gradients on it, never formed.

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


@dataclass(frozen=True)
class Dataset:
    """Immutable design matrix plus labels.

    `rows` (1-based feature indices) is the validated input and the file
    format; `matrix` (CSR) is the one numeric form.  `p`/`seed` are present
    only for synthetic data; `rejections` counts redraws the generator
    needed before the positive class outnumbered the negative one.
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
    def matrix_t(self) -> sparse.csr_array:
        """``X^T`` in CSR form, several times faster than the CSC view ``matrix.T``."""
        return self.matrix.T.tocsr()

    def gram_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``X X^T c = b`` by conjugate gradients from ``c = 0``.

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
            q = self.matrix @ (self.matrix_t @ p)
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
        return self.matrix_t @ self.gram_solve(xw)


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

    Each row is bit for bit its solo CSR product whatever R is; a stack comes
    back C-contiguous, so reductions over it take the single-vector path.
    """
    return np.ascontiguousarray((ds.matrix @ w.T).T)


def residual(ds: Dataset, w: np.ndarray) -> np.ndarray:
    """``Xw - y`` for a weight vector, or row by row for an (R, d) stack."""
    return product(ds, w) - ds.y


def residual_loss(r: np.ndarray) -> np.ndarray:
    """``r . r`` for a residual, or per row of a stack of them, as a numpy sum
    (not a BLAS dot, whose bits depend on the thread count)."""
    return np.sum(r * r, axis=-1)


def residual_gradient(ds: Dataset, r: np.ndarray) -> np.ndarray:
    """``2 X^T r`` for a residual, or per row of a stack of them (C-contiguous)."""
    return np.ascontiguousarray(2.0 * (ds.matrix_t @ r.T).T)


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
