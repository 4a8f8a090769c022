"""Least-squares binary classification with sparse rows.

The training objective is the squared interpolation error ``||Xw - y||^2``
over labels in {-1, +1}.  Rows arrive as sparse ``(index, value)`` pairs
with 1-based feature indices (the generator emits values in {-1, +1}; hand-
built designs may use any finite reals).  A `Dataset` holds the design as
the entries of ``X_q``, its distinct nonzero columns, and the size of each
group of identical columns.  Every product, solve and reported ``X w`` runs
on one quotient of it (a `Quotient`, rows and columns in classes), its
orbit quotient `Dataset.orbits`: ``X w = X_q diag(multiplicity) u`` for a
w that takes the value ``u[c]`` on every feature of column class c.  Every
product is an `np.bincount` fold over entries: each output starts at 0.0
and adds its terms one by one in entry order, so its bits depend on the
design alone, never on BLAS or threads, and a class adds the same terms in
the same order as each of its members.  The Gram system ``X X^T c = b`` is
solved by conjugate gradients on the orbit quotient, never formed.

Each reported quantity is computed here alone, for one weight vector or row
by row for a stack: `residual_loss`, `residual_gradient`, `l2_norm`,
`linf_norm`, `margin` (given ``X w`` and ``||w||``), `row_span_residual` (given
class values and ``X w``) and the error on fresh labels, `error_rates`.

The synthetic family is deliberately overparameterized (``d = 3 + 5n``):
feature 1 equals the label, features 2 and 3 are constant one, and every
example owns a private block of indicator features -- width 1 for positive
examples and width 5 for negative ones -- so only the first feature carries
out-of-sample signal.  Its quotient has n + 2 columns: features 2 and 3
merge, so does each negative example's block, and the 4 unused slots of each
positive example's block are dropped.  Its orbit quotient has 2 row classes
(the positive and the negative examples) and 4 column classes (feature 1,
features 2 and 3, the positive and the negative private blocks).  Fresh
test points are never materialized as rows: their private block would land
outside the training dimensions, so a test inner product reduces to the
first three coordinates (see `error_rates`).

Every JSON file is written by `write_json` (a dataset by `save_dataset`):
byte for byte the text of ``json.dump(doc, fh, indent=2, sort_keys=True)``
plus a newline, without json's pure-Python encoder, and with each distinct
float bit pattern of a float list formatted once.
"""

from __future__ import annotations

import json
import os
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string  # json.dump's escaper

import numpy as np

from .errors import DataGenerationError

__all__ = [
    "Quotient",
    "Dataset",
    "generate_synthetic",
    "synthetic_shape",
    "quotient_product",
    "quotient_t_product",
    "residual_loss",
    "residual_gradient",
    "l2_norm",
    "linf_norm",
    "margin",
    "row_span_residual",
    "dev_labels_for",
    "label_counts",
    "error_rates",
    "dataset_from_document",
    "write_json",
    "save_dataset",
    "load_dataset",
]

#: Redraws allowed before the generator gives up on a label imbalance.
MAX_REDRAWS = 1000

# Ceilings that keep a command's peak RSS under 2 GiB, from peaks measured
# with `scripts/peak_rss.py` (numpy 2.4, one BLAS thread).  Beyond them a
# command is a usage error, raised before anything is allocated.

#: The most examples `generate_synthetic` draws: `experiment --n 10^6 --iters
#: 20` peaks at 1 185 MiB (`generate` alone at 718 MiB), about twice that at 2 * 10^6.
MAX_EXAMPLES = 10**6

#: The largest dataset file `load_dataset` reads: loading takes 6.9 bytes per
#: file byte over the import's 30 MiB (180 MiB for the n = 10^5 file of
#: 2.3e7 bytes, 407 MiB at 2.5 * 10^5), so about 2.0 GiB at the ceiling.
MAX_DATASET_BYTES = 3 * 10**8

#: Relative residual at which `Quotient.gram_solve` stops.
CG_TOL = 1e-14


class _Fold:
    """``out[b] = sum of weight[k] * x[take[k]]`` over the entries k with
    ``bins[k] == b``, for a vector x, or row by row for an (R, m) stack.

    Each sum starts at 0.0 and adds its terms in entry order (`np.bincount`),
    as a C loop over a CSR matrix does, so a row's bits do not depend on the
    rows beside it.  A stack is one take, one multiply and one `bincount`
    over R copies of the entries' bins and weights (so the multiply does not
    broadcast), made once for the tallest stack so far, with views of them
    per input shape.
    """

    def __init__(self, bins: np.ndarray, take: np.ndarray, weight: np.ndarray,
                 size: int) -> None:
        self.bins, self.take, self.weight, self.size = bins, take, weight, size
        # With no |weight| above 1, no term can overflow (bincount's sums never warn).
        self.may_overflow = bool(np.any(np.abs(weight) > 1.0))
        # Row i's copy of the bins adds size * i.
        self._height, self._bins, self._weights = 1, bins, weight
        self._plans = {}  # input shape -> (bins, weights, bincount's minlength, output shape)

    def _plan(self, shape: tuple) -> tuple:
        height = shape[0] if len(shape) == 2 else 1
        if height > self._height:
            self._height, self._plans = height, {}
            self._bins = (self.bins + self.size * np.arange(height)[:, None]).ravel()
            self._weights = np.tile(self.weight, height)
        terms = height * self.bins.size
        plan = self._plans[shape] = (self._bins[:terms], self._weights[:terms],
                                     height * self.size, shape[:-1] + (self.size,))
        return plan

    def __call__(self, x: np.ndarray) -> np.ndarray:
        bins, weights, length, shape = self._plans.get(x.shape) or self._plan(x.shape)
        terms = x.take(self.take, axis=-1).ravel()
        if self.may_overflow:
            with np.errstate(over="ignore"):  # an overflowing term is inf, silently, as in C
                terms *= weights
        else:
            terms *= weights
        if not terms.size:  # bincount of nothing is an int array
            return np.zeros(shape)
        return np.bincount(bins, terms, minlength=length).reshape(shape)


class Quotient:
    """A quotient of an n-by-d design: its rows and its quotient columns in
    classes, numbered in the order of their first member.  Kept: each row's
    and each column's class, `row_class` and `col_class`; each column class's
    `multiplicity` (the features each of its columns stands for) and each row
    class's label `y`; `row`, `col` and `val`, the entries of each row
    class's first row in class numbers and in the design's order, over which
    `quotient_product` folds; and the fold of `quotient_t_product` (per
    column class, over each class's first column, in row order), whose
    `terms` a stacked row holds as bins and weights.  The one quotient built
    here is a design's orbit quotient, `Dataset.orbits`.
    """

    def __init__(self, ds: Dataset, rows: np.ndarray, cols: np.ndarray) -> None:
        """The quotient of `ds` whose classes are named by their first member:
        ``rows[i]`` for row i and ``cols[c]`` for quotient column c."""
        self.n, self.d = ds.n, ds.d
        (self.row_class, row_reps), (self.col_class, col_reps) = _ranks(rows), _ranks(cols)
        self.multiplicity, self.y = ds.multiplicity[col_reps], ds.y[row_reps]
        fwd, tr = rows[ds.row] == ds.row, cols[ds.col] == ds.col
        self._times_t = _Fold(self.col_class[ds.col[tr]], self.row_class[ds.row[tr]],
                              ds.val[tr], col_reps.size)
        self.terms = int(np.count_nonzero(tr))
        self.row, self.col, self.val = (self.row_class[ds.row[fwd]], self.col_class[ds.col[fwd]],
                                        ds.val[fwd])
        self._times = _Fold(self.row, self.col, self.val, row_reps.size)
        # Feature j's class; an all-zero column (-1) takes the padding 0.0.
        self._gather = np.append(self.col_class, col_reps.size)[ds.columns]

    def expand(self, u: np.ndarray, features=slice(None)) -> np.ndarray:
        """Full-length vector(s) from class values: feature j takes the value
        of its column's class, and an all-zero column takes 0.0.  `features`
        selects the features to return."""
        padded = np.concatenate((u, np.zeros(np.shape(u)[:-1] + (1,))), axis=-1)
        return padded.take(self._gather[features], axis=-1)

    def gram_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``X X^T c = b`` by conjugate gradients from ``c = 0``, with
        ``X X^T = X_q diag(multiplicity) X_q^T`` and b and c per row class;
        for a (P, row classes) stack, one solve per row.

        Each step takes two quotient products and numpy sums (no BLAS) over
        the n rows, expanded by `row_class`, so on class-constant b the bits
        do not depend on the classes.  A row stops once its residual is at
        most `CG_TOL` times ``|b|``, after 2n steps, or on breakdown (no
        positive curvature), and leaves the stack; every op is per row, so
        each row is bit for bit its solo solve.  The iterates stay in the range of
        ``X X^T``, so dependent rows need no special case; off it, c may grow
        to inf or NaN, silently.  Callers check the residual.
        """
        r = np.array(b, dtype=np.float64).reshape(-1, self.y.size)
        c = np.zeros(r.shape)
        p, live = r.copy(), np.arange(len(r))  # live: the rows still running
        rr = residual_loss(r.take(self.row_class, axis=-1))
        stop = CG_TOL * CG_TOL * rr
        with np.errstate(over="ignore", invalid="ignore"):  # see the docstring
            for _ in range(2 * self.n):
                keep = rr > stop
                if not keep.all():
                    live, r, p, rr, stop = (v[keep] for v in (live, r, p, rr, stop))
                if not live.size:
                    break
                q = quotient_product(self, self.multiplicity * quotient_t_product(self, p))
                curvature = np.add.reduce((p * q).take(self.row_class, axis=-1), axis=-1)
                keep = curvature > 0.0
                if not keep.all():
                    live, r, p, q, rr, stop, curvature = (
                        v[keep] for v in (live, r, p, q, rr, stop, curvature))
                a = (rr / curvature)[:, None]
                c[live] += a * p
                r -= a * q
                rr, rr_old = residual_loss(r.take(self.row_class, axis=-1)), rr
                p = r + (rr / rr_old)[:, None] * p
        return c.reshape(np.shape(b))


class Dataset:
    """Design matrix plus labels, held as its distinct nonzero columns.

    `rows` is the n-by-d design: n rows of 1-based ``(index, value)`` pairs.
    Duplicate pairs of one feature in a row are summed in the order given,
    and zeros are dropped.  Bit-identical columns are merged (columns equal
    only up to sign or scale stay apart) and all-zero columns are dropped.
    `row`, `col` and `val` are the entries of the n-by-q matrix ``X_q`` of
    the distinct nonzero columns (numbered in the order of their first
    feature), sorted by (row, col); `multiplicity` counts each quotient
    column's features and `columns` maps each (0-based) feature to its
    quotient column, or -1 for an all-zero column.  Every product and solve
    runs on its orbit quotient, `orbits`.

    `p`/`seed` are present only for synthetic data; `rejections` counts
    redraws the generator needed before the positive class outnumbered the
    negative one.  Treat instances as immutable.
    """

    def __init__(self, n: int, d: int, rows, y, p: float | None = None,
                 seed: int | None = None, rejections: int = 0) -> None:
        y = _labels(n, y)
        self._build(n, d, _design_entries(n, d, rows), y, p, seed, rejections)

    @classmethod
    def _from_entries(cls, n: int, d: int, entries, y, p: float | None = None,
                      seed: int | None = None, rejections: int = 0) -> Dataset:
        """A dataset from canonical 0-based ``(row, feature, value)`` entries
        (sorted by row and feature, no duplicates, nonzero and finite)."""
        ds = cls.__new__(cls)
        ds._build(n, d, entries, _labels(n, y), p, seed, rejections)
        return ds

    def _build(self, n, d, entries, y, p, seed, rejections) -> None:
        self.n, self.d, self.y = n, d, y
        self.p, self.seed, self.rejections = p, seed, rejections
        self.columns, (self.row, self.col, self.val) = _column_quotient(d, *entries)
        self.multiplicity = np.bincount(self.columns[self.columns >= 0]).astype(np.float64)

    @property
    def n_pos(self) -> int:
        return int(np.sum(self.y > 0))

    @property
    def n_neg(self) -> int:
        return int(np.sum(self.y < 0))

    @property
    def label_sum(self) -> int:
        return self.n_pos - self.n_neg

    def _file_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The design's entries in file order: each row's offset (and the end),
        each entry's 1-based feature index, and the quotient entry it copies."""
        kept = np.flatnonzero(self.columns >= 0)
        by_column = kept[np.argsort(self.columns[kept], kind="stable")]
        count = self.multiplicity.astype(np.intp)
        first = np.cumsum(count) - count  # column c's features: by_column[first[c]:][:count[c]]
        each = count[self.col]  # features per quotient entry
        start = np.cumsum(each) - each
        slot = np.repeat(first[self.col] - start, each) + np.arange(each.sum())
        row, feature = np.repeat(self.row, each), by_column[slot]
        order = np.lexsort((feature, row))
        ptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=self.n))])
        return ptr, feature[order] + 1, np.repeat(np.arange(self.val.size), each)[order]

    @cached_property
    def orbits(self) -> Quotient:
        """The design's orbit quotient (`_orbit_partition`), built on first use."""
        return Quotient(self, *_orbit_partition(self))


def _orbit_partition(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The classes of rows and of quotient columns that take the same bits at
    every step of every method, from a zero start, each named by its first
    member (as `Quotient` takes them).

    Rows share a class when their labels are equal and their entries list the
    same (value bits, column class) pairs in column order; columns, when their
    multiplicities are equal and their entries list the same (value bits, row
    class) pairs in row order.  Both are refined to a fixed point from the
    labels and multiplicities (`_equal_segments`).  A design whose rows are
    all distinct has one row a row class and one column a column class.
    """
    bits, n, q = ds.val.view(np.uint64), ds.n, ds.multiplicity.size
    order = np.argsort(ds.col, kind="stable")  # column-major, rows ascending in each
    col_rows, col_bits = ds.row[order], bits[order]
    row_ptr = np.searchsorted(ds.row, np.arange(n + 1))
    col_ptr = np.searchsorted(ds.col[order], np.arange(q + 1))
    # Refine until neither side splits.
    cols = _first_of(ds.multiplicity)
    rows = _equal_segments(row_ptr, cols[ds.col], bits, _first_of(ds.y))
    while True:
        refined = _equal_segments(col_ptr, rows[col_rows], col_bits, cols)
        if np.array_equal(refined, cols):
            return rows, cols
        cols, refined = refined, _equal_segments(row_ptr, refined[ds.col], bits, rows)
        if np.array_equal(refined, rows):
            return rows, cols
        rows = refined


def _ranks(first_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each member's class number (-1 where `first_of` is -1), classes
    numbered in the order of their first member, and each class's first
    member."""
    reps = np.flatnonzero(first_of == np.arange(first_of.size))
    rank = np.full(first_of.size, -1)
    rank[reps] = np.arange(reps.size)
    return np.where(first_of >= 0, rank[first_of], -1), reps


def _labels(n: int, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {y.shape}")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")
    return y


def _design_entries(n: int, d: int, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated canonical ``(row, feature, value)`` entries (0-based, sorted
    by row and feature, duplicates summed in input order, no zeros) of the
    n-by-d design given as rows of 1-based pairs."""
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
    row, feature = np.repeat(np.arange(n), lengths), index.astype(np.intp) - 1
    order = np.lexsort((feature, row))  # stable: duplicates keep their input order
    row, feature = row[order], feature[order]
    first = np.ones(row.size, dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (feature[1:] != feature[:-1])
    total = np.bincount(np.cumsum(first) - 1, values[order]) if row.size else values
    if not np.all(np.isfinite(total)):  # a non-finite value, or duplicates that overflow
        raise ValueError("design values must be finite")
    nonzero = total != 0.0
    return row[first][nonzero], feature[first][nonzero], total[nonzero]


_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, elementwise on uint64 (wrapping arithmetic)."""
    x = (x ^ (x >> 30)) * _MIX1
    x = (x ^ (x >> 27)) * _MIX2
    return x ^ (x >> 31)


def _segment_keys(ptr: np.ndarray, ids: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each segment's (position, id, value bits) entries; 0
    if empty.  Segment s's entries are ``ids[ptr[s]:ptr[s + 1]]`` and the
    same `bits`."""
    count = np.diff(ptr)
    keys = np.zeros(count.size, dtype=np.uint64)
    nonempty = np.flatnonzero(count)
    if nonempty.size:
        position = np.arange(ids.size) - np.repeat(ptr[:-1], count)
        entry = _mix(_mix(_mix(ids.astype(np.uint64)) ^ bits) + position.astype(np.uint64))
        keys[nonempty] = np.add.reduceat(entry, ptr[nonempty])
    return keys


def _equal_segments(ptr: np.ndarray, ids: np.ndarray, bits: np.ndarray,
                    key: np.ndarray) -> np.ndarray:
    """For each segment s (entries ``ptr[s]:ptr[s + 1]`` of `ids` and `bits`),
    the first segment with its `key` and the same (id, bits) entries in the
    same order.

    Segments are bucketed by (key, entry count, a hash of the entries and
    their positions), and each is then compared entry for entry with the
    first segment of its bucket.  Segments that differ from it (a hash
    collision) go round again among themselves, so a match never rests on the
    hash alone.
    """
    count, hashes = np.diff(ptr), _segment_keys(ptr, ids, bits)
    first_of, pending = np.empty(count.size, dtype=np.intp), np.arange(count.size)
    while pending.size:
        segs = pending[np.lexsort((pending, hashes[pending], count[pending], key[pending]))]
        first = np.ones(segs.size, dtype=bool)
        first[1:] = ((hashes[segs[1:]] != hashes[segs[:-1]]) | (count[segs[1:]] != count[segs[:-1]])
                     | (key[segs[1:]] != key[segs[:-1]]))
        rep, size = segs[first][np.cumsum(first) - 1], count[segs]
        start = np.cumsum(size) - size
        offset = np.arange(size.sum()) - np.repeat(start, size)
        a, b = np.repeat(ptr[segs], size) + offset, np.repeat(ptr[rep], size) + offset
        differs = (ids[a] != ids[b]) | (bits[a] != bits[b])
        same = np.ones(segs.size, dtype=bool)
        if differs.size:  # an empty segment matches its bucket's first
            same[size > 0] = ~np.logical_or.reduceat(differs, start[size > 0])
        first_of[segs[same]] = rep[same]
        pending = segs[~same]
    return first_of


def _first_of(key: np.ndarray) -> np.ndarray:
    """The index of the first entry of `key` equal to each entry."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first[inverse]


def _column_quotient(d: int, row: np.ndarray, feature: np.ndarray, value: np.ndarray):
    """The feature-to-column map and the ``(row, col, value)`` entries of the
    distinct nonzero columns, from canonical entries of the design: a group
    is the features with the same (row, value bits) entries
    (`_equal_segments`)."""
    order = np.argsort(feature, kind="stable")  # column-major, rows ascending in each
    nnz = np.bincount(feature, minlength=d)
    nonempty = np.flatnonzero(nnz)
    ptr = np.concatenate([[0], np.cumsum(nnz[nonempty])])
    rep_of = np.full(d, -1)  # feature -> first feature of its group
    rep_of[nonempty] = nonempty[_equal_segments(ptr, row[order], value[order].view(np.uint64),
                                                np.zeros(nonempty.size, dtype=np.intp))]
    columns, _ = _ranks(rep_of)
    kept = rep_of[feature] == feature  # the entries of each group's first feature, still row-major
    return columns, (row[kept], columns[feature[kept]], value[kept])


def _synthetic_entries(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The synthetic design's canonical entries for labels `y`: row i holds
    (label, 1, 1) on features 1-3 and ones on its private block, starting at
    feature 4 + 5i."""
    length = np.where(y > 0, 4, 8)
    row = np.repeat(np.arange(y.size), length)
    slot = np.arange(row.size) - np.repeat(np.cumsum(length) - length, length)
    return row, np.where(slot < 3, slot, 5 * row + slot), np.where(slot == 0, y[row], 1.0)


def synthetic_shape(n: int) -> tuple[int, int]:
    """The synthetic design's size for `n` examples, whatever its labels: the
    most terms of its orbit quotient's transposed fold (2n + 2: features 1
    and 2 = 3 over every row, and one row of each private block) and its
    features (5n + 3).  `n` must lie in 1..`MAX_EXAMPLES`."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_EXAMPLES:
        raise ValueError(f"n = {n} exceeds the ceiling of {MAX_EXAMPLES} examples "
                         "(lsq.MAX_EXAMPLES, sized for a 2 GiB peak)")
    return 2 * n + 2, 5 * n + 3


def generate_synthetic(n: int, p: float, seed: int) -> Dataset:
    """Draw a synthetic dataset of `n` examples with positive-class rate `p`.

    Labels are i.i.d. +1 with probability `p`.  Draws whose label sum is not
    strictly positive are redrawn, at most `MAX_REDRAWS` times, from a seed
    derived from ``(seed, attempt)``; the result records the rejections.
    """
    _, d = synthetic_shape(n)
    if not 0.5 < p < 1.0:
        raise ValueError(f"p must lie in (1/2, 1), got {p}")
    for attempt in range(MAX_REDRAWS + 1):
        y = dev_labels_for(p, n, np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        if y.sum() > 0:
            return Dataset._from_entries(n, d, _synthetic_entries(y), y, p=p,
                                         seed=seed, rejections=attempt)
    raise DataGenerationError(
        f"no draw with positive label sum in {MAX_REDRAWS + 1} attempts (n={n}, p={p})"
    )


def quotient_product(ds: Quotient, s: np.ndarray) -> np.ndarray:
    """``X_q s`` per row class, for s per column class, or row by row for an
    (R, column classes) stack.

    Each row is bit for bit its solo product whatever R is; a stack comes
    back C-contiguous, so reductions over it take the single-vector path.
    """
    return ds._times(s)


def quotient_t_product(ds: Quotient, r: np.ndarray) -> np.ndarray:
    """``X_q^T r`` per column class, for r per row class, or row by row for
    an (R, row classes) stack (C-contiguous): entry c is ``(X^T r)_j`` for
    every feature j of column class c."""
    return ds._times_t(r)


def residual_loss(r: np.ndarray) -> np.ndarray:
    """``r . r`` for a residual, or per row of a stack of them, as a numpy sum
    (not a BLAS dot, whose bits depend on the thread count)."""
    return np.add.reduce(r * r, axis=-1)


def residual_gradient(ds: Quotient, r: np.ndarray) -> np.ndarray:
    """``2 X_q^T r`` for a residual, or per row of a stack of them
    (C-contiguous): entry c is the gradient of every feature of column class c."""
    g = quotient_t_product(ds, r)
    return np.multiply(2.0, g, out=g)


def l2_norm(v: np.ndarray):
    """Euclidean norm of a vector (a float), or of each row of an (R, m)
    stack (an array), by the reduction of `residual_loss`."""
    norm = np.sqrt(residual_loss(v))
    return float(norm) if np.ndim(v) == 1 else norm


def linf_norm(v: np.ndarray):
    """Largest magnitude of a vector's entries (a float), or of each row of an
    (R, m) stack (an array); 0.0 where there are no entries."""
    largest = np.maximum.reduce(np.abs(v), axis=-1, initial=0.0)
    return float(largest) if np.ndim(v) == 1 else largest


def margin(ds: Dataset, xw: np.ndarray, norm):
    """Normalized worst-case score ``min_i y_i <w, x_i> / ||w||`` of a weight
    vector (a float), or of each row of a stack (an array), NaN for the zero
    vector, given `xw`, ``X w`` per row (over the row classes, a minimum could
    pick -0.0 where the rows' picks +0.0), and `norm`, ``||w||``."""
    worst = np.minimum.reduce(ds.y * xw, axis=-1)
    with np.errstate(invalid="ignore"):  # the zero vector: 0/0
        return float(worst / norm) if np.ndim(xw) == 1 else worst / norm


def row_span_residual(ds: Quotient, u: np.ndarray, xw: np.ndarray):
    """Distance from w to the span of the data rows (a float), or from each
    row of a stack (an array), for w taking ``u[c]`` on column class c of
    `ds`, given `xw`, ``X w`` per row class (``w - P w`` is class-constant)."""
    if not np.all(np.isfinite(xw)):
        raise ValueError("array must not contain infs or NaNs")
    return l2_norm(ds.expand(u - quotient_t_product(ds, ds.gram_solve(xw))))


def dev_labels_for(p: float, size: int, seed_sequence) -> np.ndarray:
    """`size` i.i.d. labels from `seed_sequence`'s stream: +1 with probability
    `p`, else -1.  Synthetic training labels, dev streams and test streams
    are all drawn here."""
    rng = np.random.default_rng(seed_sequence)
    return np.where(rng.random(size) < p, 1.0, -1.0)


def label_counts(labels) -> list:
    """``[count of +1, count of -1]`` of a label stream, as Python ints: all
    that its dev or test error reads (`error_rates`)."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size == 0:
        raise ValueError("a dev label stream must not be empty")
    counts = [int(np.count_nonzero(labels == 1.0)), int(np.count_nonzero(labels == -1.0))]
    if sum(counts) != labels.size:
        raise ValueError("dev labels must be +1 or -1")
    return counts


def error_rates(w: np.ndarray, counts) -> list[float]:
    """Error on fresh labels of each row of an (R, d) stack of weight vectors,
    on the labels counted in row i of `counts` (`label_counts`).

    A fresh point's private block lies outside the training dimensions, so
    its score is ``label * w1 + w2 + w3``, a miss when ``score * label <= 0``:
    ``(w1 + w2) + w3 <= 0`` for label +1 and ``(w2 - w1) + w3 >= 0`` for -1
    (the same roundings, negated).  So each row scores the two labels once
    and weights its misses by their counts: the same exact count as scoring
    every label, hence the same bits as the mean of the per-label misses.  A
    stack has few rows, so this runs on Python floats (the same IEEE
    operations).
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] < 3:
        raise ValueError("weight vector must have at least 3 coordinates")
    return [((pos if (w1 + w2) + w3 <= 0.0 else 0) + (neg if (w2 - w1) + w3 >= 0.0 else 0))
            / (pos + neg) for (w1, w2, w3), (pos, neg) in zip(w[:, :3].tolist(), counts)]


# ---------------------------------------------------------------------------
# serialization (JSON document; 1-based feature indices)
# ---------------------------------------------------------------------------


def _document_integer(key: str, value, least: int | None = None) -> int:
    """A dataset document's field `key`, which must be a JSON integer of at
    least `least`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"malformed dataset document: field {key!r} must be an integer, "
                         f"got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"malformed dataset document: field {key!r} must be at least "
                         f"{least}, got {value}")
    return value


def dataset_from_document(doc: dict) -> Dataset:
    """The dataset of a JSON document: integer `n` >= 1, `d` >= 0 and
    `rejections` >= 0 (default 0), an integer or null `seed`, and `p`, if
    not null, a number in (1/2, 1) as `generate_synthetic` takes."""
    if not isinstance(doc, dict):
        raise ValueError("dataset document must be a JSON object")
    missing = [key for key in ("n", "d", "labels", "rows") if key not in doc]
    if missing:
        raise ValueError(f"dataset document lacks {', '.join(map(repr, missing))}")
    p = doc.get("p")
    if p is not None and (isinstance(p, bool) or not isinstance(p, (int, float))
                          or not 0.5 < p < 1.0):
        raise ValueError("malformed dataset document: field 'p' must be null or lie in "
                         f"(1/2, 1), got {p!r}")
    n, d = _document_integer("n", doc["n"], 1), _document_integer("d", doc["d"], 0)
    rejections = _document_integer("rejections", doc.get("rejections", 0), 0)
    seed = None if doc.get("seed") is None else _document_integer("seed", doc["seed"])
    try:
        return Dataset(n=n, d=d, rows=doc["rows"], y=np.asarray(doc["labels"], dtype=np.float64),
                       p=None if p is None else float(p), seed=seed, rejections=rejections)
    except (TypeError, OverflowError) as exc:  # a wrong JSON type, or beyond the float range
        raise ValueError(f"malformed dataset document: {exc}") from None


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float_text(x: float) -> str:
    """`x` as json writes a float: `float.__repr__`, or NaN / Infinity / -Infinity."""
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _float_texts(values) -> np.ndarray:
    """`_float_text` of each entry of a float vector, as an object array;
    each distinct bit pattern is formatted once."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = [_float_text(x) for x in distinct.view(np.float64).tolist()]
    return np.array(texts, dtype=object)[inverse]


def _json_text(o, indent: str) -> str:
    """`o` in the text of ``json.dumps(o, indent=2, sort_keys=True)``, its
    nested lines indented past `indent`.  A 1-D float64 array is written as
    a list; dictionary keys must be strings."""
    if isinstance(o, str):
        return _json_string(o)
    if o is None or o is True or o is False:
        return _CONSTANTS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    inner, brackets = indent + "  ", "[]"
    if isinstance(o, dict):
        items = [f"{_json_string(k)}: {_json_text(v, inner)}" for k, v in sorted(o.items())]
        brackets = "{}"
    elif (isinstance(o, np.ndarray) and o.dtype == np.float64 and o.ndim == 1) or (
            isinstance(o, (list, tuple)) and o and all(isinstance(v, float) for v in o)):
        items = _float_texts(o).tolist()
    elif isinstance(o, (list, tuple)) and all(type(v) is int for v in o):
        items = list(map(int.__repr__, o))
    elif isinstance(o, (list, tuple)):
        items = [_json_text(v, inner) for v in o]
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def write_json(doc, path) -> None:
    """Write `doc` as ``json.dump(doc, fh, indent=2, sort_keys=True)`` does,
    plus a newline, byte for byte (see `_json_text`)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(doc, "") + "\n")


#: Rows of the design that `save_dataset` formats per write.
_ROWS_PER_WRITE = 256


def save_dataset(ds: Dataset, path) -> None:
    """Write `ds` as its JSON document, in `write_json`'s layout.  The rows'
    ``[index, value]`` pairs are formatted straight from the quotient
    entries, `_ROWS_PER_WRITE` rows at a time."""
    doc = {"n": ds.n, "d": ds.d, "p": ds.p, "seed": ds.seed, "labels": [int(v) for v in ds.y],
           "rows": [], "rejections": ds.rejections}
    head, tail = _json_text(doc, "").split('"rows": []')  # the rows go in between
    ptr, index, source = ds._file_entries()
    texts = _float_texts(ds.val)[source]
    pair = "      [\n        %d,\n        %s\n      ]".__mod__  # one [index, value] pair
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '"rows": ' + ("[\n" if ds.n else "[]"))
        for lo in range(0, ds.n, _ROWS_PER_WRITE):
            bounds = ptr[lo:lo + _ROWS_PER_WRITE + 1] - ptr[lo]
            entries = slice(ptr[lo], ptr[lo] + bounds[-1])
            pairs = list(map(pair, zip(index[entries].tolist(), texts[entries].tolist())))
            rows = ["    [\n" + ",\n".join(pairs[a:b]) + "\n    ]" if b > a else "    []"
                    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
            fh.write((",\n" if lo else "") + ",\n".join(rows))
        fh.write(("\n  ]" if ds.n else "") + tail + "\n")


def load_dataset(path) -> Dataset:
    """The dataset in the JSON file at `path`, which must not be larger than
    `MAX_DATASET_BYTES` (checked before it is read)."""
    size = os.stat(path).st_size
    if size > MAX_DATASET_BYTES:
        raise ValueError(f"{path}: {size} bytes exceeds the ceiling of {MAX_DATASET_BYTES} "
                         "bytes for a dataset file (lsq.MAX_DATASET_BYTES, sized for a 2 GiB "
                         "peak)")
    with open(path, "r", encoding="utf-8") as fh:
        return dataset_from_document(json.load(fh))
