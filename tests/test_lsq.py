import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from optlab import lsq, oracle
from optlab.errors import DataGenerationError
from reference import (column_quotient, dense, dense_quotient, design_rows, gradient,
                       group_sums, loss, margin, product, projection, residual, span_residual,
                       test_scores)


def toy_dataset(rows, y, d):
    """Hand-built dataset from dense-ish row tuples (1-based indices)."""
    return lsq.Dataset(n=len(rows), d=d, rows=tuple(tuple(r) for r in rows),
                       y=np.asarray(y, dtype=float))


def identity_dataset(y):
    n = len(y)
    rows = tuple(((i + 1, 1.0),) for i in range(n))
    return lsq.Dataset(n=n, d=n, rows=rows, y=np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_single_positive_example_row():
    ds = lsq.generate_synthetic(1, 0.75, seed=1)
    assert ds.rejections == 0
    assert ds.d == 8
    assert design_rows(ds)[0] == ((1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0))
    np.testing.assert_array_equal(dense(ds)[0], [1, 1, 1, 1, 0, 0, 0, 0])


def test_negative_first_draw_is_rejected_and_redrawn():
    # seed 0 draws a lone -1 first; the generator must redraw.
    ds = lsq.generate_synthetic(1, 0.75, seed=0)
    assert ds.rejections >= 1
    assert ds.label_sum > 0


def test_two_positive_examples_have_disjoint_blocks():
    ds = lsq.generate_synthetic(2, 0.75, seed=0)
    assert ds.n_pos == 2
    starts = [row[3][0] for row in design_rows(ds)]
    assert starts == [4, 9]


def test_generator_rejects_bad_p():
    with pytest.raises(ValueError):
        lsq.generate_synthetic(10, 0.4, seed=0)
    with pytest.raises(ValueError):
        lsq.generate_synthetic(10, 0.5, seed=0)
    with pytest.raises(ValueError):
        lsq.generate_synthetic(10, 1.0, seed=0)


def test_generator_redraw_cap(monkeypatch):
    monkeypatch.setattr(lsq, "MAX_REDRAWS", 0)
    with pytest.raises(DataGenerationError):
        lsq.generate_synthetic(1, 0.501, seed=0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    p_milli=st.integers(min_value=501, max_value=999),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_generator_template_invariants(n, p_milli, seed):
    """Structural checks on every accepted draw."""
    ds = lsq.generate_synthetic(n, p_milli / 1000.0, seed=seed)
    assert ds.d == 3 + 5 * n
    assert ds.n_pos + ds.n_neg == n
    assert ds.label_sum > 0
    seen = set()
    for i, (row, label) in enumerate(zip(design_rows(ds), ds.y), start=1):
        lookup = dict(row)
        assert lookup[1] == label
        assert lookup[2] == 1.0 and lookup[3] == 1.0
        start = 4 + 5 * (i - 1)
        width = 1 if label > 0 else 5
        private = {j for j, _ in row if j >= 4}
        assert private == set(range(start, start + width))
        assert not (private & seen)
        seen |= private


def test_label_correlation_structure():
    ds = lsq.generate_synthetic(12, 0.75, seed=5)
    cq = column_quotient(ds)
    u = cq.expand(lsq.quotient_t_product(cq, cq.y))
    b = ds.label_sum
    assert u[0] == ds.n
    assert u[1] == b and u[2] == b
    for i, (row, label) in enumerate(zip(design_rows(ds), ds.y), start=1):
        for j, _ in row:
            if j >= 4:
                assert u[j - 1] == label
    # never-touched slots of positive blocks stay zero
    touched = {j for row in design_rows(ds) for j, _ in row}
    for j in range(1, ds.d + 1):
        if j not in touched:
            assert u[j - 1] == 0.0


# ---------------------------------------------------------------------------
# loss / gradient
# ---------------------------------------------------------------------------


def test_loss_at_zero_equals_n():
    ds = lsq.generate_synthetic(9, 0.75, seed=2)
    assert loss(ds, np.zeros(ds.d)) == ds.n


def test_loss_single_row_example():
    ds = toy_dataset([((1, 1.0),)], [1.0], d=2)
    assert loss(ds, np.array([2.0, 5.0])) == 1.0


def test_min_norm_is_interpolating():
    ds = lsq.generate_synthetic(8, 0.75, seed=4)
    w = oracle.min_norm_solution(ds).w
    assert loss(ds, w) <= 1e-18


def test_gradient_at_zero_and_at_interpolant():
    ds = lsq.generate_synthetic(6, 0.75, seed=3)
    cq = column_quotient(ds)
    u = cq.expand(lsq.quotient_t_product(cq, cq.y))
    np.testing.assert_array_equal(gradient(ds, np.zeros(ds.d)), -2.0 * u)
    g = gradient(ds, oracle.min_norm_solution(ds).w)
    assert np.max(np.abs(g)) < 1e-12


def test_gradient_matches_central_differences():
    # Central differences are exact for quadratics; a large step avoids
    # cancellation noise.
    rng = np.random.default_rng(0)
    rows = []
    for i in range(5):
        idx = rng.choice(10, size=4, replace=False)
        rows.append(tuple((int(j) + 1, float(rng.standard_normal())) for j in idx))
    ds = toy_dataset(rows, np.where(rng.random(5) < 0.5, 1.0, -1.0), d=10)
    w = rng.standard_normal(10)
    g = gradient(ds, w)
    h = 0.5
    fd = np.empty(10)
    for j in range(10):
        e = np.zeros(10)
        e[j] = h
        fd[j] = (loss(ds, w + e) - loss(ds, w - e)) / (2 * h)
    assert np.linalg.norm(fd - g) <= 1e-8 * (1 + np.linalg.norm(g))


def test_gradient_lies_in_row_span():
    ds = lsq.generate_synthetic(7, 0.75, seed=9)
    rng = np.random.default_rng(1)
    for _ in range(5):
        g = gradient(ds, rng.standard_normal(ds.d))
        assert span_residual(ds, g) <= 1e-10 * (1 + np.linalg.norm(g))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_small_gradient_step_decreases_loss(seed):
    rng = np.random.default_rng(seed)
    ds = lsq.generate_synthetic(5, 0.75, seed=seed % 17)
    w = rng.standard_normal(ds.d)
    g = gradient(ds, w)
    if np.linalg.norm(g) < 1e-9:
        return
    lipschitz = 2.0 * np.linalg.norm(dense(ds), 2) ** 2
    w2 = w - (1.0 / (2.0 * lipschitz)) * g
    assert loss(ds, w2) < loss(ds, w)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 1000),
       heights=st.lists(st.integers(0, 12), min_size=1, max_size=10))
@example(n=7, seed=3, heights=[3, 1, 6, 2, 6, 12, 0, 4, 12, 1])
def test_stacked_products_do_not_depend_on_stack_size(n, seed, heights):
    # Each row of a stack must be bit for bit the single-vector CSR product,
    # so a trajectory does not change with the rows that run beside it; and
    # that product must agree with a dense reference to 1e-12 relative to the
    # largest entry.  The folds keep their stacked bins per stack height, so
    # the forward and transposed products first run on fresh stacks at a
    # drawn sequence of heights, shrinking and growing, on one dataset, and
    # each row must equal the product of a second copy of the dataset that
    # only ever sees single vectors.  The stacked diagnostics (norms, margins
    # from the stack's products, and span residuals of class values) must
    # equal their solo calls and the full-length references.
    ds = lsq.generate_synthetic(n, 0.75, seed)
    cq, solo = column_quotient(ds), column_quotient(lsq.generate_synthetic(n, 0.75, seed))
    q = ds.multiplicity.size
    rng = np.random.default_rng(seed)
    for height in heights:
        s, r = rng.standard_normal((height, q)), rng.standard_normal((height, n))
        forward, transposed = lsq.quotient_product(cq, s), lsq.quotient_t_product(cq, r)
        assert forward.shape == (height, n) and transposed.shape == (height, q)
        for i in range(height):
            assert forward[i].tobytes() == lsq.quotient_product(solo, s[i]).tobytes()
            assert transposed[i].tobytes() == lsq.quotient_t_product(solo, r[i]).tobytes()
    X = dense(ds)
    W = rng.standard_normal((8, ds.d)) * 10.0
    U = rng.standard_normal((8, q)) * 10.0  # class values on the column quotient
    V = cq.expand(U)
    for size in (1, 2, 5, 8):
        resid = residual(ds, W[:size])
        grads = lsq.residual_gradient(cq, resid)
        losses = lsq.residual_loss(resid)
        xw = product(ds, W[:size])
        norms, largest = lsq.l2_norm(W[:size]), lsq.linf_norm(W[:size])
        margins = lsq.margin(ds, xw, norms)
        spans = lsq.row_span_residual(cq, U[:size], product(ds, V[:size]))
        for i in range(size):
            r = residual(ds, W[i])
            assert xw[i].tobytes() == product(ds, W[i]).tobytes()
            assert (norms[i], largest[i]) == (lsq.l2_norm(W[i]), lsq.linf_norm(W[i]))
            assert margins[i] == margin(ds, W[i]) == lsq.margin(ds, xw[i], norms[i])
            assert spans[i] == span_residual(ds, V[i]) == lsq.row_span_residual(
                cq, U[i], product(ds, V[i]))
            assert resid[i].tobytes() == r.tobytes()
            assert grads[i].tobytes() == lsq.residual_gradient(cq, r).tobytes()
            assert float(losses[i]) == float(lsq.residual_loss(r))
            ref = X @ W[i] - ds.y
            g_ref = 2.0 * (ref @ X)
            assert np.max(np.abs(r - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.max(np.abs(cq.expand(grads[i]) - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
    # A zero row of a stack has no margin (NaN); alone, it raises.
    margins = margin(ds, np.vstack([W[0], np.zeros(ds.d)]))
    assert margins[0] == margin(ds, W[0]) and np.isnan(margins[1])


def _dependent_design(n: int, seed: int) -> lsq.Dataset:
    """Real-valued n-row design of rank about n/2: each row past the first
    half is a random combination of the first half's rows."""
    rng = np.random.default_rng(seed)
    k = max(1, n // 2)
    basis = rng.standard_normal((k, 2 * n)) * (rng.random((k, 2 * n)) < 0.5)
    a = np.vstack([basis, rng.standard_normal((n - k, k)) @ basis])
    rows = tuple(tuple((j + 1, float(v)) for j, v in enumerate(r) if v != 0.0) for r in a)
    return lsq.Dataset(n=n, d=2 * n, rows=rows, y=np.ones(n))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 1000), synthetic=st.booleans())
@example(n=1, seed=0, synthetic=True)
@example(n=300, seed=1, synthetic=False)
def test_gram_solve_and_projector_match_dense_solves(n, seed, synthetic):
    # Tolerance, stated up front: 1e-10 relative, against LAPACK on the dense
    # Gram.  The synthetic Gram is nonsingular (np.linalg.solve); the
    # real-valued design has dependent rows, so the reference is lstsq's
    # least-norm solution of a consistent right-hand side.
    ds = lsq.generate_synthetic(n, 0.75, seed) if synthetic else _dependent_design(n, seed)
    X = dense(ds)
    gram = X @ X.T
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(ds.d)
    b = ds.y if synthetic else X @ w
    ref = (np.linalg.solve(gram, b) if synthetic
           else np.linalg.lstsq(gram, b, rcond=None)[0])
    cq = column_quotient(ds)
    c = cq.gram_solve(b)
    assert np.linalg.norm(X.T @ c - X.T @ ref) <= 1e-10 * np.linalg.norm(X.T @ ref)
    assert np.linalg.norm(gram @ c - b) <= 1e-10 * np.linalg.norm(b)
    if synthetic:
        assert np.linalg.norm(c - ref) <= 1e-10 * np.linalg.norm(ref)
    # The projector against the dense least-squares projection onto the rows.
    proj = X.T @ np.linalg.lstsq(X.T, w, rcond=None)[0]
    projected = projection(cq, w, product(ds, w))
    assert np.linalg.norm(projected - proj) <= 1e-10 * np.linalg.norm(w)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 1000), synthetic=st.booleans(),
       kinds=st.lists(st.sampled_from(["y", "range", "random", "zero", "small"]),
                      min_size=1, max_size=5))
@example(n=300, seed=3, synthetic=True, kinds=["y", "random", "zero", "range", "small"])
@example(n=40, seed=5, synthetic=False, kinds=["random", "range", "zero", "y"])
def test_stacked_gram_solve_equals_solo_solves(n, seed, synthetic, kinds):
    # Each row of a stacked solve must be bit for bit its solo solve, however
    # many CG steps each row takes before it stops (a zero row takes none; on
    # the dependent design a right-hand side outside the range breaks down),
    # and with its own tolerance (a small row beside a large one).
    ds = lsq.generate_synthetic(n, 0.75, seed) if synthetic else _dependent_design(n, seed)
    rng = np.random.default_rng(seed)
    make = {"y": lambda: ds.y, "range": lambda: product(ds, rng.standard_normal(ds.d)),
            "random": lambda: rng.standard_normal(ds.n), "zero": lambda: np.zeros(ds.n),
            "small": lambda: 1e-100 * rng.standard_normal(ds.n)}
    b, cq = np.array([make[kind]() for kind in kinds]), column_quotient(ds)
    c = cq.gram_solve(b)
    assert c.shape == b.shape
    for row, c_row in zip(b, c):
        assert c_row.tobytes() == cq.gram_solve(row).tobytes()


def _grouped_design(n: int, seed: int):
    """A dense n-row design with duplicate columns, all-zero columns and
    columns equal to another only up to sign or scale, in shuffled order, plus
    its rows in shuffled entry order with some explicit zeros (both signs)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    base = rng.choice([-2.0, -1.0, 0.0, 0.0, 0.5, 1.0, 3.0], size=(n, k))
    x = np.hstack([base, base[:, rng.integers(0, k, 4)], -base[:, :1], 2.0 * base[:, -1:],
                   np.zeros((n, 2))])
    x = x[:, rng.permutation(x.shape[1])]
    rows = []
    for r in x:
        row = [(j + 1, float(v)) for j, v in enumerate(r) if v != 0.0]
        row += [(int(j) + 1, float(rng.choice([0.0, -0.0])))
                for j in np.flatnonzero((r == 0.0) & (rng.random(r.size) < 0.3))]
        rng.shuffle(row)
        rows.append(tuple(row))
    return x, tuple(rows)


def _colliding_keys(ptr, rows, bits):
    return np.zeros(ptr.size - 1, dtype=np.uint64)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000), collide=st.booleans())
def test_quotient_merges_exactly_the_identical_columns(n, seed, collide):
    # Exact, stated up front: expanding X_q through `columns` gives back the
    # dense design exactly; kept columns are nonzero and pairwise distinct bit
    # for bit (so columns equal up to sign or scale stay apart).  With every
    # hash colliding, the entry-by-entry comparison alone must do the grouping.
    x, rows = _grouped_design(n, seed)
    keys = _colliding_keys if collide else lsq._segment_keys
    with mock.patch.object(lsq, "_segment_keys", keys):
        ds = lsq.Dataset(n=n, d=x.shape[1], rows=rows, y=np.ones(n))
    xq = dense_quotient(ds)
    q = xq.shape[1]
    assert np.array_equal(column_quotient(ds).expand(xq), x)
    assert np.all(np.diff(ds.row * q + ds.col) > 0)  # sorted by (row, col), no duplicates
    assert np.all(xq.any(axis=0))
    assert len({c.tobytes() for c in xq.T}) == q
    np.testing.assert_array_equal(ds.columns < 0, ~x.any(axis=0))
    np.testing.assert_array_equal(ds.multiplicity,
                                  np.bincount(ds.columns[ds.columns >= 0], minlength=q))
    firsts = [int(np.flatnonzero(ds.columns == c)[0]) for c in range(q)]
    assert firsts == sorted(firsts)
    rebuilt = lsq.Dataset(n=n, d=x.shape[1], rows=design_rows(ds), y=np.ones(n))
    assert np.array_equal(dense(rebuilt), x)


def _real_design(n: int, seed: int):
    """A real-valued n-row design with duplicate and all-zero columns, its
    values spread over three decades (so that a term can overflow)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    base = (rng.standard_normal((n, k)) * 10.0 ** rng.integers(-1, 2, size=(n, k))
            * (rng.random((n, k)) < 0.7))
    x = np.hstack([base, base[:, rng.integers(0, k, 3)], np.zeros((n, 2))])
    x = x[:, rng.permutation(x.shape[1])]
    return x, tuple(tuple((j + 1, float(v)) for j, v in enumerate(r) if v != 0.0) for r in x)


_WILD = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308, 0.0, -0.0, 5e-324])


def _python_fold(bins, take, weight, x, size):
    """``acc = 0.0; acc += v * x[j]`` per bin, over the entries in order, in Python floats."""
    out, x = [0.0] * size, x.tolist()
    for b, j, v in zip(bins.tolist(), take.tolist(), weight.tolist()):
        out[b] += v * x[j]
    return np.array(out)


def _same_bits(a, b):
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000), height=st.integers(1, 4))
def test_products_are_sequential_folds_bit_for_bit(n, seed, height):
    # Exact, stated up front: every entry of X_q s, X_q^T r and S w, for a
    # vector and for each row of an (R, .) stack, has the bits of the plain
    # fold ``acc = 0.0; acc += v * x[j]`` over the quotient entries in (row,
    # col) order (S w: over the features in order, v = 1), whatever the input
    # holds: +-inf, NaN, overflowing terms, signed zeros.  A NaN only has to
    # be a NaN.  No RuntimeWarning may escape, as none escaped scipy's C loop.
    x, rows = _real_design(n, seed)
    ds = lsq.Dataset(n=n, d=x.shape[1], rows=rows, y=np.ones(n))
    q = ds.multiplicity.size
    kept, cq = np.flatnonzero(ds.columns >= 0), column_quotient(ds)
    rng = np.random.default_rng(seed)
    cases = [
        (lambda v: lsq.quotient_product(cq, v), ds.row, ds.col, ds.val, q, n),
        (lambda v: lsq.quotient_t_product(cq, v), ds.col, ds.row, ds.val, n, q),
        (lambda v: group_sums(ds, v), ds.columns[kept], kept, np.ones(kept.size), ds.d, q),
    ]
    for fold, bins, take, weight, width, size in cases:
        stack = rng.standard_normal((height, width))
        wild = rng.random(stack.shape) < 0.2
        stack[wild] = rng.choice(_WILD, size=int(wild.sum()))
        out = fold(stack)
        assert out.shape == (height, size) and out.flags.c_contiguous
        for v, out_row in zip(stack, out):
            ref = _python_fold(bins, take, weight, v, size)
            assert _same_bits(out_row, ref)
            assert _same_bits(fold(v), ref)


@pytest.mark.parametrize("fields, message", [
    ({"rows": [[[0, 1.0]]]}, "feature index 0 outside 1..4"),
    ({"rows": [[[5, 1.0]]]}, "feature index 5 outside 1..4"),
    ({"rows": [[[1.5, 1.0]]]}, "feature index 1.5 outside 1..4"),
    ({"rows": [[[1, float("nan")]]]}, "design values must be finite"),
    ({"rows": [[[10 ** 400, 1.0]]]}, "malformed dataset document"),
    ({"rows": [[[1, 10 ** 400]]]}, "malformed dataset document"),
    ({"n": float("inf")}, "malformed dataset document"),
    ({"rows": [[[1, 1.0, 2.0]]]}, "must be .index, value. pairs"),
    ({"rows": [[1, 1.0]]}, "malformed dataset document"),
    ({"rows": [[[1, 1.0]], []]}, "row count does not match n"),
    ({"rows": [[[1, 1e308], [1, 1e308]]]}, "design values must be finite"),
])
def test_document_rejects_malformed_rows(fields, message):
    doc = {"n": 1, "d": 4, "labels": [1], "rows": [[[1, 1.0]]], **fields}
    with pytest.raises(ValueError, match=message):
        lsq.dataset_from_document(doc)


def test_duplicate_entries_are_summed_in_the_order_given():
    # (0 + 1) + 1e16 rounds back to 1e16, so the first order cancels to a
    # zero, which is dropped; the second keeps the 1.
    for row, expected in ((((1, 1.0), (1, 1e16), (1, -1e16), (2, 1.0)), ((2, 1.0),)),
                          (((1, 1e16), (1, -1e16), (2, 1.0), (1, 1.0)), ((1, 1.0), (2, 1.0)))):
        assert design_rows(lsq.Dataset(n=1, d=2, rows=(row,), y=[1.0])) == (expected,)


def test_dimension_mismatch_raises():
    # The full-length margin and span residual take a weight vector or an
    # (R, d) stack, nothing else.
    ds = lsq.generate_synthetic(3, 0.75, seed=1)
    for w in (np.zeros(ds.d + 1), np.zeros(2), np.zeros((2, 2, ds.d))):
        with pytest.raises(ValueError, match="weight vector must have shape"):
            margin(ds, w, np.ones(ds.n))
        with pytest.raises(ValueError, match="weight vector must have shape"):
            span_residual(ds, w, ds.orbits, np.ones(2))


# ---------------------------------------------------------------------------
# scoring and metrics
# ---------------------------------------------------------------------------


def test_test_score_examples():
    w = np.ones(10)
    assert test_scores(w, [-1.0]) == [1.0]
    e1 = np.zeros(10)
    e1[0] = 1.0
    assert test_scores(e1, [-1.0]) == [-1.0]
    assert test_scores(np.zeros(10), [1.0]) == [0.0]


def test_sign_solution_scores_misclassify_negatives():
    rng = np.random.default_rng(7)
    labels = np.where(rng.random(4000) < 0.75, 1.0, -1.0)
    w = oracle.sign_solution(lsq.generate_synthetic(6, 0.75, seed=2)).w
    scores = test_scores(w, labels)
    err = np.mean(scores * labels <= 0.0)
    assert err == np.mean(labels < 0)
    assert abs(err - 0.25) < 0.03


def test_min_norm_scores_make_no_errors():
    ds = lsq.generate_synthetic(3, 0.6, seed=1)  # n_pos=2, n_neg=1
    w = oracle.min_norm_solution(ds).w
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    scores = test_scores(w, labels)
    assert np.all(scores * labels > 0.0)


def test_margin_symmetric_case():
    ds = identity_dataset([1.0, -1.0])
    w = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert margin(ds, w) == pytest.approx(1 / np.sqrt(2.0), rel=1e-15)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 100))
def test_margin_scale_invariance(scale, seed):
    ds = lsq.generate_synthetic(4, 0.75, seed=seed)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(ds.d)
    assert margin(ds, scale * w) == pytest.approx(margin(ds, w), rel=1e-9)


def test_margin_zero_vector_raises():
    # The full-length reference raises; `lsq.margin`, given X w and the norm,
    # gives the zero vector NaN, alone as in a stack.
    ds = lsq.generate_synthetic(2, 0.75, seed=0)
    with pytest.raises(ValueError):
        margin(ds, np.zeros(ds.d))
    assert np.isnan(lsq.margin(ds, np.zeros(ds.n), 0.0))
    assert np.isnan(lsq.margin(ds, np.zeros((2, ds.n)), np.zeros(2))).all()


def test_row_span_residual_cases():
    ds = lsq.generate_synthetic(6, 0.75, seed=11)
    rng = np.random.default_rng(3)
    in_span = dense(ds).T @ rng.standard_normal(ds.n)
    assert span_residual(ds, in_span) <= 1e-10
    # a coordinate no example touches is orthogonal to the span
    touched = {j for row in design_rows(ds) for j, _ in row}
    free = next(j for j in range(1, ds.d + 1) if j not in touched)
    e = np.zeros(ds.d)
    e[free - 1] = 1.0
    assert span_residual(ds, e) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_row_span_residual_rejects_non_finite(bad):
    ds = lsq.generate_synthetic(6, 0.75, seed=11)
    w = np.zeros(ds.d)
    w[0] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        span_residual(ds, w)
    orbits = ds.orbits
    u = np.zeros(orbits.multiplicity.size)
    u[0] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        lsq.row_span_residual(orbits, u, lsq.quotient_product(orbits, orbits.multiplicity * u))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    ds = lsq.generate_synthetic(5, 0.8, seed=13)
    path = tmp_path / "ds.json"
    lsq.save_dataset(ds, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"n", "d", "p", "seed", "labels", "rows", "rejections"}
    assert doc["rows"][0][0] == [1, ds.y[0]]  # 1-based indices
    back = lsq.load_dataset(path)
    assert design_rows(back) == design_rows(ds)
    np.testing.assert_array_equal(back.y, ds.y)
    assert (back.n, back.d, back.p, back.seed, back.rejections) == (
        ds.n, ds.d, ds.p, ds.seed, ds.rejections,
    )


def test_document_rejects_bad_labels():
    doc = {"n": 1, "d": 8, "p": None, "seed": None,
           "labels": [2], "rows": [[[1, 1.0]]], "rejections": 0}
    with pytest.raises(ValueError):
        lsq.dataset_from_document(doc)


# The JSON writer must give json.dump's text, byte for byte.

_NEG_NAN = float(np.copysign(np.nan, -1.0))
_FLOATS = st.one_of(st.floats(), st.sampled_from([
    0.0, -0.0, float("nan"), _NEG_NAN, float("inf"), float("-inf"), 5e-324, 2.5e-310,
    0.1 + 0.2, 1 / 3, -1.7976931348623157e308]))
# Float vectors that repeat a few bit patterns, often 0.0 and -0.0 together.
_FLOAT_VECTORS = st.tuples(st.lists(_FLOATS, min_size=1, max_size=4), st.booleans()).flatmap(
    lambda pool: st.lists(st.sampled_from(pool[0] + [0.0, -0.0] * pool[1]), max_size=12)
).map(np.array)
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028é€😀')))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 70, 2 ** 70), _TEXT, _FLOATS,
    _FLOATS.map(np.float64),  # a float subclass: json formats it with float.__repr__
    _FLOAT_VECTORS, _FLOAT_VECTORS.map(np.ndarray.tolist), _FLOAT_VECTORS.map(list))
_DOCUMENTS = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_TEXT, children, max_size=4)), max_leaves=24)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_DOCUMENTS)
@example(doc={"zeros": [0.0, -0.0], "vector": np.array([-0.0, 0.0, -0.0, _NEG_NAN, 0.1]),
              "scalar": np.float64(0.1), "flags": [True, False, 1, 0], "empty": [{}, [], ()]})
def test_write_json_is_json_dump_text(doc, tmp_path):
    # Exact, stated up front: json.dump's text plus a newline, with a 1-D
    # float64 array written as its list.
    path = tmp_path / "doc.json"
    lsq.write_json(doc, path)
    expected = json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"
    assert path.read_text(encoding="utf-8") == expected


def reference_dataset_text(ds) -> str:
    """The dataset file as `save_dataset` wrote it through `json.dump` of the
    document of the design's rows, read off the dense design."""
    doc = {
        "n": ds.n,
        "d": ds.d,
        "p": ds.p,
        "seed": ds.seed,
        "labels": [int(v) for v in ds.y],
        "rows": design_rows(ds),
        "rejections": ds.rejections,
    }
    fh = io.StringIO()
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")
    return fh.getvalue()


_VALUES = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([1.0, -1.0, 0.1 + 0.2, 1 / 3, 5e-324]))


@st.composite
def hand_built_datasets(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(1, d), _VALUES)
    rows = tuple(tuple(draw(st.lists(pairs, max_size=5))) for _ in range(n))  # duplicates too
    y = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
    return lsq.Dataset(n=n, d=d, rows=rows, y=y, p=draw(st.none() | st.floats(0.5, 1.0)),
                       seed=draw(st.none() | st.integers(0, 2 ** 40)),
                       rejections=draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ds=hand_built_datasets(), block=st.integers(1, 3))
def test_saved_hand_built_dataset_is_json_dump_text(ds, block, tmp_path):
    path = tmp_path / "ds.json"
    with mock.patch.object(lsq, "_ROWS_PER_WRITE", block):  # rows across several writes
        lsq.save_dataset(ds, path)
    assert path.read_text(encoding="utf-8") == reference_dataset_text(ds)


@pytest.mark.parametrize("n", [1, 100, 1000])
def test_saved_generated_dataset_is_json_dump_text(n, tmp_path):
    ds = lsq.generate_synthetic(n, 0.75, seed=n)
    path = tmp_path / "ds.json"
    lsq.save_dataset(ds, path)  # at n = 1000, in four writes
    assert path.read_text(encoding="utf-8") == reference_dataset_text(ds)
