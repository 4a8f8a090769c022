"""The design's orbit quotient (`lsq.Dataset.orbits`): its partition against
the definition, its CG, span residual and oracles against the column
quotient's, and every run against the column-quotient reference, bit for
bit."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optlab import lsq, oracle
from optlab.errors import LemmaPreconditionError, SingularKernelError
from optlab.optim import MethodKind, OptimizerSpec
from optlab.training import run_lockstep
from reference import (column_quotient, margin, on_column_quotient, orbit_classes,
                       quotient_run, span_residual)


def dataset(x, y, extra=None):
    """The dataset of dense rows `x` with labels `y`, and at least 3 features
    (a dev score reads 3); row i's pairs are its nonzero values in column
    order, then the 1-based pairs ``extra[i]``."""
    rows = [[(j + 1, float(v)) for j, v in enumerate(r) if v != 0.0]
            + list(extra[i] if extra else ()) for i, r in enumerate(x)]
    return lsq.Dataset(n=len(x), d=max(3, len(x[0])), rows=rows, y=np.asarray(y, dtype=float))


def synthetic_with_labels(y):
    y = np.asarray(y, dtype=float)
    return lsq.Dataset._from_entries(y.size, 5 * y.size + 3, lsq._synthetic_entries(y), y)


# Each design sets one trap for the partition: rows or columns that look
# alike but must stay apart, or that look different but step as one.
DESIGNS = {
    # Rows 1-3 are equal, features 2 and 3 are equal.
    "repeated": lambda: dataset([[1.0, 0.5, 0.5, 2.0], [1.0, 0.5, 0.5, 2.0],
                                 [1.0, 0.5, 0.5, 2.0], [0.0, 1.0, 1.0, -1.0]], [1, 1, 1, -1]),
    "label": lambda: dataset([[1.0, 0.5], [1.0, 0.5], [0.5, 0.0]], [1, -1, 1]),
    "last_bit": lambda: dataset([[0.3, 1.0], [np.nextafter(0.3, 1.0), 1.0], [0.0, 1.0]],
                                [1, 1, -1]),
    # The same values in the reverse column order: equal as multisets only.
    "column_order": lambda: dataset([[1.0, 1e-3, 3.0], [3.0, 1e-3, 1.0]], [1, 1]),
    # Rows equal but for their private features, one of them repeated.
    "multiplicity": lambda: dataset([[1.0, 0.5, 1.0, 0.0, 0.0], [1.0, 0.5, 0.0, 1.0, 1.0]],
                                    [1, 1]),
    # Zeros of both signs given, and summed to, on equal rows.
    "signed_zeros": lambda: dataset([[1.0, 0.0, 2.0], [1.0, 0.0, 2.0]], [1, 1],
                                    extra=[[(2, -0.0)], [(2, 0.0), (1, 0.5), (1, -0.5)]]),
    "synthetic": lambda: lsq.generate_synthetic(12, 0.75, seed=3),
    "synthetic_positive": lambda: synthetic_with_labels(np.ones(4)),
}


def orbit_design(seed):
    """A random hand-built design with classes of several rows and columns,
    and rows that must stay apart: each base row repeated 1-3 times, plus a
    copy that differs in its label, in the last bit of one value, or in the
    order of its values, or no copy; 0-2 private features of value 1 per row,
    so that private columns can differ in their multiplicity alone; and
    explicit zeros of both signs."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    shared, labels = [], []
    for r in rng.choice([-1.0, 0.5, 1.0, 2.0, 0.1, 3.0, 0.0], size=(int(rng.integers(1, 4)), k)):
        label, twin, j = float(rng.choice([-1.0, 1.0])), r.copy(), int(rng.integers(k))
        twin[j] = np.nextafter(twin[j], math.inf)
        copies = [(r, label)] * int(rng.integers(1, 4)) + [
            [(r, -label)], [(twin, label)], [(r[::-1], label)], []][int(rng.integers(4))]
        shared += [c for c, _ in copies]
        labels += [y for _, y in copies]
    widths = rng.integers(0, 3, size=len(shared))
    x = np.zeros((len(shared), k + widths.sum()))
    x[:, :k] = shared
    for i, start in enumerate(k + np.cumsum(widths) - widths):
        x[i, start:start + widths[i]] = 1.0
    extra = [[(int(j) + 1, float(rng.choice([0.0, -0.0]))) for j in rng.integers(0, x.shape[1], 2)]
             for _ in x]
    return dataset(x, labels, extra)


def test_synthetic_design_has_two_row_classes_and_four_column_classes():
    ds = lsq.generate_synthetic(50, 0.75, seed=1)
    orbits = ds.orbits
    assert orbits.row_class.max() == 1 and orbits.col_class.max() == 3
    np.testing.assert_array_equal(orbits.row_class == orbits.row_class[0], ds.y == ds.y[0])
    np.testing.assert_array_equal(orbits.y, ds.y[np.unique(orbits.row_class, return_index=True)[1]])
    # Feature 1, features 2 and 3, then the first example's block and the
    # first block of the other label: multiplicities 1, 2, 1 and 5 (positive
    # example first) or 5 and 1.
    blocks = [1.0, 5.0] if ds.y[0] > 0 else [5.0, 1.0]
    np.testing.assert_array_equal(orbits.multiplicity, [1.0, 2.0, *blocks])
    positive = synthetic_with_labels(np.ones(4)).orbits
    # With no negative example feature 1 equals features 2 and 3, so the
    # column quotient merges them: one column of multiplicity 3.
    assert (positive.row_class.max(), positive.col_class.max()) == (0, 1)
    np.testing.assert_array_equal(positive.multiplicity, [3.0, 1.0])


def test_distinct_rows_give_singleton_classes():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 9)) * (rng.random((6, 9)) < 0.6)
    x[:, 3] = x[:, 4]  # a repeated column stays one quotient column
    ds = dataset(x, np.where(rng.random(6) < 0.5, 1.0, -1.0))
    np.testing.assert_array_equal(ds.orbits.row_class, np.arange(ds.n))
    np.testing.assert_array_equal(ds.orbits.col_class, np.arange(ds.multiplicity.size))
    np.testing.assert_array_equal(ds.orbits.multiplicity, ds.multiplicity)


def test_orbits_are_built_on_first_use():
    ds = lsq.generate_synthetic(10, 0.75, seed=1)
    assert "orbits" not in vars(ds)
    assert ds.orbits is ds.orbits


def _colliding_keys(ptr, ids, bits):
    return np.zeros(ptr.size - 1, dtype=np.uint64)


@pytest.mark.parametrize("name", sorted(DESIGNS))
@pytest.mark.parametrize("collide", [False, True])
def test_partition_is_the_definitions(name, collide, monkeypatch):
    # With every hash colliding, the entry-for-entry comparison alone must
    # keep apart what differs.
    ds = DESIGNS[name]()
    if collide:
        monkeypatch.setattr(lsq, "_segment_keys", _colliding_keys)
    orbits = ds.orbits
    rows, cols = orbit_classes(ds)
    np.testing.assert_array_equal(orbits.row_class, rows)
    np.testing.assert_array_equal(orbits.col_class, cols)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), collide=st.booleans())
def test_random_partition_is_the_definitions(seed, collide):
    ds = orbit_design(seed)
    keys = _colliding_keys if collide else lsq._segment_keys
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lsq, "_segment_keys", keys)
        orbits = ds.orbits
    rows, cols = orbit_classes(ds)
    np.testing.assert_array_equal(orbits.row_class, rows)
    np.testing.assert_array_equal(orbits.col_class, cols)


def oracle_results(ds):
    """Each oracle's result on `ds`, its fields as bytes (the sign solution's
    c and w, the minimum-norm w, alpha_plus and alpha_minus), or its error."""
    results = []
    for solve in (oracle.sign_solution, oracle.min_norm_solution):
        try:
            sol = solve(ds)
        except (LemmaPreconditionError, SingularKernelError) as exc:
            results.append(repr(exc))
        else:
            results.append([v if v is None or isinstance(v, str) else np.asarray(v).tobytes()
                            for v in vars(sol).values()])
    return results


def assert_orbit_solves_equal_the_column_quotients(ds):
    """On class-constant inputs the orbit quotient's CG and span residual give
    the column quotient's bits: `gram_solve` of a stack of a zero row (no
    step), the labels, class indicators and random rows, each stopping on its
    own test, expanded by `row_class`; and `row_span_residual` given ``X w``
    per row class, as the trace calls it, against the expanded ``X w``.  So do
    the oracles, solution or error, against the same code on the column
    quotient, where `alpha_plus` and `alpha_minus` are means over the rows
    whatever the classes."""
    rng, orbits, cq = np.random.default_rng(ds.n), ds.orbits, column_quotient(ds)
    rows, cols = orbits.y.size, orbits.multiplicity.size
    b = np.vstack([np.zeros(rows), orbits.y, np.eye(rows)[:3], rng.standard_normal((2, rows))])
    expanded = orbits.gram_solve(b).take(orbits.row_class, axis=-1)
    assert expanded.tobytes() == cq.gram_solve(b.take(orbits.row_class, axis=-1)).tobytes()
    u = np.vstack([np.zeros(cols), np.ones(cols), rng.standard_normal((2, cols))])
    w, xw = orbits.expand(u), lsq.quotient_product(orbits, orbits.multiplicity * u)
    assert lsq.row_span_residual(orbits, u, xw).tobytes() == span_residual(
        ds, w, cq, xw.take(orbits.row_class, axis=-1)).tobytes()
    assert oracle_results(ds) == oracle_results(on_column_quotient(ds))


@pytest.mark.parametrize("name", sorted(DESIGNS))
@pytest.mark.parametrize("collide", [False, True])
def test_orbit_solves_equal_the_column_quotients(name, collide, monkeypatch):
    ds = DESIGNS[name]()
    if collide:
        monkeypatch.setattr(lsq, "_segment_keys", _colliding_keys)
    assert_orbit_solves_equal_the_column_quotients(ds)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), collide=st.booleans(), synthetic=st.booleans())
# Inconsistent designs whose CG overflows: on a right-hand side off the range
# of X X^T, and on the labels (the oracle's residual).
@example(seed=8312, collide=False, synthetic=False)
@example(seed=49636, collide=False, synthetic=False)
def test_random_orbit_solves_equal_the_column_quotients(seed, collide, synthetic):
    # A synthetic draw has class coefficients to compare, a hand-built one none.
    ds = lsq.generate_synthetic(1 + seed % 40, 0.75, seed) if synthetic else orbit_design(seed)
    with pytest.MonkeyPatch.context() as patch:
        if collide:
            patch.setattr(lsq, "_segment_keys", _colliding_keys)
        ds.orbits  # built with the colliding keys
    assert_orbit_solves_equal_the_column_quotients(ds)


def assert_class_diagnostics_equal_the_full_length_ones(ds):
    """The trace's diagnostics of class values u, given ``X w`` per row class,
    equal their full-length references on ``w = expand(u)`` bit for bit, for
    a stack and for each of its rows alone: `lsq.row_span_residual` (w - P w
    subtracted over the d entries), `lsq.linf_norm` of u (of w) and
    `lsq.margin` given ``||w||`` (NaN for the zero row of a stack)."""
    rng, orbits = np.random.default_rng(ds.n), ds.orbits
    cols = orbits.multiplicity.size
    u = np.vstack([np.zeros(cols), np.ones(cols), -np.ones(cols),
                   rng.standard_normal((3, cols)) * 10.0 ** rng.integers(-3, 4, (3, 1))])
    w, xw = orbits.expand(u), lsq.quotient_product(orbits, orbits.multiplicity * u)
    xw_rows, norms = xw.take(orbits.row_class, axis=-1), lsq.l2_norm(w)
    stacked = (lsq.row_span_residual(orbits, u, xw), lsq.linf_norm(u),
               lsq.margin(ds, xw_rows, norms))
    full = (span_residual(ds, w, orbits, xw), lsq.linf_norm(w), margin(ds, w, xw_rows))
    for got, want in zip(stacked, full):
        assert got.tobytes() == want.tobytes()
    assert np.isnan(stacked[2][0])
    for i in range(len(u)):
        solo = [lsq.row_span_residual(orbits, u[i], xw[i]), lsq.linf_norm(u[i])]
        if norms[i] > 0.0:  # alone, the zero vector's margin raises
            solo.append(lsq.margin(ds, xw_rows[i], norms[i]))
        assert [bits(v) for v in solo] == [bits(v[i]) for v in full[:len(solo)]]


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_class_diagnostics_equal_the_full_length_ones(name):
    assert_class_diagnostics_equal_the_full_length_ones(DESIGNS[name]())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), synthetic=st.booleans())
def test_random_class_diagnostics_equal_the_full_length_ones(seed, synthetic):
    ds = lsq.generate_synthetic(1 + seed % 40, 0.75, seed) if synthetic else orbit_design(seed)
    assert_class_diagnostics_equal_the_full_length_ones(ds)


def expand_where(ds, quotient, u, features=slice(None)):
    """`lsq.Quotient.expand` in its `np.where` form: feature j takes the
    value of its column's class, an all-zero column 0.0, and a design
    without columns takes its zeros from a padding column."""
    index, kept = np.append(quotient.col_class, 0)[ds.columns], ds.columns >= 0
    if not quotient.multiplicity.size:
        u = np.zeros(np.shape(u)[:-1] + (1,))
    return np.where(kept[features], np.take(u, index[features], axis=-1), 0.0)


@pytest.mark.parametrize("name", ["synthetic", "zero_columns", "no_column"])
def test_expand_is_one_take(name):
    # Bit for bit, signed zeros, NaN and infinities included, for one vector
    # and a stack, on both quotients: the synthetic design drops the unused
    # slots of its positive blocks, the hand-built one has two all-zero
    # columns and the last none at all.
    ds = {"synthetic": DESIGNS["synthetic"],
          "zero_columns": lambda: dataset([[1.0, 0.0, 2.0, 0.0, 0.5], [1.0, 0.0, 2.0, 0.0, -1.0]],
                                          [1, -1]),
          "no_column": lambda: lsq.Dataset(n=2, d=3, rows=((), ()), y=np.array([1.0, -1.0])),
          }[name]()
    assert name == "synthetic" or np.any(ds.columns < 0)
    rng = np.random.default_rng(1)
    for quotient in (ds.orbits, column_quotient(ds)):
        cols = quotient.multiplicity.size
        specials = [-0.0, 0.0, math.nan, math.inf, -math.inf]
        u = np.vstack([rng.choice(specials, cols), rng.standard_normal((2, cols))])
        for values in (u, u[0], u[1]):
            for features in (slice(None), slice(3)):
                got, want = quotient.expand(values, features), expand_where(
                    ds, quotient, values, features)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def bits(x):
    return np.float64(x).tobytes()


def assert_runs_equal_the_quotient_reference(ds, iters=40):
    """Every method's lockstep rows (a step size that converges, one that
    runs out the budget, one that diverges or overflows), with a dev stream
    and a stop loss, equal the column-quotient reference run bit for bit:
    status, iterations, failure, convergence, dev record, the bytes of the
    final loss and of w, and every trace row."""
    alphas = [0.05, 0.7, 1e300]
    counts = [lsq.label_counts(lsq.dev_labels_for(
        0.75, 40, np.random.SeedSequence(entropy=7, spawn_key=(i,)))) for i in range(len(alphas))]
    for method in MethodKind:
        spec = OptimizerSpec(method=method, alpha=1.0, beta2=0.9)
        rows = run_lockstep(ds, spec, alphas, iters, dev_counts=counts, stop_loss=1e-9)
        for alpha, row, dev in zip(alphas, rows, counts):
            ref = quotient_run(ds, spec, alpha, iters, dev_counts=dev, stop_loss=1e-9)
            assert (row.status, row.iterations, row.failure, row.converged) == (
                ref.status, ref.iterations, ref.failure, ref.converged), (method, alpha)
            assert (row.best_dev, row.epoch_of_best) == (ref.best_dev, ref.epoch_of_best)
            assert bits(row.final_loss) == bits(ref.final_loss)
            assert row.w.tobytes() == ref.w.tobytes(), (method, alpha)
            assert [[bits(v) for v in astuple(t)] for t in row.trace] == [
                [bits(v) for v in astuple(t)] for t in ref.trace], (method, alpha)


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_runs_equal_the_quotient_reference(name):
    assert_runs_equal_the_quotient_reference(DESIGNS[name]())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_runs_equal_the_quotient_reference(seed):
    assert_runs_equal_the_quotient_reference(orbit_design(seed))
