import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlab import lsq, oracle, training
from optlab.optim import MethodKind, OptimizerSpec, init_state, step
from optlab.schedules import DecayPolicy, next_alpha
from optlab.training import (
    TRACE_HEADER,
    run_lockstep,
    run_training,
    write_trace_csv,
)
from reference import column_quotient, margin, span_residual, test_scores


@pytest.fixture(scope="module")
def ds():
    return lsq.generate_synthetic(15, 0.75, seed=4)


def sgd_spec(alpha):
    return OptimizerSpec(method=MethodKind.SGD, alpha=alpha)


def dev_counts(rows):
    """The label counts of `rows` dev streams of 100 labels, one per stack row."""
    return [lsq.label_counts(lsq.dev_labels_for(
        0.75, 100, np.random.SeedSequence(entropy=1, spawn_key=(i,)))) for i in range(rows)]


def test_zero_iterations_single_row(ds):
    res = run_training(ds, sgd_spec(0.01), 0)
    assert res.status == "ok"
    assert len(res.trace) == 1
    row = res.trace[0]
    assert row.iteration == 0
    assert row.train_loss == ds.n
    assert math.isnan(row.margin)  # zero vector has no margin
    assert row.rowspan_resid == 0.0


def test_convergence_flag_and_stop(ds):
    res = run_training(ds, sgd_spec(0.01), 50_000, stop_loss=1e-10)
    assert res.status == "ok"
    assert res.converged
    assert res.final_loss <= 1e-10
    assert res.iterations < 50_000
    assert res.trace[-1].iteration == res.iterations


def test_divergence_sets_status(ds):
    res = run_training(ds, sgd_spec(10.0), 5_000)
    assert res.status == "diverged"
    assert not res.converged
    for row in res.trace:
        assert math.isfinite(row.train_loss)


def test_trace_iterations_strictly_increasing(ds):
    res = run_training(ds, sgd_spec(0.005), 2_500)
    its = [r.iteration for r in res.trace]
    assert its == sorted(set(its))
    # default cadence: dense first 1000, then every 10th
    assert set(range(0, 1001)) <= set(its)
    sparse = [i for i in its if i > 1000]
    assert all(i % 10 == 0 or i == 2500 for i in sparse)


def test_trace_every_override(ds):
    res = run_training(ds, sgd_spec(0.005), 100, trace_every=25)
    assert [r.iteration for r in res.trace] == [0, 25, 50, 75, 100]


def test_dev_decay_shrinks_alpha_only_without_new_best(ds):
    counts = lsq.label_counts(lsq.dev_labels_for(ds.p, 400, np.random.SeedSequence(0)))
    policy = DecayPolicy(kind="dev_decay", delta=0.9)
    res = run_training(ds, sgd_spec(0.002), 60, policy=policy, dev_counts=counts,
                       trace_every=1)
    # replay the rule from the recorded dev metrics
    best = res.trace[0].dev_error
    expected_alpha = 0.002
    for row in res.trace[1:]:
        assert row.alpha == expected_alpha
        if row.dev_error < best:
            best = row.dev_error
        else:
            expected_alpha *= 0.9
    assert res.best_dev == best


def test_dev_decay_requires_labels(ds):
    with pytest.raises(ValueError):
        run_training(ds, sgd_spec(0.01), 10,
                     policy=DecayPolicy(kind="dev_decay", delta=0.9))


def test_fixed_decay_alpha_schedule(ds):
    policy = DecayPolicy(kind="fixed_decay", delta=0.5, period=20)
    res = run_training(ds, sgd_spec(0.002), 50, policy=policy, trace_every=1)
    alphas = {r.iteration: r.alpha for r in res.trace}
    assert alphas[20] == 0.002
    assert alphas[21] == 0.001
    assert alphas[41] == 0.0005


def test_nonadaptive_iterates_stay_in_row_span(ds):
    for method in (MethodKind.SGD, MethodKind.HB, MethodKind.NAG):
        spec = OptimizerSpec(method=method, alpha=0.002, beta=0.9)
        res = run_training(ds, spec, 800, stop_loss=1e-12)
        for row in res.trace:
            assert row.rowspan_resid <= 1e-8 * (1.0 + row.w_l2)


def test_adaptive_final_iterate_leaves_row_span(ds):
    spec = OptimizerSpec(method=MethodKind.ADAGRAD, alpha=0.25, epsilon=0.0)
    res = run_training(ds, spec, 2_000, stop_loss=1e-12)
    assert res.converged
    assert span_residual(ds, res.w) >= 1e-3 * np.linalg.norm(res.w)


def test_adaptive_vs_nonadaptive_fixed_points(ds):
    mn = oracle.min_norm_solution(ds).w
    sg = oracle.sign_solution(ds).w
    runs = {
        MethodKind.SGD: (OptimizerSpec(method=MethodKind.SGD, alpha=0.002), mn),
        MethodKind.HB: (OptimizerSpec(method=MethodKind.HB, alpha=0.002, beta=0.9), mn),
        MethodKind.NAG: (OptimizerSpec(method=MethodKind.NAG, alpha=0.002, beta=0.9), mn),
        MethodKind.ADAGRAD: (
            OptimizerSpec(method=MethodKind.ADAGRAD, alpha=0.1, epsilon=0.0), sg),
        MethodKind.RMSPROP: (
            OptimizerSpec(method=MethodKind.RMSPROP, alpha=0.01, beta2=0.9, epsilon=0.0),
            sg),
        MethodKind.ADAM: (
            OptimizerSpec(method=MethodKind.ADAM, alpha=0.05, beta1=0.9, beta2=0.999,
                          epsilon=0.0), sg),
    }
    for method, (spec, target) in runs.items():
        res = run_training(ds, spec, 30_000, stop_loss=1e-10)
        assert res.converged, method
        rel = np.linalg.norm(res.w - target) / np.linalg.norm(target)
        assert rel <= 1e-4, (method, rel)


def test_runs_are_bitwise_reproducible(ds, run_with_iterates):
    spec = OptimizerSpec(method=MethodKind.ADAM, alpha=0.05, epsilon=0.0)
    a, a_iterates = run_with_iterates(ds, spec, 300, record_trace=False)
    b, b_iterates = run_with_iterates(ds, spec, 300, record_trace=False)
    for x, y in zip(a_iterates, b_iterates):
        assert np.array_equal(x, y)
    assert a.final_loss == b.final_loss


def test_trace_csv_header_and_shape(ds, tmp_path):
    res = run_training(ds, sgd_spec(0.002), 30, trace_every=10)
    path = tmp_path / "trace.csv"
    write_trace_csv(res.trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 1 + len(res.trace)
    assert all(len(line.split(",")) == 8 for line in lines[1:])


def dependent_rows_dataset():
    """Two equal rows make the Gram singular; CG needs no special case there."""
    rows = (((1, 1.0),), ((1, 1.0),), ((2, -1.0), (3, 1.0)))
    return lsq.Dataset(n=3, d=4, rows=rows, y=np.array([1.0, 1.0, -1.0]))


def test_stacked_gram_solve_stops_each_row_on_its_own_test(monkeypatch):
    # On the dependent design, a zero row stops before any step, (1, -1, 0)
    # (orthogonal to the range) breaks down at the first, (1, 0, 0) at the
    # second, and (0, 0, 1) (an eigenvector) converges after one; stacked,
    # each row must still be bit for bit its solo solve.
    data = column_quotient(dependent_rows_dataset())
    b = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    steps = []
    product = lsq.quotient_product

    def counted(*args):
        steps[-1] += 1
        return product(*args)

    monkeypatch.setattr(lsq, "quotient_product", counted)
    solo = []
    for row in b:
        steps.append(0)
        solo.append(data.gram_solve(row))
    assert steps == [0, 1, 2, 1]
    steps.append(0)
    stacked = data.gram_solve(b)
    assert steps[-1] == 2
    for c_row, c_solo in zip(stacked, solo):
        assert c_row.tobytes() == c_solo.tobytes()


@pytest.mark.parametrize("method", list(MethodKind))
@pytest.mark.parametrize("dependent", [False, True])
def test_trace_diagnostics_equal_standalone_calls(ds, method, dependent, monkeypatch,
                                                  run_with_iterates):
    # The loop solves its trace rows' span projections in blocks, from the
    # product X w_k it already has; each norm, margin and span residual must
    # equal the standalone call on the full-length iterate, exactly.  Run in
    # one block and in blocks of 5 rows, which split the 93 rows (3 per
    # iteration) into 19 blocks, most across an iteration.  A row's iterates
    # are its solo run's (`test_lockstep_rows_equal_solo_runs`).
    data = dependent_rows_dataset() if dependent else ds
    spec = OptimizerSpec(method=method, alpha=1.0)
    alphas = [0.002, 0.01, 0.05]
    solo = [run_with_iterates(data, replace(spec, alpha=a), 30, record_trace=False)[1]
            for a in alphas]
    for block_rows in (None, 5):
        with monkeypatch.context() as patch:
            if block_rows is not None:
                patch.setattr(training, "TRACE_BLOCK_FLOATS",
                              block_rows * (data.orbits.multiplicity.size + data.n + data.d))
            rows = run_lockstep(data, spec, alphas, 30)
        for row, iterates in zip(rows, solo):
            assert [t.iteration for t in row.trace] == list(range(len(iterates)))
            for t, w in zip(row.trace, iterates):
                expected = margin(data, w) if np.linalg.norm(w) > 0.0 else math.nan
                assert np.float64(t.margin).tobytes() == np.float64(expected).tobytes()
                assert t.rowspan_resid == span_residual(data, w)
                assert (t.w_l2, t.w_linf) == (lsq.l2_norm(w), float(np.max(np.abs(w))))


def test_run_loop_steps_through_the_engine_once_per_iteration(ds, monkeypatch):
    # The run loop has one update path: `training.step`, called once per
    # lockstep iteration with the rows still running (the bench traces it
    # there).  A mixed stack: a row that converges at 64, one whose loss
    # overflows at iteration 95, one that runs out the budget of 150, and one
    # whose first step overflows; with the trace on and a dev stream.
    heights = []

    def counted(state, spec, grad_at, alpha):
        heights.append(len(state.w))
        return step(state, spec, grad_at, alpha)

    monkeypatch.setattr(training, "step", counted)
    counts = dev_counts(4)
    rows = run_lockstep(ds, OptimizerSpec(method=MethodKind.HB, alpha=1.0),
                        [0.02, 1.0, 1e-7, 1e308], 150, dev_counts=counts, stop_loss=1e-3)
    outcomes = [(r.status, r.converged, r.iterations, r.failure) for r in rows]
    assert outcomes == [("ok", True, 64, None),
                        ("diverged", False, 95, "non-finite loss at iteration 95"),
                        ("ok", False, 150, None),
                        ("diverged", False, 0, "non-finite iterate at step 1")]
    # Steps each row took part in: up to its last iteration, or the failing one.
    steps = [64, 95, 150, 1]
    assert heights == [sum(j <= last for last in steps) for j in range(1, 151)]


def test_rows_without_a_trace_build_no_full_length_w(ds, monkeypatch):
    # No caller reads an untraced row's w (a tune round reads its loss, dev
    # record, status and iterations), so the mixed stack above, untraced,
    # expands only the 3 coordinates its dev scores read, whichever way each
    # row stops; traced, every row gets its d-long w.
    widths = []
    expand = lsq.Quotient.expand

    def recorded(self, u, *args):
        w = expand(self, u, *args)
        widths.append(w.shape[-1])
        return w

    monkeypatch.setattr(lsq.Quotient, "expand", recorded)
    counts = dev_counts(4)
    spec, alphas = OptimizerSpec(method=MethodKind.HB, alpha=1.0), [0.02, 1.0, 1e-7, 1e308]
    untraced = run_lockstep(ds, spec, alphas, 150, dev_counts=counts, stop_loss=1e-3,
                            record_trace=False)
    assert [(r.status, r.converged, r.iterations) for r in untraced] == [
        ("ok", True, 64), ("diverged", False, 95), ("ok", False, 150), ("diverged", False, 0)]
    assert all(r.w is None and r.trace == [] for r in untraced)
    assert set(widths) == {3}
    traced = run_lockstep(ds, spec, alphas, 150, dev_counts=counts, stop_loss=1e-3)
    assert all(r.w.shape == (ds.d,) for r in traced)
    assert [r.final_loss for r in traced] == [r.final_loss for r in untraced]


def test_dropped_rows_step_no_further_and_the_others_run_as_alone(ds, monkeypatch):
    # The mixed stack above plus a fifth row that runs out the budget.  Once
    # row 0 converges at 64, the callback drops rows 2 and 4 (and names row 0,
    # which has already stopped).  The callback sees each other row as it
    # stops, with its result; the survivors equal their solo runs bit for
    # bit, trace included, and the dropped rows take no step after 64.
    heights, seen = [], []

    def counted(state, spec, grad_at, alpha):
        heights.append(len(state.w))
        return step(state, spec, grad_at, alpha)

    def cancel(stopped):
        seen.append(stopped)
        return [0, 2, 4] if 0 in stopped else []

    monkeypatch.setattr(training, "step", counted)
    spec = OptimizerSpec(method=MethodKind.HB, alpha=1.0)
    alphas = [0.02, 1.0, 1e-7, 1e308, 1e-6]
    counts = dev_counts(5)
    rows = run_lockstep(ds, spec, alphas, 150, dev_counts=counts, stop_loss=1e-3,
                        cancel=cancel)
    assert (rows[2], rows[4]) == (None, None)
    assert [list(stopped) for stopped in seen] == [[3], [0], [1]]
    assert [stopped[r] for stopped, r in zip(seen, (3, 0, 1))] == [rows[3], rows[0], rows[1]]
    monkeypatch.setattr(training, "step", step)
    for i in (0, 1, 3):
        solo = run_training(ds, replace(spec, alpha=alphas[i]), 150, dev_counts=counts[i],
                            stop_loss=1e-3)
        assert_same_run(rows[i], solo)
        assert rows[i].trace == solo.trace
    steps = [64, 95, 64, 1, 64]
    assert heights == [sum(j <= last for last in steps) for j in range(1, 96)]


def test_trace_blocks_count_the_full_length_iterates(monkeypatch):
    # A block's norms expand its class values to (rows, d) full-length
    # vectors, so its height must count d, not only C + n: here a hand-built
    # design whose 40 000 features collapse to 4 column classes.  Every
    # full-length array the trace makes stays within TRACE_BLOCK_FLOATS, or
    # is one row.
    d = 40_000
    rows = (((1, 1.0), (d, 2.0)), ((2, 1.0),), ((1, 1.0), (3, -1.0)), ((2, 3.0), (3, 1.0)))
    data = lsq.Dataset(n=4, d=d, rows=rows, y=np.array([1.0, -1.0, 1.0, 1.0]))
    classes = data.orbits.multiplicity.size
    assert classes == 4
    shapes = []
    expand = lsq.Quotient.expand

    def recorded(self, u, *args):
        w = expand(self, u, *args)
        shapes.append(w.shape)
        return w

    monkeypatch.setattr(lsq.Quotient, "expand", recorded)
    (row,) = run_lockstep(data, sgd_spec(0.01), [0.01], 40)
    assert [t.iteration for t in row.trace] == list(range(41))
    assert all(len(shape) == 1 or shape[0] == 1
               or shape[0] * (classes + data.n + d) <= training.TRACE_BLOCK_FLOATS
               for shape in shapes)


_SCORE_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, math.nan, math.inf, -math.inf])


@settings(max_examples=60, deadline=None)
@given(
    w=st.lists(st.lists(_SCORE_PARTS | st.floats(), min_size=3, max_size=3),
               min_size=1, max_size=5),
    size=st.integers(1, 40),
    seed=st.integers(0, 1000),
)
def test_dev_errors_equal_per_label_mean(w, size, seed):
    # Scoring the two label values once and weighting by the label counts must
    # give the per-label mean bit for bit, NaN scores (never wrong) and signed
    # zero scores (always wrong) included.
    w = np.array(w)
    labels = np.where(np.random.default_rng(seed).random((len(w), size)) < 0.75, 1.0, -1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        per_label = np.mean(test_scores(w, labels) * labels <= 0.0, axis=-1)
        by_class = np.array(lsq.error_rates(w, [lsq.label_counts(v) for v in labels]))
    assert by_class.tobytes() == per_label.tobytes()


def test_dev_labels_must_be_signs():
    # A stream is counted where it is drawn: one pair, [count of +1, count
    # of -1].  An empty stream has no dev error (0/0): reject it rather than
    # rank on NaN; so is a label other than +1 or -1, NaN included.
    labels = lsq.dev_labels_for(0.75, 1000, np.random.SeedSequence(0))
    assert lsq.label_counts(labels) == [int(np.sum(labels > 0.0)), int(np.sum(labels < 0.0))]
    for labels, message in (([], "must not be empty"), (np.array([]), "must not be empty"),
                            (np.array([1.0, 0.5]), "dev labels must be"),
                            (np.array([1.0, np.nan]), "dev labels must be")):
        with pytest.raises(ValueError, match=message):
            lsq.label_counts(labels)


def test_dev_streams_must_match_the_step_sizes(ds, monkeypatch):
    # One [pos, neg] pair a row: a stack with fewer would fail mid-run, and
    # one with more would ignore the rest.  Both fail before any step.
    monkeypatch.setattr(training, "step", lambda *args: pytest.fail("a step ran"))
    for streams in (1, 3):
        with pytest.raises(ValueError, match=f"got {streams} dev streams for 2 step sizes"):
            run_lockstep(ds, sgd_spec(0.002), [0.002, 0.001], 5, dev_counts=dev_counts(streams))


def test_dev_labels_stream_deterministic():
    a = lsq.dev_labels_for(0.75, 100, np.random.SeedSequence(entropy=1, spawn_key=(2,)))
    b = lsq.dev_labels_for(0.75, 100, np.random.SeedSequence(entropy=1, spawn_key=(2,)))
    np.testing.assert_array_equal(a, b)
    assert set(np.unique(a)) <= {-1.0, 1.0}


# ---------------------------------------------------------------------------
# lockstep stacks: every row must equal its solo run bit for bit
# ---------------------------------------------------------------------------


def assert_same_run(row, solo):
    assert row.w.tobytes() == solo.w.tobytes()
    assert np.float64(row.final_loss).tobytes() == np.float64(solo.final_loss).tobytes()
    assert (row.iterations, row.status, row.failure, row.converged) == (
        solo.iterations, solo.status, solo.failure, solo.converged)
    assert (row.best_dev, row.epoch_of_best) == (solo.best_dev, solo.epoch_of_best)


def reference_run(x, y, spec, iters, policy, labels, stop_loss):
    """One trajectory, run plainly with `step` on a single full-length vector
    over the dense, unreduced design `x`, from zero: the outcome each
    lockstep row must reproduce, up to the order of summation.
    Also returns the largest loss the run met."""
    def dev_error(w):
        return float(np.mean(test_scores(w, labels) * labels <= 0.0))

    def loss_at(w):
        r = x @ w - y
        return float(np.sum(r * r))

    state = init_state(spec, np.zeros(x.shape[1]))
    alpha, loss, k, status, failure = spec.alpha, loss_at(state.w), 0, "ok", None
    peak = loss
    best, epoch_of_best = (None if labels is None else dev_error(state.w)), 0
    converged = stop_loss is not None and loss <= stop_loss
    with np.errstate(all="ignore"):
        while k < iters and not converged:
            new = step(state, spec, lambda w: 2.0 * (x.T @ (x @ w - y)), alpha)
            if new.failures:
                [(_, status, failure)] = new.failures
                break
            state, k = new, k + 1
            loss = loss_at(state.w)
            peak = max(peak, loss)
            if not math.isfinite(loss):
                status, failure = "diverged", f"non-finite loss at iteration {k}"
                break
            dev, best_before = (None if labels is None else dev_error(state.w)), best
            improved = dev is not None and dev < best_before
            if improved:
                best, epoch_of_best = dev, k
            converged = stop_loss is not None and loss <= stop_loss
            if not converged and k < iters:
                alpha = next_alpha(policy, alpha, k, improved=improved)
    return state.w, peak, k, status, failure, converged, best, epoch_of_best


def singular_dataset():
    """Adagrad with epsilon 0 from zero moves only feature 1 at the first step
    (to alpha): the two examples cancel feature 2's label correlation.
    Example 1 then has residual 1e-20 * alpha - 1: exactly -1 for moderate
    alpha, so feature 2's gradient stays 0, but -1 + 1e-10 at alpha = 1e10,
    where feature 2's gradient 2 * 5e-161 * 1e-10 = 1e-170 squares to 0 and
    meets H = 0."""
    rows = (((1, 1e-20), (2, 5e-161)), ((2, 5e-161),))
    return lsq.Dataset(n=2, d=2, rows=rows, y=np.array([1.0, -1.0]))


def test_singular_preconditioner_stops_only_its_row():
    ds = singular_dataset()
    spec = OptimizerSpec(method=MethodKind.ADAGRAD, alpha=1e10, epsilon=0.0)
    solo = run_training(ds, spec, 50)
    assert solo.status == "singular_preconditioner"
    assert solo.iterations == 1
    assert solo.failure == ("zero preconditioner entry with nonzero update at step 2 "
                            "(epsilon=0.0)")

    alphas = [0.5, 1e10, 0.25]
    rows = run_lockstep(ds, spec, alphas, 50)
    assert [r.status for r in rows] == ["ok", "singular_preconditioner", "ok"]
    assert [r.iterations for r in rows] == [50, 1, 50]
    x = np.array([[1e-20, 5e-161], [0.0, 5e-161]])
    for alpha, row in zip(alphas, rows):
        row_spec = OptimizerSpec(method=MethodKind.ADAGRAD, alpha=alpha, epsilon=0.0)
        solo = run_training(ds, row_spec, 50)
        assert_same_run(row, solo)
        outcome = reference_run(x, ds.y, row_spec, 50, DecayPolicy(), None, None)[2:5]
        assert outcome == (row.iterations, row.status, row.failure)


def synthetic_dense(ds):
    """The synthetic design written out densely from its template: (label, 1,
    1) on features 1-3 and ones on each example's private block."""
    x = np.zeros((ds.n, ds.d))
    x[:, 0], x[:, 1:3] = ds.y, 1.0
    for i, label in enumerate(ds.y):
        x[i, 3 + 5 * i: 4 + 5 * i if label > 0 else 8 + 5 * i] = 1.0
    return x


def duplicate_columns_dense(n, seed):
    """An n-row design of k >= n sparse Gaussian columns, the first one full,
    each repeated 1 to 4 times, plus all-zero columns, in shuffled order.
    Continuous values keep sums away from exact cancellation, where
    adagrad's first step (the sign of the gradient) would depend on the
    order of summation."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(n, 2 * n + 2))
    base = rng.standard_normal((n, k)) * (rng.random((n, k)) < 0.6) / np.sqrt(k)
    base[:, 0] = rng.standard_normal(n)
    x = np.hstack([np.repeat(base, rng.integers(1, 5, size=k), axis=1), np.zeros((n, 3))])
    x = x[:, rng.permutation(x.shape[1])]
    y = np.where(rng.random(n) < 0.75, 1.0, -1.0)
    return x, y


def dataset_from_dense(x, y):
    rows = tuple(tuple((j + 1, float(v)) for j, v in enumerate(r) if v != 0.0) for r in x)
    return lsq.Dataset(n=x.shape[0], d=x.shape[1], rows=rows, y=y)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    seed=st.integers(0, 1000),
    synthetic=st.booleans(),
    method=st.sampled_from(list(MethodKind)),
    # 2^-9 converges for every method on the synthetic designs at n <= 30;
    # 2^4 diverges for the non-adaptive ones and oscillates to the budget for
    # the adaptive ones; 2^1023 overflows the first non-adaptive iterate.
    log2_alphas=st.lists(st.integers(-9, 4) | st.just(1023), min_size=1, max_size=6),
    # Stable step sizes: scale / L for the non-adaptive methods (L = 2 ||X||_2^2,
    # inside every method's stability bound at beta = 0.9), scale / 4 for the
    # adaptive ones.
    stable_scales=st.lists(st.sampled_from([0.25, 0.5, 1.0]), max_size=2),
    iters=st.integers(0, 150),
    stop_loss=st.sampled_from([None, 1e-3]),
    dev=st.booleans(),
)
def test_lockstep_rows_equal_solo_runs(n, seed, synthetic, method, log2_alphas, stable_scales,
                                       iters, stop_loss, dev):
    # Each lockstep row must equal its solo run bit for bit.  Against the
    # unreduced dense reference, with tolerances stated up front:
    # - sgd, hb, nag and adagrad end every row with the same status, at the
    #   same iteration, with the same failure, convergence and dev record.
    #   One exception: when the synthetic labels sum to 1, y is an eigenvector
    #   of X X^T other than the top one, so a run that diverges along the top
    #   one grows from rounding, whose size the order of summation decides,
    #   and overflows a few steps earlier or later (up to 7 steps in 23 000
    #   measured diverged runs).  Such a row must still fail the same way,
    #   its failure text equal up to the step number.  The final w agrees
    #   within 1e-12 relative L2 on the stable rows, if the loss never rose
    #   above its start n: rows that converged, and for sgd, hb and nag rows
    #   with a stable step size.  Elsewhere unstable runs amplify that
    #   rounding far beyond it.  So does adagrad once the loss nears its
    #   floor: it scales each coordinate's step by that coordinate's own
    #   history, so rounding-sized gradients still move w (at alpha = 1/8,
    #   n = 17, seed 95 the runs are 2e-12 apart at step 13, 2e-4 at step 30).
    # - adam and rmsprop end every converging row with the same status at the
    #   same iteration.
    if synthetic:
        ds = lsq.generate_synthetic(n, 0.75, seed)
        x, y = synthetic_dense(ds), ds.y
    else:
        x, y = duplicate_columns_dense(n, seed)
        ds = dataset_from_dense(x, y)
    spec = OptimizerSpec(method=method, alpha=1.0, beta2=0.9, epsilon=0.0)
    adaptive = method in (MethodKind.ADAGRAD, MethodKind.ADAM, MethodKind.RMSPROP)
    bound = 4.0 if adaptive else 2.0 * np.linalg.norm(x, 2) ** 2
    alphas = [2.0 ** e for e in log2_alphas] + [scale / bound for scale in stable_scales]
    labels, policy = None, DecayPolicy()
    if dev:
        labels = [lsq.dev_labels_for(0.75, 50,
                                     np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
                  for i in range(len(alphas))]
        policy = DecayPolicy(kind="dev_decay", delta=0.5)
    counts = None if labels is None else [lsq.label_counts(v) for v in labels]
    rows = run_lockstep(ds, spec, alphas, iters, policy=policy, dev_counts=counts,
                        stop_loss=stop_loss, trace_every=7)
    for i, (alpha, row) in enumerate(zip(alphas, rows)):
        row_spec = OptimizerSpec(method=method, alpha=alpha, beta2=0.9, epsilon=0.0)
        row_labels = None if labels is None else labels[i]
        solo = run_training(ds, row_spec, iters, policy=policy,
                            dev_counts=None if counts is None else counts[i],
                            stop_loss=stop_loss, trace_every=7)
        assert_same_run(row, solo)
        assert row.trace == solo.trace
        if method in (MethodKind.ADAM, MethodKind.RMSPROP) and not row.converged:
            continue
        w, peak, k, status, failure, *record = reference_run(x, y, row_spec, iters, policy,
                                                             row_labels, stop_loss)
        assert status == row.status
        if method in (MethodKind.ADAM, MethodKind.RMSPROP):
            assert k == row.iterations
        elif status == "diverged" and synthetic and y.sum() == 1.0:
            assert re.sub(r"\d+", "#", failure) == re.sub(r"\d+", "#", row.failure)
        else:
            assert [k, failure, *record] == [row.iterations, row.failure, row.converged,
                                             row.best_dev, row.epoch_of_best]
            stable = row.converged or (i >= len(log2_alphas) and not adaptive)
            if stable and peak <= n:
                assert np.linalg.norm(row.w - w) <= 1e-12 * np.linalg.norm(w)
