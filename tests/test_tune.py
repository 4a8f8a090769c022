from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlab import lsq, training
from optlab import tune as tune_module
from optlab.errors import AllTrialsDivergedError
from optlab.optim import MethodKind, OptimizerSpec
from optlab.schedules import DecayPolicy, next_alpha
from optlab.tune import (
    Grid,
    TrialResult,
    TuneReport,
    WinnerSummary,
    extend_if_edge,
    make_log_grid,
    tune,
    tune_report_to_document,
)

SGD = OptimizerSpec(method=MethodKind.SGD, alpha=1.0)  # the spec `optlab tune` tunes


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_worked_grid():
    grid = make_log_grid(0.5, 2, 5)
    assert grid.values == (2.0, 1.0, 0.5, 0.25, 0.125)


def test_single_point_grid():
    assert make_log_grid(1.0, 2, 1).values == (1.0,)


def test_decade_grid():
    grid = make_log_grid(0.01, 10, 3)
    np.testing.assert_allclose(grid.values, (0.1, 0.01, 0.001), rtol=1e-12)
    ratios = [grid.values[i] / grid.values[i + 1] for i in range(2)]
    np.testing.assert_allclose(ratios, [10.0, 10.0], rtol=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(values=(1.0, 1.0), ratio=2.0)
    with pytest.raises(ValueError):
        Grid(values=(1.0,), ratio=1.0)
    with pytest.raises(ValueError):
        Grid(values=(-1.0,), ratio=2.0)
    with pytest.raises(ValueError):
        make_log_grid(1.0, 2, 0)


def test_extend_upper_edge():
    grid = make_log_grid(0.5, 2, 5)
    assert extend_if_edge(grid, 2.0) == 4.0


def test_extend_interior_is_absent():
    grid = make_log_grid(0.5, 2, 5)
    assert extend_if_edge(grid, 0.5) is None


def test_extend_lower_edge():
    grid = make_log_grid(0.5, 2, 5)
    assert extend_if_edge(grid, 0.125) == 0.0625


def test_extend_rejects_foreign_value():
    grid = make_log_grid(0.5, 2, 5)
    with pytest.raises(ValueError):
        extend_if_edge(grid, 0.3)


@settings(max_examples=40, deadline=None)
@given(
    center_milli=st.integers(1, 4000),
    ratio_tenths=st.integers(11, 100),
    count=st.integers(1, 9),
)
def test_generated_grids_are_geometric_and_duplicate_free(center_milli, ratio_tenths, count):
    grid = make_log_grid(center_milli / 1000.0, ratio_tenths / 10.0, count)
    assert len(set(grid.values)) == count
    assert list(grid.values) == sorted(grid.values, reverse=True)
    for hi, lo in zip(grid.values, grid.values[1:]):
        assert hi / lo == pytest.approx(grid.ratio, rel=1e-12)


# ---------------------------------------------------------------------------
# decay schedules
# ---------------------------------------------------------------------------


def test_dev_decay_keeps_rate_on_improvement():
    policy = DecayPolicy(kind="dev_decay", delta=0.9)
    assert next_alpha(policy, 0.4, epoch=3, improved=True) == 0.4


def test_dev_decay_shrinks_rate_exactly():
    policy = DecayPolicy(kind="dev_decay", delta=0.9)
    assert next_alpha(policy, 0.4, epoch=3, improved=False) == 0.4 * 0.9


def test_fixed_decay_on_period():
    policy = DecayPolicy(kind="fixed_decay", delta=0.1, period=10)
    assert next_alpha(policy, 2.0, epoch=10) == 2.0 * 0.1
    assert next_alpha(policy, 2.0, epoch=9, improved=True) == 2.0


def test_none_policy_keeps_rate():
    assert next_alpha(DecayPolicy(kind="none"), 0.3, epoch=5) == 0.3


def test_epoch_zero_rejected():
    with pytest.raises(ValueError):
        next_alpha(DecayPolicy(kind="none"), 0.3, epoch=0)


def test_policy_validation():
    with pytest.raises(ValueError):
        DecayPolicy(kind="dev_decay", delta=0.9, period=5)
    with pytest.raises(ValueError):
        DecayPolicy(kind="fixed_decay", delta=0.9)
    with pytest.raises(ValueError):
        DecayPolicy(kind="dev_decay", delta=1.5)
    with pytest.raises(ValueError):
        DecayPolicy(kind="step")


@settings(max_examples=30, deadline=None)
@given(
    improved=st.lists(st.booleans(), min_size=1, max_size=30),
    delta_pct=st.integers(10, 99),
)
def test_alpha_sequence_never_increases(improved, delta_pct):
    policy = DecayPolicy(kind="dev_decay", delta=delta_pct / 100.0)
    alpha = 1.0
    for epoch, better in enumerate(improved, start=1):
        new_alpha = next_alpha(policy, alpha, epoch, better)
        assert new_alpha <= alpha
        alpha = new_alpha


# ---------------------------------------------------------------------------
# tune harness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_ds():
    return lsq.generate_synthetic(12, 0.75, seed=2)


def test_tune_sgd_default_grid_converges(small_ds):
    report = tune(
        small_ds,
        SGD,
        make_log_grid(0.5, 2, 5),
        DecayPolicy(kind="none"),
        epochs=6000,
        seeds=2,
        dev_size=None,
        stop_loss=1e-12,
        extension_cap=8,
    )
    assert report.winner.final_loss_mean <= 1e-8
    assert report.extensions > 0  # the default grid alone diverges here


def test_tune_winner_has_seed_stats(small_ds):
    report = tune(
        small_ds,
        OptimizerSpec(method=MethodKind.ADAGRAD, alpha=1.0, epsilon=0.0),
        make_log_grid(0.25, 2, 3),
        DecayPolicy(kind="none"),
        epochs=800,
        seeds=5,
        dev_size=500,
        stop_loss=1e-12,
        extension_cap=8,
    )
    assert sum(t.alpha0 == report.winner.spec.alpha for t in report.trials) == 5
    assert report.winner.metric_std >= 0.0
    assert len({t.seed for t in report.trials}) == 5


def test_tune_extends_while_best_at_top_edge(small_ds):
    # Grid far below the stable range: the largest rate always wins and the
    # walk extends upward until capped.
    report = tune(
        small_ds,
        SGD,
        make_log_grid(1e-5, 2, 3),
        DecayPolicy(kind="none"),
        epochs=500,
        seeds=1,
        dev_size=None,
        extension_cap=2,
        stop_loss=1e-12,
    )
    assert report.extensions == 2
    assert report.winner.spec.alpha == max(report.grid.values)


def test_tune_all_diverged(small_ds):
    with pytest.raises(AllTrialsDivergedError):
        tune(
            small_ds,
            SGD,
            Grid(values=(4096.0, 2048.0), ratio=2.0),
            DecayPolicy(kind="none"),
            epochs=400,
            seeds=1,
            dev_size=None,
            extension_cap=0,
            stop_loss=None,
        )


@pytest.mark.parametrize("budget, message", [
    ({"extension_cap": -1}, "extension_cap must be nonnegative"),
    ({"seeds": 0}, "at least one seed"),
    ({"epochs": -1}, "iters must be nonnegative"),
])
def test_tune_rejects_a_bad_budget(small_ds, budget, message):
    # A negative cap used to act as 0: the walk stopped at the first check.
    args = {"epochs": 10, "seeds": 1, "extension_cap": 0, **budget}
    with pytest.raises(ValueError, match=message):
        tune(small_ds, SGD, make_log_grid(0.01, 2, 3), DecayPolicy(kind="none"),
             dev_size=None, stop_loss=None, **args)


def test_tune_tie_breaks_toward_larger_alpha(small_ds):
    # Zero epochs: every trial reports the identical initial loss, so the
    # documented tie-break picks the largest step size.
    report = tune(
        small_ds,
        SGD,
        make_log_grid(0.01, 2, 3),
        DecayPolicy(kind="none"),
        epochs=0,
        seeds=1,
        dev_size=None,
        extension_cap=0,
        stop_loss=None,
    )
    assert report.winner.spec.alpha == 0.02


def test_tune_winner_attains_extremal_metric(small_ds):
    report = tune(
        small_ds,
        SGD,
        make_log_grid(0.002, 2, 4),
        DecayPolicy(kind="none"),
        epochs=2000,
        seeds=2,
        dev_size=None,
        stop_loss=None,
        extension_cap=0,
    )
    winner_loss = report.winner.final_loss_mean
    completed = [t.final_train_loss for t in report.trials if t.status == "ok"]
    assert winner_loss <= min(completed) + 1e-18


def test_tune_grid_never_duplicates(small_ds):
    report = tune(
        small_ds,
        SGD,
        make_log_grid(0.5, 2, 5),
        DecayPolicy(kind="none"),
        epochs=1500,
        seeds=1,
        dev_size=None,
        stop_loss=1e-12,
        extension_cap=8,
    )
    assert len(set(report.grid.values)) == len(report.grid.values)


def test_tune_without_dev_stream_runs_once_per_step_size(small_ds, monkeypatch):
    from optlab import training

    original = training.run_lockstep
    for seeds in (1, 5):
        rounds = []

        def recording_run_lockstep(ds, spec, alphas, *args, **kwargs):
            rounds.append(list(alphas))
            return original(ds, spec, alphas, *args, **kwargs)

        monkeypatch.setattr(training, "run_lockstep", recording_run_lockstep)
        report = tune(
            small_ds,
            SGD,
            make_log_grid(0.002, 2, 3),
            DecayPolicy(kind="none"),
            epochs=300,
            seeds=seeds,
            dev_size=None,
            extension_cap=0,
            stop_loss=None,
        )
        assert len(report.trials) == 3 * seeds
        # one lockstep round, one trajectory row per step size, whatever the seed count
        assert rounds == [list(report.grid.values)]


def test_tune_dev_stream_needs_dataset_p():
    ds = lsq.Dataset(
        n=2, d=2,
        rows=(((1, 1.0), (2, 1.0)), ((1, 1.0), (2, -1.0))),
        y=np.array([1.0, 1.0]),
    )
    assert ds.p is None
    with pytest.raises(ValueError, match="dev_size=None"):
        tune(ds, SGD, make_log_grid(0.1, 2, 3), DecayPolicy(kind="none"),
             epochs=10, seeds=1, dev_size=200, extension_cap=8, stop_loss=None)


def test_tune_report_document(small_ds):
    report = tune(
        small_ds,
        SGD,
        make_log_grid(0.002, 2, 3),
        DecayPolicy(kind="none"),
        epochs=300,
        seeds=2,
        dev_size=None,
        extension_cap=0,
        stop_loss=None,
    )
    doc = tune_report_to_document(report)
    assert doc["method"] == "sgd"
    assert {"method", "alpha0", "policy", "seed", "final_train_loss", "best_dev",
            "epoch_of_best", "status", "iterations"} == set(doc["trials"][0])
    assert doc["winner"]["alpha"] == report.winner.spec.alpha



# ---------------------------------------------------------------------------
# the extension walk, batched against one step size per stack
# ---------------------------------------------------------------------------


def sequential_tune(ds, spec, grid, policy, epochs, seeds, *, dev_size, extension_cap,
                    stop_loss):
    """`tune` with its walk run one step size per lockstep stack: round 0,
    then each extension alone, as the walk asks for it.  The reference a
    batched walk must match byte for byte."""
    selection = "dev" if dev_size is not None else "train_loss"
    streams = range(seeds) if dev_size is not None else (None,)
    by_alpha = {}

    def evaluate(alphas):
        keys = [(i, a, s) for i, a in enumerate(alphas, start=len(by_alpha)) for s in streams]
        labels = None if dev_size is None else [
            lsq.dev_labels_for(ds.p, dev_size, np.random.SeedSequence(entropy=s, spawn_key=(i,)))
            for i, _, s in keys]
        runs = iter(training.run_lockstep(
            ds, spec, [a for _, a, _ in keys], epochs, policy=policy, dev_labels=labels,
            stop_loss=stop_loss, record_trace=False))
        for alpha in alphas:
            shared = next(runs) if dev_size is None else None
            by_alpha[alpha] = []
            for seed in range(seeds):
                r = shared if shared is not None else next(runs)
                by_alpha[alpha].append(TrialResult(seed, alpha, r.final_loss, r.best_dev,
                                                   r.epoch_of_best, r.status, r.iterations))

    def best(trials):
        return min(trials, key=lambda a: tune_module._rank_key(a, trials[a], selection))

    current = grid
    evaluate(current.values)
    while current.extensions < extension_cap:
        candidate = extend_if_edge(current, best(by_alpha))
        if candidate is None:
            break
        current = current.with_value(candidate)
        evaluate([candidate])
    completed = {a: t for a, t in by_alpha.items() if all(r.status == "ok" for r in t)}
    if not completed:
        raise AllTrialsDivergedError(
            f"every step size diverged for {spec.method.value}: "
            f"{sorted(by_alpha, reverse=True)}, after {current.extensions} of "
            f"{extension_cap} extensions, the smallest step {min(by_alpha)!r}; "
            "raise --extension-cap or start the grid lower")
    alpha = best(completed)
    metrics = np.array([tune_module._trial_metric(t, selection) for t in completed[alpha]])
    losses = np.array([t.final_train_loss for t in completed[alpha]])
    winner = WinnerSummary(replace(spec, alpha=alpha), policy, selection, float(metrics.mean()),
                           float(metrics.std()), float(losses.mean()), float(losses.std()))
    return TuneReport(tuple(t for trials in by_alpha.values() for t in trials), winner, current,
                      current.extensions)


def tune_outcome(tuner, path, *args, **kwargs):
    """The tune document's bytes as `lsq.write_json` writes them, or the
    type and message of the error raised instead."""
    try:
        report = tuner(*args, **kwargs)
    except (AllTrialsDivergedError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    lsq.write_json(tune_report_to_document(report), path)
    return path.read_bytes()


# The center of a one-point grid whose walk goes up once, then turns down
# and ends: (2c) ranks below (c), and so does (c / 2).
TURNING_CENTER = {MethodKind.SGD: 2.0 ** -5, MethodKind.HB: 2.0 ** -5, MethodKind.NAG: 2.0 ** -7,
                  MethodKind.ADAGRAD: 2.0 ** -2, MethodKind.RMSPROP: 2.0 ** -4,
                  MethodKind.ADAM: 2.0 ** -2}

WALKS = {
    # grid, policy, seeds, dev_size, extension_cap, stop_loss
    "up": (make_log_grid(1e-5, 2, 3), DecayPolicy(), 1, None, 7, 1e-12),
    "up_to_the_cap": (make_log_grid(1e-5, 2, 3), DecayPolicy(), 2, None, 3, 1e-12),
    "down": (make_log_grid(64.0, 2, 5), DecayPolicy(), 1, None, 12, 1e-12),
    "ends_inside_a_batch": (make_log_grid(4.0, 2, 5), DecayPolicy(), 1, None, 12, 1e-12),
    "turn": (None, DecayPolicy(), 1, None, 8, 1e-12),
    "all_diverged": (Grid((4096.0, 2048.0), 2.0), DecayPolicy(), 1, None, 2, None),
    # Up from 1e308 the walk asks for inf, which is no grid value: every walk
    # but rmsprop's (which goes down) fails there, before a row runs at inf.
    "past_the_float_range": (Grid((1e308, 5e307), 2.0), DecayPolicy(), 1, None, 8, 1e-12),
    "dev_stream": (make_log_grid(1.0, 2, 3), DecayPolicy(), 3, 40, 5, 1e-12),
    "dev_decay": (make_log_grid(8.0, 2, 3), DecayPolicy(kind="dev_decay", delta=0.9), 2, 40,
                  6, None),
}


@pytest.mark.parametrize("walk", list(WALKS))
@pytest.mark.parametrize("method", list(MethodKind))
def test_batched_walk_writes_the_sequential_walks_document(small_ds, method, walk, tmp_path,
                                                           monkeypatch):
    grid, policy, seeds, dev_size, cap, stop_loss = WALKS[walk]
    grid = grid or make_log_grid(TURNING_CENTER[method], 2, 1)
    spec = OptimizerSpec(method=method, alpha=1.0, beta2=0.9, epsilon=0.0)
    args = (small_ds, spec, grid, policy, 300, seeds)
    options = {"dev_size": dev_size, "extension_cap": cap, "stop_loss": stop_loss}
    batched = tune_outcome(tune, tmp_path / "batched.json", *args, **options)
    assert batched == tune_outcome(sequential_tune, tmp_path / "sequential.json", *args,
                                   **options)
    if method is not MethodKind.SGD:
        return
    # sgd's walks are the ones named: `extensions` and the grid's new ends.
    if walk == "all_diverged":
        assert batched.startswith("AllTrialsDivergedError: every step size diverged for sgd")
        return
    if walk == "past_the_float_range":
        assert batched == "ValueError: step sizes must be finite, got (1e+308, 5e+307, inf)"
        ran, run_lockstep = [], training.run_lockstep

        def recorded(ds, spec, alphas, *rest, **kwargs):
            ran.extend(alphas)
            return run_lockstep(ds, spec, alphas, *rest, **kwargs)

        monkeypatch.setattr(training, "run_lockstep", recorded)
        with pytest.raises(ValueError):
            tune(*args, **options)
        assert ran == [1e308, 5e307]  # round 0 only: no row runs at inf
        return
    report = tune(*args, **options)
    expected = {"up": (7, 2.56e-3, 5e-6), "up_to_the_cap": (3, 1.6e-4, 5e-6),
                "down": (10, 256.0, 2.0 ** -6), "ends_inside_a_batch": (6, 16.0, 2.0 ** -6),
                "turn": (2, 2.0 ** -4, 2.0 ** -6),
                "dev_stream": (4, 2.0, 2.0 ** -5), "dev_decay": (3, 128.0, 4.0)}[walk]
    assert (report.extensions, report.grid.values[0], report.grid.values[-1]) == expected


def test_walk_runs_its_candidates_as_stacks_no_taller_than_round_0(small_ds, monkeypatch):
    stacks = []
    original = training.run_lockstep

    def recorded(ds, spec, alphas, *args, **kwargs):
        results = original(ds, spec, alphas, *args, **kwargs)
        stacks.append([result is not None for result in results])
        return results

    monkeypatch.setattr(training, "run_lockstep", recorded)
    # sgd walks up from far below its stable steps until the cap of 7: round
    # 0 and then the 7 extensions in stacks of at most 3 step sizes.
    report = tune(small_ds, SGD, make_log_grid(1e-5, 2, 3), DecayPolicy(), 300, 2,
                  dev_size=None, extension_cap=7, stop_loss=1e-12)
    assert report.extensions == 7
    assert stacks == [[True] * 3, [True] * 3, [True] * 3, [True]]
    # The bound on quotient entries leaves one step size per stack.
    stacks.clear()
    with monkeypatch.context() as patch:
        patch.setattr(tune_module, "MAX_BATCH_ENTRIES", small_ds.val.size * 2 - 1)
        assert tune(small_ds, SGD, make_log_grid(1e-5, 2, 3), DecayPolicy(), 300, 2,
                    dev_size=None, extension_cap=7, stop_loss=1e-12) == report
    assert stacks == [[True] * 3] + [[True]] * 7
    # With a dev stream a batch counts rows, a step size's rows per seed: at
    # most `MAX_BATCH_ROWS` (5), so 2 step sizes a stack with 2 seeds and 1
    # with 5.
    for seeds, walk in ((2, [[True] * 4] * 3 + [[True] * 2]), (5, [[True] * 5] * 7)):
        stacks.clear()
        report = tune(small_ds, SGD, make_log_grid(1e-5, 2, 3), DecayPolicy(), 300, seeds,
                      dev_size=40, extension_cap=7, stop_loss=1e-12)
        assert report.extensions == 7
        assert stacks == [[True] * 3 * seeds] + walk
        assert max(len(rows) for rows in stacks[1:]) <= tune_module.MAX_BATCH_ROWS
    # Walking down from 16, the third stack's first step size, 2^-6, converges
    # at iteration 24 and ranks below 2^-5: the walk ends there, and the rows
    # of the four step sizes after it are dropped unfinished.
    stacks.clear()
    report = tune(small_ds, SGD, make_log_grid(4.0, 2, 5), DecayPolicy(), 300, 1,
                  dev_size=None, extension_cap=12, stop_loss=1e-12)
    assert (report.extensions, report.winner.spec.alpha) == (6, 2.0 ** -5)
    assert stacks == [[True] * 5, [True] * 5, [True] + [False] * 4]
