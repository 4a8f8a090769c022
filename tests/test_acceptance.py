"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them inline).

Criterion 4 has two readings of its closed-form-versus-kernel clause; the
structural reading is asserted here and the strict numeric reading is kept
as a strict xfail, because the published reduced system is inconsistent
with the generated kernel (negative-class diagonal 3n-+3 vs 3n-+5).  See
test_criterion_4_strict for the exact statement.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import optlab
from optlab import lsq, oracle
from optlab.cli import _TEST_STREAM, ExperimentConfig, run_experiment
from optlab.optim import MethodKind, OptimizerSpec
from optlab.schedules import DecayPolicy
from optlab.training import run_training
from optlab.tune import extend_if_edge, make_log_grid
from reference import (column_quotient, dense_gram, gradient, loss, margin, product, projection,
                       test_scores, verify_lemma_trajectory)

NONADAPTIVE = ("sgd", "hb", "nag")
ADAPTIVE = ("adagrad", "rmsprop", "adam")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def standard_experiment(tmp_path_factory):
    """The tuned six-method comparison on the standard instance."""
    out = tmp_path_factory.mktemp("standard_experiment")
    summary = run_experiment(ExperimentConfig(), out)
    rows = {r["method"]: r for r in summary["methods"]}
    return summary, rows, out


# ---------------------------------------------------------------------------
# 1. lemma trajectory
# ---------------------------------------------------------------------------


def test_criterion_1_lemma_trajectory(run_with_iterates):
    ds = lsq.generate_synthetic(50, 0.8, seed=7)
    specs = {
        "adagrad": OptimizerSpec(method=MethodKind.ADAGRAD, alpha=0.1,
                                 epsilon=0.0, g_init=0.0),
        "rmsprop": OptimizerSpec(method=MethodKind.RMSPROP, alpha=0.01, beta2=0.9,
                                 epsilon=0.0, g_init=0.0),
        "adam": OptimizerSpec(method=MethodKind.ADAM, alpha=0.05, beta1=0.9,
                              beta2=0.999, epsilon=0.0, g_init=0.0),
    }
    details = []
    start = time.perf_counter()
    for name, spec in specs.items():
        res, iterates = run_with_iterates(ds, spec, 500, record_trace=False)
        assert res.status == "ok", name
        trace = verify_lemma_trajectory(iterates, ds)
        lam_max = float(np.max(np.abs(trace.lambdas)))
        assert trace.max_deviation <= 1e-8 * lam_max, (name, trace.max_deviation)
        assert trace.off_support_max == 0.0, name
        details.append(f"{name} dev={trace.max_deviation:.2e}")
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    report("criterion 1 (lemma trajectory)", ok,
           f"{'; '.join(details)}; runtime {elapsed * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# 2. generalization gap
# ---------------------------------------------------------------------------


def test_criterion_2_generalization_gap(standard_experiment):
    summary, rows, _ = standard_experiment
    assert summary["dataset"]["precondition_npos_gt_nneg_third"], (
        "drawn dataset must satisfy n_pos > n_neg/3"
    )
    p = summary["config"]["p"]
    details = []
    for name in ADAPTIVE:
        row = rows[name]
        assert row["final_train_loss"] <= 1e-8, name
        err = row["empirical_test_error"]
        assert abs(err - (1.0 - p)) <= 0.02, (name, err)
        details.append(f"{name}={err:.4f}")
    for name in NONADAPTIVE:
        row = rows[name]
        assert row["final_train_loss"] <= 1e-8, name
        assert row["empirical_test_error"] == 0.0, (name, row["empirical_test_error"])
        details.append(f"{name}=0")
    report("criterion 2 (generalization gap)", True,
           f"m=20000 test errors: {', '.join(details)}")


def test_criterion_2_empirical_error_is_the_per_label_mean(standard_experiment):
    # The experiment scores each label class once and weights its misses by
    # the class counts (`lsq.error_rates`); the result must be the mean over
    # the m_test scores (`reference.test_scores`), bit for bit.
    summary, rows, out = standard_experiment
    cfg = summary["config"]
    labels = lsq.dev_labels_for(cfg["p"], cfg["m_test"], np.random.SeedSequence(
        entropy=cfg["seed"], spawn_key=(_TEST_STREAM,)))
    details = []
    for name, row in rows.items():
        weights = json.loads((out / "weights" / f"{name}.json").read_text(encoding="utf-8"))
        w = np.array(weights["w"])
        per_label = float(np.mean(test_scores(w, labels) * labels <= 0.0))
        assert row["empirical_test_error"].hex() == per_label.hex(), name
        details.append(f"{name}={per_label!r}")
    report("criterion 2 (empirical error per label)", True, ", ".join(details))


# ---------------------------------------------------------------------------
# 3. oracle agreement
# ---------------------------------------------------------------------------


def test_criterion_3_oracle_agreement(standard_experiment):
    _, rows, _ = standard_experiment
    details = []
    for name in NONADAPTIVE:
        d = rows[name]["dist_to_min_norm_rel"]
        assert d <= 1e-4, (name, d)
        details.append(f"{name}->min_norm {d:.1e}")
    for name in ADAPTIVE:
        d = rows[name]["dist_to_sign_rel"]
        assert d <= 1e-4, (name, d)
        details.append(f"{name}->sign {d:.1e}")
    report("criterion 3 (oracle agreement)", True, "; ".join(details))


# ---------------------------------------------------------------------------
# 4. closed-form coefficients
# ---------------------------------------------------------------------------


def test_criterion_4_closed_form_and_kernel_structure():
    rng = np.random.default_rng(0)
    worst_reduced = 0.0
    for _ in range(200):
        n_pos = int(rng.integers(1, 101))
        n_neg = int(rng.integers(1, 101))
        a = np.array([[3.0 * n_pos + 1.0, -float(n_neg)],
                      [-float(n_pos), 3.0 * n_neg + 3.0]])
        direct = np.linalg.solve(a, np.ones(2))
        ours = np.array(oracle.synthetic_alphas(n_pos, n_neg))
        worst_reduced = max(worst_reduced,
                            float(np.max(np.abs(ours - direct) / np.abs(direct))))
    assert worst_reduced <= 1e-12

    worst_structure = 0.0
    worst_exact = 0.0
    for n, seed in [(3, 1), (10, 2), (25, 3), (40, 4), (60, 5)]:
        ds = lsq.generate_synthetic(n, 0.75, seed=seed)
        if ds.n_neg == 0:
            continue
        coef = np.linalg.solve(dense_gram(ds), ds.y)
        pos, neg = coef[ds.y > 0], -coef[ds.y < 0]
        scale = float(np.max(np.abs(coef)))
        worst_structure = max(worst_structure,
                              float(np.ptp(pos)) / scale, float(np.ptp(neg)) / scale)
        a_plus, a_minus = oracle.exact_synthetic_alphas(ds.n_pos, ds.n_neg)
        worst_exact = max(worst_exact,
                          abs(pos[0] - a_plus) / a_plus,
                          abs(neg[0] - a_minus) / a_minus)
    assert worst_structure <= 1e-10
    assert worst_exact <= 1e-10
    report(
        "criterion 4 (closed form vs reduced system; kernel coefficient structure)",
        True,
        f"reduced-system gap {worst_reduced:.1e}; class spread {worst_structure:.1e}; "
        f"kernel-consistent closed form gap {worst_exact:.1e}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="published closed form is inconsistent with the generated kernel: "
    "its reduced system carries 3n-+3 where the kernel's diagonal of 8 gives "
    "3n-+5, so the published pair cannot match the n-by-n solve to 1e-10; "
    "exact_synthetic_alphas does (see criterion 4 above)",
)
def test_criterion_4_strict_published_form_matches_kernel_solve():
    ds = lsq.generate_synthetic(25, 0.75, seed=3)
    coef = np.linalg.solve(dense_gram(ds), ds.y)
    a_plus, a_minus = oracle.synthetic_alphas(ds.n_pos, ds.n_neg)
    pos, neg = coef[ds.y > 0], -coef[ds.y < 0]
    assert abs(pos[0] - a_plus) <= 1e-10 * a_plus
    assert abs(neg[0] - a_minus) <= 1e-10 * a_minus


# ---------------------------------------------------------------------------
# 5. kernel entries
# ---------------------------------------------------------------------------


def test_criterion_5_kernel_entries():
    checked = 0
    for n, p, seed in [(5, 0.75, 0), (20, 0.6, 1), (35, 0.9, 2), (60, 0.75, 3)]:
        ds = lsq.generate_synthetic(n, p, seed=seed)
        K = dense_gram(ds)
        y = ds.y
        diag_expected = np.where(y > 0, 4.0, 8.0)
        off_expected = np.where(np.outer(y, y) > 0, 3.0, 1.0)
        np.fill_diagonal(off_expected, diag_expected)
        assert np.array_equal(K, off_expected)
        checked += 1
    report("criterion 5 (kernel case table)", True,
           f"{checked} datasets integer-exact (diag 4/8, off-diag 3/1)")


# ---------------------------------------------------------------------------
# 6. row-span invariant
# ---------------------------------------------------------------------------


def _read_trace(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_6_row_span(standard_experiment):
    _, rows, out = standard_experiment
    worst = 0.0
    for name in NONADAPTIVE:
        for rec in _read_trace(out / "traces" / f"{name}.csv"):
            resid = float(rec["rowspan_resid"])
            bound = 1e-8 * (1.0 + float(rec["w_l2"]))
            assert resid <= bound, (name, rec["iter"], resid)
            worst = max(worst, resid / bound)
    ada = rows["adagrad"]
    ratio = ada["rowspan_resid_final"] / ada["w_l2"]
    assert ratio >= 1e-3, ratio
    report("criterion 6 (row-span invariant)", True,
           f"non-adaptive worst resid at {worst:.1e} of bound; "
           f"adagrad final resid/|w| = {ratio:.3f}")


# ---------------------------------------------------------------------------
# 7. margin maximality
# ---------------------------------------------------------------------------


def test_criterion_7_margin_maximality():
    rng = np.random.default_rng(2024)
    worst_gap = -math.inf
    for trial in range(20):
        n = int(rng.integers(6, 20))
        ds = lsq.generate_synthetic(n, 0.75, seed=int(rng.integers(0, 10_000)))
        w_mn = oracle.min_norm_solution(ds).w
        base = margin(ds, w_mn)
        candidates = [oracle.sign_solution(ds).w]
        for _ in range(100):
            v = rng.standard_normal(ds.d)
            v_null = v - projection(column_quotient(ds), v, product(ds, v))
            candidates.append(w_mn + rng.uniform(0.1, 2.0) * v_null)
        for cand in candidates:
            gap = margin(ds, cand) - base
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-12
    report("criterion 7 (margin maximality)", True,
           f"20 datasets x 101 interpolants; max margin excess {worst_gap:.1e}")


# ---------------------------------------------------------------------------
# 8. gradient check
# ---------------------------------------------------------------------------


def test_criterion_8_gradient_check():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        rows = []
        for _ in range(6):
            idx = rng.choice(10, size=4, replace=False)
            rows.append(tuple((int(j) + 1, float(rng.standard_normal())) for j in idx))
        ds = lsq.Dataset(n=6, d=10, rows=tuple(rows),
                         y=np.where(rng.random(6) < 0.5, 1.0, -1.0))
        w = rng.standard_normal(10)
        g = gradient(ds, w)
        h = 0.5  # central differences are exact for quadratics
        fd = np.empty(10)
        for j in range(10):
            e = np.zeros(10)
            e[j] = h
            fd[j] = (loss(ds, w + e) - loss(ds, w - e)) / (2 * h)
        rel = float(np.linalg.norm(fd - g) / (1.0 + np.linalg.norm(g)))
        worst = max(worst, rel)
        assert rel <= 1e-8
    report("criterion 8 (gradient vs central differences)", True,
           f"10 random instances, worst relative error {worst:.1e}")


# ---------------------------------------------------------------------------
# 9. tuning protocol
# ---------------------------------------------------------------------------


def test_criterion_9_tuning_protocol():
    grid = make_log_grid(0.5, 2, 5)
    assert grid.values == (2.0, 1.0, 0.5, 0.25, 0.125)
    assert extend_if_edge(grid, 2.0) == 4.0

    # dev_decay keeps the rate after an epoch whose dev error is a new best
    # (strictly below every earlier one) and multiplies it by exactly 0.9
    # after any other epoch, a tie included.
    ds = lsq.generate_synthetic(30, 0.75, seed=2)
    counts = lsq.label_counts(lsq.dev_labels_for(0.75, 200, np.random.SeedSequence(9)))
    policy = DecayPolicy(kind="dev_decay", delta=0.9)
    epochs = {"new best": 0, "tie": 0, "worse": 0}
    for alpha in (1.0, 0.3, 0.001953125):
        trace = run_training(ds, OptimizerSpec(method=MethodKind.SGD, alpha=alpha), 60,
                             policy=policy, dev_counts=counts, trace_every=1).trace
        assert [r.iteration for r in trace] == list(range(61))
        assert trace[0].alpha == trace[1].alpha == alpha
        best = trace[0].dev_error
        for row, after in zip(trace[1:], trace[2:]):
            if row.dev_error < best:
                best = row.dev_error
                assert after.alpha == row.alpha
                epochs["new best"] += 1
            else:
                assert after.alpha == row.alpha * 0.9
                epochs["tie" if row.dev_error == best else "worse"] += 1
    assert all(epochs.values()), epochs
    report("criterion 9 (tuning protocol)", True,
           f"edge extension 2 -> 4; dev-decay kept the rate on {epochs['new best']} "
           f"new-best epochs and multiplied it by 0.9 exactly on {epochs['tie']} ties "
           f"and {epochs['worse']} worse epochs")


@pytest.mark.parametrize("center", [0.3, 0.7])
def test_adaptive_verdicts_with_off_grid_center(center, tmp_path):
    # The default grid contains alpha = tau = 0.25, where one adaptive step
    # lands on the sign solution; off that grid the verdicts must still hold.
    summary = run_experiment(
        ExperimentConfig(grid_center=center, methods=("adagrad", "adam")), tmp_path
    )
    rows = {r["method"]: r for r in summary["methods"]}
    for name, row in rows.items():
        assert row["verdict_generalization"] and row["verdict_oracle_agreement"], name
    assert rows["adam"]["iterations"] > 1
    report("off-grid center", True,
           f"center {center}: adam needs {rows['adam']['iterations']} steps")


# ---------------------------------------------------------------------------
# the abstract's headline: adaptive test error near 1/2 as p -> 1/2
# ---------------------------------------------------------------------------


def test_headline_adaptive_test_error_nears_half_as_p_nears_half(tmp_path):
    # The abstract: the adaptive methods attain test errors arbitrarily close
    # to half while GD reaches zero.  The experiment at n = 100, iters = 5000
    # and the default m_test, seed 1 for every p, fixed before any run: every
    # verdict passes, sgd/hb/nag err 0 and the adaptive methods 1 - p within
    # the verdict's 0.02; at p = 0.501 "close to half" means above 0.47.
    # Budget: 3 s of tier-1 for the five experiments.
    details = []
    for p in (0.501, 0.51, 0.55, 0.6, 0.9):
        summary = run_experiment(ExperimentConfig(n=100, p=p, seed=1, iters=5000),
                                 tmp_path / str(p))
        rows = {r["method"]: r for r in summary["methods"]}
        for name, row in rows.items():
            assert row["verdict_generalization"] and row["verdict_oracle_agreement"], (p, name)
        assert all(rows[name]["empirical_test_error"] == 0.0 for name in NONADAPTIVE), p
        adaptive = [rows[name]["empirical_test_error"] for name in ADAPTIVE]
        assert all(abs(error - (1.0 - p)) <= 0.02 for error in adaptive), (p, adaptive)
        assert p != 0.501 or min(adaptive) > 0.47, adaptive
        details.append(f"p={p}: {min(adaptive):.3f}-{max(adaptive):.3f}")
    report("headline (adaptive error -> 1/2, GD 0)", True, "; ".join(details))


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------


def test_criterion_10_experiment_determinism(tmp_path):
    cfg = ExperimentConfig(n=40, p=0.75, seed=3, seeds=2, iters=20_000,
                           m_test=5_000)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    compared = 0
    for rel in sorted(
        p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()
    ):
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, f"output differs: {rel}"
        compared += 1
    assert compared >= 10
    report("criterion 10 (experiment determinism)", True,
           f"{compared} files byte-identical across reruns")


# The CLI calls whose every output file must not depend on the BLAS thread
# count.  Paths are relative, because `run.json` records its options.  At
# n = 12 000 the oracle's n-vectors are long enough for OpenBLAS to split a
# dot product over threads; at n = 4 000 only the d-vectors are.
_THREAD_RUNS = """
from optlab.cli import main
for argv in (
    ["generate", "--n", "12000", "--seed", "2", "--out", "dataset.json"],
    ["oracle", "--dataset", "dataset.json", "--out", "oracle.json"],
    ["train", "--dataset", "dataset.json", "--method", "sgd", "--alpha", "1e-5",
     "--iters", "20", "--out", "sgd"],
    ["train", "--dataset", "dataset.json", "--method", "adagrad", "--alpha", "0.25",
     "--epsilon", "0", "--iters", "20", "--out", "adagrad"],
    ["experiment", "--n", "30", "--iters", "2000", "--out", "experiment"],
):
    assert main(argv) == 0, argv
"""


def test_criterion_10_outputs_do_not_depend_on_blas_threads(tmp_path):
    # Two threads, not more: enough to split a BLAS reduction, and a desk
    # machine may have only two cores.
    src = str(Path(optlab.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-c", _THREAD_RUNS], cwd=tmp_path / threads,
                       env=env, check=True, stdout=subprocess.DEVNULL)
    compared = 0
    for rel in sorted(p.relative_to(tmp_path / "1")
                      for p in (tmp_path / "1").rglob("*") if p.is_file()):
        a = (tmp_path / "1" / rel).read_bytes()
        assert a == (tmp_path / "2" / rel).read_bytes(), f"output differs: {rel}"
        compared += 1
    assert compared >= 20
    report("criterion 10 (BLAS thread count)", True,
           f"{compared} files byte-identical at 1 and 2 BLAS threads")
