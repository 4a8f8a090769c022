import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlab import lsq, oracle
from optlab.cli import _oracle_report
from optlab.errors import LemmaPreconditionError, SingularKernelError
from optlab.optim import MethodKind, OptimizerSpec
from reference import (column_quotient, dense_gram, loss, margin, product, projection, residual,
                       test_scores, verify_lemma_trajectory)

UPSTREAM_ALPHA_NOTE = (
    "published closed form solves a reduced system whose negative-class "
    "diagonal is 3n-+3, but the generated kernel's is 3n-+5; the exact "
    "variant (exact_synthetic_alphas) matches the kernel solve instead"
)


def identity_dataset(y):
    n = len(y)
    rows = tuple(((i + 1, 1.0),) for i in range(n))
    return lsq.Dataset(n=n, d=n, rows=rows, y=np.asarray(y, dtype=float))


def two_one_dataset():
    """Synthetic draw with n_pos=2, n_neg=1."""
    ds = lsq.generate_synthetic(3, 0.6, seed=1)
    assert (ds.n_pos, ds.n_neg) == (2, 1)
    return ds


# ---------------------------------------------------------------------------
# lemma condition
# ---------------------------------------------------------------------------


def test_condition_on_synthetic_data_is_four():
    for seed in range(5):
        ds = lsq.generate_synthetic(10, 0.75, seed=seed)
        assert oracle.sign_solution(ds).c == 4.0


def test_condition_absent_with_zero_correlation():
    ds = lsq.Dataset(
        n=2, d=2,
        rows=(((1, 1.0), (2, 1.0)), ((1, 1.0), (2, -1.0))),
        y=np.array([1.0, 1.0]),
    )
    with pytest.raises(LemmaPreconditionError):
        oracle.sign_solution(ds)


def test_condition_on_identity_design():
    assert oracle.sign_solution(identity_dataset([1.0, -1.0])).c == 1.0


def test_condition_requires_equal_row_sums():
    # one row has an extra private feature: row sums disagree
    ds = lsq.Dataset(
        n=2, d=4,
        rows=(((1, 1.0), (3, 1.0)), ((2, 1.0),)),
        y=np.array([1.0, 1.0]),
    )
    with pytest.raises(LemmaPreconditionError):
        oracle.sign_solution(ds)


# ---------------------------------------------------------------------------
# sign solution
# ---------------------------------------------------------------------------


def test_sign_solution_on_synthetic_data():
    ds = lsq.generate_synthetic(8, 0.75, seed=3)
    sol = oracle.sign_solution(ds)
    assert sol.c == 4.0 and sol.tau == 0.25
    assert set(np.unique(sol.w)) <= {-0.25, 0.0, 0.25}
    assert loss(ds, sol.w) == 0.0
    # every nonzero component matches the sign of the label correlation
    cq = column_quotient(ds)
    u = cq.expand(lsq.quotient_t_product(cq, cq.y))
    nz = sol.w != 0
    np.testing.assert_array_equal(np.sign(sol.w[nz]), np.sign(u[nz]))


def test_sign_solution_makes_one_transposed_product(monkeypatch):
    # The lemma check and the sign pattern both read X^T y: one product.
    ds = lsq.generate_synthetic(8, 0.75, seed=3)
    calls = []
    product = oracle.quotient_t_product

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(oracle, "quotient_t_product", counted)
    assert oracle.sign_solution(ds).c == 4.0
    assert len(calls) == 1


def test_sign_solution_identity_design():
    sol = oracle.sign_solution(identity_dataset([1.0, -1.0]))
    np.testing.assert_array_equal(sol.w, [1.0, -1.0])


def test_sign_solution_scores_positive_for_both_labels():
    ds = lsq.generate_synthetic(6, 0.75, seed=2)
    sol = oracle.sign_solution(ds)
    np.testing.assert_allclose(test_scores(sol.w, [-1.0, 1.0]),
                               [sol.tau, 3 * sol.tau], rtol=1e-15)


def test_sign_solution_requires_condition():
    ds = lsq.Dataset(
        n=2, d=2,
        rows=(((1, 1.0), (2, 1.0)), ((1, 1.0), (2, -1.0))),
        y=np.array([1.0, 1.0]),
    )
    with pytest.raises(LemmaPreconditionError):
        oracle.sign_solution(ds)


# ---------------------------------------------------------------------------
# kernel and minimum norm
# ---------------------------------------------------------------------------


def test_kernel_entries_case_table():
    for seed in (0, 4, 9):
        ds = lsq.generate_synthetic(12, 0.7, seed=seed)
        K = dense_gram(ds)
        y = ds.y
        for i in range(ds.n):
            for j in range(ds.n):
                if i == j:
                    assert K[i, j] == (4.0 if y[i] > 0 else 8.0)
                else:
                    assert K[i, j] == (3.0 if y[i] * y[j] > 0 else 1.0)


def test_min_norm_identity_design():
    ds = identity_dataset([1.0, -1.0, 1.0])
    np.testing.assert_allclose(oracle.min_norm_solution(ds).w, ds.y, rtol=1e-14)


def test_min_norm_single_row():
    ds = lsq.Dataset(n=1, d=3, rows=(((1, 1.0),),), y=np.array([1.0]))
    np.testing.assert_allclose(oracle.min_norm_solution(ds).w, [1.0, 0.0, 0.0],
                               atol=1e-15)


def test_min_norm_singular_kernel():
    # SingularKernelError means that no interpolant exists.  Duplicate rows
    # with conflicting labels have none; with equal labels the system is
    # consistent and the least-norm interpolant is returned.
    rows = (((1, 1.0),), ((1, 1.0),))
    conflicting = lsq.Dataset(n=2, d=2, rows=rows, y=np.array([1.0, -1.0]))
    with pytest.raises(SingularKernelError):
        oracle.min_norm_solution(conflicting)
    consistent = lsq.Dataset(n=2, d=2, rows=rows, y=np.array([1.0, 1.0]))
    np.testing.assert_allclose(oracle.min_norm_solution(consistent).w, [1.0, 0.0],
                               rtol=1e-14, atol=1e-15)


def test_min_norm_at_a_size_the_dense_gram_cannot_hold():
    # n = 20 000, where a dense n-by-n Gram would take 3.2 GB.  Tolerance,
    # stated up front: 1e-10 relative to the closed form.
    ds = lsq.generate_synthetic(20_000, 0.75, seed=1)
    sol = oracle.min_norm_solution(ds)
    a_plus, a_minus = oracle.exact_synthetic_alphas(ds.n_pos, ds.n_neg)
    assert sol.alpha_plus == pytest.approx(a_plus, rel=1e-10)
    assert sol.alpha_minus == pytest.approx(a_minus, rel=1e-10)


def test_min_norm_alphas_match_exact_closed_form():
    ds = two_one_dataset()
    sol = oracle.min_norm_solution(ds)
    a_plus, a_minus = oracle.exact_synthetic_alphas(2, 1)
    assert (a_plus, a_minus) == (pytest.approx(1 / 6, rel=1e-12),
                                 pytest.approx(1 / 6, rel=1e-12))
    assert sol.alpha_plus == pytest.approx(a_plus, rel=1e-12)
    assert sol.alpha_minus == pytest.approx(a_minus, rel=1e-12)


@pytest.mark.xfail(strict=True, reason=UPSTREAM_ALPHA_NOTE)
def test_min_norm_alphas_match_published_closed_form():
    ds = two_one_dataset()
    sol = oracle.min_norm_solution(ds)
    a_plus, a_minus = oracle.synthetic_alphas(2, 1)
    assert sol.alpha_plus == pytest.approx(a_plus, rel=1e-10)
    assert sol.alpha_minus == pytest.approx(a_minus, rel=1e-10)


def test_kernel_solve_coefficients_share_class_values():
    for seed in (1, 6):
        ds = lsq.generate_synthetic(15, 0.75, seed=seed)
        coef = np.linalg.solve(dense_gram(ds), ds.y)
        pos, neg = coef[ds.y > 0], coef[ds.y < 0]
        assert np.ptp(pos) <= 1e-12
        if neg.size:
            assert np.ptp(neg) <= 1e-12
        a_plus, a_minus = oracle.exact_synthetic_alphas(ds.n_pos, ds.n_neg)
        assert pos[0] == pytest.approx(a_plus, rel=1e-10)
        assert -neg[0] == pytest.approx(a_minus, rel=1e-10)


# ---------------------------------------------------------------------------
# closed-form coefficient pairs
# ---------------------------------------------------------------------------


def test_published_alphas_example():
    a_plus, a_minus = oracle.synthetic_alphas(2, 1)
    assert a_plus == pytest.approx(7 / 40, rel=1e-15)
    assert a_minus == pytest.approx(9 / 40, rel=1e-15)


def test_published_alphas_reduced_system_residual():
    n_pos, n_neg = 2, 1
    a_plus, a_minus = oracle.synthetic_alphas(n_pos, n_neg)
    eq1 = (3 * n_pos + 1) * a_plus - n_neg * a_minus
    eq2 = -n_pos * a_plus + (3 * n_neg + 3) * a_minus
    assert eq1 == pytest.approx(1.0, abs=1e-15)
    assert eq2 == pytest.approx(1.0, abs=1e-15)


def test_exact_alphas_solve_kernel_reduction():
    for n_pos, n_neg in [(2, 1), (7, 3), (50, 20)]:
        a_plus, a_minus = oracle.exact_synthetic_alphas(n_pos, n_neg)
        eq1 = (3 * n_pos + 1) * a_plus - n_neg * a_minus
        eq2 = -n_pos * a_plus + (3 * n_neg + 5) * a_minus
        assert eq1 == pytest.approx(1.0, abs=1e-13)
        assert eq2 == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(n_pos=st.integers(1, 100), n_neg=st.integers(1, 100))
def test_alpha_pairs_strictly_positive(n_pos, n_neg):
    for fn in (oracle.synthetic_alphas, oracle.exact_synthetic_alphas):
        a_plus, a_minus = fn(n_pos, n_neg)
        assert a_plus > 0 and a_minus > 0


def test_alpha_pairs_reject_empty_classes():
    with pytest.raises(ValueError):
        oracle.synthetic_alphas(0, 1)
    with pytest.raises(ValueError):
        oracle.exact_synthetic_alphas(1, 0)


# ---------------------------------------------------------------------------
# analytic predictions
# ---------------------------------------------------------------------------


def test_predicted_scores():
    assert oracle.predicted_test_score("sign", 2, 1, -1.0, tau=1.0) == 1.0
    assert oracle.predicted_test_score("min_norm", 2, 1, +1.0) == pytest.approx(33 / 40)
    assert oracle.predicted_test_score("min_norm", 2, 1, -1.0) == pytest.approx(-13 / 40)


def test_predicted_score_signs_match_exact_solution():
    # The published pair's predictions classify exactly like the true
    # minimum-norm solution for every class split.
    for n_pos in range(1, 41):
        for n_neg in range(1, 41):
            a_plus, a_minus = oracle.exact_synthetic_alphas(n_pos, n_neg)
            for y_test in (+1.0, -1.0):
                exact = y_test * (n_pos * a_plus + n_neg * a_minus) + 2 * (
                    n_pos * a_plus - n_neg * a_minus
                )
                published = oracle.predicted_test_score("min_norm", n_pos, n_neg, y_test)
                assert np.sign(exact) == np.sign(published)


def test_analytic_test_error():
    assert oracle.analytic_test_error("sign", 0.75, 5, 2) == pytest.approx(0.25)
    assert oracle.analytic_test_error("min_norm", 0.9, 2, 1) == 0.0
    assert oracle.analytic_test_error("sign", 0.500001, 3, 1) == pytest.approx(0.499999)
    with pytest.raises(ValueError):
        oracle.analytic_test_error("sign", 0.4, 1, 1)


# ---------------------------------------------------------------------------
# margins and distinctness
# ---------------------------------------------------------------------------


def test_min_norm_margin_beats_sign_margin():
    ds = two_one_dataset()
    m_mn = margin(ds, oracle.min_norm_solution(ds).w)
    m_sg = margin(ds, oracle.sign_solution(ds).w)
    assert m_mn == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert m_sg == pytest.approx(4 / np.sqrt(10.0), rel=1e-12)
    assert m_mn >= m_sg


def test_min_norm_maximizes_margin_over_perturbations():
    ds = lsq.generate_synthetic(10, 0.75, seed=21)
    w_mn = oracle.min_norm_solution(ds).w
    base = margin(ds, w_mn)
    rng, cq = np.random.default_rng(0), column_quotient(ds)
    for _ in range(25):
        v = rng.standard_normal(ds.d)
        v_null = v - projection(cq, v, product(ds, v))
        cand = w_mn + 0.5 * v_null
        assert loss(ds, cand) < 1e-16
        assert base >= margin(ds, cand) - 1e-12
    assert base >= margin(ds, oracle.sign_solution(ds).w) - 1e-12


def test_solutions_are_distinct():
    for seed in (0, 3, 8):
        ds = lsq.generate_synthetic(9, 0.75, seed=seed)
        a = oracle.min_norm_solution(ds).w
        b = oracle.sign_solution(ds).w
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos < 0.99


def test_oracles_interpolate():
    ds = lsq.generate_synthetic(20, 0.8, seed=12)
    for sol in (oracle.min_norm_solution(ds), oracle.sign_solution(ds)):
        assert np.linalg.norm(residual(ds, sol.w)) <= 1e-8


# ---------------------------------------------------------------------------
# trajectory verification
# ---------------------------------------------------------------------------


def test_lemma_trace_zero_trajectory():
    ds = lsq.generate_synthetic(4, 0.75, seed=0)
    tr = verify_lemma_trajectory([np.zeros(ds.d)] * 3, ds)
    assert tr.max_deviation == 0.0
    assert tr.off_support_max == 0.0
    np.testing.assert_array_equal(tr.lambdas, [0.0, 0.0, 0.0])


def test_lemma_trace_requires_zero_start():
    ds = lsq.generate_synthetic(4, 0.75, seed=0)
    with pytest.raises(LemmaPreconditionError):
        verify_lemma_trajectory([np.ones(ds.d)], ds)


def test_adaptive_trajectory_stays_on_sign_line(run_with_iterates):
    ds = lsq.generate_synthetic(20, 0.8, seed=5)
    spec = OptimizerSpec(method=MethodKind.ADAGRAD, alpha=0.1, epsilon=0.0, g_init=0.0)
    _, iterates = run_with_iterates(ds, spec, 200, record_trace=False)
    tr = verify_lemma_trajectory(iterates, ds)
    lam_max = np.max(np.abs(tr.lambdas))
    assert tr.max_deviation <= 1e-8 * lam_max
    assert tr.off_support_max == 0.0


def test_sgd_trajectory_leaves_sign_line(run_with_iterates):
    ds = lsq.generate_synthetic(20, 0.8, seed=5)
    spec = OptimizerSpec(method=MethodKind.SGD, alpha=0.002)
    _, iterates = run_with_iterates(ds, spec, 300, record_trace=False)
    tr = verify_lemma_trajectory(iterates, ds)
    lam_max = np.max(np.abs(tr.lambdas))
    assert tr.max_deviation > 1e-2 * lam_max


# ---------------------------------------------------------------------------
# the oracle report's X w, against the column quotient's
# ---------------------------------------------------------------------------


SWEEP = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "sweep.py"))


def dense_dataset(x, y):
    rows = tuple(tuple((j + 1, float(v)) for j, v in enumerate(r) if v != 0.0) for r in x)
    return lsq.Dataset(n=len(x), d=len(x[0]), rows=rows, y=np.asarray(y, dtype=float))


def multiplicities_dataset():
    """Five random columns of a 4-row design, the k-th repeated k times."""
    base = np.random.default_rng(5).standard_normal((4, 5))
    return dense_dataset(np.repeat(base, [1, 2, 3, 4, 5], axis=1), [1, -1, 1, 1])


ORACLE_DESIGNS = {
    **{f"synthetic_{n}_{seed}": (lambda n=n, seed=seed: lsq.generate_synthetic(n, 0.75, seed))
       for n in (20, 100, 1000) for seed in (1, 2, 3)},
    "sweep_hand": lambda: dense_dataset(SWEEP["HAND_DESIGN"], SWEEP["HAND_LABELS"]),
    "sweep_orbit_joined": lambda: dense_dataset(SWEEP["ORBIT_DESIGN"],
                                                SWEEP["ORBIT_JOINED_LABELS"]),
    "multiplicities_1_to_5": multiplicities_dataset,
}


@pytest.mark.parametrize("name", sorted(ORACLE_DESIGNS))
def test_oracle_report_equals_the_column_quotients_bit_for_bit(name):
    # The report's margins and losses read X w from the orbit quotient, as
    # the run loop makes it (``X_q diag(multiplicity) u``); the column
    # quotient's ``X_q S w`` adds a column's equal values one by one.  On
    # these designs (multiplicities up to 5) the two agree bit for bit.
    ds = ORACLE_DESIGNS[name]()
    if name == "multiplicities_1_to_5":
        assert sorted(ds.multiplicity) == [1.0, 2.0, 3.0, 4.0, 5.0]
    doc, mn, sg = _oracle_report(ds)
    assert name != "sweep_hand" or sg is None  # the hand design has no sign solution
    for key, sol in (("min_norm", mn), ("sign", sg)):
        if sol is None:
            continue
        assert sol.xw.tobytes() == product(ds, sol.w).tobytes()
        for quantity, reference in (("margin", margin), ("loss", loss)):
            assert (np.float64(doc[f"{key}_{quantity}"]).tobytes()
                    == np.float64(reference(ds, sol.w)).tobytes()), (key, quantity)


# Row 3 is the sum of rows 1 and 2, so X w = y needs y3 = y1 + y2; no row is
# empty and no two are equal.
DEPENDENT_TRIPLE = ((1.0, 0.0, 0.5), (0.0, 1.0, -0.5), (1.0, 1.0, 0.0))


def test_min_norm_residual_check_reads_the_column_quotients_bits():
    # A design without an interpolant whose rows give no witness: the message
    # gives the residual, in the column quotient's bits of the CG's solution.
    ds = dense_dataset(DEPENDENT_TRIPLE, [1, 1, 1])
    orbits = ds.orbits
    w = orbits.expand(lsq.quotient_t_product(orbits, orbits.gram_solve(orbits.y)))
    resid = lsq.l2_norm(residual(ds, w))
    with pytest.raises(SingularKernelError, match=re.escape(f"Gram solve residual {resid:.3e} ")):
        oracle.min_norm_solution(ds)


INCONSISTENT_DESIGNS = {
    "zero_row": (lambda: dense_dataset(SWEEP["ZERO_ROW_DESIGN"], SWEEP["ZERO_ROW_LABELS"]),
                 "Xw = y has no solution: row 3 has no entries and label +1"),
    "equal_rows": (lambda: dense_dataset(SWEEP["ORBIT_DESIGN"], SWEEP["ORBIT_LABELS"]),
                   "Xw = y has no solution: rows 4 and 5 have equal entries and labels +1 and -1"),
    "equal_rows_apart": (lambda: dense_dataset([[2.0, 1.0], [1.0, 2.0], [2.0, 1.0]], [-1, 1, 1]),
                         "rows 1 and 3 have equal entries and labels -1 and +1"),
    "dependent_triple": (lambda: dense_dataset(DEPENDENT_TRIPLE, [1, 1, 1]),
                         "Gram solve residual 6.124e-01 too large"),
}


@pytest.mark.parametrize("name", sorted(INCONSISTENT_DESIGNS))
def test_min_norm_names_an_exact_witness(name):
    # A row with no entries, or two rows with bit-equal entries and different
    # labels, shows that X w = y has no solution whatever the CG's bits; the
    # message names the rows (numbered from 1).  Without such rows it gives
    # the residual.
    make, message = INCONSISTENT_DESIGNS[name]
    with pytest.raises(SingularKernelError, match=re.escape(message)):
        oracle.min_norm_solution(make())


@pytest.mark.parametrize("x, y", [
    (SWEEP["ORBIT_DESIGN"], SWEEP["ORBIT_JOINED_LABELS"]),
    (((1.0, 0.0, 0.5), (0.0, 1.0, -0.5), (0.5, 0.5, 0.0)), [1, 1, 1]),
    ([[2.0, 1.0], [1.0, 2.0], [2.0, 1.0]], [1, -1, 1]),
])
def test_consistent_designs_look_for_no_witness(x, y, monkeypatch):
    # The same designs made consistent (equal rows with equal labels, the
    # third row half the sum of the others) solve without the witness search.
    monkeypatch.setattr(oracle, "_witness", lambda ds: pytest.fail("looked for a witness"))
    ds = dense_dataset(x, y)
    sol = oracle.min_norm_solution(ds)
    assert lsq.l2_norm(sol.xw - ds.y) <= 1e-8 * np.sqrt(ds.n)
