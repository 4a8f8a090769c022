import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlab.optim import (
    ADAPTIVE_METHODS,
    MethodKind,
    OptimizerSpec,
    adam_row,
    init_state,
    step,
)


def make_spec(method, alpha=0.1, **kw):
    return OptimizerSpec(method=MethodKind(method), alpha=alpha, **kw)


def run_steps(spec, w0, grad, iters):
    state = init_state(spec, np.asarray(w0, dtype=float))
    out = [state.w.copy()]
    for _ in range(iters):
        state = step(state, spec, grad, spec.alpha)
        out.append(state.w.copy())
    return out, state


# ---------------------------------------------------------------------------
# init / coefficients
# ---------------------------------------------------------------------------


def test_init_state_defaults():
    spec = make_spec("adagrad", epsilon=0.0)
    state = init_state(spec, np.zeros(3))
    np.testing.assert_array_equal(state.g_accum, [0.0, 0.0, 0.0])
    assert state.k == 0
    np.testing.assert_array_equal(state.w, state.w_prev)


def test_init_state_accumulator_mean():
    spec = make_spec("adagrad", g_init=0.1)
    state = init_state(spec, np.zeros(3))
    np.testing.assert_array_equal(state.g_accum, [0.1, 0.1, 0.1])


def test_init_state_copies_w0():
    spec = make_spec("sgd")
    w0 = np.array([1.0, 2.0])
    state = init_state(spec, w0)
    np.testing.assert_array_equal(state.w, [1.0, 2.0])
    w0[0] = 9.0
    assert state.w[0] == 1.0


def table1_row(spec, k, alpha):
    """Table 1's row at step k, (alpha_k, beta_k, gamma_k, g_keep, g_new,
    h_scale), read as the engine reads it."""
    row = spec.table1_constants
    return adam_row(spec, k, alpha) if row is None else (alpha, *row)


def test_adam_coefficients_at_k1():
    alpha_k, beta_k, *_ = table1_row(make_spec("adam", alpha=0.3, beta1=0.9), 1, 0.3)
    assert alpha_k == pytest.approx(0.3)
    assert beta_k == 0.0


def test_adam_coefficients_general_k():
    a, b1, b2 = 0.25, 0.9, 0.999
    alpha_k, beta_k, _, g_keep, g_new, h_scale = table1_row(
        make_spec("adam", alpha=a, beta1=b1, beta2=b2), 7, a)
    assert alpha_k == pytest.approx(a * (1 - b1) / (1 - b1**7), rel=1e-15)
    assert beta_k == pytest.approx(b1 * (1 - b1**6) / (1 - b1**7), rel=1e-15)
    # the published weights are the raw-sum weights times the table's scale
    assert h_scale * g_keep == pytest.approx(b2 / (1 - b2**7), rel=1e-15)
    assert h_scale * g_new == pytest.approx((1 - b2) / (1 - b2**7), rel=1e-15)


def test_nag_gamma_equals_beta():
    _, beta_k, gamma_k, *_ = table1_row(make_spec("nag", beta=0.7), 5, 0.1)
    assert gamma_k == beta_k == 0.7


def test_adagrad_accumulates_everything():
    _, _, _, g_keep, g_new, _ = table1_row(make_spec("adagrad"), 3, 0.1)
    assert (g_keep, g_new) == (1.0, 1.0)


def test_sgd_has_no_momentum_terms():
    _, beta_k, gamma_k, *_ = table1_row(make_spec("sgd"), 2, 0.1)
    assert beta_k == 0.0 and gamma_k == 0.0


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def test_sgd_step_direct_substitution():
    _, state = run_steps(make_spec("sgd", alpha=0.1), [0.0, 0.0],
                         lambda w: np.array([1.0, -2.0]), 1)
    np.testing.assert_allclose(state.w, [-0.1, 0.2], rtol=0, atol=0)


def test_adaptive_first_step_is_signed(subtests=None):
    g = np.array([3.0, -0.5, 7.0])
    for method, scale in [
        ("adagrad", 1.0),
        ("adam", 1.0),
        ("rmsprop", 1.0 / np.sqrt(1.0 - 0.9)),
    ]:
        spec = make_spec(method, alpha=0.2, epsilon=0.0, g_init=0.0, beta2=0.9)
        _, state = run_steps(spec, np.zeros(3), lambda w: g, 1)
        np.testing.assert_allclose(state.w, -0.2 * scale * np.sign(g), rtol=1e-15)


def test_heavy_ball_two_steps_scalar_recurrence():
    # Independent scalar recurrence for v' = w - a*g(w) + b*(w - w_prev)
    # with g(w) = w, w0 = 1: w1 = 0.9, w2 = 0.9 - 0.09 + 0.9*(-0.1) = 0.72.
    a, b = 0.1, 0.9
    w_prev, w = 1.0, 1.0
    expected = []
    for _ in range(2):
        w, w_prev = w - a * w + b * (w - w_prev), w
        expected.append(w)
    np.testing.assert_allclose(expected, [0.9, 0.72], rtol=1e-15)
    traj, _ = run_steps(make_spec("hb", alpha=a, beta=b), [1.0], lambda w: w.copy(), 2)
    np.testing.assert_allclose([t[0] for t in traj[1:]], expected, rtol=1e-15)


def test_divergence_is_reported_per_row():
    spec = make_spec("sgd", alpha=1.0)
    _, state = run_steps(spec, [1.0], lambda w: np.array([np.inf]), 1)
    assert state.failures == ((0, "diverged", "non-finite gradient at step 1"),)


def test_zero_gradient_coordinate_coasts_without_error():
    # epsilon = 0 and a never-touched coordinate: no division error, no drift.
    spec = make_spec("adagrad", alpha=0.5, epsilon=0.0, g_init=0.0)
    g = np.array([1.0, 0.0])
    traj, state = run_steps(spec, np.zeros(2), lambda w: g, 5)
    assert all(t[1] == 0.0 for t in traj)
    assert state.g_accum[1] == 0.0


# ---------------------------------------------------------------------------
# multi-step agreement with textbook updates
# ---------------------------------------------------------------------------


def quadratic_problem(seed, dim=10):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    b = rng.standard_normal(dim)
    return lambda w: 2.0 * A.T @ (A @ w - b), rng.standard_normal(dim)


def textbook_run(method, spec, w0, grad, iters):
    """Each method in its classic form (Adam with explicit first and second
    moment estimates), independent of the unified update `step` uses."""
    w = w0.copy()
    w_prev = w.copy()
    G = np.zeros_like(w)
    m = np.zeros_like(w)
    out = []
    for k in range(1, iters + 1):
        if method == "sgd":
            w, w_prev = w - spec.alpha * grad(w), w
        elif method == "hb":
            w, w_prev = w - spec.alpha * grad(w) + spec.beta * (w - w_prev), w
        elif method == "nag":
            g = grad(w + spec.beta * (w - w_prev))
            w, w_prev = w - spec.alpha * g + spec.beta * (w - w_prev), w
        elif method == "adagrad":
            g = grad(w)
            G = G + g * g
            w, w_prev = w - spec.alpha * g / (np.sqrt(G) + spec.epsilon), w
        elif method == "rmsprop":
            g = grad(w)
            G = spec.beta2 * G + (1.0 - spec.beta2) * g * g
            w, w_prev = w - spec.alpha * g / (np.sqrt(G) + spec.epsilon), w
        elif method == "adam":
            g = grad(w)
            m = spec.beta1 * m + (1.0 - spec.beta1) * g
            G = spec.beta2 * G + (1.0 - spec.beta2) * g * g
            m_hat = m / (1.0 - spec.beta1**k)
            v_hat = G / (1.0 - spec.beta2**k)
            w, w_prev = w - spec.alpha * m_hat / (np.sqrt(v_hat) + spec.epsilon), w
        out.append(w.copy())
    return out


@pytest.mark.parametrize("method", ["sgd", "hb", "nag", "adagrad", "rmsprop"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_textbook_updates(method, seed):
    grad, w0 = quadratic_problem(seed)
    spec = make_spec(method, alpha=0.05, beta=0.9, epsilon=1e-8)
    ours, _ = run_steps(spec, w0, grad, 10)
    ref = textbook_run(method, spec, w0, grad, 10)
    for mine, theirs in zip(ours[1:], ref):
        np.testing.assert_allclose(mine, theirs, rtol=1e-12, atol=1e-14)


def test_engine_adam_matches_reference_adam():
    # The table form (bias corrections folded into a_k, b_k and h_scale) and
    # the moment form differ only by roundoff.
    grad, w0 = quadratic_problem(5)
    spec = make_spec("adam", alpha=0.05, beta1=0.9, beta2=0.999, epsilon=1e-8)
    ours, _ = run_steps(spec, w0, grad, 50)
    ref = textbook_run("adam", spec, w0, grad, 50)
    gap = max(np.linalg.norm(mine - theirs) / max(np.linalg.norm(theirs), 1e-30)
              for mine, theirs in zip(ours[1:], ref))
    print(f"adam unified-vs-reference max relative gap over 50 steps: {gap:.3e}")
    assert gap < 1e-10


def test_self_corrected_recurrence_overflows_float64():
    # Compounding Adam's correction into the stored accumulator,
    # G_k = beta2/(1-beta2^k) G_{k-1} + ..., multiplies it by beta2/(1-beta2^k)
    # every step: at beta2 = 0.999 the product passes float64's ~1e308 well
    # before 500 steps.  This pins why the engine stores the raw sum.
    beta2 = 0.999
    log10_growth = sum(math.log10(beta2) - math.log10(1.0 - beta2**k) for k in range(1, 501))
    assert log10_growth > 308.0


def test_step_size_applies_to_its_step_only():
    # `step` reads the step size it is given, never spec.alpha.
    grad = lambda w: np.ones_like(w)
    spec = make_spec("sgd", alpha=0.1)
    state = init_state(spec, np.zeros(2))
    state = step(state, spec, grad, 0.5)
    np.testing.assert_allclose(state.w, [-0.5, -0.5])
    state = step(state, spec, grad, spec.alpha)
    np.testing.assert_allclose(state.w, [-0.6, -0.6])


# ---------------------------------------------------------------------------
# preconditioner
# ---------------------------------------------------------------------------


def test_preconditioner_identity_for_sgd_family():
    # Non-adaptive methods carry no H: their preconditioner is the identity.
    for method in ["sgd", "hb", "nag"]:
        _, state = run_steps(make_spec(method), np.zeros(4), lambda w: np.ones(4), 2)
        assert state.h is None


def test_preconditioner_after_one_gradient():
    g = np.array([3.0, 4.0])
    for method, kw in [("adagrad", {}), ("adam", {"beta2": 0.99})]:
        spec = make_spec(method, epsilon=0.0, g_init=0.0, **kw)
        _, state = run_steps(spec, np.zeros(2), lambda w: g, 1)
        np.testing.assert_allclose(state.h, [3.0, 4.0], rtol=1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000), iters=st.integers(1, 8))
def test_adagrad_accumulator_monotone(seed, iters):
    rng = np.random.default_rng(seed)
    grads = rng.standard_normal((iters, 5))
    spec = make_spec("adagrad", alpha=0.1, epsilon=1e-8)
    state = init_state(spec, np.zeros(5))
    prev = state.g_accum.copy()
    for k in range(iters):
        state = step(state, spec, lambda w, k=k: grads[k], spec.alpha)
        assert np.all(state.g_accum >= prev)
        prev = state.g_accum.copy()


def test_trajectories_are_bitwise_deterministic():
    grad, w0 = quadratic_problem(9)
    spec = make_spec("adam", alpha=0.03)
    a, _ = run_steps(spec, w0, grad, 20)
    b, _ = run_steps(spec, w0, grad, 20)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec("sgd", alpha=0.0)
    with pytest.raises(ValueError):
        make_spec("sgd", alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        make_spec("adam", alpha=1.0, beta2=-0.1)
    with pytest.raises(ValueError):
        make_spec("adam", alpha=1.0, epsilon=-1e-9)


def test_method_parse():
    assert MethodKind.parse(" Adam ") is MethodKind.ADAM
    with pytest.raises(ValueError):
        MethodKind.parse("adamw")


# ---------------------------------------------------------------------------
# bit-exactness of `step` against the plain formula
# ---------------------------------------------------------------------------


def plain_step(state, spec, grad_at, alpha):
    """`step` as the formula reads, one whole-array expression per term, with
    every coefficient applied (factors 1, terms 0 included): the bits `step`
    must reproduce."""
    k = state.k + 1
    alpha_k, beta_k, gamma_k, g_keep, g_new, h_scale = table1_row(spec, k, alpha)
    w, w_prev = state.w, state.w_prev

    if gamma_k != 0.0:
        eval_point = w + gamma_k * (w - w_prev)
    else:
        eval_point = w
    g = np.asarray(grad_at(eval_point), dtype=np.float64)

    singular = False
    h_now = None
    if spec.method not in ADAPTIVE_METHODS:
        w_next = w - alpha_k * g
        if beta_k != 0.0:
            w_next = w_next + beta_k * (w - w_prev)
        g_accum = state.g_accum
    else:
        g_accum = g_keep * state.g_accum + g_new * (g * g)
        h_now = np.sqrt(h_scale * g_accum) + spec.epsilon
        dw = w - w_prev if beta_k != 0.0 else None
        dead = h_now == 0.0
        h_safe = h_now
        if dead.any():
            needs_div = g != 0.0
            if dw is not None:
                needs_div |= dw != 0.0
            singular = (dead & needs_div).any(axis=-1)
            h_safe = np.where(dead, 1.0, h_now)
        w_next = w - alpha_k * (g / h_safe)
        if dw is not None:
            h_prev = state.h if state.h is not None else np.ones_like(w)
            w_next = w_next + beta_k * ((h_prev / h_safe) * dw)

    failures = []
    failed = np.atleast_1d(~np.isfinite(w_next).all(axis=-1) | singular)
    g_rows = g.reshape(-1, g.shape[-1])
    for i in np.flatnonzero(failed):
        if not np.isfinite(g_rows[i]).all():
            failures.append((int(i), "diverged", f"non-finite gradient at step {k}"))
        elif np.broadcast_to(singular, failed.shape)[i]:
            failures.append((int(i), "singular_preconditioner",
                             f"zero preconditioner entry with nonzero update at step {k} "
                             f"(epsilon={spec.epsilon})"))
        else:
            failures.append((int(i), "diverged", f"non-finite iterate at step {k}"))
    return type(state)(k, w_next, w, g_accum, h_now, tuple(failures))


_GRAD_ENTRIES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
                                  math.inf, -math.inf, math.nan])
                 | st.floats(-4.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(
    method=st.sampled_from(list(MethodKind)),
    epsilon=st.sampled_from([0.0, 1e-8]),
    g_init=st.sampled_from([0.0, -0.0, 0.25]),
    beta2=st.sampled_from([0.9, 0.999]),
    alphas=st.lists(st.sampled_from([1e-3, 0.1, 1.0, 7.0]), min_size=1, max_size=4),
    d=st.integers(1, 5),
    steps=st.integers(1, 4),
    data=st.data(),
)
def test_step_equals_plain_formula_bitwise(method, epsilon, g_init, beta2, alphas, d, steps,
                                           data):
    # Each step from the same state, with the same gradients, must give the
    # same w, w_prev, g_accum, h and failures byte for byte, signed zeros
    # included, and ask for the gradient at the same point; steps continue
    # past failures, so non-finite states are stepped too.  A NaN must meet a
    # NaN, of any sign and payload: when both operands are NaN, numpy's loops
    # pick the result's by array length and aliasing (``y + w`` with
    # y = +NaN, w = -NaN gives +NaN at length 1 but -NaN at length 17), so it
    # is not a property of the formula.  No artifact records a NaN iterate:
    # a failed step's state is dropped.
    spec = OptimizerSpec(method=method, alpha=1.0, epsilon=epsilon, g_init=g_init, beta2=beta2)
    rows = len(alphas)
    alpha = np.array(alphas).reshape(-1, 1)
    w0 = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, -3.0]) | st.floats(-2, 2),
                                     min_size=rows * d, max_size=rows * d))).reshape(rows, d)
    mine = theirs = init_state(spec, w0)
    for _ in range(steps):
        g = np.array(data.draw(st.lists(_GRAD_ENTRIES, min_size=rows * d,
                                        max_size=rows * d))).reshape(rows, d)
        points = []

        def grad_at(v):
            points.append(v.copy())
            return g

        with np.errstate(all="ignore"):
            mine = step(mine, spec, grad_at, alpha)
            theirs = plain_step(theirs, spec, grad_at, alpha)
        assert bits(points[0]) == bits(points[1])
        for field in ("w", "w_prev", "g_accum"):
            assert bits(getattr(mine, field)) == bits(getattr(theirs, field)), field
        assert (mine.h is None) == (theirs.h is None)
        if mine.h is not None:
            assert bits(mine.h) == bits(theirs.h)
        assert (mine.k, mine.failures) == (theirs.k, theirs.failures)


def bits(x):
    """The bytes of `x` with every NaN made the one canonical NaN."""
    return np.where(np.isnan(x), math.nan, x).tobytes()
