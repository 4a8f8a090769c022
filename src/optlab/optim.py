"""One update engine behind six first-order methods.

Every method is an instance of

    w_{k+1} = w_k - a_k H_k^{-1} g_k + b_k H_k^{-1} H_{k-1} (w_k - w_{k-1}),

where ``g_k`` is the gradient at the extrapolated point
``w_k + c_k (w_k - w_{k-1})`` and ``H_k`` is a diagonal preconditioner built
from a running combination ``G_k`` of squared gradients,
``H_k = sqrt(G_k) + epsilon`` elementwise.  Non-adaptive methods use the
identity preconditioner.  Table 1 gives the per-method, per-step scalars
(a_k, b_k, c_k), the G-recurrence weights, and the scale under the square
root (``H_k = sqrt(h_scale_k G_k) + epsilon``).  The engine reads its one
encoding: `OptimizerSpec.table1_constants`, the row past the step size, once
per spec, and for Adam, whose row depends on k, `adam_row`.

Conventions that the rest of the lab relies on:

* ``H_0`` (needed by the very first momentum term) is the identity; the
  difference ``w_0 - w_{-1}`` is zero there anyway.
* epsilon is added after the square root, so with ``epsilon=0`` the
  preconditioner is exactly proportional to accumulated |gradient| patterns.
* A coordinate whose preconditioner entry is zero can only arise when that
  coordinate has never seen a nonzero gradient; such coordinates simply do
  not move.  A zero entry that would have to divide a nonzero quantity is
  reported as a ``singular_preconditioner`` failure instead of producing NaN.

The state holds one trajectory (arrays of shape ``(d,)``) or a lockstep
stack of R rows (shape ``(R, d)``) that share the step index and the spec but
the step size.  Every operation is elementwise or per row, so a row's bits do
not depend on the rows beside it, and a row that fails does not stop the rest.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "MethodKind",
    "ADAPTIVE_METHODS",
    "OptimizerSpec",
    "OptimizerState",
    "init_state",
    "adam_row",
    "step",
    "spec_to_document",
]

GradientFn = Callable[[np.ndarray], np.ndarray]


class MethodKind(enum.Enum):
    SGD = "sgd"
    HB = "hb"
    NAG = "nag"
    ADAGRAD = "adagrad"
    RMSPROP = "rmsprop"
    ADAM = "adam"

    @classmethod
    def parse(cls, name: str) -> "MethodKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown method {name!r}; expected one of "
                f"{', '.join(m.value for m in cls)}"
            ) from None


ADAPTIVE_METHODS = frozenset({MethodKind.ADAGRAD, MethodKind.RMSPROP, MethodKind.ADAM})


@dataclass(frozen=True)
class OptimizerSpec:
    """Method identity plus hyperparameters.

    `beta` is the heavy-ball/Nesterov momentum, `beta1`/`beta2` the moment
    decays of the adaptive family, `epsilon` the post-square-root smoothing,
    and `g_init` the initial mean of the squared-gradient accumulator.
    Fields irrelevant to a method are simply ignored by the engine.
    """

    method: MethodKind
    alpha: float
    beta: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    g_init: float = 0.0

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if not self.g_init >= 0:
            raise ValueError(f"g_init must be nonnegative, got {self.g_init}")
        for name in ("beta", "beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {v}")

    @cached_property
    def table1_constants(self) -> tuple[float, ...] | None:
        """Table 1's (beta_k, gamma_k, g_keep, g_new, h_scale), evaluated once
        per spec, for a method whose row does not depend on k (its alpha_k is
        the step size); None for Adam, whose row does (`adam_row`).  `g_keep`
        and `g_new` weigh the raw accumulator and the new squared gradient
        (``g_new == 0``: H = I); `h_scale` turns that sum into H's square."""
        m = self.method
        if m is MethodKind.SGD:
            return 0.0, 0.0, 1.0, 0.0, 1.0
        if m is MethodKind.HB:
            return self.beta, 0.0, 1.0, 0.0, 1.0
        if m is MethodKind.NAG:
            return self.beta, self.beta, 1.0, 0.0, 1.0
        if m is MethodKind.ADAGRAD:
            return 0.0, 0.0, 1.0, 1.0, 1.0
        if m is MethodKind.RMSPROP:
            return 0.0, 0.0, self.beta2, 1.0 - self.beta2, 1.0
        return None


@dataclass
class OptimizerState:
    """Iterate pair and squared-gradient accumulator after `k` steps.

    `g_accum` holds the *raw* weighted sum of squared gradients.  For
    AdaGrad and RMSProp that is already the preconditioner square; Adam's
    preconditioner square additionally multiplies by the table's
    ``h_scale = 1/(1 - beta2^k)`` (equivalently, the published combination
    weights ``beta2/(1-beta2^k)`` and ``(1-beta2)/(1-beta2^k)`` applied to
    the raw sum).  Keeping the raw sum is what makes the corrected
    combination finite at every k; compounding the correction into the
    stored accumulator itself grows like ``prod_j beta2/(1-beta2^j)`` and
    overflows float64 within a few hundred steps at beta2 = 0.999.

    `h` carries H_k of an adaptive method (None before its first step).
    `failures` lists the rows the step could not advance, as ``(row, status,
    message)`` with status ``diverged`` or ``singular_preconditioner``.

    Arrays are treated as read-only by the engine; `step` returns a fresh
    state and never mutates its input.  Treat instances as immutable too
    (a frozen class would make every step pay for the guard).
    """

    k: int
    w: np.ndarray
    w_prev: np.ndarray
    g_accum: np.ndarray
    h: np.ndarray | None = None
    failures: tuple[tuple[int, str, str], ...] = ()


def init_state(spec: OptimizerSpec, w0: np.ndarray) -> OptimizerState:
    """Fresh state at iteration 0 with no momentum history."""
    w0 = np.asarray(w0, dtype=np.float64).copy()
    return OptimizerState(
        k=0,
        w=w0,
        w_prev=w0.copy(),
        g_accum=np.full_like(w0, spec.g_init),
    )


def adam_row(spec: OptimizerSpec, k: int, a) -> tuple:
    """Adam's Table 1 row at step ``k >= 1`` for base step size(s) `a`:
    (alpha_k, beta_k, gamma_k, g_keep, g_new, h_scale).  alpha_k and beta_k
    carry the zero-initialization corrections; the published accumulator
    weights are ``h_scale * g_keep`` and ``h_scale * g_new``."""
    b1, b2 = spec.beta1, spec.beta2
    corr1 = 1.0 - b1**k
    return (a * (1.0 - b1) / corr1, b1 * (1.0 - b1 ** (k - 1)) / corr1, 0.0,
            b2, 1.0 - b2, 1.0 / (1.0 - b2**k))


def step(state: OptimizerState, spec: OptimizerSpec, grad_at: GradientFn,
         alpha: float | np.ndarray) -> OptimizerState:
    """Advance every row one iteration with base step size `alpha`; returns
    the new state.

    `grad_at` returns the float64 gradient at the point it is given, in that
    point's shape.  `alpha` is a scalar, or one step size per row, shape
    (R, 1), or repeated along each row, the state's shape; ``spec.alpha`` is
    not read (decay schedules feed the current rates through here).  A row
    whose gradient or new iterate is not finite, or whose zero
    preconditioner entry would divide a nonzero quantity, is listed in the
    new state's `failures`.
    """
    k, a = state.k + 1, alpha
    row = spec.table1_constants  # computed once per spec
    if row is None:
        a, b, gamma, keep, new, scale = adam_row(spec, k, a)
    else:
        b, gamma, keep, new, scale = row
    w, w_prev = state.w, state.w_prev
    g = grad_at(w + gamma * (w - w_prev) if gamma != 0.0 else w)

    # The bits are those of the plain formula: an op whose result is bit for
    # bit its input (a factor 1, a term 0) is skipped, and arrays made here
    # are updated in place with the operands in the formula's order.
    singular, h = False, None
    dw = np.subtract(w, w_prev) if b != 0.0 else None
    if new == 0.0:  # H = I: no squared gradient enters the preconditioner
        w_next = np.multiply(a, g)
        np.subtract(w, w_next, out=w_next)
        g_accum = state.g_accum
    else:
        g_accum = np.multiply(g, g)
        if new != 1.0:
            np.multiply(new, g_accum, out=g_accum)
        np.add(state.g_accum if keep == 1.0 else keep * state.g_accum, g_accum, out=g_accum)
        # g_accum is a sum with g*g, never -0.0, so `+ 0.0` changes no sqrt.
        h = np.sqrt(g_accum if scale == 1.0 else scale * g_accum)
        if spec.epsilon != 0.0:
            np.add(h, spec.epsilon, out=h)
        h_safe = h
        # With epsilon > 0 no entry is 0; a NaN counts as nonzero, as in h.all().
        if spec.epsilon == 0.0 and np.count_nonzero(h) < h.size:
            dead = h == 0.0
            needs_div = g != 0.0
            if dw is not None:
                needs_div |= dw != 0.0
            singular = (dead & needs_div).any(axis=-1)
            h_safe = np.where(dead, 1.0, h)
        w_next = np.divide(g, h_safe)
        np.multiply(a, w_next, out=w_next)
        np.subtract(w, w_next, out=w_next)
        if dw is not None:  # the momentum term's H_{k-1} H_k^{-1}, with H_0 = 1
            np.multiply(np.divide(1.0 if state.h is None else state.h, h_safe), dw, out=dw)
    if dw is not None:
        np.add(w_next, np.multiply(b, dw, out=dw), out=w_next)

    # A non-finite gradient always makes its row's new iterate non-finite, so
    # checking the iterates finds every failing row; their sum is finite
    # only if every entry is.
    failures = ()
    if (singular is not False and singular.any()) or not math.isfinite(
            np.add.reduce(w_next, axis=None)):
        failures = _row_failures(k, g, w_next, singular, spec.epsilon)
    return OptimizerState(k, w_next, w, g_accum, h, failures)


def _row_failures(k, g, w_next, singular, epsilon) -> tuple[tuple[int, str, str], ...]:
    """Why each failed row failed, checked in the order a solo run meets them."""
    g = g.reshape(-1, g.shape[-1])
    failed = np.atleast_1d(~np.isfinite(w_next).all(axis=-1) | singular)
    singular = np.broadcast_to(singular, failed.shape)
    out = []
    for i in np.flatnonzero(failed):
        if not np.isfinite(g[i]).all():
            out.append((int(i), "diverged", f"non-finite gradient at step {k}"))
        elif singular[i]:
            out.append((int(i), "singular_preconditioner",
                        f"zero preconditioner entry with nonzero update at step {k} "
                        f"(epsilon={epsilon})"))
        else:
            out.append((int(i), "diverged", f"non-finite iterate at step {k}"))
    return tuple(out)


def spec_to_document(spec: OptimizerSpec) -> dict:
    """JSON-compatible view of a spec: its fields, with the method by name."""
    return {**asdict(spec), "method": spec.method.value}
