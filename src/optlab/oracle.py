"""Closed-form solutions and analytic predictions for the synthetic problem.

Two interpolants of ``Xw = y`` matter here:

* the minimum-norm solution ``X^T (XX^T)^{-1} y``, the fixed point of
  methods that stay inside the row span, and
* the sign solution ``tau * sign(X^T y)``, the fixed point of the
  diagonally preconditioned methods whenever ``X sign(X^T y) = c y`` for a
  scalar c (then ``tau = 1/c`` makes it interpolate).

On the synthetic family the Gram matrix has integer entries (4 or 8 on the
diagonal, 3 or 1 off it) and the minimum-norm coefficients collapse to one
value per class.  Two closed forms for that pair are provided:
`synthetic_alphas` is the published reduced-system form, which solves

    (3*n_pos + 1) a_plus - n_neg a_minus = 1
    -n_pos a_plus + (3*n_neg + 3) a_minus = 1,

while `exact_synthetic_alphas` solves the reduction of the actual Gram
matrix, whose negative-class row carries ``3*n_neg + 5`` (diagonal 8, not
6).  Only the latter reproduces `min_norm_solution` numerically; both give
the same classification signs for every ``n_pos, n_neg >= 1``.

Both are solved on the orbit quotient (`lsq.Dataset.orbits`), one value per
column class, and their ``X w`` is the run loop's product of such values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import LemmaPreconditionError, SingularKernelError
from .lsq import (Dataset, Quotient, _equal_segments, l2_norm, quotient_product,
                  quotient_t_product)

__all__ = [
    "sign_solution",
    "min_norm_solution",
    "synthetic_alphas",
    "exact_synthetic_alphas",
    "predicted_test_score",
    "analytic_test_error",
    "solution_to_document",
]


@dataclass(frozen=True)
class OracleSolution:
    """A closed-form weight vector, its ``X w`` per row, and its derivation
    constants."""

    kind: str  # "min_norm" or "sign"
    w: np.ndarray
    xw: np.ndarray
    c: float | None = None
    tau: float | None = None
    alpha_plus: float | None = None
    alpha_minus: float | None = None


def _sign_scale(orbits: Quotient, u: np.ndarray) -> float | None:
    """Scalar c with ``X sign(X^T y) = c y`` exactly, if one exists, given
    ``u = X_q^T y`` on the orbit quotient, one entry per column class.

    Returns None when any nonzero column of X has a zero label correlation,
    when the row sums disagree, or when they disagree in sign with y.
    All-zero columns are zero in every gradient and are not part of the test.
    """
    if np.any(u == 0.0):
        return None
    v = quotient_product(orbits, orbits.multiplicity * np.sign(u))
    cs = v * orbits.y
    c = float(cs[0])
    if c <= 0.0 or np.any(cs != c):
        return None
    return c


def _product(orbits: Quotient, u: np.ndarray) -> np.ndarray:
    """``X w`` per row, for w taking ``u[c]`` on column class c."""
    return quotient_product(orbits, orbits.multiplicity * u).take(orbits.row_class)


def sign_solution(ds: Dataset) -> OracleSolution:
    """The interpolating constant-magnitude solution ``(1/c) sign(X^T y)``,
    on the orbit quotient."""
    orbits = ds.orbits
    u = quotient_t_product(orbits, orbits.y)  # X^T y, computed once for the check and w
    c = _sign_scale(orbits, u)
    if c is None:
        raise LemmaPreconditionError(
            "no scalar c with X sign(X^T y) = c y; sign solution undefined"
        )
    tau = 1.0 / c
    w = tau * np.sign(orbits.expand(u))
    return OracleSolution(kind="sign", w=w, xw=_product(orbits, tau * np.sign(u)), c=c, tau=tau)


def _witness(ds: Dataset) -> str | None:
    """A message naming rows (from 1) that show ``Xw = y`` has no solution, an
    empty row or two bit-equal rows with different labels; else None."""
    ptr = np.searchsorted(ds.row, np.arange(ds.n + 1))
    first = _equal_segments(ptr, ds.col, ds.val.view(np.uint64), np.zeros(ds.n, dtype=np.intp))
    bad = np.flatnonzero((ptr[:-1] == ptr[1:]) | (ds.y != ds.y[first]))
    if not bad.size:
        return None
    i, j = first[bad[0]], bad[0]  # an empty row is the first of its kind: i = j
    if i == j:
        return f"Xw = y has no solution: row {j + 1} has no entries and label {ds.y[j]:+.0f}"
    return (f"Xw = y has no solution: rows {i + 1} and {j + 1} have equal entries and "
            f"labels {ds.y[i]:+.0f} and {ds.y[j]:+.0f}")


def min_norm_solution(ds: Dataset) -> OracleSolution:
    """The least-L2-norm interpolant ``X^T (XX^T)^{-1} y``, solved on the
    orbit quotient; raises `SingularKernelError` when ``Xw = y`` has none
    (the residual stays large; `_witness` names rows that show it).
    `alpha_plus` and `alpha_minus` are the coefficients' means by label."""
    orbits = ds.orbits
    coef = orbits.gram_solve(orbits.y)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged solve fails the check
        u = quotient_t_product(orbits, coef)
        w, xw = orbits.expand(u), _product(orbits, u)
        resid = l2_norm(xw - ds.y)
    if not np.all(np.isfinite(coef)) or resid > 1e-8 * np.sqrt(ds.n):
        raise SingularKernelError(_witness(ds) or f"Gram solve residual {resid:.3e} too large")
    a_plus = a_minus = None
    if ds.p is not None:
        coef, pos, neg = coef.take(orbits.row_class), ds.y > 0, ds.y < 0
        if pos.any():
            a_plus = float(np.mean(coef[pos]))
        if neg.any():
            a_minus = float(-np.mean(coef[neg]))
    return OracleSolution(kind="min_norm", w=w, xw=xw, alpha_plus=a_plus, alpha_minus=a_minus)


def synthetic_alphas(n_pos: int, n_neg: int) -> tuple[float, float]:
    """Published class coefficients for the synthetic minimum-norm solution.

    Solves the reduced system quoted in the module docstring; see
    `exact_synthetic_alphas` for the variant consistent with the actual
    Gram matrix.  Both coefficients are strictly positive.
    """
    if n_pos < 1 or n_neg < 1:
        raise ValueError("n_pos and n_neg must be at least 1")
    denom = 9.0 * n_pos + 3.0 * n_neg + 8.0 * n_pos * n_neg + 3.0
    return (4.0 * n_neg + 3.0) / denom, (4.0 * n_pos + 1.0) / denom


def exact_synthetic_alphas(n_pos: int, n_neg: int) -> tuple[float, float]:
    """Class coefficients from the reduction of the actual synthetic Gram.

    With diagonal entries 4 (positive rows) and 8 (negative rows) the
    reduced system is ``(3*n_pos+1) a+ - n_neg a- = 1`` and
    ``-n_pos a+ + (3*n_neg+5) a- = 1``; this matches `min_norm_solution`
    on generated data to solver precision.
    """
    if n_pos < 1 or n_neg < 1:
        raise ValueError("n_pos and n_neg must be at least 1")
    denom = 15.0 * n_pos + 3.0 * n_neg + 8.0 * n_pos * n_neg + 5.0
    return (4.0 * n_neg + 5.0) / denom, (4.0 * n_pos + 1.0) / denom


def predicted_test_score(
    kind: str, n_pos: int, n_neg: int, y_test: float, tau: float = 0.25
) -> float:
    """Closed-form score of a fresh draw against the named solution.

    The sign solution scores ``tau * (y_test + 2)`` -- positive for both
    labels, so every fresh negative is misclassified.  The minimum-norm
    score uses `synthetic_alphas`; its sign agrees with the exact solution's
    score for every class-count pair, though the magnitude differs.
    """
    if kind == "sign":
        return float(tau * (y_test + 2.0))
    if kind == "min_norm":
        a_plus, a_minus = synthetic_alphas(n_pos, n_neg)
        sym = n_pos * a_plus + n_neg * a_minus
        skew = n_pos * a_plus - n_neg * a_minus
        return float(y_test * sym + 2.0 * skew)
    raise ValueError(f"unknown solution kind {kind!r}")


def analytic_test_error(kind: str, p: float, n_pos: int, n_neg: int) -> float:
    """Population error of the named solution under positive-class rate p.

    A class contributes its probability mass when the predicted score for
    its label has the wrong sign (zero counts as wrong).  The sign solution
    labels everything positive, so its error is ``1 - p``; the minimum-norm
    solution separates both classes whenever ``n_pos > n_neg / 3``.
    """
    if not 0.5 < p < 1.0:
        raise ValueError(f"p must lie in (1/2, 1), got {p}")
    if kind == "sign":
        return 1.0 - p
    err = 0.0
    if predicted_test_score(kind, n_pos, n_neg, +1.0) <= 0.0:
        err += p
    if predicted_test_score(kind, n_pos, n_neg, -1.0) >= 0.0:
        err += 1.0 - p
    return err


# ---------------------------------------------------------------------------
# serialization (the JSON document the oracle report embeds)
# ---------------------------------------------------------------------------


def solution_to_document(sol: OracleSolution) -> dict:
    """Every field of `sol` but `xw`."""
    return {f.name: getattr(sol, f.name) for f in fields(sol) if f.name != "xw"}
