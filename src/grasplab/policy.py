"""Grasp selection policies and the curve fitting behind the analytic one.

The heuristic policy picks the candidate with the largest sum of predicted
antipodal score and vertical score. The analytic policy scores each
candidate with a fitted success probability

    P = (slope * s_q + intercept) / (1 + exp(-a * (s_v - b)))

whose default coefficients ship with the package (sigmoid a=10.1244,
b=0.6103; linear slope=0.8783, intercept=-0.0587). P is deliberately not
clamped: it can dip slightly below zero for tiny s_q, which never changes
the argmax and keeps the fitted model honest.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Grasp, vertical_score

__all__ = [
    "SigmoidFit",
    "LinearFit",
    "AnalyticPolicy",
    "DEFAULT_POLICY",
    "heuristic_select",
    "grasp_probability",
    "analytic_select",
    "fit_linear",
    "fit_sigmoid",
    "pearson",
    "policy_from_mapping",
]


@dataclass(frozen=True)
class SigmoidFit:
    """Reaching model 1 / (1 + exp(-a (x - b)))."""

    a: float
    b: float

    def __call__(self, x):
        z = np.clip(-self.a * (np.asarray(x, dtype=float) - self.b), -500.0, 500.0)
        return 1.0 / (1.0 + np.exp(z))


@dataclass(frozen=True)
class LinearFit:
    """Conditional success model slope * x + intercept."""

    slope: float
    intercept: float

    def __call__(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept


@dataclass(frozen=True)
class AnalyticPolicy:
    sigmoid: SigmoidFit
    linear: LinearFit


DEFAULT_POLICY = AnalyticPolicy(
    sigmoid=SigmoidFit(a=10.1244, b=0.6103),
    linear=LinearFit(slope=0.8783, intercept=-0.0587),
)


def heuristic_select(grasps: list[Grasp]) -> int:
    """Index of the candidate maximizing s_q + vertical score; ties -> lowest."""
    if not grasps:
        raise ValueError("cannot select from an empty candidate list")
    totals = [g.s_q + vertical_score(g) for g in grasps]
    return int(np.argmax(totals))


def grasp_probability(s_q: float, s_v: float, policy: AnalyticPolicy = DEFAULT_POLICY) -> float:
    """Fitted success probability of a (quality, verticality) pair."""
    return float(policy.linear(s_q)) * float(policy.sigmoid(s_v))


def analytic_select(grasps: list[Grasp], policy: AnalyticPolicy = DEFAULT_POLICY) -> int:
    """Index of the candidate maximizing grasp_probability; ties -> lowest."""
    if not grasps:
        raise ValueError("cannot select from an empty candidate list")
    probs = [grasp_probability(g.s_q, vertical_score(g), policy) for g in grasps]
    return int(np.argmax(probs))


def fit_linear(xs, ys) -> LinearFit:
    """Closed-form ordinary least squares line."""
    x = np.asarray(xs, dtype=float).reshape(-1)
    y = np.asarray(ys, dtype=float).reshape(-1)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("fit_linear needs >= 2 aligned samples")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("xs are all equal; line is degenerate")
    slope = float(np.sum((x - xm) * (y - ym))) / sxx
    return LinearFit(slope=slope, intercept=ym - slope * xm)


def _sigmoid_residuals(x: np.ndarray, y: np.ndarray, a: float, b: float):
    s = SigmoidFit(a, b)(x)
    r = y - s
    ds = s * (1.0 - s)
    jac = np.column_stack([-ds * (x - b), ds * a])  # d r / d (a, b)
    return r, jac


def fit_sigmoid(
    xs,
    ys,
    init: SigmoidFit = SigmoidFit(a=1.0, b=0.5),
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SigmoidFit:
    """Levenberg-Marquardt least squares fit of a unit-height sigmoid.

    Damping starts at 1e-3, multiplies by 10 on a rejected step and divides
    by 10 on an accepted one. Converged when an accepted step decreases the
    squared residual by less than tol; hitting max_iter without converging
    emits a RuntimeWarning and returns the best parameters found.
    """
    x = np.asarray(xs, dtype=float).reshape(-1)
    y = np.asarray(ys, dtype=float).reshape(-1)
    if x.shape != y.shape or x.size < 3:
        raise ValueError("fit_sigmoid needs >= 3 aligned samples")
    a, b = float(init.a), float(init.b)
    r, jac = _sigmoid_residuals(x, y, a, b)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    for _ in range(max_iter):
        jtj = jac.T @ jac
        jtr = jac.T @ r
        try:
            step = np.linalg.solve(jtj + lam * np.eye(2), -jtr)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        a_new, b_new = a + step[0], b + step[1]
        r_new, jac_new = _sigmoid_residuals(x, y, a_new, b_new)
        cost_new = float(r_new @ r_new)
        if cost_new < cost:
            improved = cost - cost_new
            a, b, r, jac, cost = a_new, b_new, r_new, jac_new, cost_new
            lam = max(lam / 10.0, 1e-15)
            if improved < tol:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e15:
                converged = True  # no further progress possible
                break
    else:
        converged = cost < tol  # loop exhausted
    if not converged:
        warnings.warn("fit_sigmoid did not converge; returning best fit found", RuntimeWarning)
    return SigmoidFit(a=a, b=b)


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(xs, dtype=float).reshape(-1)
    y = np.asarray(ys, dtype=float).reshape(-1)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("pearson needs >= 2 aligned samples")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson is undefined for zero variance")
    return float(dx @ dy) / math.sqrt(sx * sy)


# ---------------------------------------------------------------------------
# Policy coefficients from a key=value map
# ---------------------------------------------------------------------------

def policy_from_mapping(values: dict) -> AnalyticPolicy:
    """A policy from a map of the keys a, b, slope and intercept to finite reals; missing keys keep the
    defaults. Another key, or a value that is not a finite real (text included), names the key."""
    defaults = {"a": DEFAULT_POLICY.sigmoid.a, "b": DEFAULT_POLICY.sigmoid.b,
                "slope": DEFAULT_POLICY.linear.slope, "intercept": DEFAULT_POLICY.linear.intercept}
    for key, value in values.items():
        if key not in defaults:
            raise ValueError(f"unknown coefficient {key!r}; expected a, b, slope or intercept")
        if isinstance(value, str) or not math.isfinite(value):
            raise ValueError(f"coefficient {key} must be a finite real, got {value!r}")
    coeffs = {**defaults, **values}
    return AnalyticPolicy(SigmoidFit(coeffs["a"], coeffs["b"]), LinearFit(coeffs["slope"], coeffs["intercept"]))
