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
from dataclasses import dataclass, replace

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


def fit_sigmoid(xs, ys, init: SigmoidFit = SigmoidFit(a=1.0, b=0.5)) -> SigmoidFit:
    """Least-squares unit-height sigmoid by MINPACK's Levenberg-Marquardt from init, run to machine precision
    (ftol = xtol = gtol = 4 eps); a run that stops short emits a RuntimeWarning and returns its best fit."""
    # imported here: scipy.optimize would add about 0.09 s to every `import grasplab.cli`
    from scipy.optimize import least_squares
    x = np.asarray(xs, dtype=float).reshape(-1)
    y = np.asarray(ys, dtype=float).reshape(-1)
    if x.shape != y.shape or x.size < 3:
        raise ValueError("fit_sigmoid needs >= 3 aligned samples")

    def jacobian(p):  # d (y - s) / d (a, b)
        s = SigmoidFit(*p)(x)
        ds = s * (1.0 - s)
        return np.column_stack([-ds * (x - p[1]), ds * p[0]])

    tol = 4 * np.finfo(float).eps
    # x_scale="jac" is the default from scipy 1.16 on; naming it keeps older scipy on the same steps
    result = least_squares(lambda p: y - SigmoidFit(*p)(x), [init.a, init.b], jac=jacobian, method="lm",
                           ftol=tol, xtol=tol, gtol=tol, x_scale="jac")
    if not result.success:
        warnings.warn("fit_sigmoid did not converge; returning best fit found", RuntimeWarning)
    return SigmoidFit(*map(float, result.x))


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
    """A policy from a map of `SigmoidFit` and `LinearFit` field names to finite reals; missing keys keep
    the defaults. Another key, or a value that is not a finite real (text included), names the key."""
    fits = (DEFAULT_POLICY.sigmoid, DEFAULT_POLICY.linear)
    keys = [key for fit in fits for key in vars(fit)]
    for key, value in values.items():
        if key not in keys:
            raise ValueError(f"unknown coefficient {key!r}; expected one of {', '.join(keys)}")
        if isinstance(value, str) or not math.isfinite(value):
            raise ValueError(f"coefficient {key} must be a finite real, got {value!r}")
    return AnalyticPolicy(*(replace(fit, **{key: values[key] for key in vars(fit) if key in values})
                            for fit in fits))
