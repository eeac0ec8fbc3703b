"""Training losses with analytic gradients and a finite-difference checker.

Every loss returns a LossResult carrying the scalar value and the gradient
with respect to its prediction inputs. Probabilities are clamped to
[EPS, 1-EPS] before any log; a clamped input is treated as constant, so
its reported gradient is zero. Batch losses reduce in a fixed order for
bit-reproducible values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import anchors as anchors_mod
from .anchors import IGNORE, POSITIVE, AnchorLabel, RefineLabel
from .core import clamp_theta, grasps_from_arrays

EPS = 1e-7  # probability clamp for log stability

__all__ = [
    "EPS",
    "LossResult",
    "mse_loss",
    "smooth_l1",
    "focal_loss",
    "binary_cross_entropy",
    "grn_loss",
    "rn_loss",
    "gradient_check",
]


@dataclass(frozen=True, eq=False)
class LossResult:
    """Scalar loss value plus gradients aligned with the prediction inputs.

    Composite losses flatten their gradients: all classification
    probabilities first (row-major), then all residual predictions.
    """

    value: float
    gradients: np.ndarray

    @property
    def gradient(self) -> float:
        """The gradient of a single-input loss as a plain float."""
        return float(self.gradients)


def mse_loss(pred: Sequence[float], gt: Sequence[float]) -> LossResult:
    """Mean squared error (1/N) sum (gt - pred)^2."""
    p = np.asarray(pred, dtype=float).reshape(-1)
    g = np.asarray(gt, dtype=float).reshape(-1)
    if p.shape != g.shape:
        raise ValueError(f"length mismatch: pred {p.shape} vs gt {g.shape}")
    if p.size == 0:
        raise ValueError("mse_loss needs at least one element")
    diff = g - p
    return LossResult(float(diff @ diff) / p.size, -2.0 * diff / p.size)


def _smooth_l1_terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise smooth-L1 of x = pred - gt and its gradient in x."""
    ax = np.abs(x)
    quad = ax < 1.0
    vals = np.where(quad, 0.5 * x * x, ax - 0.5)
    grads = np.where(quad, x, np.sign(x))
    return vals, grads


def smooth_l1(pred: float, gt: float) -> LossResult:
    """Smooth L1 with the standard knee at |pred - gt| = 1."""
    vals, grads = _smooth_l1_terms(np.asarray(float(pred) - float(gt)))
    return LossResult(float(vals), grads)


def _checked_prob(p: float, y: int) -> tuple[float, bool]:
    """A binary target's probability clamped to [EPS, 1-EPS], and whether the clamp moved it."""
    if y not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {y}")
    p = float(p)
    return min(max(p, EPS), 1.0 - EPS), p < EPS or p > 1.0 - EPS


def focal_loss(p: float, y: int, gamma: float = 2.0, alpha: float = 0.25) -> LossResult:
    """Focal loss for a single probability against a binary target."""
    q, clamped = _checked_prob(p, y)
    if y == 1:
        value = -alpha * (1.0 - q) ** gamma * math.log(q)
        grad = alpha * gamma * (1.0 - q) ** (gamma - 1.0) * math.log(q) - alpha * (1.0 - q) ** gamma / q
    else:
        value = -(1.0 - alpha) * q ** gamma * math.log(1.0 - q)
        grad = (
            -(1.0 - alpha) * gamma * q ** (gamma - 1.0) * math.log(1.0 - q)
            + (1.0 - alpha) * q ** gamma / (1.0 - q)
        )
    return LossResult(value, np.asarray(0.0 if clamped else grad))


def binary_cross_entropy(p: float, y: int) -> LossResult:
    """Cross entropy for a single probability against a binary target."""
    q, clamped = _checked_prob(p, y)
    value = -(y * math.log(q) + (1 - y) * math.log(1.0 - q))
    grad = -y / q + (1 - y) / (1.0 - q)
    return LossResult(value, np.asarray(0.0 if clamped else grad))


def _head_loss(probs, targets, term, cls_scale, res, res_targets, reg_scale) -> LossResult:
    """The two-term detection loss of both heads: cls_scale times the sum of term(p, t) over the targets that
    are not IGNORE, row-major, plus reg_scale times the smooth-L1 sum over the rows whose entry of res_targets
    is not None, row by row. Each sum is one Python float, added in that order."""
    grad_probs, grad_res = np.zeros_like(probs), np.zeros_like(res)
    cls_total = reg_total = 0.0
    for idx in zip(*np.nonzero(targets != IGNORE)):
        loss = term(probs[idx], int(targets[idx]))
        cls_total += loss.value
        grad_probs[idx] = loss.gradient
    for i, target in enumerate(res_targets):
        if target is not None:
            vals, grad_res[i] = _smooth_l1_terms(res[i] - target)
            reg_total += float(np.sum(vals))
    value = cls_scale * cls_total + reg_scale * reg_total
    return LossResult(value, np.concatenate([(grad_probs * cls_scale).ravel(), (grad_res * reg_scale).ravel()]))


def grn_loss(
    class_probs: np.ndarray,
    residuals: np.ndarray,
    labels: Sequence[AnchorLabel],
    lambda_cls: float = 0.2,
    lambda_u: float = 1.0,
    k1: int | None = None,
) -> LossResult:
    """Proposal-generation loss: focal classification over anchors plus
    smooth-L1 regression for positive anchors.

    class_probs is (n, M); residuals is (n, 8) ordered as
    [res_c(3), res_r(3), theta, s_q] and is read only for rows whose label
    has a positive anchor (ignored rows get exactly zero gradient). Only
    the classification term is averaged (by k1, default n); the regression
    sum is unnormalized.
    """
    probs = np.asarray(class_probs, dtype=float)
    res = np.asarray(residuals, dtype=float)
    n = len(labels)
    if n == 0:
        raise ValueError("grn_loss needs at least one label")
    m = labels[0].classes.shape[0]
    for i, label in enumerate(labels):
        if np.shape(label.classes) != (m,):
            raise ValueError(f"label {i} has {np.size(label.classes)} anchor classes, label 0 has {m}")
    if probs.shape != (n, m):
        raise ValueError(f"class_probs shape {probs.shape} does not match ({n}, {m})")
    if res.shape != (n, 8):
        raise ValueError(f"residuals shape {res.shape} does not match ({n}, 8)")
    k1 = n if k1 is None else int(k1)
    if k1 < 1:
        raise ValueError("k1 must be >= 1")
    return _head_loss(probs, np.stack([lb.classes for lb in labels]), focal_loss, lambda_cls / k1,
                      res, [lb.residuals for lb in labels], lambda_u)


def rn_loss(
    class_probs: np.ndarray,
    residuals: np.ndarray,
    labels: Sequence[RefineLabel],
    lambda_rcls: float = 0.2,
    lambda_ru: float = 1.0,
) -> LossResult:
    """Refinement loss: cross-entropy over non-ignored proposals plus
    smooth-L1 regression averaged over positives.

    class_probs is (n,); residuals is (n, 8) as in grn_loss and is read
    only for positive rows. Raises when every label is ignored.
    """
    probs = np.asarray(class_probs, dtype=float).reshape(-1)
    res = np.asarray(residuals, dtype=float)
    n = len(labels)
    if probs.shape != (n,):
        raise ValueError(f"class_probs shape {probs.shape} does not match ({n},)")
    if res.shape != (n, 8):
        raise ValueError(f"residuals shape {res.shape} does not match ({n}, 8)")
    y = np.array([lb.y for lb in labels], dtype=int)
    n_cls, n_reg = int(np.sum(y != IGNORE)), int(np.sum(y == POSITIVE))
    if n_cls == 0:
        raise ValueError("rn_loss has no non-ignored labels to train on")
    for i, label in enumerate(labels):
        if label.y == POSITIVE and label.residuals is None:
            raise ValueError(f"label {i} is positive but has no residuals")
    return _head_loss(probs, y, binary_cross_entropy, lambda_rcls / n_cls,
                      res, [lb.residuals if lb.y == POSITIVE else None for lb in labels],
                      lambda_ru / n_reg if n_reg else 0.0)


def gradient_check(
    fn: Callable[[np.ndarray], LossResult],
    inputs: np.ndarray,
    h: float = 1e-6,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    fn maps a flat input vector to a LossResult whose gradients align with
    that vector. The error denominator is floored at 1 so zero-gradient
    coordinates compare absolutely. Inputs must sit at least ~10h away
    from any non-smooth point (the smooth-L1 knee, probability clamps).
    """
    x = np.asarray(inputs, dtype=float).reshape(-1)
    analytic = np.asarray(fn(x).gradients, dtype=float).reshape(-1)
    if analytic.shape != x.shape:
        raise ValueError(f"gradient shape {analytic.shape} does not match inputs {x.shape}")
    worst = 0.0
    for k in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[k] += h
        lo[k] -= h
        fd = (fn(hi).value - fn(lo).value) / (2.0 * h)
        err = abs(analytic[k] - fd) / max(1.0, abs(analytic[k]), abs(fd))
        worst = max(worst, err)
    return worst


def _losscheck_cases(rng: np.random.Generator, trials: int):
    """Yield the (name, flat-loss closure, input vector) cases that losscheck and acceptance criterion 3
    check: `trials` rounds of four scalar-loss cases, then `trials` rounds of one grn and one rn case."""
    for t in range(trials):
        n = int(rng.integers(2, 6))
        gt = rng.uniform(-1.0, 1.0, size=n)
        yield f"mse[{t}]", (lambda x, gt=gt: mse_loss(x, gt)), rng.uniform(-1.0, 1.0, size=n)

        x = float(rng.uniform(-2.0, 2.0))
        if abs(abs(x) - 1.0) < 1e-4:  # stay clear of the smooth-L1 knee
            x += 0.01
        yield f"smooth_l1[{t}]", (lambda v: smooth_l1(float(v[0]), 0.0)), np.array([x])

        p = float(rng.uniform(0.05, 0.95))
        y = int(rng.integers(0, 2))
        yield f"focal[{t}]", (lambda v, y=y: focal_loss(float(v[0]), y)), np.array([p])
        yield f"bce[{t}]", (lambda v, y=y: binary_cross_entropy(float(v[0]), y)), np.array([p])
    for t in range(trials):
        yield f"grn[{t}]", *_random_grn_case(rng)
        yield f"rn[{t}]", *_random_rn_case(rng)


def _random_pose(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    """(center, closing axis, theta) of a random grasp, drawn in the stream's order."""
    r = rng.normal(size=3)
    r /= np.linalg.norm(r)
    return rng.uniform(-0.1, 0.1, size=3), r, float(rng.uniform(-1.5, 1.5))


def _random_residuals(rng: np.random.Generator, labels) -> np.ndarray:
    """(n, 8) residual predictions whose errors stay clear of the smooth-L1 knee."""
    res = rng.uniform(-0.8, 0.8, size=(len(labels), 8))
    for i, lb in enumerate(labels):
        if lb.residuals is not None:
            target = lb.residuals
            diff = res[i] - target
            diff = np.where(np.abs(np.abs(diff) - 1.0) < 1e-3, diff + 0.01, diff)
            res[i] = target + diff
    return res


def _random_grn_case(rng: np.random.Generator):
    m = 4
    n = int(rng.integers(1, 4))
    anchor_dirs = anchors_mod.anchor_set(m)
    # the middle draw is kept for the stream: complete_label always reset that quality target to 0
    draws = [(_random_pose(rng), rng.uniform(0, 1), rng.uniform(-0.1, 0.1, size=3)) for _ in range(n)]
    poses, _, offsets = zip(*draws)
    labels = [anchors_mod.complete_label(anchors_mod.assign_anchor_labels(gt, anchor_dirs), gt, anchor_dirs, off)
              for gt, off in zip(grasps_from_arrays(*zip(*poses)), offsets)]
    probs = rng.uniform(0.05, 0.95, size=(n, m))
    res = _random_residuals(rng, labels)

    def fn(x: np.ndarray) -> LossResult:
        return grn_loss(x[: n * m].reshape(n, m), x[n * m:].reshape(n, 8), labels)

    return fn, np.concatenate([probs.ravel(), res.ravel()])


def _random_rn_case(rng: np.random.Generator):
    n = int(rng.integers(1, 5))
    # every draw first, in the stream's order; then the ground truths and the proposals, each as one table
    draws = [(_random_pose(rng), rng.normal(scale=0.02, size=3), rng.normal(scale=0.05, size=3),
              float(rng.normal(scale=0.1)), float(rng.uniform(0, 1)), float(rng.uniform(0, 1))) for _ in range(n)]
    poses, jitters, tilts, turns, gt_q, prop_q = zip(*draws)
    gts = grasps_from_arrays(*zip(*poses), gt_q)
    axes = (g.orientation + tilt for g, tilt in zip(gts, tilts))
    proposals = grasps_from_arrays([g.center + jitter for g, jitter in zip(gts, jitters)],
                                   [r / np.linalg.norm(r) for r in axes],
                                   clamp_theta(np.array([g.theta for g in gts]) + turns), prop_q)
    labels = [anchors_mod.assign_refine_labels(gt, proposal) for gt, proposal in zip(gts, proposals)]
    if all(lb.y == IGNORE for lb in labels):
        labels[0] = RefineLabel(anchors_mod.NEGATIVE, None)
    probs = rng.uniform(0.05, 0.95, size=n)
    res = _random_residuals(rng, labels)

    def fn(x: np.ndarray) -> LossResult:
        return rn_loss(x[:n], x[n:].reshape(n, 8), labels)

    return fn, np.concatenate([probs, res.ravel()])
