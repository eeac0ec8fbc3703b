"""Point grasp confidence: tanh-saturated density of nearby grasp centers.

Each point accumulates one hat-kernel contribution per grasp whose center
lies within the distance threshold, sigma_g = 1 - dist/d_th, and the sum
is squashed through tanh. A point with no grasp center within d_th scores
exactly 0; the score is always < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grasp, PointCloud

__all__ = ["ConfidenceField", "point_confidence", "select_positive_points"]

_BLOCK_PAIRS = 1 << 16  # point-center pairs per block; bounds the temporaries of a dense scene
_BLOCK_CENTERS = 16  # centers per pair query; bounds its 24-byte pair records


@dataclass(frozen=True, eq=False)
class ConfidenceField:
    """Per-point grasp confidence aligned with a cloud by index."""

    values: np.ndarray
    d_th: float
    gripper_width: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if not np.all((v >= 0.0) & (v <= 1.0)):  # NaN fails both comparisons
            raise ValueError("confidence values must be finite and lie in [0, 1)")
        # a saturated tanh serialized at 9 digits reads back as exactly 1.0;
        # fold it onto the open interval
        object.__setattr__(self, "values", np.minimum(v, np.nextafter(1.0, 0.0)))
        if not (math.isfinite(self.d_th) and self.d_th > 0.0):
            raise ValueError(f"d_th must be positive and finite, got {self.d_th}")
        if not (math.isfinite(self.gripper_width) and self.gripper_width >= 0.0):
            raise ValueError(f"gripper_width must be non-negative and finite, got {self.gripper_width}")

    def __len__(self) -> int:
        return self.values.shape[0]


def point_confidence(
    cloud: PointCloud,
    grasps: list[Grasp],
    d_th: float = 0.01,
) -> ConfidenceField:
    """tanh of summed hat-kernel contributions from grasp centers within d_th.

    Per-width fields come from running this on that width's collision-free
    grasp list; the field itself depends only on the centers.
    """
    if d_th <= 0.0:
        raise ValueError("d_th must be positive")
    n = len(cloud)
    if n == 0 or not grasps:
        return ConfidenceField(np.zeros(n), d_th)
    centers = np.stack([g.center for g in grasps])
    # sorted keys point * c + center (int32 where they fit) list each point's centers within d_th in ascending order
    c, keys, key = len(centers), [], np.int32 if n * len(centers) < 2**31 else np.int64
    for lo in range(0, c, _BLOCK_CENTERS):
        point, center = cloud.pairs(centers[lo:lo + _BLOCK_CENTERS], d_th)
        keys.append(point.astype(key) * key(c) + (center + lo).astype(key))
    point, flat = np.divmod(np.sort(np.concatenate(keys)), c)
    counts = np.bincount(point, minlength=n)
    starts = np.cumsum(counts) - counts
    sums = np.zeros(n)
    # points with k neighbours form (rows, k) blocks summed along their contiguous last axis, which
    # keeps the per-point sum's pairwise order, so every value is bitwise that of a per-point loop
    for k in np.unique(counts[counts > 0]).tolist():
        rows = np.flatnonzero(counts == k)
        step = max(1, _BLOCK_PAIRS // k)
        for sel in (rows[lo:lo + step] for lo in range(0, len(rows), step)):
            idx = flat[starts[sel, None] + np.arange(k)]
            d = np.linalg.norm(centers[idx] - cloud.points[sel, None], axis=2)
            sums[sel] = np.sum(1.0 - d / d_th, axis=1)
    return ConfidenceField(np.tanh(sums), d_th)


def select_positive_points(field: ConfidenceField, k1: int) -> np.ndarray:
    """Indices of the k1 highest-confidence points, ties toward lower index."""
    n = len(field)
    if not 1 <= k1 <= n:
        raise ValueError(f"k1={k1} must be in [1, {n}]")
    order = np.argsort(-field.values, kind="stable")
    return order[:k1]
