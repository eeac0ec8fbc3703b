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

_PAIR_BUDGET = 1 << 14  # point-center pairs per point block; bounds the query's records and the sums' temporaries


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
    centers = PointCloud(np.stack([g.center for g in grasps]))
    # each point's count of centers within d_th orders the points that have any by count, then index, and cuts
    # them into blocks of at most _PAIR_BUDGET pairs; a point with more is a block of its own
    counts = centers.tree.query_ball_point(cloud.points, d_th, return_length=True)
    order = (reach := np.flatnonzero(counts))[np.argsort(counts[reach], kind="stable")]
    ends, sums, lo = np.cumsum(counts[order]), np.zeros(n), 0
    while lo < len(order):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[order[lo]] + _PAIR_BUDGET, side="right")))
        sel, points = order[lo:hi], cloud.points[order[lo:hi]]
        center, point = centers.pairs(points, d_th)
        # sorted keys point * c + center list each point's centers in ascending order, as a ball query per point
        # does; the norm adds the three squares of a coordinate-major difference in order, as a per-point loop does
        point, center = np.divmod(np.sort(point * len(centers) + center), len(centers))
        values = 1.0 - np.linalg.norm(np.take(centers.points.T, center, axis=1) - np.take(points.T, point, axis=1),
                                      axis=0) / d_th
        # points with k centers are consecutive; their values form a (rows, k) block summed along its contiguous
        # last axis, which keeps the per-point sum's pairwise order, so every value is bitwise that of a per-point loop
        ks, rows = np.unique(counts[sel], return_counts=True)
        for k, r, at in zip(ks.tolist(), rows.tolist(), (np.cumsum(rows) - rows).tolist()):
            sums[sel[at:at + r]] = np.sum(values[:r * k].reshape(r, k), axis=1)
            values = values[r * k:]
        lo = hi
    return ConfidenceField(np.tanh(sums), d_th)


def select_positive_points(field: ConfidenceField, k1: int) -> np.ndarray:
    """Indices of the k1 highest-confidence points, ties toward lower index."""
    n = len(field)
    if not 1 <= k1 <= n:
        raise ValueError(f"k1={k1} must be in [1, {n}]")
    order = np.argsort(-field.values, kind="stable")
    return order[:k1]
