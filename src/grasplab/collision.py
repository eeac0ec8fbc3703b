"""Parallel-jaw collision checking against point clouds.

The gripper is modeled in the grasp frame as four axis-aligned boxes: the
closing region between the fingers (centered at the origin), the two
fingers flanking it along +-Y, and the back plate behind -X. The approach
direction is +X. A grasp collides when any scene point lies strictly
inside a finger or the back plate; points in the closing region are the
ones being grasped, not collisions.

Every box query runs through one kernel: the cloud's KD-tree keeps only
the points inside a few spheres covering the box, then the exact box test
decides, so culling never changes a result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Grasp, GraspFrame, GripperParams, PointCloud, grasp_frame, grasp_to_world, world_to_grasp
from .sampling import EmptyRegionError, resize_indices

BOUNDARY_TOL = 1e-12  # points this close to a box face count as outside
_CULL_SLACK = 1e-9    # culling-sphere margin; must exceed BOUNDARY_TOL
_QUERY_BATCH = 16     # grasps per KD-tree query; bounds the index lists held at once

__all__ = [
    "Box3",
    "GripperVolume",
    "gripper_volume",
    "check_collision",
    "filter_collision_free",
    "closing_region_points",
]


@dataclass(frozen=True, eq=False)
class Box3:
    """Axis-aligned box given by min/max corners (m)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(3)
        hi = np.asarray(self.hi, dtype=float).reshape(3)
        if np.any(hi <= lo):
            raise ValueError(f"box has non-positive extent: lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def contains_strict(self, points: np.ndarray) -> np.ndarray:
        """Strict interior test with BOUNDARY_TOL shrink; (N,) bool."""
        p = np.atleast_2d(points)
        return np.all(p > self.lo + BOUNDARY_TOL, axis=1) & np.all(p < self.hi - BOUNDARY_TOL, axis=1)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Inclusive membership with BOUNDARY_TOL slack; (N,) bool."""
        p = np.atleast_2d(points)
        return np.all(p >= self.lo - BOUNDARY_TOL, axis=1) & np.all(p <= self.hi + BOUNDARY_TOL, axis=1)


@dataclass(frozen=True, eq=False)
class GripperVolume:
    """Gripper boxes in the grasp frame; fingers abut the closing region at y = +-W/2."""

    closing: Box3
    finger_pos: Box3
    finger_neg: Box3
    back: Box3

    @property
    def obstacles(self) -> tuple[Box3, Box3, Box3]:
        return (self.finger_pos, self.finger_neg, self.back)


def gripper_volume(s: GripperParams) -> GripperVolume:
    """Box decomposition of a gripper; every extent traces back to (D, W, H, T)."""
    d2, w2, h2, t = s.depth / 2.0, s.width / 2.0, s.height / 2.0, s.thickness
    return GripperVolume(
        closing=Box3((-d2, -w2, -h2), (d2, w2, h2)),
        finger_pos=Box3((-d2, w2, -h2), (d2, w2 + t, h2)),
        finger_neg=Box3((-d2, -w2 - t, -h2), (d2, -w2, h2)),
        back=Box3((-d2 - t, -w2 - t, -h2), (-d2, w2 + t, h2)),
    )


def _cull_spheres(box: Box3) -> tuple[np.ndarray, float]:
    """Centers (grasp frame) and common radius of spheres covering `box`.

    The box is cut along its longest axis into cells no longer than its
    middle extent, and each cell gets the sphere through its corners. The
    slack keeps every point within BOUNDARY_TOL of the box, plus rounding in
    the frame transform, inside some sphere.
    """
    ext = box.hi - box.lo
    axis = int(np.argmax(ext))
    n = math.ceil(float(ext[axis] / np.sort(ext)[1]))
    cell = ext.copy()
    cell[axis] /= n
    centers = np.tile(box.lo + cell / 2.0, (n, 1))
    centers[:, axis] += np.arange(n) * cell[axis]
    return centers, float(np.linalg.norm(cell)) / 2.0 + _CULL_SLACK


def _box_points(cloud: PointCloud, frames: list[GraspFrame], box: Box3, strict: bool):
    """Cloud points inside one gripper box, for each grasp frame in turn.

    Strict excludes points within BOUNDARY_TOL of a face, inclusive admits
    them. Yields (ascending cloud indices, their grasp-frame coordinates) per
    frame. One KD-tree query covers the culling spheres of _QUERY_BATCH
    frames; the exact box test then decides.
    """
    centers, radius = _cull_spheres(box)
    for start in range(0, len(frames), _QUERY_BATCH):
        batch = frames[start:start + _QUERY_BATCH]
        world = np.concatenate([grasp_to_world(frame, centers) for frame in batch])
        hits = cloud.tree.query_ball_point(world, radius, return_sorted=False)
        for frame, frame_hits in zip(batch, hits.reshape(len(batch), len(centers))):
            idx = np.sort(np.fromiter(itertools.chain.from_iterable(frame_hits), dtype=np.intp))
            # neighbouring spheres overlap; dropping sorted repeats is cheaper than np.unique
            idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))] if idx.size else idx
            q = world_to_grasp(frame, cloud.points[idx])
            inside = box.contains_strict(q) if strict else box.contains(q)
            yield idx[inside], q[inside]


def filter_collision_free(
    candidates: list[Grasp],
    scene_cloud: PointCloud,
    s: GripperParams,
) -> list[Grasp]:
    """Order-preserving subsequence of candidates with no cloud point strictly
    inside a finger or the back plate.

    Grasps are tested one obstacle box at a time, fingers first and the back
    plate last; a pass covers only the grasps no earlier box hit.
    """
    if not candidates or len(scene_cloud) == 0:
        return list(candidates)
    frames = [grasp_frame(g) for g in candidates]
    free = np.ones(len(candidates), dtype=bool)
    for box in gripper_volume(s).obstacles:
        todo = np.flatnonzero(free)
        hits = _box_points(scene_cloud, [frames[i] for i in todo], box, strict=True)
        free[todo] = [idx.size == 0 for idx, _ in hits]
    return [g for g, ok in zip(candidates, free) if ok]


def check_collision(cloud: PointCloud, g: Grasp, s: GripperParams) -> bool:
    """True iff any cloud point lies strictly inside a finger or the back plate."""
    return not filter_collision_free([g], cloud, s)


def closing_region_points(
    cloud: PointCloud,
    g: Grasp,
    s: GripperParams,
    keep: int = 64,
    seed: int = 0,
) -> tuple[np.ndarray, bool]:
    """Grasp-frame coordinates of the points inside the closing region.

    Resized to exactly `keep` rows by resize_indices, the rule ball_query
    uses; returns (points (keep, 3), padded flag). Raises
    EmptyRegionError when the closing region is empty.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    if len(cloud) == 0:
        raise EmptyRegionError("empty cloud has no closing-region points")
    inside, q = next(_box_points(cloud, [grasp_frame(g)], gripper_volume(s).closing, strict=False))
    if inside.size == 0:
        raise EmptyRegionError("no points inside the gripper closing region")
    idx, padded = resize_indices(inside.size, keep, seed)
    return q[idx], padded
