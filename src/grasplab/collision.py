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

The collision filter settles most colliding grasps before that kernel. A
grid of "core" balls sits inside each obstacle box, every ball at least
BOUNDARY_TOL + _BALL_SLACK from each face. A scene point within a ball's
radius of its center is strictly inside the box under the exact test,
whatever the rounding of the frame transform, so one nearest-neighbour
query per box proves a collision. The balls need not cover the box: the
grasps no ball proves go through the exact test, which decides alone
whether a grasp is free. The survivors are the exact test's.

A batch of grasp frames is two arrays, rotations (G, 3, 3) and origins
(G, 3), the grasps' centers; _to_world places grasp-frame points by every
frame at once. The one-grasp entry points (check_collision,
closing_region_points and contact.find_contacts) take a grasp's rotation
from grasp_frame and pass it as a batch of one. Verdicts are kept per
cloud in _VERDICTS, a weak-key table, so a frame asked about twice on one
cloud and gripper is decided once and the table is freed with its cloud.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    Grasp,
    GripperParams,
    PointCloud,
    grasp_frame,
    grasp_frames,
)
from .sampling import EmptyRegionError, resize_indices

BOUNDARY_TOL = 1e-12  # points this close to a box face count as outside
_CULL_SLACK = 1e-9    # culling-sphere margin; must exceed BOUNDARY_TOL
_QUERY_BATCH = 16     # grasps per KD-tree query; bounds the index lists held at once
_BALL_SLACK = 1e-9    # core-ball margin beyond BOUNDARY_TOL, for rounding in the frame transform
_MAX_BALLS = 128      # core balls per box; any subset of them proves no less
_BALL_BLOCK = 1024    # grasps per core-ball query; bounds the ball centers held at once
_KEY_BYTES = 12 * 8   # a verdict-table key: a frame's 9 rotation and 3 origin float64s

# cloud -> gripper -> grasp-frame bytes -> free; weak keys, so a cloud's verdicts are freed with it
_VERDICTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

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

    def contains(self, points: np.ndarray, strict: bool = False) -> np.ndarray:
        """(N,) bool membership with BOUNDARY_TOL tolerance.

        Inclusive admits points up to BOUNDARY_TOL outside a face; strict
        excludes points up to BOUNDARY_TOL inside one.
        """
        p = np.atleast_2d(points)
        tol = -BOUNDARY_TOL if strict else BOUNDARY_TOL
        lo, hi = self.lo - tol, self.hi + tol
        above, below = (np.greater, np.less) if strict else (np.greater_equal, np.less_equal)
        # column by column: a third of the cost of an (N, 3) mask reduced with .all(axis=1)
        inside = above(p[:, 0], lo[0]) & below(p[:, 0], hi[0])
        for a in (1, 2):
            inside &= above(p[:, a], lo[a]) & below(p[:, a], hi[a])
        return inside


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


class _Kernel(NamedTuple):
    """One gripper box with the spheres that cull its queries and the core balls that prove its hits."""

    box: Box3
    spheres: tuple[np.ndarray, float]  # _cull_spheres(box)
    balls: tuple[np.ndarray, float]    # _core_balls(box)


def _to_world(points: np.ndarray, rotations: np.ndarray, origins: np.ndarray) -> np.ndarray:
    """(G, n, 3): grasp-frame points (n, 3) placed in the world by each of G frames."""
    return points @ rotations.transpose(0, 2, 1) + origins[:, None, :]


def _box_points(cloud: PointCloud, rotations: np.ndarray, origins: np.ndarray, kernel: _Kernel, strict: bool):
    """Cloud points inside one gripper box, for each grasp frame (rotation, origin) in turn.

    Strict excludes points within BOUNDARY_TOL of a face, inclusive admits
    them. Yields (ascending cloud indices, their grasp-frame coordinates) per
    frame. One KD-tree query covers the culling spheres of _QUERY_BATCH
    frames; the exact box test, on the grasp-frame coordinates (p - o) @ R, then decides.
    """
    box, (centers, radius) = kernel.box, kernel.spheres
    for start in range(0, len(rotations), _QUERY_BATCH):
        batch = slice(start, start + _QUERY_BATCH)
        world = _to_world(centers, rotations[batch], origins[batch])
        hits = cloud.tree.query_ball_point(world.reshape(-1, 3), radius, return_sorted=False)
        for rotation, origin, frame_hits in zip(rotations[batch], origins[batch], hits.reshape(len(world), -1)):
            idx = np.sort(np.fromiter(itertools.chain.from_iterable(frame_hits), dtype=np.intp))
            # neighbouring spheres overlap; dropping sorted repeats is cheaper than np.unique
            idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))] if idx.size else idx
            q = (cloud.points[idx] - origin) @ rotation
            inside = box.contains(q, strict)
            yield idx[inside], q[inside]


def _core_balls(box: Box3) -> tuple[np.ndarray, float]:
    """Centers (grasp frame) and common radius of balls strictly inside `box`.

    The balls are inscribed in cubes whose side is the box's smallest
    extent, spread evenly along each axis, at most _MAX_BALLS of them. The
    radius stops BOUNDARY_TOL + _BALL_SLACK short of the cube's faces, so
    a point within it of a center is strictly inside the box. A box too
    thin for that margin gets no balls.
    """
    ext = box.hi - box.lo
    side = float(ext.min())
    radius = side / 2.0 - BOUNDARY_TOL - _BALL_SLACK
    if radius <= 0.0:
        return np.empty((0, 3)), 0.0
    n = np.ceil(ext / side)
    for _ in range(3):  # the thinnest axis holds one cube, so at most two axes shrink
        over = n.prod() / _MAX_BALLS
        if over <= 1.0:
            break
        big = n > 1
        n[big] = np.maximum(1.0, np.floor(n[big] / over ** (1.0 / big.sum())))
    axes = [box.lo[a] + side / 2.0 + np.linspace(0.0, ext[a] - side, int(n[a])) for a in range(3)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return centers, radius


@functools.lru_cache(maxsize=16)
def _kernels(s: GripperParams) -> tuple[_Kernel, tuple[_Kernel, _Kernel, _Kernel]]:
    """(closing box, obstacle boxes) of gripper s, each with its culling spheres and core balls.

    Kept per gripper because check_collision, find_contacts and
    closing_region_points test one grasp a call, and building the boxes,
    spheres and balls anew would cost more than the query itself.
    """
    v = gripper_volume(s)
    kernel = lambda box: _Kernel(box, _cull_spheres(box), _core_balls(box))
    return kernel(v.closing), tuple(kernel(box) for box in v.obstacles)


def _ball_hits(cloud: PointCloud, rotations: np.ndarray, origins: np.ndarray, centers: np.ndarray,
               radius: float) -> np.ndarray:
    """(G,) bool: some cloud point lies in a core ball (grasp-frame centers), so the grasp collides."""
    hit = np.zeros(len(rotations), dtype=bool)
    if not len(centers):
        return hit
    for start in range(0, len(rotations), _BALL_BLOCK):
        block = slice(start, start + _BALL_BLOCK)
        world = _to_world(centers, rotations[block], origins[block])
        d, _ = cloud.tree.query(world.reshape(-1, 3), k=1, distance_upper_bound=radius)
        hit[block] = np.isfinite(d).reshape(-1, len(centers)).any(axis=1)
    return hit


def _decide(cloud: PointCloud, rotations: np.ndarray, origins: np.ndarray, s: GripperParams) -> np.ndarray:
    """(G,) bool: no cloud point strictly inside a finger or the back plate of each grasp frame.

    Each obstacle box's core balls first settle the grasps they prove
    colliding (see the module docstring); the exact box test decides the
    rest, fingers first and the back plate last. Every pass covers only the
    grasps no earlier pass hit.
    """
    _, obstacles = _kernels(s)
    free = np.ones(len(rotations), dtype=bool)
    for kernel in obstacles:
        todo = np.flatnonzero(free)
        free[todo] = ~_ball_hits(cloud, rotations[todo], origins[todo], *kernel.balls)
    for kernel in obstacles:
        todo = np.flatnonzero(free)
        found = _box_points(cloud, rotations[todo], origins[todo], kernel, strict=True)
        free[todo] = [idx.size == 0 for idx, _ in found]
    return free


def _free_mask(cloud: PointCloud, rotations: np.ndarray, origins: np.ndarray, s: GripperParams) -> np.ndarray:
    """(G,) bool: _decide's verdict on each grasp frame, each frame decided once per cloud and gripper.

    The cloud's verdict table (_VERDICTS[cloud][s]) is keyed by the
    frame's bytes: its 9 rotation floats and 3 origin floats, all the
    verdict depends on. Frames the table knows cost a dict lookup; the
    rest go through _decide, in one batch, and their verdicts are stored.
    """
    table = _VERDICTS.setdefault(cloud, {}).setdefault(s, {})
    raw = np.concatenate([rotations.reshape(-1, 9), origins], axis=1, dtype=float).tobytes()
    keys = [raw[i:i + _KEY_BYTES] for i in range(0, len(raw), _KEY_BYTES)]
    verdicts = [table.get(key) for key in keys]
    todo = [i for i, verdict in enumerate(verdicts) if verdict is None]
    if todo:
        for i, free in zip(todo, _decide(cloud, rotations[todo], origins[todo], s).tolist()):
            verdicts[i] = table[keys[i]] = free
    return np.array(verdicts, dtype=bool)


def _closing_region(cloud: PointCloud, rotation: np.ndarray, g: Grasp, s: GripperParams):
    """(ascending cloud indices, grasp-frame coordinates) of the points in g's closing region, faces
    included; `rotation` is grasp_frame(g)."""
    return next(_box_points(cloud, rotation[None], g.center[None], _kernels(s)[0], strict=False))


def filter_collision_free(
    candidates: list[Grasp],
    scene_cloud: PointCloud,
    s: GripperParams,
) -> list[Grasp]:
    """Order-preserving subsequence of candidates with no cloud point strictly
    inside a finger or the back plate. All frames are built in one batch."""
    if not candidates:
        return []
    rotations = grasp_frames(np.stack([g.orientation for g in candidates]), [g.theta for g in candidates])
    free = _free_mask(scene_cloud, rotations, np.stack([g.center for g in candidates]), s)
    return [g for g, ok in zip(candidates, free) if ok]


def check_collision(cloud: PointCloud, g: Grasp, s: GripperParams) -> bool:
    """True iff any cloud point lies strictly inside a finger or the back plate."""
    return not _free_mask(cloud, grasp_frame(g)[None], g.center[None], s)[0]


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
    inside, q = _closing_region(cloud, grasp_frame(g), g, s)
    if inside.size == 0:
        raise EmptyRegionError("no points inside the gripper closing region")
    idx, padded = resize_indices(inside.size, keep, seed)
    return q[idx], padded
