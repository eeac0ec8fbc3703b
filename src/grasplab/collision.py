"""Parallel-jaw collision checking against point clouds.

The gripper is modeled in the grasp frame as four axis-aligned boxes: the
closing region between the fingers (centered at the origin), the two
fingers flanking it along +-Y, and the back plate behind -X. The approach
direction is +X. A grasp collides when any scene point lies strictly
inside a finger or the back plate; points in the closing region are the
ones being grasped, not collisions.

Every box is cut into one grid of cells (_cells). A cell's inscribed ball
(radius r_in) stays BOUNDARY_TOL + _BALL_SLACK inside the box, so a scene
point within r_in of its center is strictly inside the box under the exact
test, whatever the rounding of the frame transform. Its circumscribed ball
(radius r_out) is taken from the real spacing of the centers, so every point
within BOUNDARY_TOL of the box lies within r_out of some center. One
nearest-point query bounded by r_out therefore settles a cell and a frame:
a point closer than r_in proves a collision, and none closer than r_out
clears the cell. Each box's cells go in rounds in farthest-point order, the
fingers and the back plate taking turns, and a grasp proved colliding skips
every later round. The exact box test decides the rest, reading only the
points within r_out of the cells in between; it alone decides whether a
grasp is free, so the survivors are the exact test's. The closing region
has no cells: its candidates are the points of one ball around the grasp
center that holds the box with that margin, from one PointCloud.pairs query,
in ascending index order and each point once.

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
    cache_frames,
    grasp_frame,
)
from .sampling import EmptyRegionError, resize_indices

BOUNDARY_TOL = 1e-12  # points this close to a box face count as outside
_BALL_SLACK = 1e-9    # cell-ball margin beyond BOUNDARY_TOL, for rounding in the frame transform
_MAX_BALLS = 128      # cells per box; fewer, wider cells prove less and read more, never decide otherwise
_BALL_BLOCK = 1024    # grasps per cell query; bounds the cell centers held at once
_BALL_ROUND = 8       # cells per query round; a grasp proved colliding skips the later rounds
_READ_BLOCK = 16      # grasps per exact-test query; bounds the point indices held at once
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


class _Kernel(NamedTuple):
    box: Box3
    centers: np.ndarray  # (cells, 3), grasp frame, farthest-point order
    r_in: float          # a point this close to a center is strictly inside the box; 0 proves nothing
    r_out: float         # every point within BOUNDARY_TOL of the box is this close to some center


def _to_world(points: np.ndarray, rotations: np.ndarray, origins: np.ndarray) -> np.ndarray:
    """(G, n, 3): grasp-frame points (n, 3) placed in the world by each of G frames."""
    return points @ rotations.transpose(0, 2, 1) + origins[:, None, :]


def _cells(box: Box3) -> _Kernel:
    """`box` cut into cubes whose side is its smallest extent, spread evenly along each axis, at most
    _MAX_BALLS of them. r_in keeps BOUNDARY_TOL + _BALL_SLACK inside a cube's faces; r_out is the farthest
    a point of the box lies from its nearest center (an axis's ends, or half its widest gap) plus that margin."""
    ext = box.hi - box.lo
    side = float(ext.min())
    n = np.ceil(ext / side - 1e-9)  # a ratio a rounding error above a whole number needs no extra cube
    for _ in range(3):  # the thinnest axis holds one cube, so at most two axes shrink
        over = n.prod() / _MAX_BALLS
        if over <= 1.0:
            break
        big = n > 1
        n[big] = np.maximum(1.0, np.floor(n[big] / over ** (1.0 / big.sum())))
    axes = [box.lo[a] + side / 2.0 + np.linspace(0.0, ext[a] - side, int(n[a])) for a in range(3)]
    reach = [max(u[0] - lo, hi - u[-1], np.diff(u).max(initial=0.0) / 2.0)
             for u, lo, hi in zip(axes, box.lo, box.hi)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    # farthest-point order, so each round of _BALL_ROUND cells spreads over the box
    order, gap = [0], np.linalg.norm(centers - centers[0], axis=1)
    while len(order) < len(centers):
        order.append(int(np.argmax(gap)))
        gap = np.minimum(gap, np.linalg.norm(centers - centers[order[-1]], axis=1))
    margin = BOUNDARY_TOL + _BALL_SLACK
    return _Kernel(box, centers[order], max(0.0, side / 2.0 - margin), math.hypot(*reach) + margin)


@functools.lru_cache(maxsize=16)
def _kernels(s: GripperParams) -> tuple[_Kernel, tuple[_Kernel, _Kernel, _Kernel]]:
    """(closing ball, obstacle boxes' cells) of gripper s, built once per gripper: check_collision, find_contacts
    and closing_region_points test one grasp a call. The closing box's one ball (r_in 0) around its center holds
    every point within BOUNDARY_TOL of the box, with the margin _cells adds."""
    v = gripper_volume(s)
    reach = math.hypot(*(v.closing.hi - v.closing.lo) / 2.0) + BOUNDARY_TOL + _BALL_SLACK
    closing = _Kernel(v.closing, ((v.closing.lo + v.closing.hi) / 2.0)[None], 0.0, reach)
    return closing, tuple(_cells(box) for box in v.obstacles)


def _cell_round(cloud: PointCloud, rotations: np.ndarray, origins: np.ndarray, kernel: _Kernel,
                cells: slice, free: np.ndarray, near: np.ndarray) -> None:
    """One round: a bounded nearest-point query per cell in `cells` and `free` frame. Marks in `near`
    (G, cells) the cells with a cloud point within r_out of their center, and clears `free` for the
    frames a point within r_in proves colliding."""
    todo, centers = np.flatnonzero(free), kernel.centers[cells]
    if todo.size and len(centers):
        world = _to_world(centers, rotations[todo], origins[todo])
        d, _ = cloud.tree.query(world.reshape(-1, 3), k=1, distance_upper_bound=kernel.r_out)
        d = d.reshape(len(todo), -1)
        near[todo, cells] = d < np.inf
        free[todo[(d < kernel.r_in).any(axis=1)]] = False


def _exact_hits(cloud: PointCloud, rotations: np.ndarray, origins: np.ndarray, kernel: _Kernel,
                near: np.ndarray) -> np.ndarray:
    """(G,) bool: a cloud point lies strictly inside the box in each frame, by the exact box test, reading
    only the points within r_out of each frame's `near` cells (G, cells). One query covers every frame; a
    point near two cells is tested twice, which the verdict, an `any`, allows."""
    found = cloud.tree.query_ball_point(_to_world(kernel.centers, rotations, origins)[near], kernel.r_out,
                                        return_sorted=False)
    counts = np.fromiter(map(len, found), dtype=np.intp, count=len(found))
    idx = np.fromiter(itertools.chain.from_iterable(found), dtype=np.intp, count=int(counts.sum()))
    frames = np.repeat(np.nonzero(near)[0], counts)  # the frame of each point read, ascending
    hit = np.zeros(len(rotations), dtype=bool)
    if frames.size:
        cuts = np.concatenate(([0], np.flatnonzero(np.diff(frames)) + 1, [len(frames)])).tolist()
        # (p - o) @ R with each frame's own C-contiguous R: a row's bits do not depend on the other rows
        q = [(cloud.points[idx[a:b]] - origins[frames[a]]) @ rotations[frames[a]] for a, b in zip(cuts, cuts[1:])]
        hit[frames[kernel.box.contains(np.concatenate(q), strict=True)]] = True
    return hit


def _decide(cloud: PointCloud, rotations: np.ndarray, origins: np.ndarray, s: GripperParams) -> np.ndarray:
    """(G,) bool: no cloud point strictly inside a finger or the back plate of each grasp frame.

    _BALL_BLOCK frames at a time, the obstacle boxes' cells first settle the
    frames they prove colliding and mark the cells with a point near them
    (see the module docstring), _BALL_ROUND cells of each box in turn. The
    exact box test then decides the frames with a marked cell, _READ_BLOCK a
    query, fingers first and the back plate last, and skips the frames an
    earlier pass hit.
    """
    _, obstacles = _kernels(s)
    free = np.ones(len(rotations), dtype=bool)
    for start in range(0, len(rotations), _BALL_BLOCK):
        block = slice(start, start + _BALL_BLOCK)
        r, o, left = rotations[block], origins[block], free[block]  # `left` is a view of `free`
        marked = [np.zeros((len(r), len(kernel.centers)), dtype=bool) for kernel in obstacles]
        for first in range(0, max(len(kernel.centers) for kernel in obstacles), _BALL_ROUND):
            for kernel, near in zip(obstacles, marked):
                _cell_round(cloud, r, o, kernel, slice(first, first + _BALL_ROUND), left, near)
        for kernel, near in zip(obstacles, marked):
            todo = np.flatnonzero(left & near.any(axis=1))
            for first in range(0, todo.size, _READ_BLOCK):
                part = todo[first:first + _READ_BLOCK]
                left[part] = ~_exact_hits(cloud, r[part], o[part], kernel, near[part])
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
    """(candidate cloud indices, their grasp-frame coordinates, mask of those in g's closing region, faces
    included); `rotation` is grasp_frame(g). The candidates are the points of the closing ball, ascending
    and each once."""
    kernel = _kernels(s)[0]
    idx = np.sort(cloud.pairs(_to_world(kernel.centers, rotation[None], g.center[None])[0], kernel.r_out)[0])
    q = (cloud.points[idx] - g.center) @ rotation
    return idx, q, kernel.box.contains(q)


def filter_collision_free(
    candidates: list[Grasp],
    scene_cloud: PointCloud,
    s: GripperParams,
) -> list[Grasp]:
    """Order-preserving subsequence of candidates with no cloud point strictly
    inside a finger or the back plate. The frames are built in one batch and
    kept on the candidates (cache_frames)."""
    if not candidates:
        return []
    free = _free_mask(scene_cloud, cache_frames(candidates), np.stack([g.center for g in candidates]), s)
    return list(itertools.compress(candidates, free))


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
    _, q, inside = _closing_region(cloud, grasp_frame(g), g, s)
    if not inside.any():
        raise EmptyRegionError("no points inside the gripper closing region")
    # the in-region rows in ascending cloud order, as resize_indices needs; a row keeps its bits in any subset
    q = q[inside]
    rows, padded = resize_indices(len(q), keep, seed)
    return q[rows], padded
