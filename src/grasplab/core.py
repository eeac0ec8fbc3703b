"""Core geometric types and the canonical grasp coordinate frame.

Conventions used throughout the package:
  * lengths in meters, angles in radians
  * world +Z is "up"; the operation platform lies in the world X-Y plane
  * a grasp is (center, orientation, theta, s_q): `orientation` is the unit
    closing axis of the jaws (the grasp frame Y axis), `theta` in
    [-pi/2, pi/2] is the approach angle (theta = pi/2 approaches straight
    down along world -Z) and `s_q` in [0, 1] is its antipodal score

Grasp frame construction:
  Y_G = orientation; X' = normalize((r_y, -r_x, 0)) lies in the ground
  plane perpendicular to Y_G; X_G (the approach direction) is X' rotated
  about Y_G by theta (right-handed); Z_G = X_G x Y_G.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

UNIT_TOL = 1e-6          # how far off unit length an input vector may be
THETA_MAX = math.pi / 2

__all__ = [
    "Grasp",
    "GraspRowError",
    "GripperParams",
    "PointCloud",
    "cache_frames",
    "clamp_theta",
    "ground_reference",
    "grasp_frame",
    "grasp_frames",
    "grasps_from_arrays",
    "vertical_score",
    "rotate_about_axis",
    "UNIT_TOL",
    "THETA_MAX",
]


def clamp_theta(theta):
    """theta clamped to the approach-angle range [-pi/2, pi/2]: a float, or an array for an array."""
    out = np.minimum(np.maximum(theta, -THETA_MAX), THETA_MAX)
    return out if out.ndim else float(out)


def _frozen_copy(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


class GraspRowError(ValueError):
    """A grasp table's first rejected row: `row` is its index and the message is Grasp's own."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _score_rule(s: np.ndarray):
    return (0.0 <= s) & (s <= 1.0), lambda i: f"s_q {float(s[i])} outside [0, 1]"


def _raise_first(rules) -> None:
    """Raise at the first row a (rows passed, message of row i) rule rejects, the earliest rule's message."""
    passed = np.logical_and.reduce([ok for ok, _ in rules])
    if not passed.all():
        i = int(np.argmin(passed))
        raise GraspRowError(i, next(message for ok, message in rules if not ok[i])(i))


@dataclass(frozen=True, eq=False)
class Grasp:
    """A parallel-jaw grasp: center (m), unit closing axis, approach angle (rad), antipodal score in [0, 1].
    It is the one-row case of `grasps_from_arrays`, which owns the checks and the normalisation. The pose
    arrays are read-only, so the frame that `grasp_frame` keeps in `_frame` never goes stale."""

    center: np.ndarray
    orientation: np.ndarray
    theta: float
    s_q: float = 0.0
    _frame: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.__dict__.update(vars(grasps_from_arrays(self.center, self.orientation, [float(self.theta)],
                                                     float(self.s_q))[0]))

    def with_score(self, s_q: float) -> "Grasp":
        """The same pose with score s_q. The pose arrays and the frame are shared, not normalised a
        second time, which could move the orientation's last bits."""
        _raise_first([_score_rule(np.array([float(s_q)]))])
        out = copy.copy(self)
        object.__setattr__(out, "s_q", float(s_q))
        return out


def grasps_from_arrays(centers, orientations, thetas, s_q=0.0) -> list[Grasp]:
    """G grasps from (G, 3) centers and closing axes, (G,) approach angles and (G,) scores or one for all.
    Grasp's checks and normalisation run over the whole table at once; the first rejected row raises
    GraspRowError with its index and Grasp's message. Each grasp owns its rows of fresh, read-only arrays."""
    t = np.array(thetas, dtype=float).reshape(-1)
    c = np.array(centers, dtype=float).reshape(len(t), 3)
    r = np.asarray(orientations, dtype=float).reshape(len(t), 3)
    s = np.full(t.shape, s_q, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing axis length is rejected below
        n = np.sqrt(np.vecdot(r, r))
    _raise_first([  # in this order
        (np.isfinite(c).all(axis=1), lambda i: f"center has non-finite components: {c[i]}"),
        (np.isfinite(r).all(axis=1), lambda i: f"orientation has non-finite components: {r[i]}"),
        (np.abs(n - 1.0) <= UNIT_TOL, lambda i: f"orientation norm {n[i]:.9f} not within {UNIT_TOL} of 1"),
        (np.isfinite(t), lambda i: "theta is not finite"),
        # tolerance covers 9-significant-digit serialization of +-pi/2
        (np.abs(t) <= THETA_MAX + UNIT_TOL, lambda i: f"theta {float(t[i])} outside [-pi/2, pi/2]"),
        _score_rule(s),
    ])
    out = [object.__new__(Grasp) for _ in range(len(t))]  # the rows are checked: no __post_init__ per row
    for g, *row in zip(out, _frozen_copy(c), _frozen_copy(r / n[:, None]), clamp_theta(t).tolist(), s.tolist()):
        g.__dict__.update(zip(("center", "orientation", "theta", "s_q"), row))
    return out


@dataclass(frozen=True)
class GripperParams:
    """Simplified parallel-jaw geometry, all in meters.

    depth: inner depth of the jaws (extent along the approach axis)
    width: inner opening between the fingers (max graspable object size)
    height: finger height (extent along the frame Z axis)
    thickness: finger / back-plate thickness
    """

    depth: float
    width: float
    height: float
    thickness: float

    def __post_init__(self):
        for name in ("depth", "width", "height", "thickness"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"gripper {name} must be strictly positive, got {v}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """N points (m) with optional unit normals and optional RGB colors in [0,1].

    A cloud is immutable: it keeps read-only copies of its arrays, so the
    KD-tree over its points (`tree`, built on first use and cached) can be
    shared by every spatial query on the cloud and never goes stale.
    """

    points: np.ndarray
    normals: np.ndarray | None = None
    colors: np.ndarray | None = None
    _tree: cKDTree | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pts = _frozen_copy(self.points)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite values")
        object.__setattr__(self, "points", pts)
        for name in ("normals", "colors"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = _frozen_copy(arr)
            if arr.shape != pts.shape:
                raise ValueError(f"{name} shape {arr.shape} does not match points {pts.shape}")
            object.__setattr__(self, name, arr)
        if self.normals is not None:
            norms = np.linalg.norm(self.normals, axis=1)
            if np.any(np.abs(norms - 1.0) > UNIT_TOL):
                raise ValueError("normals must be unit length within 1e-6")
        if self.colors is not None and (np.any(self.colors < 0.0) or np.any(self.colors > 1.0)):
            raise ValueError("colors must lie in [0, 1]")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def tree(self) -> cKDTree:
        """KD-tree over `points`, built on first use and kept for the cloud's lifetime."""
        if self._tree is None:
            object.__setattr__(self, "_tree", cKDTree(self.points))
        return self._tree

    def pairs(self, centers: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(point indices, center indices), one entry per cloud point within `radius` of one of `centers` (m, 3),
        the radius included, in no set order: the cloud's one radius query, `tree` against a tree of the centers."""
        found = self.tree.sparse_distance_matrix(cKDTree(centers), radius, output_type="ndarray")
        return found["i"], found["j"]

    def with_normals(self, normals: np.ndarray) -> "PointCloud":
        """Same points and colors with new normals; shares this cloud's tree."""
        out = PointCloud(self.points, normals, self.colors)
        object.__setattr__(out, "_tree", self._tree)
        return out


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis of (3,) or (G, 3) arrays.

    The same products and differences as np.cross, so the same bits, without
    its per-call axis handling, which costs more than the arithmetic on a few rows.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def rotate_about_axis(v: np.ndarray, axis: np.ndarray, angle) -> np.ndarray:
    """Right-handed Rodrigues rotation of v about a unit axis.

    v and axis are (3,) or (G, 3) and angle is a scalar or (G,). The cosine
    and sine come from libm through `math`, so a row's bits do not depend on
    numpy's vector kernels or on the batch it is in.
    """
    axis = np.asarray(axis, dtype=float)
    v = np.asarray(v, dtype=float)
    angle = np.asarray(angle, dtype=float)
    c = np.array([math.cos(a) for a in angle.ravel()]).reshape(*angle.shape, 1)
    s = np.array([math.sin(a) for a in angle.ravel()]).reshape(*angle.shape, 1)
    return v * c + _cross(axis, v) * s + axis * np.vecdot(axis, v)[..., None] * (1.0 - c)


def ground_reference(r: np.ndarray, warn: bool = False) -> np.ndarray:
    """In-ground-plane reference X' = normalize((r_y, -r_x, 0)) of closing axes r, (3,) or (G, 3).

    When r is (anti)parallel to world Z the reference is degenerate and X'
    falls back to (1, 0, 0), with a RuntimeWarning per such row if `warn` is set.
    """
    r = np.asarray(r, dtype=float)
    x_ref = np.stack([r[..., 1], -r[..., 0], np.zeros(r.shape[:-1])], axis=-1)
    flat = (np.abs(r[..., 0]) < 1e-9) & (np.abs(r[..., 1]) < 1e-9)
    if np.any(flat):
        for _ in range(np.count_nonzero(flat) if warn else 0):
            warnings.warn("grasp orientation is parallel to world Z; using X' = (1, 0, 0)", RuntimeWarning)
        x_ref[flat] = (1.0, 0.0, 0.0)
    return x_ref / np.sqrt(np.vecdot(x_ref, x_ref))[..., None]


def grasp_frames(orientations: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Rotations (G, 3, 3) with columns (X_G, Y_G, Z_G) of G grasps.

    Takes unit closing axes (G, 3) and approach angles (G,) in
    [-pi/2, pi/2], as a Grasp holds them. The ground reference X' (see
    ground_reference) is rotated about Y_G = orientation by theta to give
    the approach axis X_G. A closing axis (anti)parallel to world Z warns
    (once per row) and uses X' = (1, 0, 0). Each row is bitwise the same in any batch.
    """
    r = np.asarray(orientations, dtype=float).reshape(-1, 3)
    x_axis = rotate_about_axis(ground_reference(r, warn=True), r, np.asarray(thetas, dtype=float).reshape(-1))
    return np.stack([x_axis, r, _cross(x_axis, r)], axis=2)


def _approach_angles(r: np.ndarray, approach: np.ndarray) -> np.ndarray:
    """theta per row that rotates the ground reference of closing axis r onto `approach`, in (-pi, pi]."""
    x_ref = ground_reference(r)
    num, den = np.vecdot(_cross(x_ref, approach), r), np.vecdot(x_ref, approach)
    return np.array([math.atan2(y, x) for y, x in zip(num.tolist(), den.tolist())])


def _theta_for_approach(orientation: np.ndarray, approach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of grasp_frames: closing axes (possibly flipped) and thetas so each frame's X axis equals
    its `approach`.

    Takes (G, 3) rows, each approach perpendicular to its orientation. The closing axis is sign-symmetric
    for a parallel jaw, so it is flipped whenever that brings theta into [-pi/2, pi/2]. A closing axis
    parallel to world Z has the ground reference (1, 0, 0) for both signs, so an approach with negative x
    has no angle in range: GraspRowError names the first such row.
    """
    r = np.array(orientation, dtype=float)
    theta = _approach_angles(r, approach)
    flip = np.abs(theta) > THETA_MAX + 1e-12
    if flip.any():
        r[flip] = -r[flip]
        theta[flip] = _approach_angles(r[flip], approach[flip])
    _raise_first([(np.abs(theta) <= THETA_MAX + 1e-12, lambda i: "closing axis parallel to world Z and approach "
                   f"({', '.join(f'{v:.3f}' for v in approach[i].tolist())}) have no angle in [-pi/2, pi/2]")])
    return r, clamp_theta(theta)


def grasp_frame(g: Grasp) -> np.ndarray:
    """The (3, 3) rotation with columns (X_G, Y_G, Z_G) of one grasp: the one-row case of grasp_frames.

    It maps grasp-frame coordinates q to the world as R q + center, and world points p to the grasp
    frame as (p - center) @ R. It is built on the first call and kept on the grasp, read-only.
    """
    if g._frame is None:
        cache_frames([g])
    return g._frame


def cache_frames(grasps: list[Grasp]) -> np.ndarray:
    """The read-only (G, 3, 3) frames of G grasps in one grasp_frames batch, each row kept on its grasp for
    grasp_frame: the one place a frame is cached. A row's bits do not depend on its batch."""
    rotations = grasp_frames(np.reshape([g.orientation for g in grasps], (-1, 3)), [g.theta for g in grasps])
    rotations.flags.writeable = False
    for g, rotation in zip(grasps, rotations):
        object.__setattr__(g, "_frame", rotation)
    return rotations


def vertical_score(g: Grasp | float) -> float:
    """Verticality of a grasp in [0, 1]: 0.5 + theta / pi.

    1 means approaching straight down (theta = pi/2), 0 means parallel to
    the platform plane (theta = -pi/2). Accepts a Grasp or a bare theta,
    which is checked and clamped as a Grasp's theta is.
    """
    theta = (g if isinstance(g, Grasp) else Grasp(np.zeros(3), (0.0, 1.0, 0.0), g)).theta
    return 0.5 + theta / math.pi
