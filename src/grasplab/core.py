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
    "GripperParams",
    "PointCloud",
    "clamp_theta",
    "ground_reference",
    "grasp_frame",
    "grasp_frames",
    "vertical_score",
    "rotate_about_axis",
    "UNIT_TOL",
    "THETA_MAX",
]


def _as_vec3(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3)
    # math.isfinite on three Python floats is several times cheaper than np.isfinite and np.all
    if not all(map(math.isfinite, a.tolist())):
        raise ValueError(f"{name} has non-finite components: {a}")
    return a


def _frozen_copy(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def clamp_theta(theta: float) -> float:
    """theta clamped to the approach-angle range [-pi/2, pi/2]."""
    return min(max(float(theta), -THETA_MAX), THETA_MAX)


def _score(s_q) -> float:
    s = float(s_q)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s_q {s} outside [0, 1]")
    return s


@dataclass(frozen=True, eq=False)
class Grasp:
    """A parallel-jaw grasp: center (m), unit closing axis, approach angle (rad), antipodal score in [0, 1]."""

    center: np.ndarray
    orientation: np.ndarray
    theta: float
    s_q: float = 0.0

    def __post_init__(self):
        c = _as_vec3(self.center, "center")
        r = _as_vec3(self.orientation, "orientation")
        n = float(np.linalg.norm(r))
        if abs(n - 1.0) > UNIT_TOL:
            raise ValueError(f"orientation norm {n:.9f} not within {UNIT_TOL} of 1")
        t = float(self.theta)
        if not math.isfinite(t):
            raise ValueError("theta is not finite")
        # tolerance covers 9-significant-digit serialization of +-pi/2
        if abs(t) > THETA_MAX + UNIT_TOL:
            raise ValueError(f"theta {t} outside [-pi/2, pi/2]")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "orientation", r / n)
        object.__setattr__(self, "theta", clamp_theta(t))
        object.__setattr__(self, "s_q", _score(self.s_q))

    def with_score(self, s_q: float) -> "Grasp":
        """The same pose with score s_q. The pose arrays are shared, not normalised a second time,
        which could move the orientation's last bits."""
        out = copy.copy(self)
        object.__setattr__(out, "s_q", _score(s_q))
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
    falls back to (1, 0, 0), with a RuntimeWarning if `warn` is set.
    """
    r = np.asarray(r, dtype=float)
    x_ref = np.stack([r[..., 1], -r[..., 0], np.zeros(r.shape[:-1])], axis=-1)
    flat = (np.abs(r[..., 0]) < 1e-9) & (np.abs(r[..., 1]) < 1e-9)
    if np.any(flat):
        if warn:
            warnings.warn("grasp orientation is parallel to world Z; using X' = (1, 0, 0)", RuntimeWarning,
                          stacklevel=3)
        x_ref[flat] = (1.0, 0.0, 0.0)
    return x_ref / np.sqrt(np.vecdot(x_ref, x_ref))[..., None]


def grasp_frames(orientations: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Rotations (G, 3, 3) with columns (X_G, Y_G, Z_G) of G grasps.

    Takes unit closing axes (G, 3) and approach angles (G,) in
    [-pi/2, pi/2], as a Grasp holds them. The ground reference X' (see
    ground_reference) is rotated about Y_G = orientation by theta to give
    the approach axis X_G. A closing axis (anti)parallel to world Z warns
    and uses X' = (1, 0, 0). Each row is bitwise the same in any batch.
    """
    r = np.asarray(orientations, dtype=float).reshape(-1, 3)
    x_axis = rotate_about_axis(ground_reference(r, warn=True), r, np.asarray(thetas, dtype=float).reshape(-1))
    return np.stack([x_axis, r, _cross(x_axis, r)], axis=2)


def grasp_frame(g: Grasp) -> np.ndarray:
    """The (3, 3) rotation with columns (X_G, Y_G, Z_G) of one grasp: the one-row case of grasp_frames.

    It maps grasp-frame coordinates q to the world as R q + center, and world points p to the grasp
    frame as (p - center) @ R.
    """
    return grasp_frames(g.orientation[None], [g.theta])[0]


def vertical_score(g: Grasp | float) -> float:
    """Verticality of a grasp in [0, 1]: 0.5 + theta / pi.

    1 means approaching straight down (theta = pi/2), 0 means parallel to
    the platform plane (theta = -pi/2). Accepts a Grasp or a bare theta.
    """
    theta = g.theta if isinstance(g, Grasp) else float(g)
    if abs(theta) > THETA_MAX + 1e-12:
        raise ValueError(f"theta {theta} outside [-pi/2, pi/2]")
    return 0.5 + theta / math.pi
