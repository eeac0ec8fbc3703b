"""Surface normals, Darboux frames, grasp candidate generation, and point-set queries.

Normal estimation is PCA over k nearest neighbors, run over fixed blocks
of rows so that its temporaries do not grow with the cloud; normals are
oriented toward a viewpoint (default: a camera far above the scene on
+Z). The Darboux frame at a point pairs that normal with the two principal
directions of the neighborhood restricted to the tangent plane.
Candidate generation takes the frames of all its seed points as arrays
from one KD-tree query; only darboux_frame builds a DarbouxFrame.

Candidate grasps are seeded at random surface points: the approach axis
points along -normal into the surface, the closing axis starts along the
major principal direction, and a deterministic grid of spin / approach
perturbations is emitted around that base pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grasp, GripperParams, PointCloud, _cross, clamp_theta, ground_reference, rotate_about_axis

DEFAULT_VIEWPOINT = np.array([0.0, 0.0, 10.0])
_NORMALS_BLOCK = 4096  # rows per PCA call in estimate_normals; bounds its (rows, k, 3) neighbourhoods

__all__ = [
    "EmptyRegionError",
    "DarbouxFrame",
    "SamplerConfig",
    "estimate_normals",
    "darboux_frame",
    "sample_candidates",
    "ball_query",
    "resize_indices",
]


class EmptyRegionError(ValueError):
    """A spatial query found no points where at least one was required."""


@dataclass(frozen=True, eq=False)
class DarbouxFrame:
    """Surface frame at a point: normal plus principal curvature directions."""

    point: np.ndarray
    normal: np.ndarray
    major: np.ndarray
    minor: np.ndarray


@dataclass(frozen=True)
class SamplerConfig:
    """Grasp candidate generation settings.

    Per seed point, candidates are the cartesian product of
    n_orientation_perturbations spins of the closing axis about the
    approach and n_angle_perturbations approach-angle offsets spanning
    [-angle_range, +angle_range]. k_neighbors sizes the PCA neighborhood.
    """

    n_centers: int = 1
    n_orientation_perturbations: int = 1
    n_angle_perturbations: int = 1
    angle_range: float = math.pi / 6
    rng_seed: int = 0
    k_neighbors: int = 16

    def __post_init__(self):
        for name in ("n_centers", "n_orientation_perturbations", "n_angle_perturbations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.angle_range <= math.pi / 2:
            raise ValueError("angle_range must be in (0, pi/2]")
        if self.k_neighbors < 4:
            raise ValueError("k_neighbors must be >= 4")


# ---------------------------------------------------------------------------
# Normals and Darboux frames
# ---------------------------------------------------------------------------

def _pca(cloud: PointCloud, index, k: int, viewpoint: np.ndarray):
    """PCA of the k-nearest-neighbour covariance at the cloud points `index`, in one tree query.

    Returns (normals (n, 3): smallest-eigenvalue eigenvectors facing `viewpoint`, not renormalized;
    eigenvectors (n, 3, 3) as columns, eigenvalues ascending; valid (n,) bool, False where the
    neighbourhood is rank-deficient (< 2, e.g. collinear)).
    """
    p = cloud.points[index]
    _, idx = cloud.tree.query(p, k=k)
    nbrs = cloud.points[idx]                         # (n, k, 3)
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    eigvals, eigvecs = np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered) / k)
    normals = eigvecs[:, :, 0]
    # rank < 2 <=> middle eigenvalue vanishes relative to the spread
    valid = eigvals[:, 1] > 1e-10 * np.maximum(eigvals[:, 2], 1e-300)
    flip = (normals @ np.asarray(viewpoint, dtype=float) - np.einsum("ni,ni->n", normals, p)) < 0.0
    return np.where(flip[:, None], -normals, normals), eigvecs, valid


def estimate_normals(
    cloud: PointCloud,
    k: int,
    viewpoint: np.ndarray = DEFAULT_VIEWPOINT,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point PCA normals oriented toward `viewpoint`.

    The normal at a point is the eigenvector of the smallest eigenvalue of
    its k-nearest-neighbor covariance. Points whose neighborhood is
    rank-deficient (< 2, e.g. collinear) are flagged invalid. The PCA runs
    over blocks of `_NORMALS_BLOCK` rows, so its temporaries do not grow
    with N.

    Returns (normals (N, 3), valid (N,) bool).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    n = len(cloud)
    if n < k:
        raise ValueError(f"cloud has {n} points, need at least k={k}")
    normals, valid = np.empty((n, 3)), np.empty(n, dtype=bool)
    for lo in range(0, n, _NORMALS_BLOCK):
        rows = slice(lo, lo + _NORMALS_BLOCK)
        normals[rows], _, valid[rows] = _pca(cloud, rows, k, viewpoint)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals, valid


def _darboux_frames(cloud: PointCloud, index: np.ndarray, k: int, viewpoint: np.ndarray):
    """Darboux frames at the cloud points `index` as (points, normals, majors, minors), each (n, 3).

    A rank-deficient neighbourhood is an error.
    """
    normals, eigvecs, valid = _pca(cloud, index, k, viewpoint)
    if not valid.all():
        raise ValueError(f"degenerate neighborhood at point {int(index[np.argmin(valid)])} (rank < 2)")
    # tangent directions: remaining eigenvectors, larger eigenvalue first, Gram-Schmidt against the normal
    major, minor = eigvecs[:, :, 2], eigvecs[:, :, 1]
    major = major - np.vecdot(major, normals)[:, None] * normals
    major /= np.sqrt(np.vecdot(major, major))[:, None]
    minor = minor - np.vecdot(minor, normals)[:, None] * normals - np.vecdot(minor, major)[:, None] * major
    minor /= np.sqrt(np.vecdot(minor, minor))[:, None]
    return cloud.points[index], normals, major, minor


def darboux_frame(
    cloud: PointCloud,
    index: int,
    k: int,
    viewpoint: np.ndarray = DEFAULT_VIEWPOINT,
) -> DarbouxFrame:
    """Darboux frame at cloud point `index` from its k-NN covariance.

    major/minor are the tangent-plane principal directions ordered by
    eigenvalue (major = larger spread), Gram-Schmidt orthonormalized
    against the normal.
    """
    if k < 4:
        raise ValueError("k must be >= 4")
    n = len(cloud)
    if not 0 <= index < n:
        raise IndexError(f"index {index} out of range for {n} points")
    if n < k:
        raise ValueError(f"cloud has {n} points, need at least k={k}")
    return DarbouxFrame(*(a[0] for a in _darboux_frames(cloud, np.array([index]), k, viewpoint)))


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------

def _approach_angles(r: np.ndarray, approach: np.ndarray) -> np.ndarray:
    """theta per row that rotates the ground reference of closing axis r onto `approach`, in (-pi, pi]."""
    x_ref = ground_reference(r)
    num, den = np.vecdot(_cross(x_ref, approach), r), np.vecdot(x_ref, approach)
    return np.array([math.atan2(y, x) for y, x in zip(num.tolist(), den.tolist())])


def _theta_for_approach(orientation: np.ndarray, approach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closing axes (possibly flipped) and thetas so each frame's X axis equals its `approach`.

    Takes (G, 3) rows, each approach perpendicular to its orientation. The
    closing axis is sign-symmetric for a parallel jaw, so it is flipped
    whenever that brings theta into [-pi/2, pi/2].
    """
    r = np.array(orientation, dtype=float)
    theta = _approach_angles(r, approach)
    flip = np.abs(theta) > math.pi / 2 + 1e-12
    if flip.any():
        r[flip] = -r[flip]
        theta[flip] = _approach_angles(r[flip], approach[flip])
    if np.any(np.abs(theta) > math.pi / 2 + 1e-12):
        raise RuntimeError("no valid approach angle found")  # unreachable for approach perpendicular to r
    return r, np.array([clamp_theta(t) for t in theta])


def sample_candidates(
    object_cloud: PointCloud,
    gripper: GripperParams,
    cfg: SamplerConfig,
    viewpoint: np.ndarray = DEFAULT_VIEWPOINT,
) -> list[Grasp]:
    """Darboux-frame-seeded grasp candidates on an object cloud.

    Picks cfg.n_centers random surface points (seeded) and aims the
    approach along -normal with the closing axis along the major
    direction. The hand is fully approached: the grasp center sits
    depth/2 past the surface point so the point rests against the palm
    side of the closing region (an axis through the center of a convex
    object then yields near-antipodal contacts). A deterministic grid of
    spin / approach-angle perturbations is emitted per seed point, so the
    candidate count is exactly
    n_centers * n_orientation_perturbations * n_angle_perturbations.
    """
    n = len(object_cloud)
    if n == 0:
        return []
    k = min(cfg.k_neighbors, n)
    if k < 4:
        raise ValueError("cloud too small for Darboux estimation (need >= 4 points)")
    rng = np.random.default_rng(cfg.rng_seed)
    centers = rng.choice(n, size=cfg.n_centers, replace=cfg.n_centers > n)

    n_spin = cfg.n_orientation_perturbations
    spins = np.arange(n_spin) * math.pi / n_spin
    if cfg.n_angle_perturbations == 1:
        offsets = np.array([0.0])
    else:
        offsets = np.linspace(-cfg.angle_range, cfg.angle_range, cfg.n_angle_perturbations)

    points, normals, majors, _ = _darboux_frames(object_cloud, centers, k, viewpoint)
    approach = -normals
    grasp_centers = points + (gripper.depth / 2.0) * approach
    # one row per (seed, spin), seed-major
    approach = np.repeat(approach, n_spin, axis=0)
    r = rotate_about_axis(np.repeat(majors, n_spin, axis=0), approach, np.tile(spins, len(points)))
    r /= np.sqrt(np.vecdot(r, r))[:, None]
    r, theta0 = _theta_for_approach(r, approach)
    return [Grasp(center, axis, clamp_theta(t + float(d)))
            for center, axis, t in zip(np.repeat(grasp_centers, n_spin, axis=0), r, theta0) for d in offsets]


# ---------------------------------------------------------------------------
# Point-set queries
# ---------------------------------------------------------------------------

def ball_query(
    cloud: PointCloud,
    center: np.ndarray,
    radius: float = 0.02,
    keep: int = 256,
    seed: int = 0,
) -> tuple[np.ndarray, bool]:
    """Indices of points within `radius` of `center`, resized to exactly `keep`.

    More than `keep` hits are subsampled without replacement; fewer are
    padded by sampling the hits with replacement (padded flag returned).
    Raises EmptyRegionError when the ball is empty. Queries go through the
    cloud's cached KD-tree, so repeated calls on one cloud build it once.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if keep < 1:
        raise ValueError("keep must be >= 1")
    center = np.asarray(center, dtype=float).reshape(3)
    hits = np.asarray(cloud.tree.query_ball_point(center, radius, return_sorted=True), dtype=int)
    if hits.size == 0:
        raise EmptyRegionError(f"no points within {radius} m of {center}")
    idx, padded = resize_indices(hits.size, keep, seed)
    return hits[idx], padded


def resize_indices(n: int, keep: int, seed: int) -> tuple[np.ndarray, bool]:
    """Exactly `keep` row indices into n >= 1 rows, and whether they were padded.

    More than `keep` rows are subsampled without replacement; fewer are all
    kept and padded by sampling them with replacement.
    """
    rng = np.random.default_rng(seed)
    if n > keep:
        return rng.choice(n, size=keep, replace=False), False
    if n < keep:
        return np.concatenate([np.arange(n), rng.choice(n, size=keep - n, replace=True)]), True
    return np.arange(n), False
