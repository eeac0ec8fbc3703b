"""Surface normals, Darboux frames, grasp candidate generation, and point-set queries.

Normal estimation is PCA over k nearest neighbors; normals are oriented
toward a viewpoint (default: a camera far above the scene on +Z). The
Darboux frame at a point pairs that normal with the two principal
directions of the neighborhood restricted to the tangent plane.

Candidate grasps are seeded at random surface points: the approach axis
points along -normal into the surface, the closing axis starts along the
major principal direction, and a deterministic grid of spin / approach
perturbations is emitted around that base pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grasp, GripperParams, PointCloud, ground_reference, rotate_about_axis

DEFAULT_VIEWPOINT = np.array([0.0, 0.0, 10.0])

__all__ = [
    "EmptyRegionError",
    "DarbouxFrame",
    "SamplerConfig",
    "estimate_normals",
    "darboux_frame",
    "sample_candidates",
    "ball_query",
    "resize_indices",
    "farthest_point_sampling",
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

def _neighborhood_eig(points: np.ndarray, neighbor_idx: np.ndarray):
    """Eigen-decompose the covariance of each row's neighborhood.

    Returns (eigenvalues (n, 3) ascending, eigenvectors (n, 3, 3) as columns).
    """
    nbrs = points[neighbor_idx]                      # (n, k, 3)
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / nbrs.shape[1]
    return np.linalg.eigh(cov)


def estimate_normals(
    cloud: PointCloud,
    k: int,
    viewpoint: np.ndarray = DEFAULT_VIEWPOINT,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point PCA normals oriented toward `viewpoint`.

    The normal at a point is the eigenvector of the smallest eigenvalue of
    its k-nearest-neighbor covariance. Points whose neighborhood is
    rank-deficient (< 2, e.g. collinear) are flagged invalid.

    Returns (normals (N, 3), valid (N,) bool).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    n = len(cloud)
    if n < k:
        raise ValueError(f"cloud has {n} points, need at least k={k}")
    _, idx = cloud.tree.query(cloud.points, k=k)
    eigvals, eigvecs = _neighborhood_eig(cloud.points, idx)
    normals = eigvecs[:, :, 0]
    # rank < 2 <=> middle eigenvalue vanishes relative to the spread
    scale = np.maximum(eigvals[:, 2], 1e-300)
    valid = eigvals[:, 1] > 1e-10 * scale
    flip = (normals @ np.asarray(viewpoint, dtype=float) - np.einsum("ni,ni->n", normals, cloud.points)) < 0.0
    normals = np.where(flip[:, None], -normals, normals)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals, valid


def _darboux(cloud: PointCloud, index: int, k: int, viewpoint: np.ndarray) -> DarbouxFrame:
    p = cloud.points[index]
    _, idx = cloud.tree.query(p, k=k)
    eigvals, eigvecs = _neighborhood_eig(cloud.points, np.asarray(idx)[None, :])
    eigvals, eigvecs = eigvals[0], eigvecs[0]
    if eigvals[1] <= 1e-10 * max(eigvals[2], 1e-300):
        raise ValueError(f"degenerate neighborhood at point {index} (rank < 2)")
    normal = eigvecs[:, 0]
    vp = np.asarray(viewpoint, dtype=float)
    if float(normal @ (vp - p)) < 0.0:
        normal = -normal
    # tangent directions: remaining eigenvectors, larger eigenvalue first
    major, minor = eigvecs[:, 2], eigvecs[:, 1]
    major = major - (major @ normal) * normal
    major /= np.linalg.norm(major)
    minor = minor - (minor @ normal) * normal - (minor @ major) * major
    minor /= np.linalg.norm(minor)
    return DarbouxFrame(point=p.copy(), normal=normal, major=major, minor=minor)


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
    return _darboux(cloud, index, k, viewpoint)


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------

def _theta_for_approach(orientation: np.ndarray, approach: np.ndarray) -> tuple[np.ndarray, float]:
    """Closing axis (possibly flipped) and theta so the frame X axis equals `approach`.

    `approach` must be perpendicular to `orientation`. The closing axis is
    sign-symmetric for a parallel jaw, so it is flipped whenever that brings
    theta into [-pi/2, pi/2].
    """
    r = orientation
    for _ in range(2):
        x_ref = ground_reference(r)
        theta = math.atan2(float(np.cross(x_ref, approach) @ r), float(x_ref @ approach))
        if abs(theta) <= math.pi / 2 + 1e-12:
            return r, min(max(theta, -math.pi / 2), math.pi / 2)
        r = -r
    raise RuntimeError("no valid approach angle found")  # unreachable for approach perpendicular to r


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

    out: list[Grasp] = []
    for ci in centers:
        frame = _darboux(object_cloud, int(ci), k, viewpoint)
        approach = -frame.normal
        center = frame.point + (gripper.depth / 2.0) * approach
        for spin in spins:
            r = rotate_about_axis(frame.major, approach, float(spin))
            r /= np.linalg.norm(r)
            r, theta0 = _theta_for_approach(r, approach)
            for d in offsets:
                theta = min(max(theta0 + float(d), -math.pi / 2), math.pi / 2)
                out.append(Grasp(center, r, theta))
    return out


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
    hits = np.asarray(sorted(cloud.tree.query_ball_point(center, radius)), dtype=int)
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


def farthest_point_sampling(cloud: PointCloud, k: int, start_index: int = 0) -> np.ndarray:
    """Greedy max-min subsampling: each pick maximizes the distance to the
    already-selected set; ties break toward the lowest index."""
    n = len(cloud)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must be in [1, {n}]")
    if not 0 <= start_index < n:
        raise IndexError(f"start_index {start_index} out of range")
    pts = cloud.points
    selected = np.empty(k, dtype=int)
    selected[0] = start_index
    dists = np.linalg.norm(pts - pts[start_index], axis=1)
    dists[start_index] = -np.inf  # selected points can never be re-picked
    for i in range(1, k):
        nxt = int(np.argmax(dists))  # argmax returns the first (lowest-index) maximum
        selected[i] = nxt
        dists = np.minimum(dists, np.linalg.norm(pts - pts[nxt], axis=1))
        dists[nxt] = -np.inf
    return selected
