"""Surface normals, Darboux frames, grasp candidate generation, and point-set queries.

Normal estimation is PCA over k nearest neighbors, run over fixed blocks
of rows so that its temporaries do not grow with the cloud; normals are
oriented toward a viewpoint (default: a camera far above the scene on
+Z). The Darboux frame at a point pairs that normal with the major
principal direction of the neighborhood restricted to the tangent plane.
Candidate generation takes the frames of all its seed points as arrays
from one KD-tree query.

Candidate grasps are seeded at random surface points: the approach axis
points along -normal into the surface, the closing axis starts along the
major principal direction, and a deterministic grid of spin / approach
perturbations is emitted around that base pose. A pose the grasp frame
cannot express (see core._theta_for_approach) names its seed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Grasp, GraspRowError, GripperParams, PointCloud, _theta_for_approach, clamp_theta,
                   grasps_from_arrays, rotate_about_axis)

DEFAULT_VIEWPOINT = np.array([0.0, 0.0, 10.0])
_NORMALS_BLOCK = 4096  # rows per PCA call in estimate_normals; bounds its (rows, k, 3) neighbourhoods

__all__ = [
    "EmptyRegionError",
    "SamplerConfig",
    "estimate_normals",
    "sample_candidates",
    "ball_query",
    "resize_indices",
]


class EmptyRegionError(ValueError):
    """A spatial query found no points where at least one was required."""


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

def _covariance(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(n, 3, 3) covariances of n neighbourhoods of k points, given coordinate-major as (k, n) x, y and z and
    centred in place. The mean and the six entries on and above the diagonal are sums over the k rows in order
    (Python's sum, one (n,) row at a time); an entry's sum starts from 0, as a per-point loop's would."""
    k, n = x.shape
    c = [np.subtract(a, sum(a[1:], a[0]) / k, out=a) for a in (x, y, z)]
    upper = np.array([sum(c[i] * c[j]) for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))])
    return (upper / k)[[0, 1, 2, 1, 3, 4, 2, 4, 5]].T.reshape(n, 3, 3)


def _pca(cloud: PointCloud, index, k: int, viewpoint: np.ndarray):
    """PCA of the k-nearest-neighbour covariance at the cloud points `index`, in one tree query.

    Returns (normals (n, 3): smallest-eigenvalue eigenvectors facing `viewpoint`, not renormalized;
    eigenvectors (n, 3, 3) as columns, eigenvalues ascending; valid (n,) bool, False where the
    neighbourhood is rank-deficient (< 2, e.g. collinear)).
    """
    p = cloud.points[index]
    nbrs = cloud.tree.query(p, k=k)[1].T
    eigvals, eigvecs = np.linalg.eigh(_covariance(*(cloud.points[:, a][nbrs] for a in range(3))))
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
    over blocks of `_NORMALS_BLOCK` nearby rows, in the tree's leaf order, so
    its temporaries do not grow with N.

    Returns (normals (N, 3), valid (N,) bool).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    n = len(cloud)
    if n < k:
        raise ValueError(f"cloud has {n} points, need at least k={k}")
    normals, valid = np.empty((n, 3)), np.empty(n, dtype=bool)
    for lo in range(0, n, _NORMALS_BLOCK):
        rows = cloud.tree.indices[lo:lo + _NORMALS_BLOCK]
        normals[rows], _, valid[rows] = _pca(cloud, rows, k, viewpoint)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals, valid


def _darboux_frames(cloud: PointCloud, index: np.ndarray, k: int, viewpoint: np.ndarray):
    """Darboux frames at the cloud points `index` as (normals, majors), each (n, 3).

    A rank-deficient neighbourhood is an error.
    """
    normals, eigvecs, valid = _pca(cloud, index, k, viewpoint)
    if not valid.all():
        raise ValueError(f"degenerate neighborhood at point {int(index[np.argmin(valid)])} (rank < 2)")
    # the major tangent direction: the largest-eigenvalue eigenvector, Gram-Schmidt against the normal
    major = eigvecs[:, :, 2]
    major = major - np.vecdot(major, normals)[:, None] * normals
    major /= np.sqrt(np.vecdot(major, major))[:, None]
    return normals, major


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------

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

    normals, majors = _darboux_frames(object_cloud, centers, k, viewpoint)
    approach = -normals
    grasp_centers = object_cloud.points[centers] + (gripper.depth / 2.0) * approach
    # one row per (seed, spin), seed-major
    approach = np.repeat(approach, n_spin, axis=0)
    r = rotate_about_axis(np.repeat(majors, n_spin, axis=0), approach, np.tile(spins, len(centers)))
    r /= np.sqrt(np.vecdot(r, r))[:, None]
    try:
        r, theta0 = _theta_for_approach(r, approach)
    except GraspRowError as exc:
        raise ValueError(f"seed point {int(centers[exc.row // n_spin])}: {exc}") from None
    return grasps_from_arrays(np.repeat(grasp_centers, n_spin * len(offsets), axis=0),
                              np.repeat(r, len(offsets), axis=0), clamp_theta((theta0[:, None] + offsets).ravel()))


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
    Raises EmptyRegionError when the ball is empty. The hits come from one
    `PointCloud.pairs` query, sorted.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if keep < 1:
        raise ValueError("keep must be >= 1")
    center = np.asarray(center, dtype=float).reshape(3)
    hits = np.sort(cloud.pairs(center[None], radius)[0])
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
