"""Anchor orientations and label/residual coding for proposal regression.

A grasp is predicted relative to a small set of reference orientations
(anchors) spread over the unit sphere. Per ground-truth grasp, the anchor
with the minimum angle to the grasp orientation is the positive class when
that angle is below the positive threshold; anchors beyond the negative
threshold are negatives and everything else is ignored. The positive
anchor carries residual targets; decoding a residual block recovers the
grasp exactly.

Refinement labels compare a proposal against the ground truth: positive
when center, orientation, and approach angle are all within the tight
thresholds; negative when any exceeds the loose ones; otherwise ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .core import Grasp, GraspRowError, clamp_theta, grasps_from_arrays

POSITIVE, NEGATIVE, IGNORE = 1, 0, -1

ANGLE_POS = 5.0 * math.pi / 12.0   # min-angle anchor is positive below this
ANGLE_NEG = 2.0 * math.pi / 3.0    # anchors at or beyond this are negative
CENTER_BALANCE = 0.1               # c_b: divides center residuals

REFINE_D1 = 0.015
REFINE_D2 = 0.020
REFINE_BETA1 = math.pi / 4.0
REFINE_BETA2 = math.pi / 3.0
REFINE_GAMMA1 = math.pi / 4.0
REFINE_GAMMA2 = math.pi / 3.0

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "IGNORE",
    "ANGLE_POS",
    "ANGLE_NEG",
    "CENTER_BALANCE",
    "AnchorSet",
    "AnchorLabel",
    "RefineLabel",
    "anchor_set",
    "assign_anchor_labels",
    "encode_residuals",
    "decode_proposal",
    "assign_refine_labels",
]


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """M unit reference orientations."""

    directions: np.ndarray  # (M, 3)

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float).reshape(-1, 3)
        norms = np.linalg.norm(d, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("anchor directions must be unit length")
        for i, j in sorted(cKDTree(d).query_pairs(2e-9)):  # a superset of the pairs the exact test finds
            if np.linalg.norm(d[i] - d[j]) < 1e-9:
                raise ValueError(f"anchor directions {i} and {j} coincide")
        object.__setattr__(self, "directions", d)

    def __len__(self) -> int:
        return self.directions.shape[0]


def _block(res_c: np.ndarray, res_r: np.ndarray, theta: float, s_q: float) -> np.ndarray:
    """A residual block: the read-only (8,) regression targets res_c(3), res_r(3), theta, s_q; (n, 8) for (n, 3) res_c.

    For anchor labels: res_c = (center - p_p)/c_b, res_r = r - r_anchor,
    and theta / s_q are the ground truth's own values. For refine labels
    the same slots hold the four residuals gt - proposal (center residual
    still divided by c_b).
    """
    block = np.empty(np.shape(res_c)[:-1] + (8,))
    block[..., :3], block[..., 3:6], block[..., 6], block[..., 7] = res_c, res_r, theta, s_q
    block.flags.writeable = False
    return block


@dataclass(frozen=True, eq=False)
class AnchorLabel:
    """Per-anchor classes plus the positive anchor's residual block."""

    classes: np.ndarray                 # (M,) in {POSITIVE, NEGATIVE, IGNORE}
    positive_index: int | None          # nearest, when it is close enough to be positive
    residuals: np.ndarray | None        # (8,) residual block, (n, 8) for n positive points
    nearest: int                        # the minimum-angle anchor, lowest index on ties


@dataclass(frozen=True, eq=False)
class RefineLabel:
    y: int                              # POSITIVE, NEGATIVE or IGNORE
    residuals: np.ndarray | None        # (8,) residual block


_TETRAHEDRON = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / math.sqrt(3.0)


def anchor_set(m: int = 4) -> AnchorSet:
    """M reference orientations: the regular tetrahedron for M=4, a
    Fibonacci sphere otherwise."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return AnchorSet(np.array([[0.0, 0.0, 1.0]]))
    if m == 4:
        return AnchorSet(_TETRAHEDRON.copy())
    i = np.arange(m)
    z = 1.0 - (2.0 * i + 1.0) / m
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    d = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return AnchorSet(d)


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    c = float(u @ v) / (float(np.linalg.norm(u)) * float(np.linalg.norm(v)))
    return math.acos(min(1.0, max(-1.0, c)))


def assign_anchor_labels(
    gt: Grasp,
    anchors: AnchorSet,
    angle_pos: float = ANGLE_POS,
    angle_neg: float = ANGLE_NEG,
) -> AnchorLabel:
    """Classify each anchor against a ground-truth orientation.

    Only the minimum-angle anchor can be positive (ties break toward the
    lowest index); it gets res_r and the direct targets gt.theta, gt.s_q.
    res_c stays zero until encode_residuals supplies the positive point.
    """
    if angle_pos > angle_neg:
        raise ValueError("angle_pos must not exceed angle_neg")
    dirs = anchors.directions
    cosines = np.clip(dirs @ gt.orientation, -1.0, 1.0)
    angles = np.arccos(cosines)
    classes = np.full(len(anchors), IGNORE, dtype=np.int8)
    classes[angles >= angle_neg] = NEGATIVE
    best = int(np.argmin(angles))
    if angles[best] < angle_pos:
        classes[best] = POSITIVE
        return AnchorLabel(classes, best, _block(np.zeros(3), gt.orientation - dirs[best], gt.theta, gt.s_q), best)
    return AnchorLabel(classes, None, None, best)


def encode_residuals(
    gt: Grasp,
    positive_point: np.ndarray,
    anchor_dir: np.ndarray,
    c_b: float = CENTER_BALANCE,
) -> np.ndarray:
    """Residual block of gt against (positive point, anchor), s_q = gt.s_q; (n, 3) points give (n, 8) blocks."""
    if c_b <= 0.0:
        raise ValueError("c_b must be positive")
    a = np.asarray(anchor_dir, dtype=float).reshape(3)
    a = a / np.linalg.norm(a)
    return _block((gt.center - np.asarray(positive_point, dtype=float)) / c_b, gt.orientation - a, gt.theta, gt.s_q)


def complete_label(
    label: AnchorLabel,
    gt: Grasp,
    anchors: AnchorSet,
    positive_point: np.ndarray,
    c_b: float = CENTER_BALANCE,
) -> AnchorLabel:
    """Fill res_c of a positive label once the positive point is known; (n, 3) points give (n, 8) residuals."""
    if label.positive_index is None:
        return label
    block = encode_residuals(gt, positive_point, anchors.directions[label.positive_index], c_b)
    return replace(label, residuals=block)


def decode_proposal(
    block: np.ndarray,
    positive_point: np.ndarray,
    anchor_dir: np.ndarray,
    c_b: float = CENTER_BALANCE,
) -> Grasp | list[Grasp]:
    """Invert encode_residuals: center = res_c * c_b + p_p, orientation = normalize(res_r + anchor), theta
    clamped to its range; s_q is not read. (n, 8) blocks at (n, 3) points give n grasps in one table."""
    rows, p, a = (np.asarray(x, float).reshape(-1, w) for x, w in ((block, 8), (positive_point, 3), (anchor_dir, 3)))
    r = rows[:, 3:6] + a / np.sqrt(np.vecdot(a, a))[:, None]  # the bits of np.linalg.norm of one vector
    norm = np.sqrt(np.vecdot(r, r))[:, None]
    if (norm < 1e-9).any():  # raised as GraspRowError, which names the row
        raise GraspRowError(int(np.argmax(norm < 1e-9)), "res_r + anchor_dir is degenerate (near zero vector)")
    grasps = grasps_from_arrays(rows[:, :3] * c_b + p, r / norm, clamp_theta(rows[:, 6]))
    return grasps if np.ndim(block) == 2 else grasps[0]


def assign_refine_labels(
    gt: Grasp,
    proposal: Grasp,
    d1: float = REFINE_D1,
    d2: float = REFINE_D2,
    beta1: float = REFINE_BETA1,
    beta2: float = REFINE_BETA2,
    gamma1: float = REFINE_GAMMA1,
    gamma2: float = REFINE_GAMMA2,
    c_b: float = CENTER_BALANCE,
) -> RefineLabel:
    """Label a proposal against the ground truth and fill residuals if positive.

    Positive requires all of center distance < d1, orientation angle < beta1
    and |theta difference| < gamma1; negative requires any of the loose
    bounds d2 / beta2 / gamma2 to be crossed; everything between is ignored.
    Residuals are gt - proposal, so the quality residual is gt.s_q - proposal.s_q.
    """
    if not (d1 < d2 and beta1 < beta2 and gamma1 < gamma2):
        raise ValueError("tight thresholds must be below loose thresholds")
    dc = float(np.linalg.norm(gt.center - proposal.center))
    dr = _angle(gt.orientation, proposal.orientation)
    dt = abs(gt.theta - proposal.theta)
    if dc < d1 and dr < beta1 and dt < gamma1:
        block = _block((gt.center - proposal.center) / c_b, gt.orientation - proposal.orientation,
                       gt.theta - proposal.theta, gt.s_q - proposal.s_q)
        return RefineLabel(POSITIVE, block)
    if dc > d2 or dr >= beta2 or dt >= gamma2:
        return RefineLabel(NEGATIVE, None)
    return RefineLabel(IGNORE, None)
