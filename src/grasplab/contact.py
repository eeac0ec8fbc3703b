"""Contact extraction for a closing jaw pair and the antipodal quality score.

Contacts mimic rigid jaws closing symmetrically along the grasp frame Y
axis: within the closing region, the +Y jaw first touches the in-region
point with the largest Y coordinate and the -Y jaw the point with the
smallest; among points that share that Y, the one with the lowest cloud
index. The antipodal score is the product of unsigned cosines between
the closing axis and the two contact normals; 1 means perfectly opposed
surface normals (force closure in the frictionless sense), 0 means the
jaws land on faces parallel to the closing axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grasp, GripperParams, PointCloud, grasp_frame
from .collision import _closing_region

__all__ = ["ContactPair", "find_contacts", "antipodal_score", "width_fit"]


@dataclass(frozen=True, eq=False)
class ContactPair:
    """Two jaw contacts in world coordinates plus their closing-axis coordinates."""

    ci: np.ndarray
    cj: np.ndarray
    ni: np.ndarray
    nj: np.ndarray
    y_i: float  # grasp-frame Y of ci
    y_j: float  # grasp-frame Y of cj


def find_contacts(cloud: PointCloud, g: Grasp, s: GripperParams) -> ContactPair | None:
    """First-touch contact pair inside the closing region, or None.

    Returns None when either side of the closing plane is unoccupied; a
    cloud without normals is an error.
    """
    if cloud.normals is None:
        raise ValueError("find_contacts requires a cloud with normals")
    idx, q, inside = _closing_region(cloud, grasp_frame(g), g, s)
    idx, y = idx[inside], q[inside, 1]
    # each jaw touches the in-region extreme y on its side of y = 0 (none there: no pair); the rows come in
    # ascending cloud order, so the first occurrence of a tied extreme is the lowest cloud index
    if not (idx.size and y.max() >= 0.0 and y.min() < 0.0):
        return None
    a, b = np.argmax(y), np.argmin(y)
    i, j = idx[a], idx[b]
    return ContactPair(
        ci=cloud.points[i].copy(),
        cj=cloud.points[j].copy(),
        ni=cloud.normals[i].copy(),
        nj=cloud.normals[j].copy(),
        y_i=float(y[a]),
        y_j=float(y[b]),
    )


def antipodal_score(pair: ContactPair | None, g: Grasp) -> float:
    """Force-closure proxy |cos(r, ni)| * |cos(r, nj)| in [0, 1]; 0 without a contact pair.

    Unsigned cosines make the score independent of normal orientation
    (estimated normals may point inward or outward).
    """
    if pair is None:
        return 0.0
    r = g.orientation
    score = 1.0
    for n in (pair.ni, pair.nj):
        length = float(np.linalg.norm(n))
        if length < 1e-12:
            raise ValueError("contact normal has zero length")
        score *= abs(float(r @ n)) / length
    return min(score, 1.0)


def width_fit(pair: ContactPair, s: GripperParams) -> bool:
    """True iff the contact spread along the closing axis fits the opening W."""
    return abs(pair.y_i - pair.y_j) <= s.width
