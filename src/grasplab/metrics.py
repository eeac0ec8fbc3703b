"""Evaluation metrics for a predicted grasp set against a scene.

The evaluation protocol pools the highest-scored candidates, drops those
colliding with the observed cloud, keeps the best `top` survivors, and
reports on that selection:

  cfr                collision-free ratio
  as_mean            mean antipodal score (no-contact grasps count as 0)
  as_with_collision  same mean with colliding grasps forced to 0
  tcr                fraction of ground-truth grasps whose center is
                     approached within the coverage radius (2 cm)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .collision import check_collision, filter_collision_free
from .contact import antipodal_score, find_contacts
from .core import Grasp, GripperParams, PointCloud
from .policy import ScoredGrasp

COVERAGE_RADIUS = 0.02

__all__ = [
    "COVERAGE_RADIUS",
    "EvalReport",
    "select_for_eval",
    "cfr",
    "antipodal_metrics",
    "coverage_rate",
    "evaluate",
]


@dataclass(frozen=True)
class EvalReport:
    cfr: float
    as_mean: float
    as_with_collision: float
    tcr: float
    n_selected: int


def select_for_eval(
    scored: list[ScoredGrasp],
    scene: PointCloud,
    s: GripperParams,
    pool: int = 1000,
    top: int = 100,
) -> list[ScoredGrasp]:
    """Top-`pool` by score, collision-filtered, then the best `top` survivors.

    Score ties keep input order, so the result is deterministic.
    """
    if not scored:
        raise ValueError("cannot evaluate an empty grasp list")
    if pool < 1 or top < 1:
        raise ValueError(f"pool and top must be >= 1, got pool={pool}, top={top}")
    if top > pool:
        raise ValueError("top must not exceed pool")
    order = np.argsort([-sg.s_q for sg in scored], kind="stable")
    pooled = [scored[i] for i in order[:pool]]
    free = {id(g) for g in filter_collision_free([sg.grasp for sg in pooled], scene, s)}
    return [sg for sg in pooled if id(sg.grasp) in free][:top]


def cfr(grasps: list[Grasp], scene: PointCloud, s: GripperParams) -> float:
    """Fraction of grasps that do not collide with the scene."""
    if not grasps:
        raise ValueError("cfr of an empty grasp list is undefined")
    free = sum(1 for g in grasps if not check_collision(scene, g, s))
    return free / len(grasps)


def antipodal_metrics(
    grasps: list[Grasp],
    scene: PointCloud,
    s: GripperParams,
) -> tuple[float, float]:
    """(as_mean, as_with_collision) over a fixed denominator of all grasps.

    Grasps without a contact pair score 0 in both; colliding grasps keep
    their raw score in as_mean but are zeroed in as_with_collision, so
    as_with_collision <= as_mean with equality iff nothing collides.
    """
    if not grasps:
        raise ValueError("antipodal metrics of an empty grasp list are undefined")
    raw = []
    zeroed = []
    for g in grasps:
        score = antipodal_score(find_contacts(scene, g, s), g)
        raw.append(score)
        zeroed.append(0.0 if check_collision(scene, g, s) else score)
    return float(np.mean(raw)), float(np.mean(zeroed))


def coverage_rate(
    predicted: list[Grasp],
    ground_truth: list[Grasp],
    radius: float = COVERAGE_RADIUS,
) -> float:
    """Fraction of ground-truth grasps with a predicted center within radius."""
    if not ground_truth:
        raise ValueError("coverage rate needs a non-empty ground-truth set")
    if not predicted:
        return 0.0
    tree = cKDTree(np.stack([g.center for g in predicted]))
    dists, _ = tree.query(np.stack([g.center for g in ground_truth]), k=1)
    return float(np.mean(dists <= radius))


def evaluate(
    scored: list[ScoredGrasp],
    scene: PointCloud,
    ground_truth: list[Grasp],
    s: GripperParams,
    pool: int = 1000,
    top: int = 100,
) -> EvalReport:
    """Full protocol: selection then all four metrics on the selected set."""
    selected = select_for_eval(scored, scene, s, pool=pool, top=top)
    if not selected:
        raise ValueError("no collision-free grasps survive selection; nothing to evaluate")
    grasps = [sg.grasp for sg in selected]
    as_mean, as_wc = antipodal_metrics(grasps, scene, s)
    return EvalReport(
        cfr=cfr(grasps, scene, s),
        as_mean=as_mean,
        as_with_collision=as_wc,
        tcr=coverage_rate(grasps, ground_truth, COVERAGE_RADIUS),
        n_selected=len(selected),
    )
