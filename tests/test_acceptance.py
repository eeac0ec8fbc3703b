"""Acceptance suite: every closed-form quantity and property gate, one
pass/fail line per criterion (run with -s to see them all).

Tolerances are pinned here; the independent oracles live in conftest or
inline (plain-python double loops, finite differences, analytic shapes).
"""

import itertools
import math
import time

import numpy as np
import pytest

from grasplab import (
    Grasp,
    GripperParams,
    PointCloud,
    anchor_set,
    antipodal_score,
    check_collision,
    coverage_rate,
    encode_residuals,
    decode_proposal,
    estimate_normals,
    evaluate,
    filter_collision_free,
    find_contacts,
    fit_linear,
    fit_sigmoid,
    grasp_frame,
    grasp_probability,
    gradient_check,
    pearson,
    point_confidence,
    sample_candidates,
    width_fit,
)
from grasplab.losses import _losscheck_cases
from grasplab.sampling import SamplerConfig
from conftest import oracle_collision, random_sphere_cloud

DATASET_WIDTHS = (0.06, 0.08, 0.10, 0.12)


def _report(criterion: int, ok: bool, elapsed: float, limit: float, desc: str):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {criterion}] {status} ({elapsed:.2f}s / limit {limit:.0f}s): {desc}")
    assert ok, f"criterion {criterion} failed: {desc}"
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_policy_formula():
    t0 = time.perf_counter()
    ok = abs(grasp_probability(1.0, 1.0) - 0.80405) <= 1e-4
    for s_q in np.linspace(0.0, 1.0, 101):
        expected = (0.8783 * float(s_q) - 0.0587) / 2.0
        ok &= abs(grasp_probability(float(s_q), 0.6103) - expected) <= 1e-12
    _report(1, ok, time.perf_counter() - t0, 1.0,
            "success-probability formula value and sigmoid midpoint identity")


def test_criterion_2_confidence_scalars():
    t0 = time.perf_counter()
    cloud = PointCloud(np.zeros((1, 3)))
    g_at = lambda c: Grasp(c, (0, 1, 0), 0.0)
    coincident = point_confidence(cloud, [g_at((0, 0, 0))], d_th=0.01).values[0]
    two = point_confidence(
        cloud, [g_at((0.005, 0, 0)), g_at((0, 0.002, 0))], d_th=0.01
    ).values[0]
    beyond = point_confidence(cloud, [g_at((0.010001, 0, 0))], d_th=0.01).values[0]
    ok = (
        abs(coincident - math.tanh(1.0)) <= 1e-6
        and abs(two - math.tanh(1.3)) <= 1e-6
        and beyond == 0.0
    )
    _report(2, ok, time.perf_counter() - t0, 1.0,
            "confidence field scalars tanh(1), tanh(1.3), zero beyond threshold")


def test_criterion_3_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    # 40 rounds of 4 scalar configs, then the first 20 of the grn + rn pairs
    for _name, fn, x0 in itertools.islice(_losscheck_cases(np.random.default_rng(2024), trials=40), 200):
        worst = max(worst, gradient_check(fn, x0))
        count += 1
    ok = count == 200 and worst < 1e-5
    _report(3, ok, time.perf_counter() - t0, 10.0,
            f"all losses pass finite-difference checks at 200 configs (max err {worst:.2e})")


def test_criterion_4_encode_decode_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    anchors = anchor_set(4)
    worst_c = worst_r = 0.0
    for _ in range(10_000):
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        gt = Grasp(rng.uniform(-1, 1, 3), r, float(rng.uniform(-math.pi / 2, math.pi / 2)))
        p_p = rng.uniform(-1, 1, 3)
        a = anchors.directions[int(rng.integers(0, 4))]
        block = encode_residuals(gt, p_p, a)
        back = decode_proposal(block, p_p, a)
        worst_c = max(worst_c, float(np.abs(back.center - gt.center).max()))
        worst_r = max(worst_r, float(np.abs(back.orientation - gt.orientation).max()))
    ok = worst_c < 1e-12 and worst_r < 1e-9
    _report(4, ok, time.perf_counter() - t0, 5.0,
            f"10^4 encode/decode round trips (center {worst_c:.1e} m, orientation {worst_r:.1e})")


def test_criterion_5_collision_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    collisions = 0
    for _ in range(1000):
        cloud = PointCloud(rng.uniform(-0.15, 0.15, size=(40, 3)))
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        g = Grasp(rng.uniform(-0.1, 0.1, 3), r, float(rng.uniform(-math.pi / 2, math.pi / 2)))
        s = GripperParams(
            float(rng.uniform(0.04, 0.08)),
            float(rng.choice(DATASET_WIDTHS)),
            float(rng.uniform(0.02, 0.06)),
            float(rng.uniform(0.005, 0.02)),
        )
        expected = oracle_collision(
            cloud.points.tolist(), g.center, g.orientation, g.theta,
            s.depth, s.width, s.height, s.thickness,
        )
        collisions += expected
        ok &= check_collision(cloud, g, s) == expected
    ok &= 0 < collisions < 1000
    _report(5, ok, time.perf_counter() - t0, 30.0,
            f"accelerated collision check matches naive scan on 10^3 triples ({collisions} hits)")


def test_criterion_6_coverage_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        n_gt, n_pred = int(rng.integers(1, 25)), int(rng.integers(1, 15))
        gt = [Grasp(rng.uniform(-0.1, 0.1, 3), (0, 1, 0), 0.0) for _ in range(n_gt)]
        pred = [Grasp(rng.uniform(-0.1, 0.1, 3), (0, 1, 0), 0.0) for _ in range(n_pred)]
        covered = sum(
            1 for g in gt
            if any(math.dist(g.center, p.center) <= 0.02 for p in pred)
        )
        ok &= coverage_rate(pred, gt) == pytest.approx(covered / n_gt, abs=1e-15)
    hand_gt = [Grasp((0, 0, 0), (0, 1, 0), 0.0), Grasp((1, 0, 0), (0, 1, 0), 0.0)]
    hand_pred = [Grasp((0.015, 0, 0), (0, 1, 0), 0.0)]
    ok &= coverage_rate(hand_pred, hand_gt) == 0.5
    _report(6, ok, time.perf_counter() - t0, 5.0,
            "coverage rate matches the O(P*G) double loop and the hand case")


def test_criterion_7_fitting_recovery():
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 50)
    sig = fit_sigmoid(x, 1.0 / (1.0 + np.exp(-10.1244 * (x - 0.6103))))
    lin = fit_linear(x, 0.8783 * x - 0.0587)
    ok = (
        abs(sig.a - 10.1244) < 1e-6
        and abs(sig.b - 0.6103) < 1e-6
        and abs(lin.slope - 0.8783) < 1e-12
        and abs(lin.intercept + 0.0587) < 1e-12
        and abs(pearson(x, 2 * x + 3) - 1.0) <= 1e-12
    )
    _report(7, ok, time.perf_counter() - t0, 2.0,
            "sigmoid/linear parameter recovery and perfect correlation")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_8_sphere_end_to_end():
    t0 = time.perf_counter()
    radius = 0.045  # sphere of diameter 0.09 m
    cloud = random_sphere_cloud(radius, 4000, seed=0)
    normals, valid = estimate_normals(cloud, k=16)
    scene = cloud.with_normals(normals)
    gripper = GripperParams(0.06, 0.10, 0.02, 0.005)
    cfg = SamplerConfig(
        n_centers=20, n_orientation_perturbations=2, n_angle_perturbations=3, rng_seed=3
    )
    free = filter_collision_free(sample_candidates(scene, gripper, cfg), scene, gripper)
    scored = []
    for g in free:
        pair = find_contacts(scene, g, gripper)
        scored.append(g.with_score(antipodal_score(pair, g) if pair else 0.0))

    def approach_axis_distance_to_center(g):
        x_axis = grasp_frame(g)[:, 0]
        d = -g.center  # sphere center is the world origin
        return float(np.linalg.norm(d - (d @ x_axis) * x_axis))

    axis_scores = [
        g.s_q for g in scored if approach_axis_distance_to_center(g) < 0.002
    ]
    report = evaluate(scored, scene, scored, gripper)

    centered = Grasp((0, 0, 0), (0, 1, 0), math.pi / 2)
    pair = find_contacts(scene, centered, gripper)
    fits_006 = width_fit(pair, GripperParams(0.06, 0.06, 0.02, 0.005))
    fits_010 = width_fit(pair, GripperParams(0.06, 0.10, 0.02, 0.005))

    ok = (
        bool(valid.all())
        and len(axis_scores) > 0
        and min(axis_scores) >= 0.95
        and report.cfr == 1.0
        and not fits_006
        and fits_010
    )
    _report(8, ok, time.perf_counter() - t0, 60.0,
            f"sphere pipeline: {len(axis_scores)} axis-through-center grasps >= 0.95, "
            f"CFR {report.cfr}, width feasibility 0.06 no / 0.10 yes")


def test_criterion_9_cli_determinism(tmp_path):
    from test_cli import run_pipeline, write_inputs

    t0 = time.perf_counter()
    write_inputs(tmp_path)
    files_a = run_pipeline(tmp_path, tmp_path / "a")
    files_b = run_pipeline(tmp_path, tmp_path / "b")
    ok = len(files_a) == len(files_b) > 0
    for pa, pb in zip(files_a, files_b):
        ok &= pa.read_bytes() == pb.read_bytes()
    _report(9, ok, time.perf_counter() - t0, 60.0,
            f"{len(files_a)} CLI output files byte-identical across re-runs")
