import numpy as np
import pytest

from grasplab import (
    Grasp,
    GripperParams,
    PointCloud,
    antipodal_metrics,
    cfr,
    coverage_rate,
    evaluate,
    filter_collision_free,
    select_for_eval,
)
from conftest import oracle_collision

GRIPPER = GripperParams(0.06, 0.06, 0.04, 0.01)


def worksheet_scene():
    """Hand-constructed scene: a pinch pair at the origin, a second pinch
    pair at x=0.2 with a point lodged inside that grasp's +Y finger."""
    pts = np.array(
        [
            [0.0, 0.02, 0.0],      # A: +Y contact of g_good
            [0.0, -0.02, 0.0],     # B: -Y contact of g_good
            [0.2, 0.02, 0.0],      # D: +Y contact of g_collide
            [0.2, -0.02, 0.0],     # E: -Y contact of g_collide
            [0.2, 0.035, 0.0],     # C: inside g_collide's +Y finger [0.03, 0.04]
        ]
    )
    normals = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0],
        ]
    )
    return PointCloud(pts, normals)


def worksheet_grasps():
    g_good = Grasp((0.0, 0.0, 0.0), (0, 1, 0), 0.0)      # contacts A/B, score 1, free
    g_collide = Grasp((0.2, 0.0, 0.0), (0, 1, 0), 0.0)   # contacts D/E, score 1, collides on C
    g_nothing = Grasp((0.0, 0.0, 1.0), (0, 1, 0), 0.0)   # empty closing region, free
    g_sideways = Grasp((0.0, 0.0, 0.0), (1, 0, 0), 0.0)  # A/B both at y=0 side, no pair, free
    return g_good, g_collide, g_nothing, g_sideways


class TestSelectForEval:
    def test_all_free_returned_in_score_order(self, rng):
        scene = PointCloud(np.zeros((0, 3)))
        scored = [
            Grasp(rng.uniform(-1, 1, 3), (0, 1, 0), 0.0, float(s))
            for s in rng.uniform(0, 1, 50)
        ]
        out = select_for_eval(scored, scene, GRIPPER, pool=1000, top=100)
        assert len(out) == 50
        scores = [g.s_q for g in out]
        assert scores == sorted(scores, reverse=True)

    def test_all_colliding_gives_empty(self):
        scene = worksheet_scene()
        g_collide = worksheet_grasps()[1]
        out = select_for_eval([g_collide.with_score(0.9)], scene, GRIPPER)
        assert out == []

    def test_matches_sort_filter_oracle(self, rng):
        scene = PointCloud(rng.uniform(-0.08, 0.08, size=(150, 3)))
        scored = []
        for _ in range(80):
            r = rng.normal(size=3)
            r /= np.linalg.norm(r)
            theta = float(rng.uniform(-1.5, 1.5))
            scored.append(Grasp(rng.uniform(-0.08, 0.08, 3), r, theta, float(rng.uniform(0, 1))))
        pool, top = 40, 10
        got = select_for_eval(scored, scene, GRIPPER, pool=pool, top=top)
        order = sorted(range(80), key=lambda i: (-scored[i].s_q, i))[:pool]
        dims = (GRIPPER.depth, GRIPPER.width, GRIPPER.height, GRIPPER.thickness)
        poses = [(g.center, g.orientation, g.theta) for g in scored]
        expect = [i for i in order if not oracle_collision(scene.points.tolist(), *poses[i], *dims)][:top]
        assert [id(g) for g in got] == [id(scored[i]) for i in expect]

    def test_survivors_are_the_input_objects_with_their_scores(self):
        scene = worksheet_scene()
        scored = [g.with_score(s) for g, s in zip(worksheet_grasps(), (0.9, 0.8, 0.7, 0.6))]
        free = filter_collision_free(scored, scene, GRIPPER)
        assert len(free) == 3 and all(a is b for a, b in zip(free, [scored[0], scored[2], scored[3]]))
        selected = select_for_eval(scored[::-1], scene, GRIPPER, pool=4, top=2)
        assert len(selected) == 2 and selected[0] is scored[0] and selected[1] is scored[2]
        assert [g.s_q for g in selected] == [0.9, 0.7]

    def test_top_cannot_exceed_pool(self):
        with pytest.raises(ValueError):
            select_for_eval([worksheet_grasps()[0].with_score(0.5)], worksheet_scene(), GRIPPER, pool=10, top=20)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            select_for_eval([], worksheet_scene(), GRIPPER)

    @pytest.mark.parametrize("pool,top", [(0, 0), (-3, 100), (10, 0), (10, -1)])
    def test_pool_and_top_below_one_rejected(self, pool, top):
        scored = [worksheet_grasps()[0].with_score(0.5)]
        with pytest.raises(ValueError, match="pool and top must be >= 1"):
            select_for_eval(scored, worksheet_scene(), GRIPPER, pool=pool, top=top)


class TestCfr:
    def test_ratio(self, rng):
        scene = worksheet_scene()
        g_good, g_collide, g_nothing, g_sideways = worksheet_grasps()
        grasps = [g_good] * 88 + [g_collide] * 12
        assert cfr(grasps, scene, GRIPPER) == pytest.approx(0.88)

    def test_empty_scene_gives_one(self):
        assert cfr([worksheet_grasps()[0]], PointCloud(np.zeros((0, 3))), GRIPPER) == 1.0

    def test_hand_count(self):
        scene = worksheet_scene()
        g_good, g_collide, g_nothing, g_sideways = worksheet_grasps()
        grasps = [g_good, g_collide, g_nothing, g_sideways]
        assert cfr(grasps, scene, GRIPPER) == pytest.approx(3.0 / 4.0)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            cfr([], worksheet_scene(), GRIPPER)


class TestAntipodalMetrics:
    def test_all_collision_free_values_equal(self):
        scene = worksheet_scene()
        g_good = worksheet_grasps()[0]
        as_mean, as_wc = antipodal_metrics([g_good, g_good], scene, GRIPPER)
        assert as_mean == as_wc == pytest.approx(1.0)

    def test_single_colliding_grasp_zeroed(self):
        scene = worksheet_scene()
        g_collide = worksheet_grasps()[1]
        as_mean, as_wc = antipodal_metrics([g_collide], scene, GRIPPER)
        assert as_mean == pytest.approx(1.0)  # raw contact score survives in as_mean
        assert as_wc == 0.0

    def test_mixed_four_grasp_hand_case(self):
        scene = worksheet_scene()
        grasps = list(worksheet_grasps())
        as_mean, as_wc = antipodal_metrics(grasps, scene, GRIPPER)
        assert as_mean == pytest.approx((1.0 + 1.0 + 0.0 + 0.0) / 4.0)
        assert as_wc == pytest.approx((1.0 + 0.0 + 0.0 + 0.0) / 4.0)
        assert as_wc <= as_mean

    def test_zeroing_never_raises_mean(self, rng):
        scene = worksheet_scene()
        grasps = [worksheet_grasps()[int(i)] for i in rng.integers(0, 4, size=12)]
        as_mean, as_wc = antipodal_metrics(grasps, scene, GRIPPER)
        assert as_wc <= as_mean + 1e-15


class TestCoverageRate:
    def test_hand_case(self):
        gt = [Grasp((0, 0, 0), (0, 1, 0), 0.0), Grasp((1, 0, 0), (0, 1, 0), 0.0)]
        pred = [Grasp((0.015, 0, 0), (0, 1, 0), 0.0)]
        assert coverage_rate(pred, gt, radius=0.02) == pytest.approx(0.5)

    def test_exact_prediction_full_coverage(self, rng):
        gt = [Grasp(rng.uniform(-1, 1, 3), (0, 1, 0), 0.0) for _ in range(10)]
        assert coverage_rate(list(gt), gt) == 1.0

    def test_matches_double_loop_oracle(self, rng):
        for _ in range(100):
            gt = [Grasp(rng.uniform(-0.1, 0.1, 3), (0, 1, 0), 0.0) for _ in range(15)]
            pred = [Grasp(rng.uniform(-0.1, 0.1, 3), (0, 1, 0), 0.0) for _ in range(8)]
            covered = 0
            for g in gt:
                for p in pred:
                    if float(np.linalg.norm(g.center - p.center)) <= 0.02:
                        covered += 1
                        break
            assert coverage_rate(pred, gt) == pytest.approx(covered / 15.0)

    def test_monotone_in_radius_and_predictions(self, rng):
        gt = [Grasp(rng.uniform(-0.1, 0.1, 3), (0, 1, 0), 0.0) for _ in range(20)]
        pred = [Grasp(rng.uniform(-0.1, 0.1, 3), (0, 1, 0), 0.0) for _ in range(10)]
        prev = 0.0
        for radius in (0.005, 0.01, 0.02, 0.05, 0.4):
            cur = coverage_rate(pred, gt, radius=radius)
            assert cur >= prev
            prev = cur
        assert coverage_rate(pred + pred[:3], gt) >= coverage_rate(pred, gt)

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            coverage_rate([], [])

    def test_a_center_exactly_at_the_radius_covers(self):
        """The 2 cm radius is inclusive: a prediction 0.02 m away along an axis covers, one a step further does not."""
        gt = [Grasp((0, 0, 0), (0, 1, 0), 0.0)]
        assert coverage_rate([Grasp((0.02, 0, 0), (0, 1, 0), 0.0)], gt) == 1.0
        assert coverage_rate([Grasp((np.nextafter(0.02, 1.0), 0, 0), (0, 1, 0), 0.0)], gt) == 0.0


class TestEvaluate:
    def test_identity_pipeline_sanity(self, rng):
        scene = worksheet_scene()
        g_good = worksheet_grasps()[0]
        scored = [g_good.with_score(0.9)]
        report = evaluate(scored, scene, [g_good], GRIPPER)
        assert report.cfr == 1.0
        assert report.tcr == 1.0

    def test_fields_match_individual_ops(self):
        scene = worksheet_scene()
        g_good, g_collide, g_nothing, g_sideways = worksheet_grasps()
        scored = [
            g_good.with_score(0.9),
            g_collide.with_score(0.8),
            g_nothing.with_score(0.7),
            g_sideways.with_score(0.6),
        ]
        gt = [g_good, Grasp((1.0, 0, 0), (0, 1, 0), 0.0)]
        report = evaluate(scored, scene, gt, GRIPPER)
        selected = select_for_eval(scored, scene, GRIPPER)
        as_mean, as_wc = antipodal_metrics(selected, scene, GRIPPER)
        assert report.n_selected == len(selected)
        assert report.cfr == cfr(selected, scene, GRIPPER)
        assert report.as_mean == as_mean
        assert report.as_with_collision == as_wc
        assert report.tcr == coverage_rate(selected, gt)

    def test_all_colliding_propagates_error(self):
        scene = worksheet_scene()
        g_collide = worksheet_grasps()[1]
        with pytest.raises(ValueError):
            evaluate([g_collide.with_score(0.9)], scene, [g_collide], GRIPPER)

    def test_hand_worksheet(self):
        # pool keeps all four; the colliding grasp drops out; the survivors
        # in score order are g_good (score 1), g_nothing (0), g_sideways (0)
        scene = worksheet_scene()
        g_good, g_collide, g_nothing, g_sideways = worksheet_grasps()
        scored = [
            g_good.with_score(0.9),
            g_collide.with_score(0.8),
            g_nothing.with_score(0.7),
            g_sideways.with_score(0.6),
        ]
        gt = [g_good, Grasp((1.0, 0, 0), (0, 1, 0), 0.0)]
        report = evaluate(scored, scene, gt, GRIPPER)
        assert report.n_selected == 3
        assert report.cfr == 1.0
        assert report.as_mean == pytest.approx(1.0 / 3.0)
        assert report.as_with_collision == pytest.approx(1.0 / 3.0)
        assert report.tcr == pytest.approx(0.5)
