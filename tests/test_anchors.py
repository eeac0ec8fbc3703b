import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasplab import (
    Grasp,
    anchor_set,
    assign_anchor_labels,
    assign_refine_labels,
    decode_proposal,
    encode_residuals,
)
from grasplab.anchors import ANGLE_NEG, ANGLE_POS, IGNORE, NEGATIVE, POSITIVE, AnchorSet, complete_label
from conftest import oracle_anchor_coincidence



def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestAnchorSet:
    def test_tetrahedron_pairwise_angle(self):
        d = anchor_set(4).directions
        for i in range(4):
            for j in range(i + 1, 4):
                assert math.degrees(math.acos(d[i] @ d[j])) == pytest.approx(
                    math.degrees(math.acos(-1.0 / 3.0)), abs=1e-9
                )

    def test_single_anchor_points_up(self):
        np.testing.assert_allclose(anchor_set(1).directions, [[0, 0, 1.0]])

    @pytest.mark.parametrize("m", [1, 2, 4, 7, 16])
    def test_unit_length_and_distinct(self, m):
        d = anchor_set(m).directions
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
        for i in range(m):
            for j in range(i + 1, m):
                assert np.linalg.norm(d[i] - d[j]) > 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_coincidence_check_matches_the_double_loop(self, seed):
        # plant `seed` pairs among 200 directions: exact copies, and offsets just inside and just
        # outside the 1e-9 tolerance, which the tree query returns and the exact test must sort out
        rng = np.random.default_rng(seed)
        d = anchor_set(200).directions.copy()
        for _ in range(seed):
            i, j = rng.choice(len(d), 2, replace=False)
            offset = np.cross(d[i], [0.0, 0.0, 1.0] if abs(d[i, 2]) < 0.9 else [1.0, 0.0, 0.0])
            offset *= rng.choice([0.0, 0.6e-9, 0.99e-9, 1.01e-9, 1.5e-9]) / np.linalg.norm(offset)
            d[j] = (d[i] + offset) / np.linalg.norm(d[i] + offset)
        expected = oracle_anchor_coincidence(d)
        if expected is None:
            assert len(AnchorSet(d)) == len(d)
        else:
            with pytest.raises(ValueError, match=rf"^anchor directions {expected[0]} and {expected[1]} coincide$"):
                AnchorSet(d)

    def test_large_sets_build_in_one_query(self):
        assert len(anchor_set(5000)) == 5000


class TestAssignAnchorLabels:
    def test_exact_anchor_match_is_positive_with_zero_residual(self):
        anchors = anchor_set(4)
        gt = Grasp((0, 0, 0), anchors.directions[2], 0.1)
        label = assign_anchor_labels(gt, anchors)
        assert label.positive_index == 2
        assert label.classes[2] == POSITIVE
        np.testing.assert_allclose(label.residuals[3:6], np.zeros(3), atol=1e-12)
        assert label.residuals[6] == pytest.approx(0.1)

    def test_orientation_100_degrees_from_only_anchor_gets_no_positive(self):
        anchors = anchor_set(1)  # single anchor at +Z
        r = np.array([math.sin(math.radians(100)), 0.0, math.cos(math.radians(100))])
        label = assign_anchor_labels(Grasp((0, 0, 0), r, 0.0), anchors)
        assert label.positive_index is None
        assert label.classes[0] == IGNORE  # 100 deg sits between 75 and 120

    def test_tetrahedron_covers_every_orientation(self, rng):
        # covering radius of the tetrahedral set is ~70.5 deg < the 75 deg
        # positive threshold, so a positive anchor always exists for M=4
        anchors = anchor_set(4)
        for _ in range(500):
            r = _unit(rng.normal(size=3))
            assert assign_anchor_labels(Grasp((0, 0, 0), r, 0.0), anchors).positive_index is not None

    def test_exactly_one_positive_at_most(self, rng):
        anchors = anchor_set(4)
        for _ in range(300):
            r = _unit(rng.normal(size=3))
            label = assign_anchor_labels(Grasp((0, 0, 0), r, 0.0), anchors)
            assert int(np.sum(label.classes == POSITIVE)) <= 1
            if label.positive_index is not None:
                assert label.classes[label.positive_index] == POSITIVE

    def test_negative_beyond_loose_threshold(self):
        anchors = anchor_set(4)
        gt = Grasp((0, 0, 0), -anchors.directions[0], 0.0)  # 180 deg from anchor 0
        label = assign_anchor_labels(gt, anchors)
        assert label.classes[0] == NEGATIVE

    def test_default_thresholds(self):
        assert ANGLE_POS == pytest.approx(5 * math.pi / 12)
        assert ANGLE_NEG == pytest.approx(2 * math.pi / 3)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_nearest_anchor_is_the_largest_cosine(self, rng, m):
        # below m = 4 the nearest anchor can be too far to be positive; it is still the refine proposal's
        anchors = anchor_set(m)
        for _ in range(300):
            r = _unit(rng.normal(size=3))
            label = assign_anchor_labels(Grasp((0, 0, 0), r, 0.0), anchors)
            assert label.nearest == int(np.argmax(anchors.directions @ r))
            assert label.positive_index in (None, label.nearest)

    @pytest.mark.parametrize("directions,r,nearest,positive", [
        ([[0, 0, 1]], [1, 0, 0], 0, None),
        ([[1, 0, 0], [0, 1, 0]], [1, 1, 0], 0, 0),
        ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], [1, 1, 0], 1, 1),
        ([[1, 0, 0], [-1, 0, 0], [0, 0, 1]], [0, 1, 0], 0, None),
    ], ids=["m1-far", "m2-tie", "m3-tie", "m3-tie-far"])
    def test_nearest_anchor_ties_toward_the_lowest_index(self, directions, r, nearest, positive):
        label = assign_anchor_labels(Grasp((0, 0, 0), _unit(r), 0.0), AnchorSet(np.array(directions, float)))
        assert (label.nearest, label.positive_index) == (nearest, positive)

    def test_min_angle_anchor_is_threshold_free(self, rng):
        anchors = anchor_set(4)
        for _ in range(100):
            r = _unit(rng.normal(size=3))
            angles = np.arccos(np.clip(anchors.directions @ r, -1, 1))
            best = int(np.argmin(angles))
            lab_tight = assign_anchor_labels(Grasp((0, 0, 0), r, 0.0), anchors, angle_pos=math.pi / 2)
            lab_loose = assign_anchor_labels(
                Grasp((0, 0, 0), r, 0.0), anchors, angle_pos=math.pi, angle_neg=math.pi
            )
            if lab_tight.positive_index is not None:
                assert lab_tight.positive_index == best
            assert lab_loose.positive_index == best


class TestEncodeDecode:
    def test_zero_offsets(self):
        anchors = anchor_set(4)
        gt = Grasp((0.3, 0.2, 0.1), anchors.directions[1], 0.5)
        block = encode_residuals(gt, gt.center, anchors.directions[1])
        np.testing.assert_allclose(block[:3], np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(block[3:6], np.zeros(3), atol=1e-15)

    def test_center_scaling_example(self):
        gt = Grasp((0.01, 0.0, -0.02), (0, 1, 0), 0.0)
        block = encode_residuals(gt, np.zeros(3), (0, 1, 0), c_b=0.1)
        np.testing.assert_allclose(block[:3], [0.1, 0.0, -0.2], atol=1e-12)

    def test_zero_residuals_decode_to_anchor_pose(self):
        g = decode_proposal(np.zeros(8), (0.1, 0.2, 0.3), (0, 0, 1))
        np.testing.assert_allclose(g.center, [0.1, 0.2, 0.3])
        np.testing.assert_allclose(g.orientation, [0, 0, 1.0])

    def test_round_trip_random(self, rng):
        anchors = anchor_set(4)
        worst_c = worst_r = 0.0
        for _ in range(10_000):
            r = _unit(rng.normal(size=3))
            gt = Grasp(rng.uniform(-1, 1, 3), r, float(rng.uniform(-math.pi / 2, math.pi / 2)))
            p = rng.uniform(-1, 1, 3)
            a = anchors.directions[int(rng.integers(0, 4))]
            block = encode_residuals(gt, p, a)
            back = decode_proposal(block, p, a)
            worst_c = max(worst_c, float(np.abs(back.center - gt.center).max()))
            worst_r = max(worst_r, float(np.abs(back.orientation - gt.orientation).max()))
            assert back.theta == gt.theta
        assert worst_c < 1e-12
        assert worst_r < 1e-9

    def test_degenerate_decode_rejected(self):
        with pytest.raises(ValueError):
            decode_proposal([0, 0, 0, 0, 0, -1.0, 0, 0], np.zeros(3), (0, 0, 1.0))

    def test_decode_clamps_theta(self):
        g = decode_proposal([0, 0, 0, 0, 0, 0, 9.0, 0], np.zeros(3), (0, 0, 1))
        assert g.theta == pytest.approx(math.pi / 2)


class TestRefineLabels:
    GT = Grasp((0, 0, 0), (0, 1, 0), 0.2)

    def test_identical_proposal_positive_zero_residuals(self):
        label = assign_refine_labels(self.GT.with_score(0.4), self.GT.with_score(0.4))
        assert label.y == POSITIVE
        np.testing.assert_allclose(label.residuals, np.zeros(8), atol=1e-15)

    def test_center_offset_beyond_d2_negative(self):
        prop = Grasp((0.05, 0, 0), (0, 1, 0), 0.2)
        assert assign_refine_labels(self.GT, prop).y == NEGATIVE

    def test_center_offset_between_thresholds_ignored(self):
        prop = Grasp((0.017, 0, 0), (0, 1, 0), 0.2)
        assert assign_refine_labels(self.GT, prop).y == IGNORE

    def test_residual_center_uses_balance_constant(self):
        prop = Grasp((0.005, 0, 0), (0, 1, 0), 0.2)
        label = assign_refine_labels(self.GT, prop, c_b=0.1)
        np.testing.assert_allclose(label.residuals[:3], [-0.05, 0, 0], atol=1e-12)

    def test_partition_exhaustive_and_exclusive(self, rng):
        for _ in range(500):
            r = _unit(rng.normal(size=3))
            prop = Grasp(
                rng.uniform(-0.05, 0.05, 3), r, float(rng.uniform(-math.pi / 2, math.pi / 2))
            )
            label = assign_refine_labels(self.GT, prop)
            assert label.y in (POSITIVE, NEGATIVE, IGNORE)
            assert (label.residuals is not None) == (label.y == POSITIVE)

    def test_invariant_under_ground_preserving_motion(self, rng):
        for _ in range(100):
            r = _unit(rng.normal(size=3))
            prop = Grasp(rng.uniform(-0.03, 0.03, 3), r, 0.1)
            a = float(rng.uniform(0, 2 * math.pi))
            R = np.array(
                [[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1.0]]
            )
            t = rng.uniform(-1, 1, 3)
            gt2 = Grasp(R @ self.GT.center + t, R @ self.GT.orientation, self.GT.theta)
            prop2 = Grasp(R @ prop.center + t, R @ prop.orientation, prop.theta)
            assert assign_refine_labels(gt2, prop2).y == assign_refine_labels(self.GT, prop).y

    def test_bad_threshold_ordering_rejected(self):
        with pytest.raises(ValueError):
            assign_refine_labels(self.GT, self.GT, d1=0.03, d2=0.02)


class TestQualityComesFromTheGrasp:
    def test_complete_label_keeps_the_ground_truth_quality(self):
        anchors = anchor_set(4)
        g = Grasp((0.01, -0.02, 0.03), _unit((1, 2, 3)), 0.3, 0.7)
        label = complete_label(assign_anchor_labels(g, anchors), g, anchors, np.zeros(3))
        assert label.positive_index is not None
        assert label.residuals[7] == 0.7

    @settings(max_examples=200, deadline=None)
    @given(
        center=st.tuples(*[st.floats(-10, 10)] * 3),
        axis=st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: math.hypot(*v) > 0.1),
        theta=st.floats(-math.pi / 2, math.pi / 2),
        s_q=st.floats(0, 1),
    )
    def test_a_scored_grasp_against_itself_is_positive_with_zero_residuals(self, center, axis, theta, s_q):
        g = Grasp(center, _unit(axis), theta, s_q)
        label = assign_refine_labels(g, g)
        assert label.y == POSITIVE
        assert np.array_equal(label.residuals, np.zeros(8))
