import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from grasplab import (
    ConfidenceField,
    Grasp,
    PointCloud,
    grasps_from_arrays,
    point_confidence,
    select_positive_points,
)
from grasplab import confidence
from conftest import oracle_point_confidence


def _grasp_at(center):
    return Grasp(center, (0, 1, 0), 0.0)


ORIGIN_CLOUD = PointCloud(np.array([[0.0, 0.0, 0.0]]))


class TestPointConfidence:
    def test_no_grasps_all_zero(self):
        field = point_confidence(PointCloud(np.zeros((5, 3))), [])
        np.testing.assert_array_equal(field.values, np.zeros(5))

    def test_coincident_grasp_scores_tanh_one(self):
        field = point_confidence(ORIGIN_CLOUD, [_grasp_at((0, 0, 0))], d_th=0.01)
        assert field.values[0] == pytest.approx(math.tanh(1.0), abs=1e-12)

    def test_two_grasps_sum_before_tanh(self):
        grasps = [_grasp_at((0.005, 0, 0)), _grasp_at((0, 0.002, 0))]
        field = point_confidence(ORIGIN_CLOUD, grasps, d_th=0.01)
        assert field.values[0] == pytest.approx(math.tanh(0.5 + 0.8), abs=1e-12)

    def test_grasp_at_threshold_contributes_nothing(self):
        field = point_confidence(ORIGIN_CLOUD, [_grasp_at((0.01, 0, 0))], d_th=0.01)
        assert field.values[0] == 0.0
        field = point_confidence(ORIGIN_CLOUD, [_grasp_at((0.5, 0, 0))], d_th=0.01)
        assert field.values[0] == 0.0

    def test_adding_a_grasp_never_decreases_confidence(self, rng):
        cloud = PointCloud(rng.uniform(-0.05, 0.05, size=(40, 3)))
        grasps = [_grasp_at(rng.uniform(-0.05, 0.05, size=3)) for _ in range(6)]
        prev = point_confidence(cloud, [], d_th=0.01).values
        for i in range(1, len(grasps) + 1):
            cur = point_confidence(cloud, grasps[:i], d_th=0.01).values
            assert np.all(cur >= prev - 1e-15)
            prev = cur

    def test_values_strictly_below_one(self, rng):
        cloud = PointCloud(np.zeros((1, 3)))
        grasps = [_grasp_at((0, 0, 0)) for _ in range(500)]
        field = point_confidence(cloud, grasps, d_th=0.01)
        assert field.values[0] < 1.0

    def test_zero_iff_no_center_within_threshold(self, rng):
        cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(50, 3)))
        grasps = [_grasp_at(rng.uniform(-0.1, 0.1, size=3)) for _ in range(8)]
        field = point_confidence(cloud, grasps, d_th=0.01)
        centers = np.stack([g.center for g in grasps])
        for i, p in enumerate(cloud.points):
            dmin = np.linalg.norm(centers - p, axis=1).min()
            assert (field.values[i] == 0.0) == (dmin >= 0.01)

    def test_field_depends_only_on_centers(self):
        cloud = PointCloud(np.zeros((1, 3)))
        narrow = [Grasp((0.004, 0, 0), (0, 1, 0), 0.2)]
        wide = [Grasp((0.004, 0, 0), (1, 0, 0), -0.4)]
        a = point_confidence(cloud, narrow)
        b = point_confidence(cloud, wide)
        np.testing.assert_array_equal(a.values, b.values)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            point_confidence(ORIGIN_CLOUD, [], d_th=0.0)


class TestGroupedSums:
    """The grouped sums against the per-point loop, bit for bit."""

    # clusters 1 m apart, each of `size` centers and `points` cloud points in cubes of half-side 1 mm
    # and 4 mm about its anchor, so at d_th = 1 cm every point of a cluster sees exactly its centers
    CLUSTERS = [(1, 50), (7, 50), (8, 50), (9, 8000), (12, 50), (40, 50)]

    @staticmethod
    def _scene(rng):
        centers, points = [], [rng.uniform(5.0, 6.0, size=(50, 3))]  # no center within reach
        for i, (size, n) in enumerate(TestGroupedSums.CLUSTERS):
            anchor = np.array([float(i), 0.0, 0.0])
            centers.append(anchor + rng.uniform(-1e-3, 1e-3, size=(size, 3)))
            points.append(anchor + rng.uniform(-4e-3, 4e-3, size=(n, 3)))
        # a shell of partial neighbourhoods around the largest cluster
        points.append(np.array([5.0, 0.0, 0.0]) + rng.uniform(-0.012, 0.012, size=(300, 3)))
        return PointCloud(np.vstack(points)), np.vstack(centers)

    def test_neighbour_counts_span_the_summation_blocks(self, rng):
        cloud, centers = self._scene(rng)
        counts = [len(idx) for idx in cKDTree(centers).query_ball_point(cloud.points, 0.01)]
        assert {0, 1, 7, 8, 9, 12, 40} <= set(counts)
        # the 9-neighbour group alone holds more pairs than one block
        assert 9 * counts.count(9) > confidence._BLOCK_PAIRS

    @pytest.mark.parametrize("d_th", [0.01, 0.004, 0.03])
    def test_bitwise_equal_to_per_point_loop(self, rng, d_th):
        cloud, centers = self._scene(rng)
        field = point_confidence(cloud, [_grasp_at(c) for c in centers], d_th=d_th)
        assert field.values.tobytes() == oracle_point_confidence(cloud, centers, d_th).values.tobytes()

    def test_block_size_does_not_change_a_bit(self, rng, monkeypatch):
        cloud, centers = self._scene(rng)
        grasps = [_grasp_at(c) for c in centers]
        whole = point_confidence(cloud, grasps, d_th=0.01).values
        monkeypatch.setattr(confidence, "_BLOCK_PAIRS", 5)  # one row a block from 3 neighbours on
        assert point_confidence(cloud, grasps, d_th=0.01).values.tobytes() == whole.tobytes()


class TestPairQuery:
    """The pairs of the blocked center query feed the grouped sums as a per-point ball query would."""

    @staticmethod
    def _scene(rng):
        """Points within 0.3 mm of three anchors; 12, 25 and 40 centers on shells of radius 9.5 mm about
        them, so at d_th = 1 cm each point sees all of its anchor's centers, each adding about 0.05."""
        points, centers = [], []
        for i, size in enumerate((12, 25, 40)):
            anchor = np.array([0.1 * i, 0.0, 0.0])
            shell = rng.normal(size=(size, 3))
            centers.append(anchor + 0.0095 * shell / np.linalg.norm(shell, axis=1, keepdims=True))
            points.append(anchor + rng.uniform(-3e-4, 3e-4, size=(200, 3)))
        return PointCloud(np.vstack(points)), np.vstack(centers)

    @pytest.fixture(autouse=True)
    def exact_sums(self, monkeypatch):
        # the sums themselves, scaled into [0, 1) by a power of two, stand in for tanh, which near 1
        # rounds most of their bits away; the library and the oracle both look tanh up on numpy
        monkeypatch.setattr(np, "tanh", lambda s: np.ldexp(s, -10))

    def test_counts_reach_the_pairwise_sum_across_center_blocks(self, rng):
        cloud, centers = self._scene(rng)
        counts = {len(idx) for idx in cKDTree(centers).query_ball_point(cloud.points, 0.01)}
        assert counts == {12, 25, 40}  # numpy sums more than 8 terms pairwise
        assert len(centers) > 4 * confidence._BLOCK_CENTERS  # each point's centers span blocks

    @pytest.mark.parametrize("block", [1, 5, 16, 10**6])
    def test_bitwise_equal_to_per_point_loop(self, rng, monkeypatch, block):
        cloud, centers = self._scene(rng)
        monkeypatch.setattr(confidence, "_BLOCK_CENTERS", block)
        field = point_confidence(cloud, [_grasp_at(c) for c in centers], d_th=0.01)
        want = oracle_point_confidence(cloud, centers, 0.01).values
        assert (want > 0.0).all()
        assert field.values.tobytes() == want.tobytes()


class TestWideKeys:
    def test_keys_past_int32_keep_their_point_and_center(self):
        # 65,538 points times 32,768 centers passes 2^31: the keys widen to 64 bits. Only the last point
        # and the last two centers are near the origin, so its keys are the largest the scene has
        points = np.vstack([np.linspace([10.0, 0.0, 0.0], [11.0, 0.0, 0.0], 65_537), [[0.0, 0.0, 0.0]]])
        centers = np.vstack([np.linspace([-11.0, 0.0, 0.0], [-10.0, 0.0, 0.0], 32_766),
                             [[0.002, 0.0, 0.0], [0.0, 0.005, 0.0]]])
        cloud = PointCloud(points)
        assert len(points) * len(centers) > 2**31
        grasps = grasps_from_arrays(centers, np.tile([0.0, 1.0, 0.0], (len(centers), 1)), np.zeros(len(centers)))
        field = point_confidence(cloud, grasps, d_th=0.01)
        assert np.flatnonzero(field.values).tolist() == [len(points) - 1]
        assert field.values.tobytes() == oracle_point_confidence(cloud, centers, 0.01).values.tobytes()
        assert field.values[-1] == pytest.approx(math.tanh(0.8 + 0.5), abs=1e-15)


class TestConfidenceField:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, 1.5])
    def test_out_of_range_or_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite and lie in"):
            ConfidenceField(np.array([bad, 0.5]), 0.01)


    @pytest.mark.parametrize("d_th", [math.inf, -math.inf, math.nan, 0.0, -0.01])
    def test_non_positive_or_non_finite_threshold_rejected(self, d_th):
        with pytest.raises(ValueError, match="d_th must be positive and finite"):
            ConfidenceField(np.array([0.5]), d_th)

    @pytest.mark.parametrize("width", [math.inf, -math.inf, math.nan, -0.01])
    def test_negative_or_non_finite_gripper_width_rejected(self, width):
        with pytest.raises(ValueError, match="gripper_width must be non-negative and finite"):
            ConfidenceField(np.array([0.5]), 0.01, width)


class TestSelectPositivePoints:
    def test_top_two(self):
        field = ConfidenceField(np.array([0.1, 0.9, 0.5]), d_th=0.01)
        np.testing.assert_array_equal(select_positive_points(field, 2), [1, 2])

    def test_all_equal_ties_break_by_index(self):
        field = ConfidenceField(np.array([0.3, 0.3, 0.3]), d_th=0.01)
        np.testing.assert_array_equal(select_positive_points(field, 3), [0, 1, 2])

    def test_matches_full_sort_oracle(self, rng):
        for _ in range(50):
            values = np.round(rng.uniform(0, 0.99, size=30), 2)  # force ties
            field = ConfidenceField(values, d_th=0.01)
            k1 = int(rng.integers(1, 31))
            got = select_positive_points(field, k1).tolist()
            expected = sorted(range(30), key=lambda i: (-values[i], i))[:k1]
            assert got == expected

    def test_k1_too_large_rejected(self):
        field = ConfidenceField(np.array([0.1]), d_th=0.01)
        with pytest.raises(ValueError):
            select_positive_points(field, 2)
