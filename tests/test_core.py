import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from grasplab.core import THETA_MAX, UNIT_TOL, GraspRowError, _theta_for_approach, clamp_theta
from grasplab import (
    Grasp,
    GripperParams,
    PointCloud,
    filter_collision_free,
    grasp_frame,
    grasp_frames,
    grasps_from_arrays,
    vertical_score,
)
from conftest import oracle_grasp, world_to_grasp


def _random_grasp(rng) -> Grasp:
    r = rng.normal(size=3)
    r /= np.linalg.norm(r)
    return Grasp(rng.uniform(-1, 1, size=3), r, rng.uniform(-math.pi / 2, math.pi / 2))


class TestTypes:
    def test_grasp_renormalizes_near_unit_orientation(self):
        g = Grasp((0, 0, 0), (0, 1 + 5e-7, 0), 0.0)
        assert np.linalg.norm(g.orientation) == pytest.approx(1.0, abs=1e-12)

    def test_grasp_rejects_bad_orientation(self):
        with pytest.raises(ValueError):
            Grasp((0, 0, 0), (0, 1.1, 0), 0.0)

    def test_grasp_rejects_theta_out_of_range(self):
        with pytest.raises(ValueError):
            Grasp((0, 0, 0), (0, 1, 0), 2.0)

    def test_gripper_params_must_be_positive(self):
        with pytest.raises(ValueError):
            GripperParams(0.06, -0.08, 0.04, 0.01)

    def test_cloud_length_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), normals=np.tile([0.0, 0.0, 1.0], (2, 1)))

    def test_cloud_rejects_non_unit_normals(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), normals=np.array([[0.0, 0.0, 0.5]]))

    def test_cloud_arrays_are_read_only_copies(self):
        pts = np.zeros((2, 3))
        normals = np.tile([0.0, 0.0, 1.0], (2, 1))
        cloud = PointCloud(pts, normals)
        for arr in (cloud.points, cloud.normals):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        pts[0, 0] = 1.0  # the caller's array stays writable and detached
        assert cloud.points[0, 0] == 0.0

    def test_cloud_tree_is_built_once_and_shared_by_with_normals(self):
        cloud = PointCloud(np.eye(3))
        tree = cloud.tree
        assert cloud.tree is tree
        assert cloud.with_normals(np.eye(3)).tree is tree


class TestPairs:
    """PointCloud.pairs, the one radius query, lists the pairs a per-point ball query finds, the radius
    included."""

    GRID = 2.0 ** -8

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("leg", [(0, 0, 1), (3, 4, 0), (5, 12, 0)])  # hypotenuses 1, 5 and 13
    def test_pairs_match_a_ball_query_per_point(self, seed, leg):
        # on the 2^-8 grid every coordinate difference is exact, so a point planted `leg` grid steps from a
        # center is exactly a radius away, and one a step further out is not within it
        rng = np.random.default_rng(seed)
        centers = rng.integers(-12, 13, size=(int(rng.integers(1, 20)), 3)) * self.GRID
        planted = centers[0] + np.array([leg, (0, *leg[:2]), np.add(leg, (1, 0, 0))]) * self.GRID
        points = np.vstack([rng.integers(-12, 13, size=(int(rng.integers(1, 400)), 3)) * self.GRID, planted])
        radius = math.hypot(*leg) * self.GRID
        point, center = PointCloud(points).pairs(centers, radius)
        got = sorted(zip(point.tolist(), center.tolist()))
        want = sorted((i, j) for i, js in enumerate(cKDTree(centers).query_ball_point(points, radius)) for j in js)
        assert got == want
        n = len(points)
        assert {(n - 3, 0), (n - 2, 0)} <= set(got) and (n - 1, 0) not in got

    def test_no_center_within_reach_gives_no_pairs(self):
        point, center = PointCloud(np.eye(3)).pairs(np.array([[5.0, 5.0, 5.0]]), 1.0)
        assert point.size == center.size == 0


class TestScore:
    @pytest.mark.parametrize("s_q", [-0.1, 1.5, math.nan])
    def test_out_of_range_score_rejected(self, s_q):
        message = re.escape(f"s_q {s_q} outside [0, 1]")
        with pytest.raises(ValueError, match=f"^{message}$"):
            Grasp((0, 0, 0), (0, 1, 0), 0.0, s_q)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Grasp((0, 0, 0), (0, 1, 0), 0.0).with_score(s_q)

    def test_with_score_keeps_the_pose_bitwise(self, rng):
        # closing axes as read_grasps reads them: 9 significant digits, normalised once
        r = rng.normal(size=(2000, 3))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        moved = 0
        for axis, theta in zip(r, rng.uniform(-math.pi / 2, math.pi / 2, size=2000)):
            g = Grasp(rng.uniform(-1, 1, size=3), [float(f"{v:.9g}") for v in axis], float(f"{theta:.9g}"), 0.5)
            h = g.with_score(0.25)
            assert (h.s_q, g.s_q) == (0.25, 0.5)
            assert h.center.tobytes() == g.center.tobytes()
            assert h.orientation.tobytes() == g.orientation.tobytes()
            assert h.theta == g.theta
            moved += Grasp(g.center, g.orientation, g.theta).orientation.tobytes() != g.orientation.tobytes()
        assert moved  # a copy that normalised the axis again would have changed these


class TestGraspFrame:
    def test_axis_example_theta_zero(self):
        R = grasp_frame(Grasp((0, 0, 0), (0, 1, 0), 0.0))
        np.testing.assert_allclose(R[:, 0], [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(R[:, 2], [0, 0, 1], atol=1e-12)

    def test_axis_example_theta_half_pi(self):
        R = grasp_frame(Grasp((0, 0, 0), (0, 1, 0), math.pi / 2))
        np.testing.assert_allclose(R[:, 0], [0, 0, -1], atol=1e-12)
        np.testing.assert_allclose(R[:, 2], [1, 0, 0], atol=1e-12)

    def test_origin_passthrough(self):
        g = Grasp((0.1, 0.2, 0.3), (0, 1, 0), 0.3)
        assert grasp_frame(g).shape == (3, 3)
        np.testing.assert_allclose(world_to_grasp(g, [0.1, 0.2, 0.3]), [0, 0, 0], atol=1e-15)

    def test_degenerate_orientation_warns_and_falls_back(self):
        with pytest.warns(RuntimeWarning):
            R = grasp_frame(Grasp((0, 0, 0), (0, 0, 1), 0.0))
        np.testing.assert_allclose(R[:, 0], [1, 0, 0], atol=1e-12)

    def test_rotation_orthonormal_det_plus_one(self, rng):
        r = rng.normal(size=(10_000, 3))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        rotations = grasp_frames(r, rng.uniform(-math.pi / 2, math.pi / 2, size=10_000))
        identities = np.broadcast_to(np.eye(3), rotations.shape)
        np.testing.assert_allclose(rotations.transpose(0, 2, 1) @ rotations, identities, atol=1e-9)
        np.testing.assert_allclose(np.linalg.det(rotations), 1.0, rtol=0, atol=1e-9)

    def test_frame_stable_under_small_perturbation(self, rng):
        for _ in range(200):
            g = _random_grasp(rng)
            # stay away from the r || Z degeneracy
            if abs(g.orientation[0]) < 1e-3 and abs(g.orientation[1]) < 1e-3:
                continue
            delta = rng.normal(size=3) * 1e-7
            r2 = g.orientation + delta
            r2 /= np.linalg.norm(r2)
            g2 = Grasp(g.center, r2, g.theta)
            diff = np.abs(grasp_frame(g) - grasp_frame(g2)).max()
            assert diff <= 1e3 * np.linalg.norm(delta)


class TestFrameInverse:
    """_theta_for_approach flips a closing axis to bring theta into range, and names the first row no flip can."""

    def test_an_axis_parallel_to_z_flips_nothing_into_range(self):
        # (1, 0, 0) is the ground reference of both signs of a closing axis along Z: an approach with
        # negative x is more than pi/2 from it either way
        r = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
        approach = np.array([[-1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [-0.6, 0.8, 0.0], [-0.6, -0.8, 0.0]])
        r2, theta = _theta_for_approach(r[:2], approach[:2])
        np.testing.assert_allclose(r2, [[0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        message = r"^closing axis parallel to world Z and approach \(-0\.600, 0\.800, 0\.000\) have no angle in "
        with pytest.raises(GraspRowError, match=message + r"\[-pi/2, pi/2\]$") as info:
            _theta_for_approach(r, approach)
        assert info.value.row == 2


class TestFrameCache:
    """A grasp keeps its frame once built; its read-only pose keeps that frame valid."""

    def test_cached_frame_is_the_batch_row_and_read_only(self, rng):
        grasps = [_random_grasp(rng) for _ in range(50)]
        rotations = grasp_frames(np.stack([g.orientation for g in grasps]), [g.theta for g in grasps])
        for g, rotation in zip(grasps, rotations):
            frame = grasp_frame(g)
            assert frame.tobytes() == rotation.tobytes()
            assert grasp_frame(g) is frame
            with pytest.raises(ValueError):
                frame[0, 0] = 1.0

    def test_pose_arrays_are_read_only(self, rng):
        table = grasps_from_arrays(rng.normal(size=(3, 3)), np.tile([0.0, 1.0, 0.0], (3, 1)), np.zeros(3))
        for g in [Grasp((0.1, 0.2, 0.3), (0, 1, 0), 0.3), *table]:
            for arr in (g.center, g.orientation):
                with pytest.raises(ValueError):
                    arr[0] = 1.0
                with pytest.raises(ValueError):
                    arr += 1.0

    def test_with_score_keeps_the_pose_and_its_frame(self, rng):
        g = _random_grasp(rng)
        frame = grasp_frame(g)
        h = g.with_score(0.75)
        assert h.center is g.center and h.orientation is g.orientation and h.theta == g.theta
        assert grasp_frame(h) is frame

    def test_filter_stores_the_frame_of_a_fresh_copy(self, rng):
        cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(200, 3)))
        grasps = [Grasp(rng.uniform(-0.08, 0.08, size=3), g.orientation, g.theta)
                  for g in (_random_grasp(rng) for _ in range(60))]
        kept = filter_collision_free(grasps, cloud, GripperParams(0.06, 0.08, 0.04, 0.01))
        assert 0 < len(kept) < len(grasps)
        for g in kept:
            assert g._frame is not None and not g._frame.flags.writeable
            fresh = copy.copy(g)  # the same pose bits, without the stored frame
            object.__setattr__(fresh, "_frame", None)
            assert grasp_frame(fresh).tobytes() == g._frame.tobytes()


class TestVerticalScore:
    @pytest.mark.parametrize(
        "theta,expected",
        [(math.pi / 2, 1.0), (0.0, 0.5), (-math.pi / 2, 0.0)],
    )
    def test_endpoints_and_midpoint(self, theta, expected):
        assert vertical_score(Grasp((0, 0, 0), (0, 1, 0), theta)) == pytest.approx(expected)

    def test_strictly_monotone_onto_unit_interval(self):
        thetas = np.linspace(-math.pi / 2, math.pi / 2, 501)
        scores = [vertical_score(float(t)) for t in thetas]
        assert scores[0] == 0.0 and scores[-1] == 1.0
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            vertical_score(2.0)


class TestClampTheta:
    @pytest.mark.parametrize("theta,expected", [
        (math.pi / 2, math.pi / 2), (-math.pi / 2, -math.pi / 2), (0.0, 0.0), (-0.0, -0.0), (1.2, 1.2),
        (math.pi / 2 + 1e-9, math.pi / 2), (-math.pi / 2 - 1e-9, -math.pi / 2), (3.0, math.pi / 2),
        (-1e300, -math.pi / 2), (math.inf, math.pi / 2), (np.float64(2.0), math.pi / 2),
    ])
    def test_clamps_to_the_approach_range(self, theta, expected):
        got = clamp_theta(theta)
        assert type(got) is float and got == expected and math.copysign(1, got) == math.copysign(1, expected)

    def test_grasp_clamps_serialized_endpoints(self):
        assert Grasp((0, 0, 0), (0, 1, 0), 1.57079633).theta == math.pi / 2
        assert Grasp((0, 0, 0), (0, 1, 0), -1.57079633).theta == -math.pi / 2

    def test_an_array_is_clamped_as_its_elements_are(self):
        thetas = np.array([-math.inf, -3.0, -math.pi / 2 - 1e-9, -0.0, 0.0, 1.2, math.pi / 2 + 1e-9, 1e300])
        got = clamp_theta(thetas)
        assert got.tobytes() == np.array([clamp_theta(float(t)) for t in thetas]).tobytes()


def _ulps(x: float) -> list[float]:
    """x and the doubles one ulp below and above it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


_THETA_EDGE = THETA_MAX + UNIT_TOL
_NORMS = [*_ulps(1.0 + UNIT_TOL), *_ulps(1.0 - UNIT_TOL), 1.0, 0.0, 1e200]  # 1e200 squared overflows


@st.composite
def _axis(draw):
    """A closing axis of exactly the drawn norm along a signed world axis, -0.0 in the other slots, or a
    normalised random direction."""
    if draw(st.booleans()):
        v = np.array(draw(st.tuples(*[st.floats(-1, 1)] * 3)))
        return tuple(v / np.linalg.norm(v)) if np.linalg.norm(v) > 0.1 else (0.0, 1.0, 0.0)
    r = [draw(st.sampled_from([0.0, -0.0]))] * 3
    r[draw(st.integers(0, 2))] = draw(st.sampled_from([1.0, -1.0])) * draw(st.sampled_from(_NORMS))
    return tuple(r)


_COORD = st.sampled_from([0.0, -0.0, 1e-300]) | st.floats(-10, 10)
_ROW = st.tuples(
    # about one center in four has a non-finite z
    st.tuples(_COORD, _COORD, _COORD | _COORD | _COORD | st.sampled_from([math.nan, -math.inf])),
    _axis(),
    st.sampled_from([*_ulps(_THETA_EDGE), *(-t for t in _ulps(_THETA_EDGE)), 0.0, -0.0, THETA_MAX, math.nan])
    | st.floats(-THETA_MAX, THETA_MAX),
    st.sampled_from([*_ulps(0.0), *_ulps(1.0), -0.0]) | st.floats(0, 1),
)


def _assert_bitwise(g: Grasp, want) -> None:
    center, orientation, theta, s_q = want
    assert g.center.tobytes() == center.tobytes() and g.orientation.tobytes() == orientation.tobytes()
    assert type(g.theta) is float and type(g.s_q) is float
    assert np.float64(g.theta).tobytes() == np.float64(theta).tobytes()
    assert np.float64(g.s_q).tobytes() == np.float64(s_q).tobytes()


class TestGraspTable:
    """grasps_from_arrays against Grasp(...) and the scalar oracle, on rows at every rule's edge."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ROW, min_size=1, max_size=6))
    def test_table_row_and_oracle_agree(self, rows):
        want = []
        for row in rows:
            try:
                want.append(oracle_grasp(*row))
            except ValueError as exc:
                want.append(str(exc))
        for row, w in zip(rows, want):
            if isinstance(w, str):
                with pytest.raises(ValueError) as info:
                    Grasp(*row)
                assert str(info.value) == w
            else:
                _assert_bitwise(Grasp(*row), w)
        cols = [np.array([row[j] for row in rows]) for j in range(4)]
        first = next((i for i, w in enumerate(want) if isinstance(w, str)), len(rows))
        if first < len(rows):
            with pytest.raises(GraspRowError) as info:
                grasps_from_arrays(*cols)
            assert (info.value.row, str(info.value)) == (first, want[first])
        accepted = grasps_from_arrays(*(col[:first] for col in cols))
        assert len(accepted) == first
        for g, w in zip(accepted, want):
            _assert_bitwise(g, w)

    def test_grasps_own_their_rows(self, rng):
        centers, thetas = rng.normal(size=(5, 3)), np.zeros(5)
        axes = np.tile([0.0, 1.0, 0.0], (5, 1))
        grasps = grasps_from_arrays(centers, axes, thetas, 0.5)
        arrays = [a for g in grasps for a in (g.center, g.orientation)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
        assert not any(np.shares_memory(a, b) for a in arrays for b in (centers, axes))
        assert [g.s_q for g in grasps] == [0.5] * 5

    def test_an_empty_table_gives_no_grasps(self):
        assert grasps_from_arrays(np.zeros((0, 3)), np.zeros((0, 3)), []) == []
