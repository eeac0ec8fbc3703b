import math

import numpy as np
import pytest

from grasplab.core import clamp_theta
from grasplab import (
    Grasp,
    GripperParams,
    PointCloud,
    grasp_frame,
    grasp_frames,
    grasp_to_world,
    vertical_score,
    world_to_grasp,
)


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


class TestGraspFrame:
    def test_axis_example_theta_zero(self):
        f = grasp_frame(Grasp((0, 0, 0), (0, 1, 0), 0.0))
        np.testing.assert_allclose(f.x_axis, [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(f.z_axis, [0, 0, 1], atol=1e-12)

    def test_axis_example_theta_half_pi(self):
        f = grasp_frame(Grasp((0, 0, 0), (0, 1, 0), math.pi / 2))
        np.testing.assert_allclose(f.x_axis, [0, 0, -1], atol=1e-12)
        np.testing.assert_allclose(f.z_axis, [1, 0, 0], atol=1e-12)

    def test_origin_passthrough(self):
        f = grasp_frame(Grasp((0.1, 0.2, 0.3), (0, 1, 0), 0.3))
        np.testing.assert_allclose(f.origin, [0.1, 0.2, 0.3])

    def test_degenerate_orientation_warns_and_falls_back(self):
        with pytest.warns(RuntimeWarning):
            f = grasp_frame(Grasp((0, 0, 0), (0, 0, 1), 0.0))
        np.testing.assert_allclose(f.x_axis, [1, 0, 0], atol=1e-12)

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
            diff = np.abs(grasp_frame(g).rotation - grasp_frame(g2).rotation).max()
            assert diff <= 1e3 * np.linalg.norm(delta)


class TestWorldToGrasp:
    def test_origin_maps_to_zero(self):
        f = grasp_frame(Grasp((0.4, -0.2, 0.9), (0, 1, 0), 0.7))
        np.testing.assert_allclose(world_to_grasp(f, f.origin), [0, 0, 0], atol=1e-15)

    def test_identity_frame(self):
        f = grasp_frame(Grasp((0, 0, 0), (0, 1, 0), 0.0))
        np.testing.assert_allclose(world_to_grasp(f, [1.0, 2.0, 3.0]), [1, 2, 3], atol=1e-15)

    def test_round_trip_on_random_points(self, rng):
        f = grasp_frame(_random_grasp(rng))
        p = rng.uniform(-2, 2, size=(100, 3))
        back = grasp_to_world(f, world_to_grasp(f, p))
        assert np.abs(back - p).max() < 1e-12


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
