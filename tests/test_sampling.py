import math
import tracemalloc

import numpy as np
import pytest

from grasplab import sampling
from grasplab import (
    EmptyRegionError,
    GripperParams,
    PointCloud,
    SamplerConfig,
    ball_query,
    darboux_frame,
    estimate_normals,
    grasp_frame,
    sample_candidates,
)
from conftest import oracle_darboux, random_sphere_cloud, tabletop_cloud

GRIPPER = GripperParams(0.06, 0.08, 0.04, 0.01)


def plane_cloud(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-1, 1, size=(n, 2))
    return PointCloud(np.column_stack([xy, np.zeros(n)]))


class TestEstimateNormals:
    def test_plane_gives_plus_z(self):
        normals, valid = estimate_normals(plane_cloud(), k=8)
        assert valid.all()
        np.testing.assert_allclose(normals, np.tile([0.0, 0.0, 1.0], (1000, 1)), atol=1e-9)

    def test_sphere_normals_near_radial(self):
        cloud = random_sphere_cloud(1.0, 2000, seed=3)
        normals, valid = estimate_normals(cloud, k=16)
        radial = cloud.points / np.linalg.norm(cloud.points, axis=1, keepdims=True)
        cosines = np.abs(np.einsum("ij,ij->i", normals, radial))
        assert np.mean(cosines > math.cos(math.radians(5))) >= 0.95

    def test_collinear_points_flagged_invalid(self):
        cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]))
        _, valid = estimate_normals(cloud, k=3)
        assert not valid.any()

    def test_rigid_invariance(self, rng):
        cloud = random_sphere_cloud(0.5, 400, seed=5)
        n0, _ = estimate_normals(cloud, k=12)
        # rotate about Z so the +Z viewpoint flip rule is unaffected
        a = 0.83
        R = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1.0]])
        n1, _ = estimate_normals(PointCloud(cloud.points @ R.T), k=12)
        assert np.abs(n1 - n0 @ R.T).max() < 1e-6

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            estimate_normals(PointCloud(np.zeros((2, 3))), k=3)


class TestBlockedNormals:
    @staticmethod
    def one_call(cloud, k):
        """estimate_normals as a single PCA over every row."""
        normals, _, valid = sampling._pca(cloud, slice(None), k, sampling.DEFAULT_VIEWPOINT)
        return normals / np.linalg.norm(normals, axis=1, keepdims=True), valid

    @pytest.mark.parametrize("extra", [-1, 0, 1, None])
    def test_bitwise_equal_to_one_pca_call(self, extra):
        block = sampling._NORMALS_BLOCK
        n = 2 * block + 7 if extra is None else block + extra
        pts = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 3))
        # 24 collinear points, far from the rest, in the rows around the end of the first block
        end = min(n, block + 12)
        pts[end - 24:end] = [10.0, 0.0, 0.0] + np.arange(24)[:, None] * [1e-3, 2e-3, 0.0]
        cloud = PointCloud(pts)
        normals, valid = estimate_normals(cloud, k=16)
        want_normals, want_valid = self.one_call(cloud, 16)
        assert normals.tobytes() == want_normals.tobytes()
        assert np.array_equal(valid, want_valid)
        assert np.flatnonzero(~valid).tolist() == list(range(end - 24, end))

    def test_peak_memory_does_not_grow_with_the_cloud(self):
        cloud = PointCloud(np.random.default_rng(0).uniform(-1.0, 1.0, size=(50_000, 3)))
        cloud.tree  # built before tracing: the tree is the cloud's, not the estimate's
        tracemalloc.start()
        try:
            estimate_normals(cloud, k=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestDarbouxFrame:
    def test_plane_frame(self):
        frame = darboux_frame(plane_cloud(), index=0, k=8)
        np.testing.assert_allclose(frame.normal, [0, 0, 1], atol=1e-9)
        assert abs(frame.major[2]) < 1e-9 and abs(frame.minor[2]) < 1e-9

    def test_cylinder_major_follows_axis(self):
        # cylinder wall along Z: circumferential offsets foreshorten onto the
        # tangent plane (chord < arc), so the axial spread carries the larger
        # eigenvalue once the neighborhood wraps a substantial arc
        radius, n_ang, dz = 0.05, 63, 0.005
        angles = np.arange(n_ang) * 2 * math.pi / n_ang
        zs = np.arange(-0.3, 0.3 + 1e-9, dz)
        pts = np.array(
            [[radius * math.cos(a), radius * math.sin(a), z] for z in zs for a in angles]
        )
        cloud = PointCloud(pts)
        for index in (len(cloud) // 2, len(cloud) // 3):
            frame = darboux_frame(cloud, index=index, k=300)
            assert abs(frame.major @ np.array([0, 0, 1.0])) > math.cos(math.radians(10))

    def test_orthonormal_triplet(self):
        frame = darboux_frame(random_sphere_cloud(1.0, 500, seed=7), index=3, k=12)
        M = np.stack([frame.normal, frame.major, frame.minor])
        np.testing.assert_allclose(M @ M.T, np.eye(3), atol=1e-6)

    def test_degenerate_neighborhood_raises(self):
        cloud = PointCloud(np.column_stack([np.arange(6.0), np.zeros(6), np.zeros(6)]))
        with pytest.raises(ValueError):
            darboux_frame(cloud, index=0, k=4)


class TestDarbouxAgainstPerPointOracle:
    """The shared PCA kernel gives the per-point frame bit for bit, one seed or many per tree query."""

    CLOUDS = {
        "sphere": lambda: random_sphere_cloud(0.05, 800, seed=3),
        "plane": lambda: plane_cloud(600, seed=4),
        "tabletop": lambda: tabletop_cloud(5),
    }

    @staticmethod
    def _bytes(frames):
        return [b"".join(np.asarray(v).tobytes() for v in frame) for frame in frames]

    @staticmethod
    def _use_per_point_frames(monkeypatch):
        monkeypatch.setattr(sampling, "_darboux_frames", lambda cloud, index, k, viewpoint: tuple(
            map(np.array, zip(*(oracle_darboux(cloud, int(i), k, viewpoint) for i in index)))))

    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_darboux_frame_is_bitwise_the_oracle(self, name):
        cloud = self.CLOUDS[name]()
        for index in range(0, len(cloud), 7):
            f = darboux_frame(cloud, index, k=12)
            got = self._bytes([(f.point, f.normal, f.major, f.minor)])
            assert got == self._bytes([oracle_darboux(cloud, index, 12)]), index

    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_sample_candidates_is_bitwise_the_per_point_loop(self, name, monkeypatch):
        cloud = self.CLOUDS[name]()
        cfg = SamplerConfig(n_centers=60, n_orientation_perturbations=3, n_angle_perturbations=3, rng_seed=8)
        got = sample_candidates(cloud, GRIPPER, cfg)
        self._use_per_point_frames(monkeypatch)
        want = sample_candidates(cloud, GRIPPER, cfg)
        assert len(got) == len(want) == 540
        assert self._bytes((g.center, g.orientation, g.theta) for g in got) == \
            self._bytes((g.center, g.orientation, g.theta) for g in want)

    def test_sample_candidates_makes_one_tree_query(self):
        cloud = tabletop_cloud(2)
        tree, shapes = cloud.tree, []

        class CountingTree:
            def query(self, x, k):
                shapes.append(np.shape(x))
                return tree.query(x, k=k)

        object.__setattr__(cloud, "_tree", CountingTree())
        assert len(sample_candidates(cloud, GRIPPER, SamplerConfig(n_centers=25, rng_seed=1))) == 25
        assert shapes == [(25, 3)]

    def test_rank_deficient_seed_raises_the_oracles_message(self, monkeypatch):
        # a collinear run far from a plane patch: seeds on the run have rank-1 neighbourhoods
        line = np.column_stack([10.0 + 0.01 * np.arange(30), np.zeros(30), np.zeros(30)])
        cloud = PointCloud(np.vstack([plane_cloud(30, seed=6).points, line]))
        cfg = SamplerConfig(n_centers=12, rng_seed=2, k_neighbors=8)
        with pytest.raises(ValueError) as got:
            sample_candidates(cloud, GRIPPER, cfg)
        self._use_per_point_frames(monkeypatch)
        with pytest.raises(ValueError) as want:
            sample_candidates(cloud, GRIPPER, cfg)
        assert str(got.value) == str(want.value)
        assert "degenerate neighborhood at point" in str(got.value)
        with pytest.raises(ValueError, match=r"^degenerate neighborhood at point 45 \(rank < 2\)$"):
            darboux_frame(cloud, 45, k=8)


class TestSampleCandidates:
    def test_single_unperturbed_candidate_approaches_into_plane(self):
        cloud = plane_cloud(400, seed=1)
        cfg = SamplerConfig(n_centers=1, n_orientation_perturbations=1, n_angle_perturbations=1, rng_seed=0)
        cands = sample_candidates(cloud, GRIPPER, cfg)
        assert len(cands) == 1
        x_axis = grasp_frame(cands[0])[:, 0]
        assert float(x_axis @ np.array([0, 0, 1.0])) < -0.999

    def test_product_count(self):
        cloud = random_sphere_cloud(0.5, 600, seed=2)
        cfg = SamplerConfig(n_centers=10, n_orientation_perturbations=4, n_angle_perturbations=3, rng_seed=1)
        assert len(sample_candidates(cloud, GRIPPER, cfg)) == 120

    def test_same_seed_identical_output(self):
        cloud = random_sphere_cloud(0.5, 600, seed=2)
        cfg = SamplerConfig(n_centers=5, n_orientation_perturbations=2, n_angle_perturbations=2, rng_seed=9)
        a = sample_candidates(cloud, GRIPPER, cfg)
        b = sample_candidates(cloud, GRIPPER, cfg)
        assert len(a) == len(b)
        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(ga.center, gb.center)
            np.testing.assert_array_equal(ga.orientation, gb.orientation)
            assert ga.theta == gb.theta

    def test_empty_cloud_gives_empty_list(self):
        assert sample_candidates(PointCloud(np.zeros((0, 3))), GRIPPER, SamplerConfig()) == []

    def test_orientations_unit_length(self):
        cloud = random_sphere_cloud(0.5, 600, seed=2)
        cfg = SamplerConfig(n_centers=6, n_orientation_perturbations=3, n_angle_perturbations=2, rng_seed=4)
        for g in sample_candidates(cloud, GRIPPER, cfg):
            assert np.linalg.norm(g.orientation) == pytest.approx(1.0, abs=1e-9)
            assert abs(g.theta) <= math.pi / 2

    def test_unperturbed_candidates_fully_approached_along_minus_normal(self):
        # the grasp center sits depth/2 past the seed point along the
        # approach, so the seed point is recoverable from the frame; on a
        # sphere the base approach opposes the viewpoint-oriented radial
        # normal (hidden-hemisphere normals flip toward the +Z camera)
        radius = 0.5
        cloud = random_sphere_cloud(radius, 1500, seed=9)
        viewpoint = np.array([0.0, 0.0, 10.0])
        cfg = SamplerConfig(n_centers=8, n_orientation_perturbations=3, n_angle_perturbations=1, rng_seed=1)
        for g in sample_candidates(cloud, GRIPPER, cfg):
            x_axis = grasp_frame(g)[:, 0]
            seed_point = g.center - (GRIPPER.depth / 2.0) * x_axis
            assert np.linalg.norm(seed_point) == pytest.approx(radius, abs=1e-9)
            outward = seed_point / np.linalg.norm(seed_point)
            oriented = outward if float(outward @ (viewpoint - seed_point)) >= 0 else -outward
            # estimated normals on a random sphere are radial to within ~1 deg
            assert float(x_axis @ -oriented) > math.cos(math.radians(2.0))


class TestBallQuery:
    def test_isolated_point_padded(self):
        pts = np.array([[0.0, 0, 0], [5.0, 0, 0], [6.0, 0, 0], [7.0, 0, 0]])
        idx, padded = ball_query(PointCloud(pts), center=(0, 0, 0), radius=0.1, keep=16, seed=0)
        assert padded
        np.testing.assert_array_equal(idx, np.zeros(16, dtype=int))

    def test_whole_cloud_is_permutation(self):
        cloud = random_sphere_cloud(0.3, 50, seed=1)
        idx, padded = ball_query(cloud, center=(0, 0, 0), radius=10.0, keep=50, seed=0)
        assert not padded
        assert sorted(idx.tolist()) == list(range(50))

    def test_empty_ball_raises(self):
        with pytest.raises(EmptyRegionError):
            ball_query(PointCloud(np.array([[1.0, 0, 0]])), center=(0, 0, 0), radius=0.5, keep=4)

    def test_agrees_with_brute_force_scan(self, rng):
        cloud = PointCloud(rng.uniform(-1, 1, size=(300, 3)))
        for _ in range(100):
            center = rng.uniform(-1, 1, size=3)
            radius = rng.uniform(0.2, 1.0)
            expected = {
                i for i, p in enumerate(cloud.points) if math.dist(p, center) <= radius
            }
            if not expected:
                with pytest.raises(EmptyRegionError):
                    ball_query(cloud, center, radius, keep=64, seed=1)
                continue
            idx, padded = ball_query(cloud, center, radius, keep=64, seed=1)
            assert set(idx.tolist()) <= expected
            assert padded == (len(expected) < 64)
            if len(expected) >= 64:
                assert len(set(idx.tolist())) == 64
            else:
                assert set(idx.tolist()) == expected

    def test_shared_tree_rows_equal_fresh_tree_rows(self):
        cloud = tabletop_cloud(0)
        for i, pi in enumerate(range(0, len(cloud), 37)):
            center = cloud.points[pi]
            shared = ball_query(cloud, center, radius=0.02, keep=32, seed=i)
            fresh = ball_query(PointCloud(cloud.points), center, radius=0.02, keep=32, seed=i)
            np.testing.assert_array_equal(shared[0], fresh[0])
            assert shared[1] == fresh[1]

    def test_hits_are_the_ascending_indices(self):
        cloud = tabletop_cloud(0)
        for i, pi in enumerate(range(0, len(cloud), 53)):
            center = cloud.points[pi]
            hits = np.asarray(sorted(cloud.tree.query_ball_point(center, 0.02)), dtype=int)
            idx, padded = sampling.resize_indices(hits.size, 32, i)
            got = ball_query(cloud, center, radius=0.02, keep=32, seed=i)
            np.testing.assert_array_equal(got[0], hits[idx])
            assert got[1] == padded

    def test_results_within_radius(self, rng):
        cloud = PointCloud(rng.uniform(-1, 1, size=(200, 3)))
        idx, _ = ball_query(cloud, center=(0.1, 0.0, 0.0), radius=0.7, keep=32, seed=3)
        d = np.linalg.norm(cloud.points[idx] - np.array([0.1, 0.0, 0.0]), axis=1)
        assert np.all(d <= 0.7 + 1e-12)
