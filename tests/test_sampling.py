import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasplab import sampling
from grasplab import (
    EmptyRegionError,
    GripperParams,
    PointCloud,
    SamplerConfig,
    ball_query,
    estimate_normals,
    grasp_frame,
    sample_candidates,
)
from conftest import oracle_covariance, oracle_darboux, random_sphere_cloud, tabletop_cloud

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

    def test_a_thin_but_planar_neighbourhood_stays_valid(self):
        """Rank < 2 means a middle eigenvalue below 1e-10 of the largest: a 2 x 1e-4 rectangle has the ratio
        1e-8, so all four points keep a normal, +Z."""
        cloud = PointCloud(np.array([[x, y, 0.0] for x in (-1.0, 1.0) for y in (-1e-4, 1e-4)]))
        normals, valid = estimate_normals(cloud, k=4)
        assert valid.all()
        np.testing.assert_array_equal(normals, np.tile([0.0, 0.0, 1.0], (4, 1)))

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


class TestCovarianceBits:
    """Every block's covariance is bitwise the per-point sequential sums. A kernel that sums the column
    products in another order (pairwise, say) fails here by name, not only through a benchmark digest."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([-1, 0, 1]).map(lambda d: sampling._NORMALS_BLOCK + d), k=st.integers(3, 40),
           on_grid=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_estimate_normals_sums_in_row_order(self, n, k, on_grid, seed):
        pts = np.random.default_rng(seed).uniform(-0.1, 0.1, size=(n, 3))
        if on_grid:  # on the 2^-8 grid many products and sums are exact; off it every sum rounds
            pts = np.round(pts * 2**8) / 2**8
        cloud, blocks, pca, covariance = PointCloud(pts), [], sampling._pca, sampling._covariance

        def record_rows(cloud, index, *args):
            blocks.append([np.array(index)])
            return pca(cloud, index, *args)

        def record(x, y, z):  # the neighbourhoods are stacked (copied) before covariance centres them
            blocks[-1] += [np.stack([x, y, z], axis=-1).transpose(1, 0, 2), covariance(x, y, z)]
            return blocks[-1][-1]

        with mock.patch.object(sampling, "_pca", record_rows), mock.patch.object(sampling, "_covariance", record):
            estimate_normals(cloud, k)
        rows = [index for index, _, _ in blocks]
        block = sampling._NORMALS_BLOCK
        assert [len(index) for index in rows] == [min(block, n - lo) for lo in range(0, n, block)]
        assert np.concatenate(rows).tolist() == cloud.tree.indices.tolist()  # leaf order ...
        assert np.sort(np.concatenate(rows)).tolist() == list(range(n))     # ... covering each row once
        for index, nbrs, cov in blocks:  # nbrs (rows, k, 3), as the oracle takes them
            assert nbrs.tobytes() == pts[cloud.tree.query(pts[index], k)[1]].tobytes()
            assert cov.tobytes() == oracle_covariance(nbrs).tobytes()

    def test_an_entry_of_negative_zero_products_is_positive_zero(self):
        """x = 0 and y = 0.1 in every row: y's mean rounds above 0.1, so every x-y product is -0.0, and a sum
        that starts from 0, as the per-point loop's does, is +0.0."""
        x, y, z = np.zeros((3, 1)), np.full((3, 1), 0.1), np.arange(3.0)[:, None]
        want = oracle_covariance(np.stack([x, y, z], axis=-1).transpose(1, 0, 2))  # before x, y, z are centred
        cov = sampling._covariance(x, y, z)
        assert cov.tobytes() == want.tobytes()
        assert math.copysign(1.0, cov[0, 0, 1]) == 1.0


def darboux_frames(cloud, index, k):
    """(normals, majors) at the cloud points `index`, seen from the default viewpoint."""
    return sampling._darboux_frames(cloud, np.atleast_1d(index), k, sampling.DEFAULT_VIEWPOINT)


class TestDarbouxFrame:
    def test_plane_frame(self):
        normal, major = (a[0] for a in darboux_frames(plane_cloud(), 0, k=8))
        np.testing.assert_allclose(normal, [0, 0, 1], atol=1e-9)
        assert abs(major[2]) < 1e-9

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
        _, majors = darboux_frames(cloud, [len(cloud) // 2, len(cloud) // 3], k=300)
        assert np.all(np.abs(majors[:, 2]) > math.cos(math.radians(10)))

    def test_orthonormal_triplet(self):
        # the minor axis that completes the frame is normal x major
        normals, majors = darboux_frames(random_sphere_cloud(1.0, 500, seed=7), np.arange(0, 500, 9), 12)
        M = np.stack([normals, majors, np.cross(normals, majors)], axis=1)
        np.testing.assert_allclose(M @ M.transpose(0, 2, 1), np.broadcast_to(np.eye(3), M.shape), atol=1e-6)

    def test_degenerate_neighborhood_raises(self):
        cloud = PointCloud(np.column_stack([np.arange(6.0), np.zeros(6), np.zeros(6)]))
        with pytest.raises(ValueError, match=r"^degenerate neighborhood at point 0 \(rank < 2\)$"):
            darboux_frames(cloud, 0, k=4)


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
        index = np.arange(0, len(cloud), 7)
        got = self._bytes(zip(*darboux_frames(cloud, index, k=12)))
        assert got == self._bytes(oracle_darboux(cloud, i, 12) for i in index.tolist())

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
            darboux_frames(cloud, 45, k=8)


class TestSampleCandidates:
    def test_a_seed_with_no_angle_in_range_is_named(self):
        # a wall facing +x: the approach is -x, and a spin by pi/2 of a tangent axis along y turns the
        # closing axis parallel to world Z, whose only ground reference is (1, 0, 0)
        wall = PointCloud([(-0.05, y * 0.002, z) for y in range(-20, 21) for z in (-0.004, 0.0, 0.004)])
        cfg = SamplerConfig(n_centers=5, n_orientation_perturbations=4, rng_seed=0, k_neighbors=9)
        message = (r"^seed point \d+: closing axis parallel to world Z and approach \(-1\.000, -?0\.000, -?0\.000\) "
                   r"have no angle in \[-pi/2, pi/2\]$")
        with pytest.raises(ValueError, match=message) as info:
            sample_candidates(wall, GRIPPER, cfg)
        seeds = np.random.default_rng(0).choice(len(wall), size=5, replace=False)
        assert int(re.match(r"seed point (\d+)", str(info.value))[1]) in seeds.tolist()

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

    @pytest.mark.parametrize("n", [1, 2, 10, 32])
    def test_exactly_keep_rows_are_all_kept_in_order(self, n):
        for seed in range(5):
            idx, padded = sampling.resize_indices(n, n, seed)
            np.testing.assert_array_equal(idx, np.arange(n))
            assert padded is False

    def test_hits_are_the_ascending_indices(self):
        cloud = tabletop_cloud(0)
        for i, pi in enumerate(range(0, len(cloud), 53)):
            center = cloud.points[pi]
            hits = np.asarray(sorted(cloud.tree.query_ball_point(center, 0.02)), dtype=int)
            idx, padded = sampling.resize_indices(hits.size, 32, i)
            got = ball_query(cloud, center, radius=0.02, keep=32, seed=i)
            np.testing.assert_array_equal(got[0], hits[idx])
            assert got[1] == padded

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), on_grid=st.booleans(), m=st.integers(1, 12))
    def test_hits_are_the_sorted_ball_point_query(self, seed, n, on_grid, m):
        """On the 2^-8 grid the radius m * 2^-8 is an exact grid distance, so many points lie exactly on the
        sphere (3-4-0 and 2-2-1 triples among them) and squared distances and radius are exact."""
        rng = np.random.default_rng(seed)
        if on_grid:
            pts = rng.integers(-6, 7, size=(n, 3)) / 2**8
            center, radius = rng.integers(-3, 4, size=3) / 2**8, m / 2**8
        else:
            pts = rng.uniform(-0.05, 0.05, size=(n, 3))
            center, radius = rng.uniform(-0.05, 0.05, size=3), m * rng.uniform(0.001, 0.01)
        cloud = PointCloud(pts)
        expected = np.asarray(cloud.tree.query_ball_point(center, radius, return_sorted=True), dtype=int)
        if expected.size == 0:
            with pytest.raises(EmptyRegionError):
                ball_query(cloud, center, radius, keep=n + 1)
            return
        idx, padded = ball_query(cloud, center, radius, keep=n + 1)  # padded: the hits come first, in order
        assert padded
        np.testing.assert_array_equal(idx[:expected.size], expected)

    def test_results_within_radius(self, rng):
        cloud = PointCloud(rng.uniform(-1, 1, size=(200, 3)))
        idx, _ = ball_query(cloud, center=(0.1, 0.0, 0.0), radius=0.7, keep=32, seed=3)
        d = np.linalg.norm(cloud.points[idx] - np.array([0.1, 0.0, 0.0]), axis=1)
        assert np.all(d <= 0.7 + 1e-12)
