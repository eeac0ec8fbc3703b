import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasplab import (
    ContactPair,
    Grasp,
    GripperParams,
    PointCloud,
    antipodal_score,
    find_contacts,
    width_fit,
)
from conftest import grid_sphere_cloud, oracle_contacts, with_radial_normals

GRIPPER = GripperParams(0.06, 0.06, 0.04, 0.01)
PINCH = Grasp((0, 0, 0), (0, 1, 0), 0.0)


def pinch_cloud():
    pts = np.array([[0.0, 0.02, 0.0], [0.0, -0.02, 0.0]])
    normals = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    return PointCloud(pts, normals)


class TestFindContacts:
    def test_two_point_cloud_contacts_are_those_points(self):
        pair = find_contacts(pinch_cloud(), PINCH, GRIPPER)
        np.testing.assert_allclose(pair.ci, [0, 0.02, 0])
        np.testing.assert_allclose(pair.cj, [0, -0.02, 0])
        assert pair.y_i == pytest.approx(0.02)
        assert pair.y_j == pytest.approx(-0.02)

    def test_empty_closing_region_returns_none(self):
        far = Grasp((5, 5, 5), (0, 1, 0), 0.0)
        assert find_contacts(pinch_cloud(), far, GRIPPER) is None

    def test_one_sided_region_returns_none(self):
        pts = np.array([[0.0, -0.02, 0.0], [0.0, -0.01, 0.0]])
        cloud = PointCloud(pts, np.tile([0.0, -1.0, 0.0], (2, 1)))
        assert find_contacts(cloud, PINCH, GRIPPER) is None

    def test_missing_normals_rejected(self):
        with pytest.raises(ValueError):
            find_contacts(PointCloud(pinch_cloud().points), PINCH, GRIPPER)

    def test_sphere_axis_through_center_contacts_antipodal(self):
        radius = 1.0
        cloud = with_radial_normals(grid_sphere_cloud(radius, 80, 80, pole_axis=(0, 1, 0)))
        gripper = GripperParams(2.4, 2.4, 0.6, 0.2)
        pair = find_contacts(cloud, Grasp((0, 0, 0), (0, 1, 0), 0.0), gripper)
        assert np.linalg.norm(pair.ci + pair.cj) <= 1e-3 * radius


GRID = 2.0 ** -8
# half-extents of 6, 8 and 4 grid steps, so grid points land exactly on the closing region's faces
GRID_GRIPPER = GripperParams(12 * GRID, 16 * GRID, 8 * GRID, 0.01)
AXES = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


class TestContactOracle:
    """find_contacts picks the oracle's pair: faces included, the lowest index on a tie."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120), grid=st.booleans())
    def test_find_contacts_matches_the_oracle(self, seed, n, grid):
        rng = np.random.default_rng(seed)
        if grid:
            # an axis-aligned closing axis keeps grasp-frame y exact on the 2^-8 grid, so y ties are real
            # ties; repeated rows tie in every coordinate
            center = rng.integers(-4, 5, size=3) * GRID
            base = rng.integers(-9, 10, size=(rng.integers(1, n + 1), 3)) * GRID + center
            points = base[rng.integers(0, len(base), size=n)]
            orientation = AXES[rng.integers(len(AXES))]
            theta = float(rng.choice([0.0, math.pi / 2, -math.pi / 2, rng.uniform(-1.5, 1.5)]))
        else:
            center = rng.uniform(-0.1, 0.1, size=3)
            points = center + rng.uniform(-9 * GRID, 9 * GRID, size=(n, 3))
            orientation = rng.normal(size=3)
            orientation /= np.linalg.norm(orientation)
            theta = rng.uniform(-math.pi / 2, math.pi / 2)
        normals = rng.normal(size=(n, 3))  # one per index, so the pair names the indices it took
        cloud = PointCloud(points, normals / np.linalg.norm(normals, axis=1, keepdims=True))
        g = Grasp(center, orientation, theta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a closing axis along world Z warns
            pair = find_contacts(cloud, g, GRID_GRIPPER)
        s = GRID_GRIPPER
        ref = oracle_contacts(cloud.points.tolist(), g.center, g.orientation, g.theta, s.depth, s.width, s.height)
        assert (pair is None) == (ref is None)
        if ref is None:
            return
        i, j, y_i, y_j = ref
        for got, want in ((pair.ci, cloud.points[i]), (pair.cj, cloud.points[j]),
                          (pair.ni, cloud.normals[i]), (pair.nj, cloud.normals[j])):
            np.testing.assert_array_equal(got, want)
        if grid:
            assert (pair.y_i, pair.y_j) == (y_i, y_j)
        else:
            assert (pair.y_i, pair.y_j) == pytest.approx((y_i, y_j), abs=1e-12)


class TestAntipodalScore:
    def test_no_contact_pair_scores_zero(self):
        assert antipodal_score(None, PINCH) == 0.0
        assert antipodal_score(find_contacts(pinch_cloud(), Grasp((0, 0.5, 0), (0, 1, 0), 0.0), GRIPPER),
                               PINCH) == 0.0

    def test_perfectly_opposed_normals(self):
        pair = ContactPair(
            ci=np.array([0, 0.02, 0.0]),
            cj=np.array([0, -0.02, 0.0]),
            ni=np.array([0, 1.0, 0.0]),
            nj=np.array([0, -1.0, 0.0]),
            y_i=0.02,
            y_j=-0.02,
        )
        assert antipodal_score(pair, PINCH) == pytest.approx(1.0)

    def test_orthogonal_normal_scores_zero(self):
        pair = ContactPair(
            ci=np.zeros(3), cj=np.zeros(3),
            ni=np.array([1.0, 0, 0]), nj=np.array([0, -1.0, 0]),
            y_i=0.01, y_j=-0.01,
        )
        assert antipodal_score(pair, PINCH) == pytest.approx(0.0)

    def test_both_normals_at_45_degrees(self):
        c = math.sqrt(0.5)
        pair = ContactPair(
            ci=np.zeros(3), cj=np.zeros(3),
            ni=np.array([c, c, 0.0]), nj=np.array([c, -c, 0.0]),
            y_i=0.01, y_j=-0.01,
        )
        assert antipodal_score(pair, PINCH) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_in_contact_swap(self, rng):
        for _ in range(50):
            ni, nj = rng.normal(size=3), rng.normal(size=3)
            ni, nj = ni / np.linalg.norm(ni), nj / np.linalg.norm(nj)
            a = ContactPair(np.zeros(3), np.ones(3), ni, nj, 0.01, -0.01)
            b = ContactPair(np.ones(3), np.zeros(3), nj, ni, 0.01, -0.01)
            assert antipodal_score(a, PINCH) == pytest.approx(antipodal_score(b, PINCH), abs=1e-15)

    def test_product_an_ulp_above_one_is_clamped(self):
        """The clamp is live: for r = (2, 3, 6) / 7 with both normals along r, the product of the two unsigned
        cosines rounds to 1 plus an ulp, and the score reads exactly 1."""
        g = Grasp((0, 0, 0), (2 / 7, 3 / 7, 6 / 7), 0.0)
        r = g.orientation
        pair = ContactPair(np.zeros(3), np.zeros(3), r.copy(), -r, 0.01, -0.01)
        unclamped = (abs(float(r @ r)) / float(np.linalg.norm(r))) * (abs(float(r @ -r)) / float(np.linalg.norm(r)))
        assert unclamped == 1.0000000000000004
        assert antipodal_score(pair, g) == 1.0

    def test_zero_length_normal_rejected(self):
        pair = ContactPair(np.zeros(3), np.zeros(3), np.zeros(3), np.array([0, 1.0, 0]), 0.0, -0.01)
        with pytest.raises(ValueError):
            antipodal_score(pair, PINCH)

    def test_rigid_motion_invariance(self, rng):
        from grasplab.core import rotate_about_axis

        cloud = pinch_cloud()
        base = antipodal_score(find_contacts(cloud, PINCH, GRIPPER), PINCH)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        ang = 0.7
        R = np.column_stack([rotate_about_axis(np.eye(3)[i], axis, ang) for i in range(3)]).T
        t = np.array([0.3, -0.1, 0.2])
        moved = PointCloud(cloud.points @ R.T + t, cloud.normals @ R.T)
        g2 = Grasp(R @ PINCH.center + t, R @ PINCH.orientation, PINCH.theta)
        pair2 = find_contacts(moved, g2, GRIPPER)
        assert antipodal_score(pair2, g2) == pytest.approx(base, abs=1e-9)

    def test_estimated_vs_exact_normals_on_sphere(self):
        from grasplab import estimate_normals

        cloud = grid_sphere_cloud(0.5, 50, 50, pole_axis=(0, 1, 0))
        exact = with_radial_normals(cloud)
        est_normals, _ = estimate_normals(cloud, k=16)
        est = cloud.with_normals(est_normals)
        g = Grasp((0, 0, 0), (0, 1, 0), 0.0)
        gripper = GripperParams(1.2, 1.2, 0.3, 0.1)
        s_exact = antipodal_score(find_contacts(exact, g, gripper), g)
        s_est = antipodal_score(find_contacts(est, g, gripper), g)
        assert abs(s_exact - s_est) < 0.05


class TestWidthFit:
    def _pair(self, spread):
        return ContactPair(
            np.zeros(3), np.zeros(3), np.array([0, 1.0, 0]), np.array([0, -1.0, 0]),
            y_i=spread / 2.0, y_j=-spread / 2.0,
        )

    def test_spread_within_opening(self):
        assert width_fit(self._pair(0.05), GripperParams(0.06, 0.06, 0.04, 0.01))

    def test_spread_beyond_opening(self):
        assert not width_fit(self._pair(0.07), GripperParams(0.06, 0.06, 0.04, 0.01))

    def test_monotone_in_width(self, rng):
        for _ in range(50):
            spread = rng.uniform(0.0, 0.2)
            w1 = rng.uniform(0.01, 0.2)
            w2 = w1 + rng.uniform(0.0, 0.1)
            fit1 = width_fit(self._pair(spread), GripperParams(0.06, w1, 0.04, 0.01))
            fit2 = width_fit(self._pair(spread), GripperParams(0.06, w2, 0.04, 0.01))
            assert fit2 or not fit1

    def test_a_spread_of_exactly_the_opening_fits(self):
        """The opening is inclusive; 0.0625 and its halves are exact in binary."""
        gripper = GripperParams(0.06, 0.0625, 0.04, 0.01)
        assert width_fit(self._pair(0.0625), gripper)
        assert not width_fit(self._pair(np.nextafter(0.0625, 1.0)), gripper)
