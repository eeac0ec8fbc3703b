import contextlib
import gc
import math
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from grasplab import (
    ContactPair,
    EmptyRegionError,
    Grasp,
    GripperParams,
    PointCloud,
    SamplerConfig,
    antipodal_score,
    check_collision,
    closing_region_points,
    filter_collision_free,
    find_contacts,
    grasp_frame,
    grasp_frames,
    gripper_volume,
    sample_candidates,
)
from grasplab import collision
from grasplab.collision import _BALL_SLACK, _MAX_BALLS, BOUNDARY_TOL, _core_balls, _cull_spheres
from grasplab.sampling import _theta_for_approach
from conftest import grasp_to_world, oracle_collision, oracle_frame, tabletop_cloud, world_to_grasp

GRIPPER = GripperParams(0.06, 0.08, 0.04, 0.01)
AXIS_Y = Grasp((0, 0, 0), (0, 1, 0), 0.0)


def _random_grasp(rng, span=0.3):
    r = rng.normal(size=3)
    r /= np.linalg.norm(r)
    return Grasp(rng.uniform(-span, span, size=3), r, rng.uniform(-math.pi / 2, math.pi / 2))


class TestGripperVolume:
    def test_finger_pos_y_range(self):
        v = gripper_volume(GRIPPER)
        assert v.finger_pos.lo[1] == pytest.approx(0.04)
        assert v.finger_pos.hi[1] == pytest.approx(0.05)

    def test_closing_volume(self):
        v = gripper_volume(GRIPPER)
        assert v.closing.volume == pytest.approx(0.06 * 0.08 * 0.04)

    def test_boxes_tile_contiguously_in_y(self):
        v = gripper_volume(GRIPPER)
        assert v.finger_neg.hi[1] == v.closing.lo[1]
        assert v.finger_pos.lo[1] == v.closing.hi[1]

    def test_back_sits_behind_minus_x(self):
        v = gripper_volume(GRIPPER)
        assert v.back.hi[0] == v.closing.lo[0]
        assert v.back.lo[0] == pytest.approx(-0.04)


class TestBox3:
    @pytest.mark.parametrize("strict", [False, True], ids=["inclusive", "strict"])
    @pytest.mark.parametrize("outside", [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])  # past a face, in BOUNDARY_TOL
    def test_contains_at_each_face(self, strict, outside):
        # at +-1 the point is the tolerance bound itself: strict excludes it, inclusive admits it
        box = gripper_volume(GRIPPER).finger_pos
        expected = outside < -1.0 if strict else outside <= 1.0
        for axis in range(3):
            for sign, face in ((-1.0, box.lo), (1.0, box.hi)):
                p = (box.lo + box.hi) / 2.0
                p[axis] = face[axis] + sign * outside * BOUNDARY_TOL
                assert box.contains(p, strict).tolist() == [expected], (axis, sign)


class TestCheckCollision:
    def test_empty_cloud(self):
        assert not check_collision(PointCloud(np.zeros((0, 3))), AXIS_Y, GRIPPER)

    def test_point_inside_finger(self):
        w, t = GRIPPER.width, GRIPPER.thickness
        cloud = PointCloud(np.array([[0.0, w / 2 + t / 2, 0.0]]))
        assert check_collision(cloud, AXIS_Y, GRIPPER)

    def test_closing_region_point_is_not_collision(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        assert not check_collision(cloud, AXIS_Y, GRIPPER)

    def test_boundary_point_is_not_collision(self):
        cloud = PointCloud(np.array([[0.0, GRIPPER.width / 2, 0.0]]))
        assert not check_collision(cloud, AXIS_Y, GRIPPER)

    def test_agrees_with_naive_scan(self, rng):
        hits = 0
        for _ in range(1000):
            cloud = PointCloud(rng.uniform(-0.15, 0.15, size=(40, 3)))
            g = _random_grasp(rng, span=0.1)
            s = GripperParams(
                rng.uniform(0.04, 0.08),
                rng.uniform(0.06, 0.12),
                rng.uniform(0.02, 0.06),
                rng.uniform(0.005, 0.02),
            )
            expected = oracle_collision(
                cloud.points.tolist(), g.center, g.orientation, g.theta,
                s.depth, s.width, s.height, s.thickness,
            )
            assert check_collision(cloud, g, s) == expected
            hits += expected
        assert 0 < hits < 1000  # both outcomes exercised

    def test_invariant_under_ground_preserving_motion(self, rng):
        # the frame's X' reference is tied to the ground plane, so the exact
        # invariance holds for rotations about world Z plus translations
        cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(50, 3)))
        for _ in range(50):
            g = _random_grasp(rng, span=0.05)
            a = rng.uniform(0, 2 * math.pi)
            R = np.array(
                [[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1.0]]
            )
            t = rng.uniform(-0.2, 0.2, size=3)
            moved = PointCloud(cloud.points @ R.T + t)
            g2 = Grasp(R @ g.center + t, R @ g.orientation, g.theta)
            assert check_collision(moved, g2, GRIPPER) == check_collision(cloud, g, GRIPPER)

    def test_thicker_fingers_keep_finger_collisions(self, rng):
        # a point strictly inside a finger box stays inside when T grows
        for _ in range(50):
            t1 = rng.uniform(0.005, 0.02)
            t2 = t1 + rng.uniform(0.0, 0.02)
            y = GRIPPER.width / 2 + rng.uniform(1e-6, t1 - 1e-6)
            cloud = PointCloud(np.array([[0.0, y, 0.0]]))
            s1 = GripperParams(GRIPPER.depth, GRIPPER.width, GRIPPER.height, t1)
            s2 = GripperParams(GRIPPER.depth, GRIPPER.width, GRIPPER.height, t2)
            assert check_collision(cloud, AXIS_Y, s1)
            assert check_collision(cloud, AXIS_Y, s2)


class TestFilterCollisionFree:
    def test_all_colliding_gives_empty(self):
        w, t = GRIPPER.width, GRIPPER.thickness
        cloud = PointCloud(np.array([[0.0, w / 2 + t / 2, 0.0]]))
        grasps = [AXIS_Y, Grasp((0, 0, 0), (0, 1, 0), 0.1)]
        assert filter_collision_free(grasps, cloud, GRIPPER) == []

    def test_empty_scene_returns_input(self):
        grasps = [AXIS_Y]
        out = filter_collision_free(grasps, PointCloud(np.zeros((0, 3))), GRIPPER)
        assert out == grasps

    def test_subset_order_preserved_and_rechecked(self, rng):
        cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(200, 3)))
        grasps = [_random_grasp(rng, span=0.08) for _ in range(60)]
        out = filter_collision_free(grasps, cloud, GRIPPER)
        ids = [id(g) for g in grasps]
        positions = [ids.index(id(g)) for g in out]
        assert positions == sorted(positions)
        kept = set(positions)
        checked = PointCloud(cloud.points)  # its own verdict table, so each grasp is decided again
        for i, g in enumerate(grasps):
            assert check_collision(checked, g, GRIPPER) == (i not in kept)

    def test_idempotent(self, rng):
        cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(100, 3)))
        grasps = [_random_grasp(rng, span=0.08) for _ in range(30)]
        once = filter_collision_free(grasps, cloud, GRIPPER)
        twice = filter_collision_free(once, PointCloud(cloud.points), GRIPPER)
        assert [id(g) for g in once] == [id(g) for g in twice]


class TestClosingRegionPoints:
    def test_single_point_padded_to_keep(self):
        cloud = PointCloud(np.array([[0.0, 0.01, 0.0]]))
        pts, padded = closing_region_points(cloud, AXIS_Y, GRIPPER, keep=64, seed=0)
        assert padded and pts.shape == (64, 3)
        np.testing.assert_allclose(pts, np.tile([0.0, 0.01, 0.0], (64, 1)), atol=1e-12)

    def test_grasp_center_maps_to_origin(self):
        cloud = PointCloud(np.array([[0.3, -0.2, 0.1]]))
        g = Grasp((0.3, -0.2, 0.1), (0, 1, 0), 0.4)
        pts, _ = closing_region_points(cloud, g, GRIPPER, keep=4, seed=0)
        np.testing.assert_allclose(pts, np.zeros((4, 3)), atol=1e-12)

    def test_empty_region_raises(self):
        cloud = PointCloud(np.array([[1.0, 1.0, 1.0]]))
        with pytest.raises(EmptyRegionError):
            closing_region_points(cloud, AXIS_Y, GRIPPER)

    def test_membership_matches_brute_force(self, rng):
        for _ in range(50):
            cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(80, 3)))
            g = _random_grasp(rng, span=0.05)
            d2, w2, h2 = GRIPPER.depth / 2, GRIPPER.width / 2, GRIPPER.height / 2
            expected = set()
            for i, p in enumerate(cloud.points):
                q = world_to_grasp(g, p)
                if abs(q[0]) <= d2 + 1e-12 and abs(q[1]) <= w2 + 1e-12 and abs(q[2]) <= h2 + 1e-12:
                    expected.add(i)
            if not expected:
                with pytest.raises(EmptyRegionError):
                    closing_region_points(cloud, g, GRIPPER, keep=16, seed=2)
                continue
            pts, padded = closing_region_points(cloud, g, GRIPPER, keep=16, seed=2)
            assert padded == (len(expected) < 16)
            all_q = world_to_grasp(g, cloud.points)
            returned = {tuple(np.round(row, 12)) for row in pts}
            allowed = {tuple(np.round(all_q[i], 12)) for i in expected}
            assert returned <= allowed


# distances from a box face: on both sides of BOUNDARY_TOL, never at it
FACE_OFFSETS = np.array([1e-13, 5e-13, 3e-12, 1e-11, 1e-10, 1e-9])
DIMS = (GRIPPER.depth, GRIPPER.width, GRIPPER.height, GRIPPER.thickness)


def _planted(rng, g, boxes, strictly_inside):
    """World points near the faces and corners of a grasp's boxes.

    With `strictly_inside`, some points lie strictly inside a box, some
    exactly on the radii of the spheres that cull it and some just inside or
    just outside the surface of a core ball; without, every point
    lies outside the boxes or within BOUNDARY_TOL of them, and points that
    land strictly inside a neighbouring obstacle box are dropped.
    """
    near = []
    for box in boxes:
        for axis in range(3):
            for outward, side in ((-1.0, box.lo), (1.0, box.hi)):
                q = rng.uniform(box.lo, box.hi)
                d = rng.choice(FACE_OFFSETS)
                inward = rng.integers(2) == 1 and (strictly_inside or d < BOUNDARY_TOL)
                q[axis] = side[axis] + (-d if inward else d) * outward
                near.append(q)
        outward = np.where(rng.integers(0, 2, size=3) == 1, 1.0, -1.0)
        corner = np.where(outward > 0, box.hi, box.lo)
        near.append(corner + outward * rng.choice(FACE_OFFSETS[:2], size=3))
        if strictly_inside:
            near.append(corner - outward * rng.choice(FACE_OFFSETS[2:], size=3))
    world = [grasp_to_world(g, np.array(near))]
    for box in boxes if strictly_inside else ():
        centers, radius = _cull_spheres(box)
        u = rng.normal(size=(len(centers), 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        world.append(grasp_to_world(g, centers) + radius * u)
        world.append(_near_ball_surfaces(rng, g, box, 2))
    pts = np.vstack(world)
    if not strictly_inside:
        pts = pts[[not oracle_collision([p], g.center, g.orientation, g.theta, *DIMS) for p in pts.tolist()]]
    return pts


BALL_SCALES = np.array([1 - 1e-9, 1 - 1e-12, 1 + 1e-12, 1 + 1e-9])  # on both sides of a ball's surface


def _near_ball_surfaces(rng, g, box, n):
    """World points just inside or just outside the surfaces of n core balls of grasp g's box."""
    centers, radius = _core_balls(box)
    pick = rng.choice(len(centers), size=min(n, len(centers)), replace=False)
    u = rng.normal(size=(len(pick), 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return grasp_to_world(g, centers[pick] + radius * rng.choice(BALL_SCALES, size=(len(pick), 1)) * u)


def _tiled_scene(rng, boxes_of, seeds):
    """Candidates sampled on the sphere of tabletop clouds: those clear of the
    table and a few that are not. Each grasp gets its own copy of the table,
    0.5 m from the next, plus points planted around it.

    Returns (grasps, each grasp's tile points, the union cloud with normals).
    """
    boxes = boxes_of(gripper_volume(GRIPPER))
    grasps, tiles, normals = [], [], []
    for seed in seeds:
        base = tabletop_cloud(seed, n_table=300, n_object=200)
        cfg = SamplerConfig(n_centers=25, n_orientation_perturbations=2, n_angle_perturbations=2, rng_seed=seed)
        cands = sample_candidates(PointCloud(base.points[300:]), GRIPPER, cfg)
        table_pts = base.points.tolist()
        clear = [g for g in cands if not oracle_collision(table_pts, g.center, g.orientation, g.theta, *DIMS)]
        for i, g in enumerate(clear + cands[:4]):
            shift = np.array([0.5 * len(grasps), 0.0, 0.0])
            g = Grasp(g.center + shift, g.orientation, g.theta)
            plants = _planted(rng, g, boxes, strictly_inside=i % 2 == 0)
            grasps.append(g)
            tiles.append(np.vstack([base.points + shift, plants]))
            normals.append(np.vstack([base.normals, np.tile([0.0, 0.0, 1.0], (len(plants), 1))]))
    return grasps, tiles, PointCloud(np.vstack(tiles), np.vstack(normals))


def _full_scan_closing(cloud, g):
    q = world_to_grasp(g, cloud.points)
    return np.flatnonzero(gripper_volume(GRIPPER).closing.contains(q)), q


def _full_scan_contacts(cloud, g):
    inside, q = _full_scan_closing(cloud, g)
    pos = inside[q[inside, 1] >= 0.0]
    neg = inside[q[inside, 1] < 0.0]
    if pos.size == 0 or neg.size == 0:
        return None
    i = pos[np.argmax(q[pos, 1])]
    j = neg[np.argmin(q[neg, 1])]
    return ContactPair(cloud.points[i], cloud.points[j], cloud.normals[i], cloud.normals[j],
                       float(q[i, 1]), float(q[j, 1]))


def _full_scan_region(cloud, g, keep, seed):
    inside, q = _full_scan_closing(cloud, g)
    if inside.size == 0:
        return None
    rng = np.random.default_rng(seed)
    if inside.size > keep:
        return q[rng.choice(inside, size=keep, replace=False)], False
    if inside.size < keep:
        pad = rng.choice(inside, size=keep - inside.size, replace=True)
        return q[np.concatenate([inside, pad])], True
    return q[inside], False


def _assert_same_contacts(cloud, g):
    got, ref = find_contacts(cloud, g, GRIPPER), _full_scan_contacts(cloud, g)
    assert (got is None) == (ref is None)
    if ref is not None:
        for name in ("ci", "cj", "ni", "nj"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
        assert (got.y_i, got.y_j) == (ref.y_i, ref.y_j)
    return ref is not None


def _assert_same_region(cloud, g, keep):
    ref = _full_scan_region(cloud, g, keep, seed=5)
    if ref is None:
        with pytest.raises(EmptyRegionError):
            closing_region_points(cloud, g, GRIPPER, keep=keep, seed=5)
        return
    pts, padded = closing_region_points(cloud, g, GRIPPER, keep=keep, seed=5)
    assert padded == ref[1]
    np.testing.assert_array_equal(pts, ref[0])


class TestCulledKernel:
    def test_spheres_cover_every_box_with_tolerance(self, rng):
        for _ in range(20):
            s = GripperParams(*rng.uniform([0.02, 0.02, 0.01, 0.002], [0.1, 0.15, 0.08, 0.03]))
            v = gripper_volume(s)
            for box in (v.closing, *v.obstacles):
                centers, radius = _cull_spheres(box)
                corners = np.array([[(box.lo, box.hi)[(k >> a) & 1][a] for a in range(3)] for k in range(8)])
                outward = np.sign(corners - (box.lo + box.hi) / 2.0)
                pts = np.vstack([rng.uniform(box.lo, box.hi, size=(200, 3)),
                                 corners + 2.0 * BOUNDARY_TOL * outward])
                d = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
                assert np.all(d < radius)

    def test_filter_matches_oracle_on_tabletop_clouds(self, rng):
        grasps, tiles, cloud = _tiled_scene(rng, lambda v: v.obstacles, seeds=(0, 1, 2))
        kept = {id(g) for g in filter_collision_free(grasps, cloud, GRIPPER)}
        checked = PointCloud(cloud.points)  # its own verdict table, so each grasp is decided again
        hits = 0
        for g, tile in zip(grasps, tiles):
            # the other tiles lie beyond the gripper's reach from this grasp
            expected = oracle_collision(tile.tolist(), g.center, g.orientation, g.theta, *DIMS)
            assert (id(g) not in kept) == expected
            assert check_collision(checked, g, GRIPPER) == expected
            hits += expected
        assert 0 < hits < len(grasps)

    def test_contacts_and_closing_region_match_full_scan(self, rng):
        grasps, _, cloud = _tiled_scene(rng, lambda v: (v.closing,), seeds=(3,))
        pairs = 0
        for g in grasps:
            pairs += _assert_same_contacts(cloud, g)
            for keep in (8, 4096):
                _assert_same_region(cloud, g, keep)
        assert pairs > 0

    @pytest.mark.parametrize("points", [
        np.zeros((0, 3)),
        np.array([[0.0, 0.045, 0.0]]),         # inside the +Y finger
        np.array([[0.0, 0.01, 0.0]]),          # inside the closing region
        np.array([[0.0, 0.04 + 5e-13, 0.0]]),  # on the closing/finger face, within tol
        np.array([[0.5, 0.5, 0.5]]),           # far away
    ], ids=["empty", "finger", "closing", "face", "far"])
    def test_empty_and_one_point_clouds(self, points):
        cloud = PointCloud(points, np.tile([0.0, 0.0, 1.0], (len(points), 1)))
        expected = oracle_collision(points.tolist(), AXIS_Y.center, AXIS_Y.orientation, AXIS_Y.theta, *DIMS)
        assert check_collision(cloud, AXIS_Y, GRIPPER) == expected
        assert filter_collision_free([AXIS_Y], PointCloud(points), GRIPPER) == ([] if expected else [AXIS_Y])
        if len(points):
            _assert_same_contacts(cloud, AXIS_Y)
            _assert_same_region(cloud, AXIS_Y, 4)
        else:
            assert find_contacts(cloud, AXIS_Y, GRIPPER) is None
            with pytest.raises(EmptyRegionError):
                closing_region_points(cloud, AXIS_Y, GRIPPER)


class TestCoreBallPrePass:
    """The core balls only prove collisions, so the filter's verdicts stay the exact test's."""

    @settings(max_examples=40, deadline=None)
    @given(dims=st.tuples(st.floats(0.005, 0.2), st.floats(0.005, 0.2), st.floats(0.005, 0.2),
                          st.floats(1e-9, 0.05)))
    def test_every_ball_is_inside_its_box_by_the_margin(self, dims):
        for box in gripper_volume(GripperParams(*dims)).obstacles:
            centers, radius = _core_balls(box)
            assert len(centers) <= _MAX_BALLS
            if not len(centers):
                assert min(box.hi - box.lo) <= 2 * (BOUNDARY_TOL + _BALL_SLACK)
                continue
            assert radius > 0.0
            # exact arithmetic on the float values; 1e-15 of rounding in the centers is far inside the slack
            margin = Fraction(BOUNDARY_TOL) + Fraction(_BALL_SLACK) - Fraction(1e-15)
            r = Fraction(radius)
            for c in centers.tolist():
                for a in range(3):
                    assert Fraction(c[a]) - r - Fraction(float(box.lo[a])) >= margin
                    assert Fraction(float(box.hi[a])) - Fraction(c[a]) - r >= margin

    def test_thin_gripper_stays_within_the_cap(self):
        for box in gripper_volume(GripperParams(0.1, 0.15, 0.08, 0.002)).obstacles:
            centers, radius = _core_balls(box)
            assert 0 < len(centers) <= _MAX_BALLS and radius > 0.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 40))
    def test_batched_frames_equal_one_at_a_time(self, seed, n):
        rng = np.random.default_rng(seed)
        grasps = [_random_grasp(rng) for _ in range(n)]
        special = [(0, 0, 1), (0, 0, -1), (1e-10, -1e-10, 1)]  # closing axis parallel to world Z
        for i in rng.choice(n, size=rng.integers(0, min(n, 4) + 1), replace=False):
            r = special[rng.integers(3)] if rng.integers(2) else grasps[i].orientation
            theta = rng.choice([math.pi / 2, -math.pi / 2, grasps[i].theta])
            grasps[i] = Grasp(grasps[i].center, r, theta)
        flat = any(abs(g.orientation[0]) < 1e-9 and abs(g.orientation[1]) < 1e-9 for g in grasps)
        with pytest.warns(RuntimeWarning) if flat else contextlib.nullcontext():
            rotations = grasp_frames(np.stack([g.orientation for g in grasps]), [g.theta for g in grasps])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for g, rotation in zip(grasps, rotations):
                assert np.array_equal(rotation, grasp_frame(g))
                x, y, z, _ = oracle_frame(g.center, g.orientation, g.theta)
                np.testing.assert_allclose(rotation, np.column_stack([x, y, z]), rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_survivors_match_oracle_near_ball_surfaces_and_faces(self, seed):
        rng = np.random.default_rng(seed)
        grasps = [_random_grasp(rng, span=0.2) for _ in range(30)]
        obstacles = gripper_volume(GRIPPER).obstacles
        plants = []
        for i, g in enumerate(grasps):
            box = obstacles[rng.integers(3)]
            if i % 3 == 0:
                plants.append(_near_ball_surfaces(rng, g, box, 3))
            elif i % 3 == 1:
                # where a ball comes closest to a face: across the box's thinnest axis, either side of the face
                centers, _ = _core_balls(box)
                q = centers[rng.integers(len(centers))].copy()
                axis = int(np.argmin(box.hi - box.lo))
                q[axis] = (box.lo, box.hi)[rng.integers(2)][axis] + rng.choice([-1.0, 1.0]) * rng.choice(FACE_OFFSETS)
                plants.append(grasp_to_world(g, q[None]))
        cloud = PointCloud(np.vstack(plants))
        kept = {id(g) for g in filter_collision_free(grasps, cloud, GRIPPER)}
        points = cloud.points.tolist()
        verdicts = [oracle_collision(points, g.center, g.orientation, g.theta, *DIMS) for g in grasps]
        assert [id(g) not in kept for g in grasps] == verdicts
        assert any(verdicts)

    def test_deep_collision_is_settled_without_the_exact_test(self, monkeypatch):
        balls, _ = _core_balls(gripper_volume(GRIPPER).finger_pos)
        deep = Grasp((0.0, 0.0, 0.0), (0, 1, 0), 0.0)
        clear = Grasp((1.0, 0.0, 0.0), (0, 1, 0), 0.0)
        cloud = PointCloud(grasp_to_world(deep, balls[:1]))
        tested = []
        real = collision._box_points

        def counting(cloud, rotations, origins, kernel, strict):
            tested.extend(map(tuple, origins))
            return real(cloud, rotations, origins, kernel, strict)

        monkeypatch.setattr(collision, "_box_points", counting)
        assert filter_collision_free([deep, clear], cloud, GRIPPER) == [clear]
        assert tuple(clear.center) in tested and tuple(deep.center) not in tested

    def test_fingers_too_thin_for_balls_leave_the_exact_test(self):
        thin = GripperParams(0.06, 0.08, 0.04, 1e-9)
        assert all(len(_core_balls(box)[0]) == 0 for box in gripper_volume(thin).obstacles)
        inside = PointCloud(np.array([[0.0, 0.04 + 5e-10, 0.0]]))
        assert filter_collision_free([AXIS_Y], inside, thin) == []
        assert filter_collision_free([AXIS_Y], PointCloud(np.array([[0.0, 0.04 + 2e-9, 0.0]])), thin) == [AXIS_Y]


class TestVerdictTable:
    """A cloud decides each grasp frame once per gripper; later asks are table hits with the same verdicts."""

    def test_check_after_filter_makes_no_query(self, rng, monkeypatch):
        cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(200, 3)))
        grasps = [_random_grasp(rng, span=0.08) for _ in range(60)]
        free = {id(g) for g in filter_collision_free(grasps, cloud, GRIPPER)}
        assert 0 < len(free) < len(grasps)

        def no_query(*args):
            raise AssertionError("a decided grasp was queried again")

        monkeypatch.setattr(collision, "_ball_hits", no_query)
        monkeypatch.setattr(collision, "_box_points", no_query)
        for g in grasps:
            assert check_collision(cloud, g, GRIPPER) == (id(g) not in free)

    def test_verdicts_are_freed_with_their_cloud(self, rng):
        cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(50, 3)))
        filter_collision_free([_random_grasp(rng) for _ in range(5)], cloud, GRIPPER)
        assert cloud in collision._VERDICTS
        gc.collect()
        before, ref = len(collision._VERDICTS), weakref.ref(cloud)
        del cloud
        gc.collect()
        assert ref() is None  # the table holds no strong reference to its cloud
        assert len(collision._VERDICTS) == before - 1

    @pytest.mark.parametrize("first", ["narrow", "wide"])
    def test_grippers_keep_separate_verdicts(self, first):
        # the point sits in the narrow gripper's +Y finger and in the wide gripper's closing region
        wide = GripperParams(GRIPPER.depth, 0.12, GRIPPER.height, GRIPPER.thickness)
        cloud = PointCloud(np.array([[0.0, GRIPPER.width / 2 + GRIPPER.thickness / 2, 0.0]]))
        order = [GRIPPER, wide] if first == "narrow" else [wide, GRIPPER]
        for s in order + order:
            assert check_collision(cloud, AXIS_Y, s) == (s is GRIPPER)
            assert filter_collision_free([AXIS_Y], cloud, s) == ([] if s is GRIPPER else [AXIS_Y])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 30), data=st.data())
    def test_mixed_batch_returns_the_uncached_verdicts_in_order(self, seed, n, data):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-0.1, 0.1, size=(150, 3))
        grasps = [_random_grasp(rng, span=0.08) for _ in range(n)]
        index = st.integers(0, n - 1)
        filtered, checked = data.draw(st.lists(index, max_size=n)), data.draw(st.lists(index, max_size=n))
        batch = data.draw(st.lists(index, min_size=1, max_size=2 * n))  # any order, repeats allowed
        cloud = PointCloud(points)
        filter_collision_free([grasps[i] for i in filtered], cloud, GRIPPER)
        for i in checked:
            check_collision(cloud, grasps[i], GRIPPER)
        survivors = [id(g) for g in filter_collision_free([grasps[i] for i in batch], cloud, GRIPPER)]
        uncached = [id(g) for g in filter_collision_free([grasps[i] for i in batch], PointCloud(points), GRIPPER)]
        assert survivors == uncached
        oracle = [not oracle_collision(points.tolist(), g.center, g.orientation, g.theta, *DIMS) for g in grasps]
        assert survivors == [id(grasps[i]) for i in batch if oracle[i]]


FACE_MARGIN = 1e-6  # points this close to a box face, or to the closing plane y = 0, are dropped


def _near_a_face(points, grasps):
    """Points within FACE_MARGIN of a box face of any grasp, or of its closing plane inside the closing box."""
    near = np.zeros(len(points), dtype=bool)
    volume = gripper_volume(GRIPPER)
    for g in grasps:
        q = world_to_grasp(g, points)
        for box in (volume.closing, *volume.obstacles):
            outer = np.all((q > box.lo - FACE_MARGIN) & (q < box.hi + FACE_MARGIN), axis=1)
            inner = np.all((q > box.lo + FACE_MARGIN) & (q < box.hi - FACE_MARGIN), axis=1)
            near |= outer & ~inner
            if box is volume.closing:
                near |= outer & (np.abs(q[:, 1]) < FACE_MARGIN)
    return near


def _moved(g, R, t):
    """g carried by the rigid motion x -> R x + t; the closing axis may flip to keep theta in range."""
    r, theta = _theta_for_approach((R @ g.orientation)[None], (R @ grasp_frame(g)[:, 0])[None])
    return Grasp(R @ g.center + t, r[0], theta[0])


class TestRigidMotion:
    """Moving the cloud and the grasps together keeps survivors, contacts and antipodal scores."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16),
           quat=st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(lambda q: np.linalg.norm(q) > 0.1),
           shift=st.lists(st.floats(-2, 2), min_size=3, max_size=3))
    def test_survivors_contacts_and_scores_are_invariant(self, seed, quat, shift):
        rng = np.random.default_rng(seed)
        grasps = [_random_grasp(rng, span=0.04) for _ in range(30)]
        grasps = [Grasp(g.center + (0.0, 0.0, 0.03), g.orientation, g.theta) for g in grasps]
        scene = tabletop_cloud(seed, n_table=300, n_object=200)
        keep = ~_near_a_face(scene.points, grasps)
        cloud = PointCloud(scene.points[keep], scene.normals[keep])
        R, t = Rotation.from_quat(quat).as_matrix(), np.array(shift)
        moved_cloud = PointCloud(cloud.points @ R.T + t, cloud.normals @ R.T)
        moved = [_moved(g, R, t) for g in grasps]

        free = {id(g) for g in filter_collision_free(grasps, cloud, GRIPPER)}
        moved_free = {id(m) for m in filter_collision_free(moved, moved_cloud, GRIPPER)}
        assert [id(g) in free for g in grasps] == [id(m) in moved_free for m in moved]
        for g, m in zip(grasps, moved):
            pair, moved_pair = find_contacts(cloud, g, GRIPPER), find_contacts(moved_cloud, m, GRIPPER)
            assert (pair is None) == (moved_pair is None)
            assert antipodal_score(moved_pair, m) == pytest.approx(antipodal_score(pair, g), abs=1e-9)
            if pair is not None:
                # a flipped closing axis swaps which jaw touches which point
                flipped = float(m.orientation @ (R @ g.orientation)) < 0.0
                want = [pair.cj, pair.ci] if flipped else [pair.ci, pair.cj]
                np.testing.assert_allclose((np.array([moved_pair.ci, moved_pair.cj]) - t) @ R, want, atol=1e-9)
