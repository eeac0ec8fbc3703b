"""Seeded single-view tabletop scenes and the input files the benchmark feeds the CLI.

A scene is a sphere, a box and a lying cylinder on a plane, as seen by a
camera on +Z (the viewpoint `estimate_normals` orients normals toward):
only upward-facing surfaces are kept, and plane points under an object's
footprint are removed as occluded. The sampler aims along -normal, so a
closed surface's underside would get grasps aimed up through the table,
all of which collide.

Only numpy is used, so the program under test sees nothing but the files
written here. The same (seed, index) pair always gives the same bytes.

    python3 bench/scenes.py --workload label_gen --seed 3 --index 1 --out DIR
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRIPPER = (0.06, 0.08, 0.04, 0.01)  # depth, width, height, thickness (m)
GRIPPER_ARG = ",".join(f"{v:g}" for v in GRIPPER)

PLANE_HALF = 0.15      # plane is [-0.15, 0.15]^2 at z = 0
SPHERE_R = 0.035
BOX = (0.06, 0.05, 0.07)            # length, width, height
CYL_R, CYL_LEN = 0.035, 0.10        # lying cylinder, axis in the ground plane
OBJECT_SHARE = 0.75                 # share of points on objects


def _fmt(v) -> str:
    return f"{float(v):.9g}"


def _rows(arr: np.ndarray) -> str:
    return "".join(" ".join(_fmt(v) for v in row) + "\n" for row in arr)


def _rot_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass
class Scene:
    """Points, analytic outward normals and an on-object mask for one tabletop."""

    points: np.ndarray
    normals: np.ndarray
    on_object: np.ndarray


def tabletop(n_points: int, rng: np.random.Generator) -> Scene:
    """Single-view tabletop with n_points points, OBJECT_SHARE of them on objects."""
    jitter = rng.uniform(-0.01, 0.01, size=(3, 2))
    sphere_c = np.array([-0.07, -0.05]) + jitter[0]
    box_c = np.array([0.07, -0.05]) + jitter[1]
    cyl_c = np.array([0.0, 0.07]) + jitter[2]
    box_rot = _rot_z(rng.uniform(0.0, math.pi))
    cyl_rot = _rot_z(rng.uniform(0.0, math.pi))

    areas = np.array([
        2.0 * math.pi * SPHERE_R ** 2,        # upper hemisphere
        BOX[0] * BOX[1],                      # box top face
        math.pi * CYL_R * CYL_LEN,            # upper half of the cylinder
    ])
    n_obj = int(round(n_points * OBJECT_SHARE))
    counts = np.floor(n_obj * areas / areas.sum()).astype(int)
    counts[-1] = n_obj - counts[:-1].sum()

    # sphere: z uniform on [0, 1] is area-uniform on the hemisphere
    z = rng.uniform(0.0, 1.0, counts[0])
    phi = rng.uniform(0.0, 2.0 * math.pi, counts[0])
    rho = np.sqrt(1.0 - z ** 2)
    n_s = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    p_s = n_s * SPHERE_R + np.array([*sphere_c, SPHERE_R])

    uv = rng.uniform(-0.5, 0.5, size=(counts[1], 2)) * BOX[:2]
    p_b = np.column_stack([uv, np.full(counts[1], BOX[2])]) @ box_rot.T + np.array([*box_c, 0.0])
    n_b = np.tile([0.0, 0.0, 1.0], (counts[1], 1))

    # cylinder along local X, lying on the plane; angle in [0, pi] keeps the upper half
    ang = rng.uniform(0.0, math.pi, counts[2])
    t = rng.uniform(-0.5, 0.5, counts[2]) * CYL_LEN
    n_c = np.column_stack([np.zeros(counts[2]), np.cos(ang), np.sin(ang)]) @ cyl_rot.T
    p_c = np.column_stack([t, CYL_R * np.cos(ang), CYL_R * np.sin(ang) + CYL_R]) @ cyl_rot.T
    p_c += np.array([*cyl_c, 0.0])

    # plane: rejection-sample outside every footprint until enough points remain
    n_plane = n_points - n_obj
    plane = np.empty((0, 2))
    while len(plane) < n_plane:
        xy = rng.uniform(-PLANE_HALF, PLANE_HALF, size=(2 * n_plane, 2))
        hidden = np.linalg.norm(xy - sphere_c, axis=1) < SPHERE_R
        local_b = (xy - box_c) @ box_rot[:2, :2]
        hidden |= np.all(np.abs(local_b) < np.array(BOX[:2]) / 2.0, axis=1)
        local_c = (xy - cyl_c) @ cyl_rot[:2, :2]
        hidden |= (np.abs(local_c[:, 0]) < CYL_LEN / 2.0) & (np.abs(local_c[:, 1]) < CYL_R)
        plane = np.vstack([plane, xy[~hidden]])
    p_p = np.column_stack([plane[:n_plane], np.zeros(n_plane)])
    n_p = np.tile([0.0, 0.0, 1.0], (n_plane, 1))

    points = np.vstack([p_s, p_b, p_c, p_p])
    normals = np.vstack([n_s, n_b, n_c, n_p])
    on_object = np.arange(len(points)) < n_obj
    return Scene(points, normals, on_object)


def _approach_grasps(scene: Scene, n: int, rng: np.random.Generator) -> np.ndarray:
    """n grasp rows (cx,cy,cz,rx,ry,rz,theta) aimed near -normal at object points.

    The closing axis is a random direction perpendicular to the approach;
    the center sits depth/2 past the surface, as the CLI sampler places it.
    """
    idx = rng.choice(np.flatnonzero(scene.on_object), size=n, replace=True)
    approach = -scene.normals[idx]
    rand = rng.normal(size=(n, 3))
    r = rand - np.einsum("ni,ni->n", rand, approach)[:, None] * approach
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    centers = scene.points[idx] + GRIPPER[0] / 2.0 * approach
    # tilt the approach about the closing axis by up to 2 degrees around the
    # fixed center, so that fewer of the pooled predictions survive collision
    # than `eval --top` keeps (about 50 of 1,000)
    tilt = rng.uniform(-math.pi / 90, math.pi / 90, n)[:, None]
    approach = approach * np.cos(tilt) + np.cross(r, approach) * np.sin(tilt)
    # theta rotates X' = normalize(r_y, -r_x, 0) about r onto the approach;
    # r is sign-free for a parallel jaw, so flip it to keep |theta| <= pi/2
    def theta_of(r):
        x_ref = np.column_stack([r[:, 1], -r[:, 0], np.zeros(n)])
        x_ref /= np.linalg.norm(x_ref, axis=1, keepdims=True)
        return np.arctan2(np.einsum("ni,ni->n", np.cross(r, x_ref), approach),
                          np.einsum("ni,ni->n", x_ref, approach))

    r = np.where((np.abs(theta_of(r)) > math.pi / 2)[:, None], -r, r)
    return np.column_stack([centers, r, theta_of(r)])


def _write_grasps(path: Path, rows: np.ndarray, scores: np.ndarray) -> None:
    body = "".join(",".join(_fmt(v) for v in (*row, s)) + "\n" for row, s in zip(rows, scores))
    path.write_text("cx,cy,cz,rx,ry,rz,theta,sq\n" + body)


def _write_ply_with_normals(path: Path, scene: Scene) -> None:
    header = ["ply", "format ascii 1.0", f"element vertex {len(scene.points)}"]
    header += [f"property float {p}" for p in ("x", "y", "z", "nx", "ny", "nz")]
    header.append("end_header")
    path.write_text("\n".join(header) + "\n" + _rows(np.hstack([scene.points, scene.normals])))


def write_inputs(workload: str, size: dict, seed: int, index: int, out: Path) -> list[str]:
    """Write the input files of scene `index` of a run seeded with `seed`.

    `size` holds the workload's `points` and, for eval inputs, `predictions`
    and `ground_truth` counts. Returns the names of the files written.
    """
    rng = np.random.default_rng([seed, index])
    scene = tabletop(size["points"], rng)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "eval_protocol":
        _write_ply_with_normals(out / "scene.ply", scene)
        preds = _approach_grasps(scene, size["predictions"], rng)
        _write_grasps(out / "pred.csv", preds, rng.uniform(0.0, 1.0, len(preds)))
        gt = _approach_grasps(scene, size["ground_truth"], rng)
        _write_grasps(out / "gt.csv", gt, np.ones(len(gt)))
        return ["scene.ply", "pred.csv", "gt.csv"]
    (out / "scene.xyz").write_text(_rows(scene.points))
    (out / "object.xyz").write_text(_rows(scene.points[scene.on_object]))
    return ["scene.xyz", "object.xyz"]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    names = write_inputs(args.workload, WORKLOADS[args.workload].size, args.seed, args.index, Path(args.out))
    print("\n".join(names))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
