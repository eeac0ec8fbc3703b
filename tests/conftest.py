"""Shared helpers: synthetic clouds and hand-rolled geometry oracles.

The oracle functions deliberately reimplement frame and box math with
plain scalar arithmetic so library bugs cannot hide in both routes.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from grasplab import ConfidenceField, Grasp, PointCloud, anchors, grasp_frame, select_positive_points
from grasplab.core import THETA_MAX, UNIT_TOL
from grasplab.dataio import (
    _BLANKS, _PLY_FIELDS, ParseError, _fields, _float_rows, _parse_count, _parse_floats, _read_lines,
)


def random_sphere_cloud(radius: float, n: int, seed: int = 0, center=(0.0, 0.0, 0.0)) -> PointCloud:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return PointCloud(v * radius + np.asarray(center, dtype=float))


def grid_sphere_cloud(radius: float, n_lat: int = 60, n_lon: int = 60, pole_axis=(0.0, 1.0, 0.0)) -> PointCloud:
    """Lat-long sphere whose poles lie exactly on pole_axis (included as points)."""
    axis = np.asarray(pole_axis, dtype=float)
    axis /= np.linalg.norm(axis)
    ref = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 0.0, 1.0])
    u = np.cross(axis, ref)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    pts = [axis * radius, -axis * radius]
    for i in range(1, n_lat):
        phi = math.pi * i / n_lat
        for j in range(n_lon):
            lam = 2.0 * math.pi * j / n_lon
            p = (
                math.cos(phi) * axis
                + math.sin(phi) * (math.cos(lam) * u + math.sin(lam) * v)
            ) * radius
            pts.append(p)
    return PointCloud(np.asarray(pts))


def tabletop_cloud(seed: int, n_table: int = 400, n_object: int = 300) -> PointCloud:
    """Seeded table top: a jittered 30 cm square at z = 0 plus a 3 cm sphere resting on it."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-0.15, 0.15, size=(n_table, 2))
    table = np.column_stack([xy, rng.normal(scale=1e-4, size=n_table)])
    v = rng.normal(size=(n_object, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    normals = np.vstack([np.tile([0.0, 0.0, 1.0], (n_table, 1)), v])
    return PointCloud(np.vstack([table, v * 0.03 + (0.0, 0.0, 0.03)]), normals)


def with_radial_normals(cloud: PointCloud, center=(0.0, 0.0, 0.0)) -> PointCloud:
    d = cloud.points - np.asarray(center, dtype=float)
    return cloud.with_normals(d / np.linalg.norm(d, axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Hand-rolled oracles
# ---------------------------------------------------------------------------

def oracle_frame(center, orientation, theta):
    """Grasp frame via explicit scalar Rodrigues math (independent route)."""
    rx, ry, rz = (float(v) for v in orientation)
    if abs(rx) < 1e-9 and abs(ry) < 1e-9:
        xr = (1.0, 0.0, 0.0)
    else:
        n = math.hypot(ry, -rx)
        xr = (ry / n, -rx / n, 0.0)
    c, s = math.cos(theta), math.sin(theta)
    kdotv = rx * xr[0] + ry * xr[1] + rz * xr[2]
    cross = (ry * xr[2] - rz * xr[1], rz * xr[0] - rx * xr[2], rx * xr[1] - ry * xr[0])
    x = tuple(xr[i] * c + cross[i] * s + (rx, ry, rz)[i] * kdotv * (1.0 - c) for i in range(3))
    y = (rx, ry, rz)
    z = (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])
    return x, y, z, tuple(float(v) for v in center)


def world_to_grasp(g, points):
    """World points (3,) or (N, 3) in the frame of grasp g: (p - center) @ R, as the collision test maps them."""
    return (np.asarray(points, dtype=float) - g.center) @ grasp_frame(g)


def grasp_to_world(g, points):
    """Inverse of world_to_grasp: R q + center."""
    return np.asarray(points, dtype=float) @ grasp_frame(g).T + g.center


def oracle_collision(points, center, orientation, theta, depth, width, height, thickness, tol=1e-12):
    """Naive per-point point-in-box scan (python floats only)."""
    x, y, z, o = oracle_frame(center, orientation, theta)
    d2, w2, h2 = depth / 2.0, width / 2.0, height / 2.0
    boxes = [
        ((-d2, w2, -h2), (d2, w2 + thickness, h2)),          # +Y finger
        ((-d2, -w2 - thickness, -h2), (d2, -w2, h2)),        # -Y finger
        ((-d2 - thickness, -w2 - thickness, -h2), (-d2, w2 + thickness, h2)),  # back
    ]
    for p in points:
        dp = (p[0] - o[0], p[1] - o[1], p[2] - o[2])
        q = tuple(dp[0] * a[0] + dp[1] * a[1] + dp[2] * a[2] for a in (x, y, z))
        for lo, hi in boxes:
            if all(lo[i] + tol < q[i] < hi[i] - tol for i in range(3)):
                return True
    return False


def oracle_contacts(points, center, orientation, theta, depth, width, height, tol=1e-12):
    """First-touch jaw pair by a naive scan (python floats only): (i, j, y_i, y_j), or None.

    A point is in the closing region when each grasp-frame coordinate lies within its half-extent
    plus tol, faces included. The +Y jaw takes the largest y >= 0 and the -Y jaw the smallest y < 0;
    on a tie the lower point index wins. None when either side of y = 0 is empty.
    """
    x, y, z, o = oracle_frame(center, orientation, theta)
    half = (depth / 2.0, width / 2.0, height / 2.0)
    pos = neg = None
    for i, p in enumerate(points):
        dp = (p[0] - o[0], p[1] - o[1], p[2] - o[2])
        q = tuple(dp[0] * a[0] + dp[1] * a[1] + dp[2] * a[2] for a in (x, y, z))
        if not all(-half[k] - tol <= q[k] <= half[k] + tol for k in range(3)):
            continue
        if q[1] >= 0.0:
            if pos is None or q[1] > pos[1]:
                pos = (i, q[1])
        elif neg is None or q[1] < neg[1]:
            neg = (i, q[1])
    return None if pos is None or neg is None else (pos[0], neg[0], pos[1], neg[1])


def oracle_point_confidence(cloud: PointCloud, centers, d_th: float) -> ConfidenceField:
    """The per-point loop: one norm and one sum over each point's centers within d_th, then tanh."""
    centers = np.asarray(centers, dtype=float)
    sums = np.zeros(len(cloud))
    for i, idx in enumerate(cKDTree(centers).query_ball_point(cloud.points, d_th)):
        if idx:
            d = np.linalg.norm(centers[idx] - cloud.points[i], axis=1)
            sums[i] = np.sum(1.0 - d / d_th)
    return ConfidenceField(np.tanh(sums), d_th)


def oracle_covariance(nbrs):
    """The covariance of each (k, 3) neighbourhood of nbrs (n, k, 3) as a per-point loop sums it: the mean,
    then every product of two centred columns, each a sequential sum over the k rows in order. The loop
    runs over all points at once; each element's arithmetic is that of the scalar loop."""
    k = nbrs.shape[1]
    total = nbrs[:, 0]
    for t in range(1, k):
        total = total + nbrs[:, t]
    c = nbrs - (total / k)[:, None]
    cov = np.zeros((len(nbrs), 3, 3))
    for t in range(k):
        cov = cov + c[:, t, :, None] * c[:, t, None, :]
    return cov / k


def oracle_label_tables(cloud: PointCloud, field: ConfidenceField, scored, k1: int, m: int = 4,
                        angle_pos: float = anchors.ANGLE_POS, angle_neg: float = anchors.ANGLE_NEG,
                        c_b: float = anchors.CENTER_BALANCE, **refine):
    """The labels command one positive point at a time: the arguments of write_anchor_labels and of
    write_refine_labels. Each point finds its nearest ground-truth center (lowest index on ties) and
    gets its own anchor label, residual block and refine label of the pose (p, nearest anchor, 0)."""
    anchor_dirs = anchors.anchor_set(m)
    positives = select_positive_points(field, k1)
    centers = np.stack([g.center for g in scored])
    n = len(positives)
    nearest, classes, nearest_anchor = np.empty(n, int), np.empty((n, m), int), np.empty(n, int)
    positive_anchor, anchor_res = np.full(n, -1), np.zeros((n, 8))
    y, refine_res = np.empty(n, int), np.zeros((n, 8))
    for row, pi in enumerate(positives.tolist()):
        p = cloud.points[pi]
        gi = nearest[row] = int(np.argmin(np.linalg.norm(centers - p, axis=1)))
        label = anchors.assign_anchor_labels(scored[gi], anchor_dirs, angle_pos, angle_neg)
        label = anchors.complete_label(label, scored[gi], anchor_dirs, p, c_b)
        classes[row], nearest_anchor[row] = label.classes, label.nearest
        if label.positive_index is not None:
            positive_anchor[row], anchor_res[row] = label.positive_index, label.residuals
        proposal = Grasp(p, anchor_dirs.directions[label.nearest], 0.0)
        refine_label = anchors.assign_refine_labels(scored[gi], proposal, c_b=c_b, **refine)
        y[row] = refine_label.y
        if refine_label.residuals is not None:
            refine_res[row] = refine_label.residuals
    return ((positives, cloud.points[positives], nearest, classes, positive_anchor, anchor_res),
            (positives, y, refine_res))


def oracle_darboux(cloud: PointCloud, index: int, k: int, viewpoint=(0.0, 0.0, 10.0)):
    """The per-point Darboux frame: its own kNN query, a one-matrix `eigh` and the n.(vp - p) flip.

    Returns (normal, major); a rank-deficient neighbourhood raises ValueError naming the point.
    """
    p = cloud.points[index]
    _, idx = cKDTree(cloud.points).query(p, k=k)
    nbrs = cloud.points[np.asarray(idx)[None, :]]
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    eigvals, eigvecs = np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered) / nbrs.shape[1])
    eigvals, eigvecs = eigvals[0], eigvecs[0]
    if eigvals[1] <= 1e-10 * max(eigvals[2], 1e-300):
        raise ValueError(f"degenerate neighborhood at point {index} (rank < 2)")
    normal = eigvecs[:, 0]
    if float(normal @ (np.asarray(viewpoint, dtype=float) - p)) < 0.0:
        normal = -normal
    major = eigvecs[:, 2]
    major = major - (major @ normal) * normal
    major /= np.linalg.norm(major)
    return normal, major


def oracle_float_rows(path, lines, first_lineno, ncols, sep):
    """The row parser in pure Python: first bad row reported, its first bad field before its width.

    A blank line holds only spaces and tabs. Fields are split on `sep`, or on runs of spaces and tabs
    when None. A field must read as a finite `float` and, spaces and tabs around it aside, be made of
    the characters of an ASCII number.
    """
    linenos = [i for i, raw in enumerate(lines, first_lineno) if raw.strip(" \t")]
    out = []
    for i in linenos:
        raw = lines[i - first_lineno]
        fields = [f for f in raw.replace("\t", " ").split(" ") if f] if sep is None else raw.split(sep)
        for f in fields:
            try:
                value = float(f)
            except ValueError:
                raise ParseError(path, i, f"not a number: {f!r}") from None
            if not math.isfinite(value):
                raise ParseError(path, i, f"non-finite value: {f!r}")
            text = f.strip(" \t")
            if not text or any(c not in "+-.0123456789eE" for c in text):
                raise ParseError(path, i, f"not a number: {f!r}")
            out.append(value)
        if len(fields) != ncols:
            raise ParseError(path, i, f"expected {ncols} columns, got {len(fields)}")
    return np.array(out, dtype=float).reshape(len(linenos), ncols), linenos


def _oracle_unit_normals(path, normals, linenos):
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
    bad = np.flatnonzero((norms < 1e-12) | np.isinf(norms))
    if bad.size:
        why = "zero-length normal" if norms[bad[0], 0] < 1e-12 else "normal length overflows"
        raise ParseError(path, linenos[bad[0]], why)
    return normals / norms


def _oracle_ply(path, lines):
    n_vertices = body_start = None
    props = []
    for i, raw in enumerate(lines[2:], start=3):
        tokens = _fields(raw, None)
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "element":
            if len(tokens) != 3 or tokens[1] != "vertex":
                raise ParseError(path, i, f"unsupported element: {raw.strip(_BLANKS)!r}")
            if n_vertices is not None:
                raise ParseError(path, i, "a second 'element vertex' declaration")
            n_vertices = _parse_count(path, i, tokens[2])
        elif tokens[0] == "property":
            if len(tokens) != 3 or tokens[1] not in ("float", "double", "uchar"):
                raise ParseError(path, i, f"unsupported property: {raw.strip(_BLANKS)!r}")
            props.append(tokens[2])
        elif tokens[0] == "end_header":
            body_start = i
            break
        else:
            raise ParseError(path, i, f"unexpected header line: {raw.strip(_BLANKS)!r}")
    if body_start is None or n_vertices is None:
        raise ParseError(path, len(lines), "header ended before end_header/element vertex")
    if props not in [list(_PLY_FIELDS[:k]) for k in (3, 6, 9)] + [list(_PLY_FIELDS[:3] + _PLY_FIELDS[6:])]:
        raise ParseError(path, body_start, f"unsupported property layout: {props}")
    body = lines[body_start:]
    try:
        data, linenos = _float_rows(path, body, body_start + 1, len(props), None)
    except ParseError as exc:
        linenos = [*_float_rows(path, body[:exc.line - body_start - 1], body_start + 1, len(props), None)[1], exc.line]
        if len(linenos) <= n_vertices:
            raise
    if len(linenos) > n_vertices:
        raise ParseError(path, linenos[n_vertices], f"data continues past the declared {n_vertices} vertices")
    if len(linenos) != n_vertices:
        raise ParseError(path, len(lines), f"expected {n_vertices} vertex rows, found {len(linenos)}")
    colors = data[:, -3:] / 255.0 if "red" in props else None
    bad = () if colors is None else np.flatnonzero(((colors < 0.0) | (colors > 1.0)).any(axis=1))
    if len(bad):
        raise ParseError(path, linenos[bad[0]], "color components must be 0..255")
    normals = _oracle_unit_normals(path, data[:, 3:6], linenos) if "nx" in props else None
    return PointCloud(data[:, :3], normals, colors)


def _oracle_xyz(path, lines):
    body = [raw.split("#", 1)[0] for raw in lines] if "#" in "".join(lines) else lines
    width = next((len(fields) for fields in (_fields(raw, None) for raw in body) if fields), 3)
    try:
        data, linenos = _float_rows(path, body, 1, width if width in (3, 6) else 3, None)
    except ParseError as exc:
        fields = _fields(body[exc.line - 1], None)
        if len(fields) in (3, 6):
            raise
        _parse_floats(path, exc.line, fields)
        raise ParseError(path, exc.line, f"expected 3 or 6 columns, got {len(fields)}") from None
    if not linenos:
        raise ParseError(path, len(lines) or 1, "no points found")
    normals = _oracle_unit_normals(path, data[:, 3:6], linenos) if width == 6 else None
    return PointCloud(data[:, :3], normals)


def oracle_read_point_cloud(path) -> PointCloud:
    """The whole-file cloud reader: the format line checked, then every line of the file decoded and held at
    once, the rows parsed as one body and each defect reported at its file:line."""
    path = Path(path)
    with path.open("rb") as f:
        magic, form = (f.readline().removesuffix(b"\n").removesuffix(b"\r").strip(b" \t") for _ in range(2))
    if magic == b"ply" and form != b"format ascii 1.0":
        raise ParseError(path, 2, f"expected 'format ascii 1.0', got {form.decode(errors='replace')!r}")
    lines = _read_lines(path)
    return (_oracle_ply if lines and lines[0].strip(_BLANKS) == "ply" else _oracle_xyz)(path, lines)


def oracle_grasp(center, orientation, theta, s_q=0.0):
    """A grasp's checks and normalisation for one row in scalar Python, rule after rule.

    Returns (center, orientation, theta, s_q) as a Grasp holds them, or raises the ValueError of the
    first rule the row breaks. The norm goes through np.linalg.norm, not the library's np.vecdot.
    """
    c = np.asarray(center, dtype=float).reshape(3)
    if not all(map(math.isfinite, c.tolist())):
        raise ValueError(f"center has non-finite components: {c}")
    r = np.asarray(orientation, dtype=float).reshape(3)
    if not all(map(math.isfinite, r.tolist())):
        raise ValueError(f"orientation has non-finite components: {r}")
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(r))
    if abs(n - 1.0) > UNIT_TOL:
        raise ValueError(f"orientation norm {n:.9f} not within {UNIT_TOL} of 1")
    t = float(theta)
    if not math.isfinite(t):
        raise ValueError("theta is not finite")
    if abs(t) > THETA_MAX + UNIT_TOL:
        raise ValueError(f"theta {t} outside [-pi/2, pi/2]")
    s = float(s_q)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s_q {s} outside [0, 1]")
    return c, r / n, min(max(t, -THETA_MAX), THETA_MAX), s


def oracle_anchor_coincidence(directions):
    """The first (i, j), i < j, of directions closer than 1e-9, as the double loop finds it; else None."""
    for i in range(len(directions)):
        for j in range(i + 1, len(directions)):
            if np.linalg.norm(directions[i] - directions[j]) < 1e-9:
                return i, j
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
