"""Text file formats: point clouds, grasp lists, confidence fields, configs.

Everything is plain ASCII so fixtures stay auditable and diffable. Reals
are printed with 9 significant digits (sub-micron at meter scale) and all
read/write pairs round-trip to 1e-8 absolute or better. Parsers reject
malformed input instead of repairing it, and every error names the file
and line.

Formats:
  * point clouds: an ASCII PLY subset (x y z [nx ny nz] [red green blue])
    or bare XYZ text with 3 or 6 columns and '#' comments
  * grasp lists: CSV with the exact header cx,cy,cz,rx,ry,rz,theta,sq
  * confidence fields: '# d_th=<v> width=<v> n=<N>' then one value per line
  * config: 'key = value' lines with '#' comments and dotted key names
  * fit samples: CSV with the exact header x,y
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .confidence import ConfidenceField
from .core import Grasp, PointCloud
from .metrics import EvalReport
from .policy import ScoredGrasp

GRASP_HEADER = "cx,cy,cz,rx,ry,rz,theta,sq"
REPORT_HEADER = "cfr,as_mean,as_with_collision,tcr,n_selected"

__all__ = [
    "ParseError",
    "GRASP_HEADER",
    "REPORT_HEADER",
    "read_point_cloud",
    "write_point_cloud",
    "read_grasps",
    "write_grasps",
    "grasp_row",
    "read_confidence",
    "write_confidence",
    "read_config",
    "read_xy",
    "format_report",
    "report_csv",
]


class ParseError(ValueError):
    """Malformed input file; carries the offending path and line number."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


def _fmt(v: float) -> str:
    return f"{float(v):.9g}"


def _parse_floats(path, lineno: int, fields: list[str]) -> list[float]:
    out = []
    for f in fields:
        try:
            v = float(f)
        except ValueError:
            raise ParseError(path, lineno, f"not a number: {f!r}") from None
        if not math.isfinite(v):
            raise ParseError(path, lineno, f"non-finite value: {f!r}")
        out.append(v)
    return out


def _parse_count(path, lineno: int, token: str) -> int:
    """A non-negative decimal count from a header line."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(path, lineno, f"expected a non-negative integer count, got {token!r}")
    return int(token)


def _unit_normals(path, normals: np.ndarray, linenos: list[int]) -> np.ndarray:
    """Normalize per-row normals; a zero-length one is an error at its own line."""
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    bad = np.flatnonzero(norms < 1e-12)
    if bad.size:
        raise ParseError(path, linenos[bad[0]], "zero-length normal")
    return normals / norms


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------

_PLY_FIELDS = ("x", "y", "z", "nx", "ny", "nz", "red", "green", "blue")


def _read_ply(path, lines: list[str]) -> PointCloud:
    if len(lines) < 2 or lines[1].strip() != "format ascii 1.0":
        raise ParseError(path, 2, "expected 'format ascii 1.0'")
    n_vertices = None
    props: list[str] = []
    body_start = None
    for i, raw in enumerate(lines[2:], start=3):
        tokens = raw.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "element":
            if len(tokens) != 3 or tokens[1] != "vertex":
                raise ParseError(path, i, f"unsupported element: {raw.strip()!r}")
            n_vertices = _parse_count(path, i, tokens[2])
        elif tokens[0] == "property":
            if len(tokens) != 3 or tokens[1] not in ("float", "double", "uchar"):
                raise ParseError(path, i, f"unsupported property: {raw.strip()!r}")
            props.append(tokens[2])
        elif tokens[0] == "end_header":
            body_start = i
            break
        else:
            raise ParseError(path, i, f"unexpected header line: {raw.strip()!r}")
    if body_start is None or n_vertices is None:
        raise ParseError(path, len(lines), "header ended before end_header/element vertex")
    expected = [list(_PLY_FIELDS[:k]) for k in (3, 6, 9)] + [list(_PLY_FIELDS[:3]) + list(_PLY_FIELDS[6:])]
    if props not in expected:
        raise ParseError(path, body_start, f"unsupported property layout: {props}")

    rows, linenos = [], []
    for i, raw in enumerate(lines[body_start:], start=body_start + 1):
        if not raw.strip():
            continue
        if len(rows) == n_vertices:
            raise ParseError(path, i, f"data continues past the declared {n_vertices} vertices")
        fields = raw.split()
        if len(fields) != len(props):
            raise ParseError(path, i, f"expected {len(props)} columns, got {len(fields)}")
        rows.append(_parse_floats(path, i, fields))
        linenos.append(i)
    if len(rows) != n_vertices:
        raise ParseError(path, len(lines), f"expected {n_vertices} vertex rows, found {len(rows)}")
    data = np.asarray(rows, dtype=float).reshape(n_vertices, len(props))
    points = data[:, :3]
    normals = None
    colors = None
    col = 3
    if "nx" in props:
        normals = data[:, col:col + 3]
        col += 3
    if "red" in props:
        colors = data[:, col:col + 3] / 255.0
        if np.any(colors < 0.0) or np.any(colors > 1.0):
            raise ParseError(path, body_start, "color components must be 0..255")
    if normals is not None:
        normals = _unit_normals(path, normals, linenos)
    return PointCloud(points, normals, colors)


def _read_xyz(path, lines: list[str]) -> PointCloud:
    rows, linenos = [], []
    width = None
    for i, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fields = stripped.split()
        if len(fields) not in (3, 6):
            raise ParseError(path, i, f"expected 3 or 6 columns, got {len(fields)}")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ParseError(path, i, f"expected {width} columns, got {len(fields)}")
        rows.append(_parse_floats(path, i, fields))
        linenos.append(i)
    if not rows:
        raise ParseError(path, len(lines) or 1, "no points found")
    data = np.asarray(rows, dtype=float)
    normals = _unit_normals(path, data[:, 3:6], linenos) if width == 6 else None
    return PointCloud(data[:, :3], normals)


def read_point_cloud(path) -> PointCloud:
    """Read a cloud from the ASCII PLY subset or bare XYZ text."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if lines and lines[0].strip() == "ply":
        return _read_ply(path, lines)
    return _read_xyz(path, lines)


def write_point_cloud(path, cloud: PointCloud) -> None:
    """Write a cloud; PLY when the suffix is .ply, XYZ text otherwise."""
    path = Path(path)
    if path.suffix.lower() == ".ply":
        props = ["x", "y", "z"]
        cols = [cloud.points]
        if cloud.normals is not None:
            props += ["nx", "ny", "nz"]
            cols.append(cloud.normals)
        if cloud.colors is not None:
            props += ["red", "green", "blue"]
            cols.append(np.round(cloud.colors * 255.0))
        header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}"]
        header += [f"property float {p}" for p in props]
        header.append("end_header")
        data = np.hstack(cols)
        body = "\n".join(" ".join(_fmt(v) for v in row) for row in data)
        path.write_text("\n".join(header) + "\n" + body + ("\n" if len(cloud) else ""))
    else:
        cols = [cloud.points] if cloud.normals is None else [cloud.points, cloud.normals]
        data = np.hstack(cols)
        body = "\n".join(" ".join(_fmt(v) for v in row) for row in data)
        path.write_text(body + ("\n" if len(cloud) else ""))


# ---------------------------------------------------------------------------
# Grasp lists
# ---------------------------------------------------------------------------

def grasp_row(sg: ScoredGrasp) -> str:
    """One grasp-list CSV row: cx,cy,cz,rx,ry,rz,theta,sq."""
    g = sg.grasp
    vals = [*g.center, *g.orientation, g.theta, sg.s_q]
    if not all(math.isfinite(float(v)) for v in vals):
        raise ValueError("grasp contains non-finite fields")
    return ",".join(_fmt(v) for v in vals)


def write_grasps(path, grasps: list[ScoredGrasp]) -> None:
    lines = [GRASP_HEADER] + [grasp_row(sg) for sg in grasps]
    Path(path).write_text("\n".join(lines) + "\n")


def read_grasps(path) -> list[ScoredGrasp]:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != GRASP_HEADER:
        raise ParseError(path, 1, f"expected header {GRASP_HEADER!r}")
    out: list[ScoredGrasp] = []
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = raw.split(",")
        if len(fields) != 8:
            raise ParseError(path, i, f"expected 8 columns, got {len(fields)}")
        v = _parse_floats(path, i, fields)
        try:
            grasp = Grasp(v[0:3], v[3:6], v[6])
            out.append(ScoredGrasp(grasp, v[7]))
        except ValueError as exc:
            raise ParseError(path, i, str(exc)) from None
    return out


# ---------------------------------------------------------------------------
# Confidence fields
# ---------------------------------------------------------------------------

def write_confidence(path, field: ConfidenceField) -> None:
    lines = [f"# d_th={_fmt(field.d_th)} width={_fmt(field.gripper_width)} n={len(field)}"]
    lines += [_fmt(v) for v in field.values]
    Path(path).write_text("\n".join(lines) + "\n")


def read_confidence(path) -> ConfidenceField:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ParseError(path, 1, "expected '# d_th=<v> width=<v> n=<N>' header")
    tokens = lines[0].lstrip("#").split()
    meta = {}
    for t in tokens:
        if "=" not in t:
            raise ParseError(path, 1, f"malformed header token {t!r}")
        key, _, val = t.partition("=")
        meta[key] = val
    if set(meta) != {"d_th", "width", "n"}:
        raise ParseError(path, 1, f"header must define d_th, width, n; got {sorted(meta)}")
    d_th, width = _parse_floats(path, 1, [meta["d_th"], meta["width"]])
    n = _parse_count(path, 1, meta["n"])
    values = []
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        v = _parse_floats(path, i, [raw.strip()])[0]
        if not 0.0 <= v <= 1.0:
            raise ParseError(path, i, f"confidence {v} outside [0, 1]")
        values.append(v)
    if len(values) != n:
        raise ParseError(path, len(lines), f"header says n={n} but found {len(values)} values")
    return ConfidenceField(np.asarray(values), d_th, width)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def read_config(path) -> dict:
    """Flat 'key = value' map with '#' comments; keys may be dotted.

    Values are coerced to int, then float, else kept as strings. Duplicate
    keys are an error; unknown keys are the consumer's problem.
    """
    path = Path(path)
    out: dict = {}
    for i, raw in enumerate(path.read_text().splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(path, i, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(path, i, "empty key")
        if not value:
            raise ParseError(path, i, f"empty value for key {key!r}")
        if key in out:
            raise ParseError(path, i, f"duplicate key {key!r}")
        out[key] = _coerce(value)
    return out


# ---------------------------------------------------------------------------
# Fit samples
# ---------------------------------------------------------------------------

def read_xy(path) -> tuple[np.ndarray, np.ndarray]:
    """Sample pairs from a CSV with the exact header x,y."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "x,y":
        raise ParseError(path, 1, "expected header 'x,y'")
    xs, ys = [], []
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = raw.split(",")
        if len(fields) != 2:
            raise ParseError(path, i, f"expected 2 columns, got {len(fields)}")
        x, y = _parse_floats(path, i, fields)
        xs.append(x)
        ys.append(y)
    return np.asarray(xs), np.asarray(ys)


# ---------------------------------------------------------------------------
# Evaluation reports
# ---------------------------------------------------------------------------

def format_report(report: EvalReport) -> str:
    return (
        f"cfr = {_fmt(report.cfr)}\n"
        f"as_mean = {_fmt(report.as_mean)}\n"
        f"as_with_collision = {_fmt(report.as_with_collision)}\n"
        f"tcr = {_fmt(report.tcr)}\n"
        f"n_selected = {report.n_selected}\n"
    )


def report_csv(report: EvalReport) -> str:
    row = ",".join(
        [_fmt(report.cfr), _fmt(report.as_mean), _fmt(report.as_with_collision), _fmt(report.tcr), str(report.n_selected)]
    )
    return REPORT_HEADER + "\n" + row + "\n"
