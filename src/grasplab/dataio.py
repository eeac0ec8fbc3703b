"""Text file formats: point clouds, grasp lists, confidence fields, configs.

Everything is plain ASCII so fixtures stay auditable and diffable. Reals
are printed with 9 significant digits (sub-micron at meter scale) and all
read/write pairs round-trip to 1e-8 absolute or better. Files are read as
UTF-8. Parsers reject malformed input instead of repairing it, and every
error (an undecodable byte included) names the file and line.

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
from contextlib import suppress
from itertools import chain, repeat
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


_REAL = "%.9g"


def _fmt(v: float) -> str:
    return _REAL % float(v)


def _row_template(kinds: str, sep: str = " ") -> str:
    """The %-template of one newline-terminated row: 'g' fields are reals in `_fmt`'s format, 'd' integers."""
    return sep.join(_REAL if kind == "g" else "%d" for kind in kinds) + "\n"


def _rows_text(data: np.ndarray) -> str:
    """Rows of reals in `_fmt`'s format, space-separated, one newline-terminated line each."""
    return (_row_template("g" * data.shape[1]) * len(data)) % tuple(data.ravel().tolist())


def _read_lines(path) -> list[str]:
    """The file's lines, decoded as UTF-8; an undecodable byte is an error at its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(path, line, f"not UTF-8 text: byte 0x{data[exc.start]:02x}") from None


def _parse_floats(path, lineno: int, fields: list[str]) -> list[float]:
    out = []
    for f in fields:
        try:
            out.append(float(f))
        except ValueError:
            raise ParseError(path, lineno, f"not a number: {f!r}") from None
        if not math.isfinite(out[-1]):
            raise ParseError(path, lineno, f"non-finite value: {f!r}")
    return out


def _float_rows(path, lines: list[str], first_lineno: int, ncols: int, sep: str | None):
    """The non-blank lines as an (n, ncols) array of finite reals, and each row's line number.

    Fields are split on `sep` (whitespace when None). Well-formed rows are parsed in one pass; on a
    defect the rows are walked again to report the first bad one: its column count, then its values.
    """
    linenos = [i for i, raw in enumerate(lines, first_lineno) if raw.strip()]
    rows = [lines[i - first_lineno] for i in linenos]
    with suppress(ValueError):
        if all(len(raw.split(sep)) == ncols for raw in rows):
            fields = chain.from_iterable(map(str.split, rows, repeat(sep)))
            data = np.fromiter(map(float, fields), float, len(rows) * ncols).reshape(len(rows), ncols)
            if np.isfinite(data).all():
                return data, linenos
    for i, raw in zip(linenos, rows):
        fields = raw.split(sep)
        if len(fields) != ncols:
            raise ParseError(path, i, f"expected {ncols} columns, got {len(fields)}")
        _parse_floats(path, i, fields)


def _parse_count(path, lineno: int, token: str) -> int:
    """A non-negative decimal count from a header line."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(path, lineno, f"expected a non-negative integer count, got {token!r}")
    return int(token)


def _unit_normals(path, normals: np.ndarray, linenos: list[int]) -> np.ndarray:
    """Normalize per-row normals; a zero-length or overflowing one is an error at its own line."""
    with np.errstate(over="ignore"):  # an overflowing length is reported below, at its line
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
    bad = np.flatnonzero((norms < 1e-12) | np.isinf(norms))
    if bad.size:
        why = "zero-length normal" if norms[bad[0], 0] < 1e-12 else "normal length overflows"
        raise ParseError(path, linenos[bad[0]], why)
    return normals / norms


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------

_PLY_FIELDS = ("x", "y", "z", "nx", "ny", "nz", "red", "green", "blue")


def _read_ply(path, lines: list[str]) -> PointCloud:
    if len(lines) < 2 or lines[1].strip() != "format ascii 1.0":
        raise ParseError(path, 2, "expected 'format ascii 1.0'")
    n_vertices = body_start = None
    props: list[str] = []
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
    if props not in [list(_PLY_FIELDS[:k]) for k in (3, 6, 9)] + [list(_PLY_FIELDS[:3] + _PLY_FIELDS[6:])]:
        raise ParseError(path, body_start, f"unsupported property layout: {props}")

    body = lines[body_start:]
    try:
        data, linenos = _float_rows(path, body, body_start + 1, len(props), None)
    except ParseError as exc:
        # a row past the declared count is reported as such before its own defects
        _, linenos = _float_rows(path, body[:exc.line - body_start - 1], body_start + 1, len(props), None)
        linenos.append(exc.line)
        if len(linenos) <= n_vertices:
            raise
    if len(linenos) > n_vertices:
        raise ParseError(path, linenos[n_vertices], f"data continues past the declared {n_vertices} vertices")
    if len(linenos) != n_vertices:
        raise ParseError(path, len(lines), f"expected {n_vertices} vertex rows, found {len(linenos)}")
    colors = data[:, -3:] / 255.0 if "red" in props else None
    if colors is not None and (np.any(colors < 0.0) or np.any(colors > 1.0)):
        raise ParseError(path, body_start, "color components must be 0..255")
    normals = _unit_normals(path, data[:, 3:6], linenos) if "nx" in props else None
    return PointCloud(data[:, :3], normals, colors)


def _read_xyz(path, lines: list[str]) -> PointCloud:
    body = [raw.split("#", 1)[0] for raw in lines]
    width = next((len(fields) for fields in map(str.split, body) if fields), 3)
    try:
        # a first row neither 3 nor 6 wide fails the 3-column parse and is reported below
        data, linenos = _float_rows(path, body, 1, width if width in (3, 6) else 3, None)
    except ParseError as exc:
        got = len(body[exc.line - 1].split())
        if got in (3, 6):
            raise
        raise ParseError(path, exc.line, f"expected 3 or 6 columns, got {got}") from None
    if not linenos:
        raise ParseError(path, len(lines) or 1, "no points found")
    normals = _unit_normals(path, data[:, 3:6], linenos) if width == 6 else None
    return PointCloud(data[:, :3], normals)


def read_point_cloud(path) -> PointCloud:
    """Read a cloud from the ASCII PLY subset or bare XYZ text."""
    path = Path(path)
    lines = _read_lines(path)
    return (_read_ply if lines and lines[0].strip() == "ply" else _read_xyz)(path, lines)


def write_point_cloud(path, cloud: PointCloud) -> None:
    """Write a cloud; PLY when the suffix is .ply, XYZ text otherwise."""
    cols = [cloud.points] if cloud.normals is None else [cloud.points, cloud.normals]
    header = ""
    if Path(path).suffix.lower() == ".ply":
        props = list(_PLY_FIELDS[:3 * len(cols)])
        if cloud.colors is not None:
            props += _PLY_FIELDS[6:]
            cols.append(np.round(cloud.colors * 255.0))
        header = "\n".join(["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
                            *(f"property float {p}" for p in props), "end_header", ""])
    Path(path).write_text(header + _rows_text(np.hstack(cols)))


# ---------------------------------------------------------------------------
# Grasp lists
# ---------------------------------------------------------------------------

def grasp_row(sg: ScoredGrasp) -> str:
    """One grasp-list CSV row: cx,cy,cz,rx,ry,rz,theta,sq."""
    vals = [*sg.grasp.center, *sg.grasp.orientation, sg.grasp.theta, sg.s_q]
    if not all(math.isfinite(float(v)) for v in vals):
        raise ValueError("grasp contains non-finite fields")
    return ",".join(_fmt(v) for v in vals)


def write_grasps(path, grasps: list[ScoredGrasp]) -> None:
    Path(path).write_text("\n".join([GRASP_HEADER, *map(grasp_row, grasps)]) + "\n")


def read_grasps(path) -> list[ScoredGrasp]:
    path = Path(path)
    lines = _read_lines(path)
    if not lines or lines[0].strip() != GRASP_HEADER:
        raise ParseError(path, 1, f"expected header {GRASP_HEADER!r}")
    data, linenos = _float_rows(path, lines[1:], 2, 8, ",")
    out: list[ScoredGrasp] = []
    for i, v in zip(linenos, data.tolist()):
        try:
            out.append(ScoredGrasp(Grasp(v[0:3], v[3:6], v[6]), v[7]))
        except ValueError as exc:
            raise ParseError(path, i, str(exc)) from None
    return out


# ---------------------------------------------------------------------------
# Confidence fields
# ---------------------------------------------------------------------------

def write_confidence(path, field: ConfidenceField) -> None:
    header = f"# d_th={_fmt(field.d_th)} width={_fmt(field.gripper_width)} n={len(field)}\n"
    Path(path).write_text(header + _rows_text(field.values[:, None]))


def read_confidence(path) -> ConfidenceField:
    path = Path(path)
    lines = _read_lines(path)
    if not lines or not lines[0].startswith("#"):
        raise ParseError(path, 1, "expected '# d_th=<v> width=<v> n=<N>' header")
    tokens = lines[0].lstrip("#").split()
    for t in tokens:
        if "=" not in t:
            raise ParseError(path, 1, f"malformed header token {t!r}")
    meta = dict(t.split("=", 1) for t in tokens)
    if set(meta) != {"d_th", "width", "n"}:
        raise ParseError(path, 1, f"header must define d_th, width, n; got {sorted(meta)}")
    d_th, width = _parse_floats(path, 1, [meta["d_th"], meta["width"]])
    if not d_th > 0.0:
        raise ParseError(path, 1, "d_th must be positive")
    n = _parse_count(path, 1, meta["n"])
    # one value per line: the whole stripped line is the field
    values, linenos = _float_rows(path, [raw.strip() for raw in lines[1:]], 2, 1, "\n")
    bad = np.flatnonzero((values < 0.0) | (values > 1.0))
    if bad.size:
        raise ParseError(path, linenos[bad[0]], f"confidence {float(values[bad[0], 0])} outside [0, 1]")
    if len(values) != n:
        raise ParseError(path, len(lines), f"header says n={n} but found {len(values)} values")
    return ConfidenceField(values, d_th, width)


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
    for i, raw in enumerate(_read_lines(path), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(path, i, f"expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
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
    lines = _read_lines(path)
    if not lines or lines[0].strip() != "x,y":
        raise ParseError(path, 1, "expected header 'x,y'")
    return tuple(_float_rows(path, lines[1:], 2, 2, ",")[0].T.copy())


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
    reals = ",".join(map(_fmt, [report.cfr, report.as_mean, report.as_with_collision, report.tcr]))
    return f"{REPORT_HEADER}\n{reals},{report.n_selected}\n"
