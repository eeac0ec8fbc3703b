"""Text file formats: point clouds, grasp lists, confidence fields, configs.

Everything is plain ASCII so fixtures stay auditable and diffable. Reals are printed with 9 significant
digits (sub-micron at meter scale) and all read/write pairs round-trip to 1e-8 absolute or better. Writers
format and write `_VALUE_BLOCK` fields at a time through one open file, and `read_point_cloud` parses a
cloud `_CHUNK` bytes at a time straight into its arrays, so their temporaries do not grow with the table or
the file. Other files, and a cloud file that is not ASCII or has a defect, are read whole as UTF-8. Parsers
reject malformed input instead of repairing it, and every error (an undecodable byte included) names the
file and line, whichever way the file is read. All text input, flags included, ends lines at '\n' (a '\r'
before it is dropped), splits on spaces and tabs, and reads ASCII numbers (`parse_number`).

Formats:
  * point clouds: an ASCII PLY subset (x y z [nx ny nz] [red green blue])
    or bare XYZ text with 3 or 6 columns and '#' comments
  * grasp lists: CSV with the exact header cx,cy,cz,rx,ry,rz,theta,sq; the
    rows are checked as one table by `core.grasps_from_arrays`
  * confidence fields: '# d_th=<v> width=<v> n=<N>' then one value per line
  * config: 'key = value' lines with '#' comments and dotted key names
  * fit samples: CSV with the exact header x,y
  * written only: label tables (CSV, a row per positive point) and reports
"""

from __future__ import annotations

import dataclasses
import math
import re
from contextlib import suppress
from itertools import chain
from pathlib import Path

import numpy as np

from .confidence import ConfidenceField
from .core import Grasp, GraspRowError, PointCloud, grasps_from_arrays
from .metrics import EvalReport

GRASP_HEADER = "cx,cy,cz,rx,ry,rz,theta,sq"
REPORT_HEADER = ",".join(field.name for field in dataclasses.fields(EvalReport))

__all__ = [
    "ParseError",
    "NonFinite",
    "parse_number",
    "GRASP_HEADER",
    "REPORT_HEADER",
    "read_point_cloud",
    "write_point_cloud",
    "read_grasps",
    "write_grasps",
    "read_confidence",
    "write_confidence",
    "ConfigText",
    "read_config",
    "read_xy",
    "format_grasp",
    "format_config",
    "write_config",
    "write_anchor_labels",
    "write_refine_labels",
    "write_regions",
    "format_report",
    "report_csv",
    "write_report",
]


class ParseError(ValueError):
    """Malformed input file; carries the offending path and line number."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


_REAL = "%.9g"
_VALUE_BLOCK = 24576  # fields formatted per write (4,096 rows of a cloud with normals); bounds a writer's temporaries
_CHUNK = 1 << 18  # bytes read_point_cloud reads at a time; bounds its text and row temporaries


def _fmt(v: float) -> str:
    return _REAL % float(v)


def _row_template(kinds: str, sep: str = " ") -> str:
    """The %-template of one newline-terminated row: 'g' fields are reals in `_fmt`'s format, 'd' integers."""
    return sep.join(_REAL if kind == "g" else "%d" for kind in kinds) + "\n"


def _rows_text(data: np.ndarray, sep: str = " ", kinds: str | None = None) -> str:
    """Rows of `data`, joined by `sep`, one newline-terminated line each, in `_row_template(kinds)`'s format;
    every field is a real when kinds is None."""
    return (_row_template(kinds or "g" * data.shape[1], sep) * len(data)) % tuple(data.ravel().tolist())


def _write_rows(path, header: str, cols: list[np.ndarray], sep: str = " ") -> None:
    """Write `header`, then the rows of the arrays `cols` (a 1-d array is one column) side by side in
    `_rows_text`'s format, `_VALUE_BLOCK` fields at a time: the bytes `Path.write_text` gives for the whole text.
    An integer or bool array's fields are integers (a float64 must carry them exactly), any other's reals."""
    kinds = "".join(("d" if c.dtype.kind in "biu" else "g") * (c.shape[1] if c.ndim == 2 else 1) for c in cols)
    with Path(path).open("w") as f:
        f.write(header)
        for lo in range(0, len(cols[0]), step := max(1, _VALUE_BLOCK // len(kinds))):
            f.write(_rows_text(np.column_stack([c[lo:lo + step] for c in cols]), sep, kinds))


def _read_lines(path) -> list[str]:
    """The file's lines, decoded as UTF-8: each ends at '\n', and a '\r' before it is dropped; nothing
    else breaks a line. An undecodable byte is an error at its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line, f"not UTF-8 text: byte 0x{data[exc.start]:02x}") from None
    lines = (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
    return lines if lines[-1] else lines[:-1]  # the text after a final '\n' is no line


# the characters on which np.loadtxt and the Python walk accept and reject the same fields; outside
# them (e.g. '_', '\x1f', 'inf', non-ASCII digits) the walk decides, and rejects the row
_NUMERIC_CHARS = b"-+.0123456789eE \t,"
# numbers: ASCII text with only spaces and tabs around it (float and int also read '1_0', '\u0663', '\xa03')
_NUMBER = re.compile(r"[ \t]*[-+.0-9eE]+[ \t]*")
_INTEGER = re.compile(r"[ \t]*-?[0-9]+[ \t]*")
_NON_BLANK = re.compile(r"[^ \t]+")
_BLANKS = " \t"


class NonFinite(ValueError):
    """Real text that float reads as a nan or an infinity."""


def parse_number(text: str, kind: type = float) -> int | float:
    """text as an int (ASCII digits after an optional '-') or a float (`_NUMBER` text that float reads
    as a finite value, checked first: 'nan', 'inf', '1e400' raise NonFinite); else a ValueError."""
    try:
        value = kind(text)
    except ValueError:  # also an int past int's digit limit
        raise ValueError(f"not a number: {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise NonFinite(f"non-finite value: {text!r}")
    if not (_NUMBER if kind is float else _INTEGER).fullmatch(text):
        raise ValueError(f"not a number: {text!r}")
    return value


def _fields(raw: str, sep: str | None) -> list[str]:
    """A row's fields: split on `sep`, or on runs of spaces and tabs when None."""
    return _NON_BLANK.findall(raw) if sep is None else raw.split(sep)


def _parse_floats(path, lineno: int, fields: list[str]) -> list[float]:
    try:
        return [parse_number(f) for f in fields]
    except ValueError as exc:
        raise ParseError(path, lineno, str(exc)) from None


def _float_rows(path, lines: list[str], first_lineno: int, ncols: int, sep: str | None):
    """The non-blank lines as an (n, ncols) array of reals, and each row's line number.

    Fields are split on `sep` (runs of blanks when None). numpy's C reader parses well-formed rows in one
    pass when one check of the joined bytes finds only characters it reads as the walk does. Otherwise a
    Python walk parses them or reports the first bad row: its first field that is not a real, else its width.
    """
    # loadtxt splits on blanks or on ','. A row that is one field (sep '\n') it splits on blanks, which
    # agrees only for one column, where a row with an inner blank fails the shape check. A body with no
    # field, on which loadtxt warns, is left to the walk below: it returns a (0, ncols) array. With ',' a line
    # of blanks is one empty field to loadtxt, so such lines are dropped first
    data, text = None, (sep in (None, ",") or ncols == 1 and sep == "\n") and "".join(lines).encode()
    if text and not text.isspace() and not text.translate(None, _NUMERIC_CHARS):
        body = [raw for raw in lines if raw.strip(_BLANKS)] if sep == "," else lines
        with suppress(ValueError):
            data = np.loadtxt(body, float, comments=None, delimiter=sep if sep == "," else None, ndmin=2)
    # loadtxt skips blank lines; only then must each row's line be looked up
    linenos = (range(first_lineno, first_lineno + len(lines)) if data is not None and len(data) == len(lines)
               else [i for i, raw in enumerate(lines, first_lineno) if raw.strip(_BLANKS)])
    if data is not None and data.shape == (len(linenos), ncols) and np.isfinite(data).all():
        return data, linenos
    out = []
    for i in linenos:
        fields = _fields(lines[i - first_lineno], sep)
        out += _parse_floats(path, i, fields)
        if len(fields) != ncols:
            raise ParseError(path, i, f"expected {ncols} columns, got {len(fields)}")
    return np.array(out, float).reshape(len(linenos), ncols), linenos


def _parse_count(path, lineno: int, token: str) -> int:
    """A count from a header line: an integer, non-negative and written without a sign."""
    with suppress(ValueError):
        if not token.startswith("-"):
            return parse_number(token, int)
    raise ParseError(path, lineno, f"expected a non-negative integer count, got {token!r}")


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------

_PLY_FIELDS = ("x", "y", "z", "nx", "ny", "nz", "red", "green", "blue")


def _ply_header(path, lines: list[str]) -> tuple[int, list[str], int]:
    """The vertex count, property names and end_header line of a PLY file whose format line is checked."""
    n_vertices = body_start = None
    props: list[str] = []
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
    return n_vertices, props, body_start


def _columns(path, data: np.ndarray, linenos, props: list[str]) -> dict[str, np.ndarray | None]:
    """The points, unit normals and colors (None where `props` has none) of rows of reals; errors name the row."""
    colors = data[:, -3:] / 255.0 if "red" in props else None
    bad = () if colors is None else np.flatnonzero(((colors < 0.0) | (colors > 1.0)).any(axis=1))
    if len(bad):
        raise ParseError(path, linenos[bad[0]], "color components must be 0..255")
    normals = data[:, 3:6] if "nx" in props else None
    if normals is not None:
        with np.errstate(over="ignore"):  # an overflowing length is reported below, at its line
            norms = np.linalg.norm(normals, axis=1, keepdims=True)
        bad = np.flatnonzero((norms < 1e-12) | np.isinf(norms))
        if bad.size:
            why = "zero-length normal" if norms[bad[0], 0] < 1e-12 else "normal length overflows"
            raise ParseError(path, linenos[bad[0]], why)
        normals = normals / norms
    return {"points": data[:, :3], "normals": normals, "colors": colors}


def _read_ply(path, lines: list[str]) -> PointCloud:
    """The cloud of a PLY file whose format line read_point_cloud has checked."""
    n_vertices, props, body_start = _ply_header(path, lines)
    body = lines[body_start:]
    try:
        data, linenos = _float_rows(path, body, body_start + 1, len(props), None)
    except ParseError as exc:
        # a row past the declared count is reported as such before its own defects
        linenos = [*_float_rows(path, body[:exc.line - body_start - 1], body_start + 1, len(props), None)[1], exc.line]
        if len(linenos) <= n_vertices:
            raise
    if len(linenos) > n_vertices:
        raise ParseError(path, linenos[n_vertices], f"data continues past the declared {n_vertices} vertices")
    if len(linenos) != n_vertices:
        raise ParseError(path, len(lines), f"expected {n_vertices} vertex rows, found {len(linenos)}")
    return PointCloud(**_columns(path, data, linenos, props))


def _read_xyz(path, lines: list[str]) -> PointCloud:
    body = [raw.split("#", 1)[0] for raw in lines] if "#" in "".join(lines) else lines
    width = next((len(fields) for fields in (_fields(raw, None) for raw in body) if fields), 3)
    try:
        # a first row neither 3 nor 6 wide fails the 3-column parse and is reported below
        data, linenos = _float_rows(path, body, 1, width if width in (3, 6) else 3, None)
    except ParseError as exc:
        fields = _fields(body[exc.line - 1], None)
        if len(fields) in (3, 6):
            raise
        _parse_floats(path, exc.line, fields)  # a bad field is reported before the width, as by the walk
        raise ParseError(path, exc.line, f"expected 3 or 6 columns, got {len(fields)}") from None
    if not linenos:
        raise ParseError(path, len(lines) or 1, "no points found")
    return PointCloud(**_columns(path, data, linenos, _PLY_FIELDS[:width]))


def _stream_cloud(path, f, ply: bool) -> PointCloud | None:
    """Binary file f's cloud, read `_CHUNK` bytes at a time (a partial last line carried into the next chunk) into its
    arrays; None for a file not ASCII or with a defect (a '\r' outside an XYZ comment is one), which is read whole."""
    tail, lines, first, props, count, out, filled = b"", [], 1, None, math.inf, {}, 0
    try:
        for chunk in chain(iter(lambda: f.read(_CHUNK), b""), [b"\n"]):  # the last line may lack its '\n'
            cut = chunk.rfind(b"\n") + 1
            text, tail = ((tail + chunk[:cut]).decode("ascii"), chunk[cut:]) if cut else ("", tail + chunk)
            lines += (text if ply else re.sub("#.*", "", text)).split("\n")[:-1]  # an XYZ line ends at '#'
            if props is None:  # a PLY's header ends at end_header; an XYZ's first row sets every row's width
                if ply and any(_fields(raw, None)[:1] == ["end_header"] for raw in lines):
                    count, props, end = _ply_header(path, lines)
                    first, lines = end + 1, lines[end:]
                elif not ply and (width := next((len(fs) for fs in (_fields(raw, None) for raw in lines) if fs), 0)):
                    props = _PLY_FIELDS[:width] if width in (3, 6) else ()  # no row fits a width not 3 or 6
            if props is None:
                continue
            data, linenos = _float_rows(path, lines, first, len(props), None)
            lines, first, filled, at = [], first + len(lines), filled + len(data), filled
            for key, column in _columns(path, data, linenos, props).items():
                if column is not None:  # an array doubles, up to a PLY's count, so each row moves O(1) times
                    array = out.setdefault(key, np.empty((0, 3)))
                    if len(array) < filled:
                        array.resize((min(max(filled, 2 * len(array)), count), 3), refcheck=False)
                    array[at:filled] = column  # rows past a PLY's count fail here or at the count check below
    except ValueError:  # a ParseError, a byte not ASCII or rows past a PLY's count
        return None
    if props is None or ply and filled != count:
        return None
    for array in out.values():  # the cloud keeps these arrays, trimmed to its rows and read-only, as its own
        array.resize((filled, 3), refcheck=False)
        array.flags.writeable = False
    return PointCloud(**out)


def read_point_cloud(path) -> PointCloud:
    """Read a cloud from the ASCII PLY subset or bare XYZ text; a PLY's format line is checked before decoding.
    A file `_stream_cloud` cannot read is read whole, so every defect is reported at the same file:line."""
    path = Path(path)
    with path.open("rb") as f:
        magic, form = (f.readline().removesuffix(b"\n").removesuffix(b"\r").strip(b" \t") for _ in range(2))
        if magic == b"ply" and form != b"format ascii 1.0":
            raise ParseError(path, 2, f"expected 'format ascii 1.0', got {form.decode(errors='replace')!r}")
        f.seek(0)
        if (cloud := _stream_cloud(path, f, magic == b"ply")) is not None:
            return cloud
    lines = _read_lines(path)
    return (_read_ply if lines and lines[0].strip(_BLANKS) == "ply" else _read_xyz)(path, lines)


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
    _write_rows(path, header, cols)


# ---------------------------------------------------------------------------
# Grasp lists
# ---------------------------------------------------------------------------

def _grasp_array(grasps: list[Grasp]) -> np.ndarray:
    """The (G, 8) grasp-list columns cx,cy,cz,rx,ry,rz,theta,sq."""
    return np.column_stack([np.reshape([getattr(g, name) for g in grasps], (len(grasps), width))
                            for name, width in (("center", 3), ("orientation", 3), ("theta", 1), ("s_q", 1))])


def write_grasps(path, grasps: list[Grasp]) -> None:
    _write_rows(path, f"{GRASP_HEADER}\n", [_grasp_array(grasps)], ",")


def format_grasp(grasp: Grasp) -> str:
    """One grasp as its grasp-list row, newline-terminated."""
    return _rows_text(_grasp_array([grasp]), ",")


def read_grasps(path) -> list[Grasp]:
    path = Path(path)
    lines = _read_lines(path)
    if not lines or lines[0].strip(_BLANKS) != GRASP_HEADER:
        raise ParseError(path, 1, f"expected header {GRASP_HEADER!r}")
    data, linenos = _float_rows(path, lines[1:], 2, 8, ",")
    try:
        return grasps_from_arrays(data[:, 0:3], data[:, 3:6], data[:, 6], data[:, 7])
    except GraspRowError as exc:
        raise ParseError(path, linenos[exc.row], str(exc)) from None


# ---------------------------------------------------------------------------
# Confidence fields
# ---------------------------------------------------------------------------

def write_confidence(path, field: ConfidenceField) -> None:
    header = f"# d_th={_fmt(field.d_th)} width={_fmt(field.gripper_width)} n={len(field)}\n"
    _write_rows(path, header, [field.values[:, None]])


def read_confidence(path) -> ConfidenceField:
    path = Path(path)
    lines = _read_lines(path)
    if not lines or not lines[0].startswith("#"):
        raise ParseError(path, 1, "expected '# d_th=<v> width=<v> n=<N>' header")
    meta = {}
    for t in _fields(lines[0].lstrip("#"), None):
        if "=" not in t:
            raise ParseError(path, 1, f"malformed header token {t!r}")
        key, value = t.split("=", 1)
        if key in meta:
            raise ParseError(path, 1, f"duplicate key {key!r}")
        meta[key] = value
    if set(meta) != {"d_th", "width", "n"}:
        raise ParseError(path, 1, f"header must define d_th, width, n; got {sorted(meta)}")
    d_th, width = _parse_floats(path, 1, [meta["d_th"], meta["width"]])
    if not d_th > 0.0:
        raise ParseError(path, 1, "d_th must be positive")
    if width < 0.0:
        raise ParseError(path, 1, "width must be non-negative")
    n = _parse_count(path, 1, meta["n"])
    # one value per line: the whole stripped line is the field
    values, linenos = _float_rows(path, [raw.strip(_BLANKS) for raw in lines[1:]], 2, 1, "\n")
    bad = np.flatnonzero((values < 0.0) | (values > 1.0))
    if bad.size:
        raise ParseError(path, linenos[bad[0]], f"confidence {float(values[bad[0], 0])} outside [0, 1]")
    if len(values) != n:
        raise ParseError(path, len(lines), f"header says n={n} but found {len(values)} values")
    return ConfidenceField(values, d_th, width)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

class ConfigText(str):
    """A config value's text; `line` is its line number in the file."""

    def __new__(cls, text: str, line: int):
        out = super().__new__(cls, text)
        out.line = line
        return out


def _text(value) -> str:
    """A value's text: an int as an integer, a real in `_fmt`'s format."""
    return "%d" % value if isinstance(value, int) else _fmt(value)


def format_config(values: dict) -> str:
    """'key = value' lines, one per item, that `read_config` reads back."""
    return "".join(f"{key} = {_text(value)}\n" for key, value in values.items())


def write_config(path, values: dict) -> None:
    Path(path).write_text(format_config(values))


def read_config(path) -> dict[str, ConfigText]:
    """Flat 'key = value' map of text, with '#' comments; keys may be dotted. Duplicate keys are an
    error; unknown keys, and parsing the values, are the consumer's problem. Each value carries its
    line, so a consumer can name file:line."""
    path = Path(path)
    out: dict[str, ConfigText] = {}
    for i, raw in enumerate(_read_lines(path), start=1):
        stripped = raw.split("#", 1)[0].strip(_BLANKS)
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(path, i, f"expected 'key = value', got {raw.strip(_BLANKS)!r}")
        key, value = (part.strip(_BLANKS) for part in stripped.split("=", 1))
        if not key:
            raise ParseError(path, i, "empty key")
        if not value:
            raise ParseError(path, i, f"empty value for key {key!r}")
        if key in out:
            raise ParseError(path, i, f"duplicate key {key!r}")
        out[key] = ConfigText(value, i)
    return out


# ---------------------------------------------------------------------------
# Fit samples
# ---------------------------------------------------------------------------

def read_xy(path) -> tuple[np.ndarray, np.ndarray]:
    """Sample pairs from a CSV with the exact header x,y."""
    path = Path(path)
    lines = _read_lines(path)
    if not lines or lines[0].strip(_BLANKS) != "x,y":
        raise ParseError(path, 1, "expected header 'x,y'")
    return tuple(_float_rows(path, lines[1:], 2, 2, ",")[0].T.copy())


# ---------------------------------------------------------------------------
# Label tables: one row per positive point, led by its cloud index
# ---------------------------------------------------------------------------

_RESIDUALS = "res_cx,res_cy,res_cz,res_rx,res_ry,res_rz"


def write_anchor_labels(path, point_index, points, gt_index, classes, positive_anchor, residuals) -> None:
    """Per point: its coordinates (n, 3), nearest ground-truth index, the class of each of the M anchors
    (n, M), the positive anchor (-1 for none) and the residual block (n, 8)."""
    anchors = "".join(f"o{j}," for j in range(classes.shape[1]))
    _write_rows(path, f"point_index,px,py,pz,gt_index,{anchors}pos_anchor,{_RESIDUALS},theta,sq\n",
                [point_index, points, gt_index, classes, positive_anchor, residuals], ",")


def write_refine_labels(path, point_index, y, residuals) -> None:
    """Per point: the refinement class y and the residual block (n, 8)."""
    _write_rows(path, f"point_index,y,{_RESIDUALS},res_theta,res_sq\n", [point_index, y, residuals], ",")


def write_regions(path, point_index, padded, indices) -> None:
    """Per point: whether its region was padded, and the region's cloud indices (n, keep)."""
    header = "point_index,padded" + "".join(f",i{j}" for j in range(indices.shape[1])) + "\n"
    _write_rows(path, header, [point_index, padded, indices], ",")


# ---------------------------------------------------------------------------
# Evaluation reports
# ---------------------------------------------------------------------------

def format_report(report: EvalReport) -> str:
    return format_config(vars(report))


def report_csv(report: EvalReport) -> str:
    return f"{REPORT_HEADER}\n{','.join(map(_text, vars(report).values()))}\n"


def write_report(path, report: EvalReport) -> None:
    """The report as `report_csv`'s header and row."""
    Path(path).write_text(report_csv(report))
