import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grasplab import ConfidenceField, EvalReport, Grasp, PointCloud
from grasplab.dataio import (
    GRASP_HEADER,
    _ROW_BLOCK,
    ParseError,
    _float_rows,
    _fmt,
    _row_template,
    _rows_text,
    format_report,
    read_config,
    read_confidence,
    read_grasps,
    read_point_cloud,
    read_xy,
    report_csv,
    write_confidence,
    write_grasps,
    write_point_cloud,
)
from conftest import oracle_float_rows


class TestPointCloudIO:
    def test_xyz_three_lines(self, tmp_path):
        path = tmp_path / "tri.xyz"
        path.write_text("0 0 0\n1 0 0\n0 1 0\n")
        cloud = read_point_cloud(path)
        assert len(cloud) == 3
        assert cloud.normals is None

    def test_xyz_with_comments_and_normals(self, tmp_path):
        path = tmp_path / "pts.xyz"
        path.write_text("# header comment\n0 0 0 0 0 1\n1 0 0 0 0 1  # inline\n")
        cloud = read_point_cloud(path)
        assert len(cloud) == 2
        np.testing.assert_allclose(cloud.normals, [[0, 0, 1], [0, 0, 1]])

    def test_xyz_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0\n1 2 3 4\n")
        with pytest.raises(ParseError, match=r"bad\.xyz:2"):
            read_point_cloud(path)

    def test_xyz_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.xyz"
        path.write_text("0 0 nan\n")
        with pytest.raises(ParseError, match=r"nan\.xyz:1"):
            read_point_cloud(path)

    def test_ply_with_normals_renormalized(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float nx\nproperty float ny\nproperty float nz\n"
            "end_header\n"
            "0 0 0 0 0 2\n1 1 1 0 3 0\n"
        )
        cloud = read_point_cloud(path)
        np.testing.assert_allclose(cloud.normals, [[0, 0, 1], [0, 1, 0]])

    def test_ply_with_colors_mapped_to_unit(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
            "0 0 0 255 0 128\n"
        )
        cloud = read_point_cloud(path)
        np.testing.assert_allclose(cloud.colors, [[1.0, 0.0, 128 / 255.0]])

    def test_ply_bad_format_line(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat binary 1.0\nend_header\n")
        with pytest.raises(ParseError, match=r"bad\.ply:2"):
            read_point_cloud(path)

    def test_ply_row_count_mismatch(self, tmp_path):
        path = tmp_path / "short.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n"
        )
        with pytest.raises(ParseError):
            read_point_cloud(path)

    def test_ply_trailing_rows_rejected(self, tmp_path):
        path = tmp_path / "long.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "0 0 0\n1 1 1\n"
        )
        with pytest.raises(ParseError, match=":9"):
            read_point_cloud(path)

    def test_xyz_zero_length_normal_names_its_line(self, tmp_path):
        path = tmp_path / "badn.xyz"
        good = "".join(f"{i} 0 0 0 0 1\n" for i in range(6))
        path.write_text("# six good rows, then a zero normal\n" + good + "6 0 0 0 0 0\n7 0 0 0 0 1\n")
        with pytest.raises(ParseError, match=r"badn\.xyz:8: zero-length normal"):
            read_point_cloud(path)

    def test_ply_zero_length_normal_names_its_line(self, tmp_path):
        path = tmp_path / "badn.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float nx\nproperty float ny\nproperty float nz\n"
            "end_header\n"
            "0 0 0 0 0 1\n\n1 0 0 0 0 1\n2 0 0 0 0 0\n"
        )
        with pytest.raises(ParseError, match=r"badn\.ply:14: zero-length normal"):
            read_point_cloud(path)

    @pytest.mark.parametrize("count", ["abc", "-1", "2.0", "+1", ""])
    def test_ply_bad_vertex_count_names_header_line(self, tmp_path, count):
        path = tmp_path / "count.ply"
        path.write_text(
            f"ply\nformat ascii 1.0\ncomment scanner\nelement vertex {count}\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n"
        )
        with pytest.raises(ParseError, match=r"count\.ply:4"):
            read_point_cloud(path)

    def test_round_trip_ply(self, tmp_path, rng):
        pts = rng.uniform(-1, 1, size=(20, 3))
        normals = rng.normal(size=(20, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(pts, normals)
        path = tmp_path / "rt.ply"
        write_point_cloud(path, cloud)
        back = read_point_cloud(path)
        assert np.abs(back.points - pts).max() <= 1e-8
        assert np.abs(back.normals - normals).max() <= 1e-7

    def test_round_trip_xyz(self, tmp_path, rng):
        cloud = PointCloud(rng.uniform(-1, 1, size=(10, 3)))
        path = tmp_path / "rt.xyz"
        write_point_cloud(path, cloud)
        back = read_point_cloud(path)
        assert np.abs(back.points - cloud.points).max() <= 1e-8


class TestGraspIO:
    def test_empty_list_writes_header_only(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grasps(path, [])
        assert path.read_text() == GRASP_HEADER + "\n"
        assert read_grasps(path) == []

    def test_round_trip_thousand_random(self, tmp_path, rng):
        grasps = []
        for _ in range(1000):
            r = rng.normal(size=3)
            r /= np.linalg.norm(r)
            theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
            grasps.append(Grasp(rng.uniform(-2, 2, 3), r, theta, float(rng.uniform(0, 1))))
        path = tmp_path / "g.csv"
        write_grasps(path, grasps)
        back = read_grasps(path)
        assert len(back) == 1000
        worst = 0.0
        for a, b in zip(grasps, back):
            worst = max(worst, float(np.abs(a.center - b.center).max()))
            worst = max(worst, float(np.abs(a.orientation - b.orientation).max()))
            worst = max(worst, abs(a.theta - b.theta), abs(a.s_q - b.s_q))
        assert worst <= 1e-8

    def test_bytes_match_per_field_formatting(self, tmp_path, rng):
        grasps = []
        for _ in range(300):
            r = rng.normal(size=3)
            g = Grasp(rng.normal(scale=10.0 ** rng.integers(-8, 4), size=3), r / np.linalg.norm(r),
                      float(rng.uniform(-math.pi / 2, math.pi / 2)))
            grasps.append(g.with_score(float(rng.choice([0.0, 1.0, rng.uniform(0, 1)]))))
        grasps.append(Grasp((0, -0.0, 1e-300), (0, 0, -1), math.pi / 2, 1.0))
        path = tmp_path / "g.csv"
        write_grasps(path, grasps)
        rows = [",".join("%.9g" % float(v) for v in [*g.center, *g.orientation, g.theta, g.s_q]) for g in grasps]
        assert path.read_bytes() == ("\n".join([GRASP_HEADER, *rows]) + "\n").encode()

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("cx,cy,cz\n")
        with pytest.raises(ParseError, match=":1"):
            read_grasps(path)

    def test_orientation_off_unit_rejected_with_line(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(GRASP_HEADER + "\n0,0,0,0,0.9,0,0,0.5\n")
        with pytest.raises(ParseError, match=":2"):
            read_grasps(path)

    @pytest.mark.parametrize("text,message", [
        ("-0.1", "s_q -0.1 outside [0, 1]"), ("1.5", "s_q 1.5 outside [0, 1]"),
        ("nan", "non-finite value: 'nan'"),  # the row parser refuses a NaN before it reaches Grasp
    ])
    def test_score_out_of_range_rejected_with_line(self, tmp_path, text, message):
        path = tmp_path / "g.csv"
        path.write_text(f"{GRASP_HEADER}\n0,0,0,0,1,0,0,0.5\n0,0,0,0,1,0,0,{text}\n")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            read_grasps(path)

    def test_pose_defect_is_reported_before_the_score(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(GRASP_HEADER + "\n0,0,0,0,0.9,0,0,1.5\n")
        with pytest.raises(ParseError, match=r":2: orientation norm"):
            read_grasps(path)

    def test_orientation_near_unit_renormalized(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(GRASP_HEADER + "\n0,0,0,0,1.0000005,0,0,0.5\n")
        back = read_grasps(path)
        assert np.linalg.norm(back[0].orientation) == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_field_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(GRASP_HEADER + "\n0,0,inf,0,1,0,0,0.5\n")
        with pytest.raises(ParseError, match=":2"):
            read_grasps(path)


class TestConfidenceIO:
    def test_header_round_trip(self, tmp_path):
        field = ConfidenceField(np.array([0.25, 0.5]), d_th=0.01, gripper_width=0.08)
        path = tmp_path / "c.txt"
        write_confidence(path, field)
        back = read_confidence(path)
        assert back.d_th == 0.01
        assert back.gripper_width == 0.08

    def test_value_round_trip(self, tmp_path, rng):
        field = ConfidenceField(rng.uniform(0, 0.999, size=200), d_th=0.01)
        path = tmp_path / "c.txt"
        write_confidence(path, field)
        back = read_confidence(path)
        assert np.abs(back.values - field.values).max() <= 1e-8

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# d_th=0.01 width=0 n=3\n0.5\n0.5\n")
        with pytest.raises(ParseError):
            read_confidence(path)

    def test_duplicate_header_key_names_it(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# d_th=0.5 d_th=0.01 width=0 n=2\n0.5\n0.5\n")
        with pytest.raises(ParseError, match=r"c\.txt:1: duplicate key 'd_th'"):
            read_confidence(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0.5\n")
        with pytest.raises(ParseError, match=":1"):
            read_confidence(path)

    @pytest.mark.parametrize("count", ["x", "-2", "1e3"])
    def test_bad_count_names_header_line(self, tmp_path, count):
        path = tmp_path / "c.txt"
        path.write_text(f"# d_th=0.01 width=0 n={count}\n0.5\n")
        with pytest.raises(ParseError, match=r"c\.txt:1: expected a non-negative integer count"):
            read_confidence(path)


def line_bound(data: bytes) -> int:
    """The largest line number an error may name: the file's last line (lines end at '\n'), or the next."""
    return data.count(b"\n") + (not data.endswith(b"\n")) + 1


class TestHeaderCountProperty:
    """Any count token in a header either parses or fails with a positioned ParseError."""

    TOKENS = st.one_of(st.integers(-3, 3).map(str), st.text(st.characters(codec="utf-8"), max_size=8))
    SETTINGS = settings(max_examples=150, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])

    @staticmethod
    def _parses_or_positioned(read, path):
        try:
            return read(path)
        except ParseError as exc:
            assert exc.path == str(path)
            assert 1 <= exc.line <= line_bound(path.read_bytes())
            return None

    @SETTINGS
    @given(token=TOKENS)
    def test_ply_element_vertex(self, tmp_path, token):
        path = tmp_path / "fuzz.ply"
        path.write_text(
            f"ply\nformat ascii 1.0\nelement vertex {token}\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n"
        )
        cloud = self._parses_or_positioned(read_point_cloud, path)
        assert cloud is None or len(cloud) == 1

    @SETTINGS
    @given(token=TOKENS)
    def test_confidence_n(self, tmp_path, token):
        path = tmp_path / "fuzz.txt"
        path.write_text(f"# d_th=0.01 width=0 n={token}\n0.5\n")
        field = self._parses_or_positioned(read_confidence, path)
        assert field is None or len(field) == 1


# Per reader: the function, a file name, a valid header and one valid data line.
READERS = {
    "ply": (read_point_cloud, "c.ply",
            b"ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\n"
            b"property float z\nproperty float nx\nproperty float ny\nproperty float nz\nend_header\n",
            b"0 0 0 0 0 1\n"),
    "xyz": (read_point_cloud, "c.xyz", b"# x y z nx ny nz\n", b"0 0 0 0 0 1\n"),
    "grasps": (read_grasps, "g.csv", GRASP_HEADER.encode() + b"\n", b"0,0,0,0,1,0,0,0.5\n"),
    "confidence": (read_confidence, "c.txt", b"# d_th=0.01 width=0 n=2\n", b"0.5\n"),
    "config": (read_config, "c.cfg", b"# settings\n", b"a = 1\n"),
    "xy": (read_xy, "s.csv", b"x,y\n", b"0.1,0.2\n"),
}

# Arbitrary bytes, plus byte strings built from the formats' own tokens so
# that the fuzz also reaches rows that almost parse.
FRAGMENTS = [b"0", b"1", b"-1", b"0.5", b"255", b"1e300", b"1e-300", b"nan", b"inf", b"x", b"_", b"=",
             b"#", b",", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0c", b"\x00", b"\xc2\x85", b"\xe2\x80\xa8",
             b"\xff", b"\xe2\x80", b"d_th=", b"width=", b"n=", b"ply", b"element vertex ", b"end_header",
             b"property float nx", b"x,y", b"0 0 0 ", b"0,1,0,"]
BYTES = st.one_of(st.binary(max_size=200), st.lists(st.sampled_from(FRAGMENTS), max_size=40).map(b"".join))


class TestParserFuzz:
    """Any bytes after a valid header, or alone, either parse or fail with a positioned ParseError."""

    SETTINGS = settings(max_examples=100, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])

    @staticmethod
    def _parses_or_positioned(read, path, data):
        path.write_bytes(data)
        try:
            read(path)
        except ParseError as exc:
            assert exc.path == str(path)
            assert 1 <= exc.line <= line_bound(data)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @SETTINGS
    @given(tail=BYTES)
    def test_header_then_bytes(self, tmp_path, kind, tail):
        read, name, header, _ = READERS[kind]
        self._parses_or_positioned(read, tmp_path / name, header + tail)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @SETTINGS
    @given(data=BYTES)
    def test_bytes_alone(self, tmp_path, kind, data):
        read, name, _, _ = READERS[kind]
        self._parses_or_positioned(read, tmp_path / name, data)


class TestUndecodableBytes:
    """A byte that is not UTF-8 is a ParseError at the line that holds it."""

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_first_line(self, tmp_path, kind):
        read, name, header, row = READERS[kind]
        (tmp_path / name).write_bytes(b"\xff" + header + row)
        with pytest.raises(ParseError, match=rf"{name}:1: not UTF-8 text: byte 0xff"):
            read(tmp_path / name)

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_later_line(self, tmp_path, kind):
        read, name, header, row = READERS[kind]
        line = header.count(b"\n") + 2
        (tmp_path / name).write_bytes(header + row + b"0 \xe9 1\n" + row)
        with pytest.raises(ParseError, match=rf"{name}:{line}: not UTF-8 text: byte 0xe9"):
            read(tmp_path / name)

    def test_lines_counted_as_the_parser_splits_them(self, tmp_path):
        # only '\n' ends a line: a lone '\r' and a form feed do not
        path = tmp_path / "s.csv"
        path.write_bytes(b"x,y\r0.1,0.2\r\n\x0c0.3,0.4\xe2\x80")
        with pytest.raises(ParseError, match=r"s\.csv:2: not UTF-8 text: byte 0xe2"):
            read_xy(path)


class TestFuzzFindings:
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflow is an error, not also a warning
    def test_overflowing_normal_names_its_line(self, tmp_path):
        path = tmp_path / "n.xyz"
        path.write_text("0 0 0 0 0 1\n0 0 0 1e300 1e300 0\n")
        with pytest.raises(ParseError, match=r"n\.xyz:2: normal length overflows"):
            read_point_cloud(path)

    def test_non_positive_d_th_names_header_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# d_th=0 width=0 n=1\n0.5\n")
        with pytest.raises(ParseError, match=r"c\.txt:1: d_th must be positive"):
            read_confidence(path)

    def test_negative_width_names_header_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# d_th=0.01 width=-0.08 n=1\n0.5\n")
        with pytest.raises(ParseError, match=r"c\.txt:1: width must be non-negative"):
            read_confidence(path)


class TestRowMessages:
    """Messages of the shared row parser match the per-format rules they replace."""

    PLY3 = ("ply\nformat ascii 1.0\nelement vertex {n}\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n")

    @pytest.mark.parametrize("body,line,message", [
        ("0 0 0 0\n", 1, "expected 3 or 6 columns, got 4"),
        ("0 0 0\n\n1 2 3 4\n", 3, "expected 3 or 6 columns, got 4"),
        ("0 0 0\n0 0 0 0 0 1\n", 2, "expected 3 columns, got 6"),
        ("0 0 0 0 0 1\n0 0 0 # three\n", 2, "expected 6 columns, got 3"),
    ])
    def test_xyz_widths(self, tmp_path, body, line, message):
        path = tmp_path / "w.xyz"
        path.write_text(body)
        with pytest.raises(ParseError, match=rf"w\.xyz:{line}: {message}$"):
            read_point_cloud(path)

    def test_uneven_rows_with_a_matching_total_are_rejected(self, tmp_path):
        path = tmp_path / "u.ply"
        path.write_text(self.PLY3.format(n=2) + "0 0 0 0\n0 0\n")
        with pytest.raises(ParseError, match=r"u\.ply:8: expected 3 columns, got 4$"):
            read_point_cloud(path)
        path = tmp_path / "g.csv"
        path.write_text(GRASP_HEADER + "\n0,0,0,0,1,0,0\n0,0,0,0,1,0,0,0.5,0\n")
        with pytest.raises(ParseError, match=r"g\.csv:2: expected 8 columns, got 7$"):
            read_grasps(path)

    @pytest.mark.parametrize("extra", ["0 0 0", "1 2", "end"])
    def test_ply_extra_row_is_reported_as_overflow(self, tmp_path, extra):
        path = tmp_path / "o.ply"
        path.write_text(self.PLY3.format(n=1) + f"0 0 0\n\n{extra}\n")
        with pytest.raises(ParseError, match=r"o\.ply:10: data continues past the declared 1 vertices$"):
            read_point_cloud(path)

    @pytest.mark.parametrize("field", ["inf", "-inf", "nan", "Infinity", "1e400"])
    def test_non_finite_keeps_its_message(self, tmp_path, field):
        path = tmp_path / "g.csv"
        path.write_text(f"{GRASP_HEADER}\n0,0,{field},0,1,0,0,0.5\n")
        with pytest.raises(ParseError, match=rf"g\.csv:2: non-finite value: '{field}'$"):
            read_grasps(path)

    def test_ply_defect_before_overflow_is_reported_first(self, tmp_path):
        path = tmp_path / "o.ply"
        path.write_text(self.PLY3.format(n=2) + "0 0 x\n0 0 0\n0 0 0\n")
        with pytest.raises(ParseError, match=r"o\.ply:8: not a number: 'x'$"):
            read_point_cloud(path)


class TestRowParserDifferential:
    """`_float_rows` against the pure-Python row parser: same array bytes, line numbers and messages."""

    # the C reader's alphabet, and what lies just outside it: blanks Python's float strips, digit
    # separators, non-ASCII digits and the words float reads as non-finite
    PIECES = [*"0123456789.-+eE \t,", "\x1f", "\xa0", "\x0b", "_", "\u0663", "\uff11", "inf", "-inf", "nan",
              "Infinity", "1e400", "x"]
    FIELD = st.one_of(st.floats().map(repr), st.floats(-1e3, 1e3).map("{:.9g}".format),
                      st.lists(st.sampled_from(PIECES), max_size=5).map("".join))
    SETTINGS = settings(max_examples=200, deadline=None)

    @staticmethod
    def _outcome(parse, lines, first, ncols, sep):
        try:
            data, linenos = parse("f.txt", lines, first, ncols, sep)
        except ParseError as exc:
            return str(exc), exc.line
        return data.shape, data.tobytes(), linenos

    @SETTINGS
    @given(data=st.data(), ncols=st.sampled_from([1, 2, 3, 6, 8]), sep=st.sampled_from([None, ",", "\n"]),
           first=st.integers(1, 9))
    def test_agrees_with_pure_python(self, data, ncols, sep, first):
        joiner = st.sampled_from([" ", "\t", "  ", "\x1f", "\xa0"] if sep is None else [",", ", ", " ,", "\x1f"])
        # rows of the right width (they mostly parse), rows of any width, free text and blank lines
        row = st.one_of(
            st.tuples(st.lists(self.FIELD, min_size=ncols, max_size=ncols), joiner, st.sampled_from(["", " ", "\t"]))
            .map(lambda t: t[2] + t[1].join(t[0]) + t[2]),
            st.tuples(st.lists(self.FIELD, max_size=9), joiner).map(lambda t: t[1].join(t[0])),
            st.lists(st.sampled_from(self.PIECES), max_size=20).map("".join),
            st.sampled_from(["", " ", "\x1f"]),
        )
        lines = data.draw(st.lists(row, max_size=6))
        assert (self._outcome(_float_rows, lines, first, ncols, sep)
                == self._outcome(oracle_float_rows, lines, first, ncols, sep))

    @pytest.mark.parametrize("lines,sep,ncols", [
        (["0\x1f"], ",", 1),  # np.loadtxt strips the unit separator; the walk rejects it
        (["1_0 2 3"], None, 3),  # Python's float reads digit separators
        (["\u0663 1 2"], None, 3),  # and non-ASCII digits
        (["inf 1 2"], None, 3),
        (["1 2"], "\n", 1),  # a whole-row field with an inner blank
        (["1 2", "3 4"], "\n", 2),
        ([], ",", 8),
        (["", " \t"], None, 3),
        (["1\x1f0\x1f0"], None, 3),  # Python's str.split splits on the unit separator
        (["0 0 \uff11"], None, 3),
        (["\xa0", "0 0 0"], None, 3),  # a line of another blank is not blank
        (["0 0 1e400"], None, 3),
        (["0 x 0 0"], None, 3),  # a bad field is reported before the width
    ])
    def test_where_the_c_reader_alone_would_differ(self, lines, sep, ncols):
        assert self._outcome(_float_rows, lines, 1, ncols, sep) == self._outcome(oracle_float_rows, lines, 1, ncols, sep)


class TestRowWriter:
    def test_row_template_formats_integers_and_reals(self):
        row = _row_template("dgd", ",")
        assert row == "%d,%.9g,%d\n"
        assert row % (np.int64(3), np.float64(1 / 3), np.True_) == "3,0.333333333,1\n"
        assert row % (np.int8(-1), 1e21, 0) == "-1,1e+21,0\n"

    def test_matches_fmt_on_edge_values(self, tmp_path):
        vals = np.array([[0.0, -0.0, 1 / 3], [1e-300, 5e-324, 1.7976931348623157e308],
                         [255.0, 1e21, -math.pi]])
        path = tmp_path / "e.xyz"
        write_point_cloud(path, PointCloud(vals))
        assert path.read_text() == "".join(" ".join(f"{v:.9g}" for v in row) + "\n" for row in vals)


def _cloud(n, normals, colors, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return PointCloud(rng.uniform(-1.0, 1.0, size=(n, 3)),
                      v / np.linalg.norm(v, axis=1, keepdims=True) if normals else None,
                      rng.uniform(0.0, 1.0, size=(n, 3)) if colors else None)


def _one_shot_cloud_text(suffix, cloud):
    """A cloud file's text as one `_rows_text` call over every row."""
    cols = [cloud.points] if cloud.normals is None else [cloud.points, cloud.normals]
    header = ""
    if suffix == ".ply":
        props = ["x", "y", "z", "nx", "ny", "nz"][:3 * len(cols)]
        if cloud.colors is not None:
            props += ["red", "green", "blue"]
            cols.append(np.round(cloud.colors * 255.0))
        header = "\n".join(["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
                            *(f"property float {p}" for p in props), "end_header", ""])
    return header + _rows_text(np.hstack(cols))


class TestBlockedWriters:
    SIZES = [0, 1, _ROW_BLOCK, _ROW_BLOCK + 1]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("suffix, normals, colors", [
        (".ply", False, False), (".ply", True, False), (".ply", False, True), (".ply", True, True),
        (".xyz", False, False), (".xyz", True, False),
    ])
    def test_cloud_bytes_equal_the_one_shot_text(self, tmp_path, n, suffix, normals, colors):
        cloud = _cloud(n, normals, colors, seed=n)
        got, want = tmp_path / f"got{suffix}", tmp_path / f"want{suffix}"
        write_point_cloud(got, cloud)
        want.write_text(_one_shot_cloud_text(suffix, cloud))
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("n", SIZES)
    def test_confidence_bytes_equal_the_one_shot_text(self, tmp_path, n):
        field = ConfidenceField(np.random.default_rng(n).uniform(0.0, 1.0, size=n), 0.03, 0.08)
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        write_confidence(got, field)
        want.write_text(f"# d_th={_fmt(0.03)} width={_fmt(0.08)} n={n}\n" + _rows_text(field.values[:, None]))
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("n", SIZES)
    def test_grasp_bytes_equal_the_one_shot_text(self, tmp_path, n):
        rng = np.random.default_rng(n)
        r = rng.normal(size=(n, 3))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        data = np.column_stack([rng.uniform(-1.0, 1.0, size=(n, 3)), r,
                                rng.uniform(-1.5, 1.5, size=n), rng.uniform(0.0, 1.0, size=n)])
        grasps = [Grasp(row[:3], row[3:6], row[6], row[7]) for row in data]
        rows = [(*g.center, *g.orientation, g.theta, g.s_q) for g in grasps]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_grasps(got, grasps)
        want.write_text(f"{GRASP_HEADER}\n" + _rows_text(np.array(rows, float).reshape(n, 8), ","))
        assert got.read_bytes() == want.read_bytes()

    def test_cloud_writer_peak_memory_does_not_grow_with_the_cloud(self, tmp_path):
        cloud = _cloud(50_000, normals=True, colors=False)
        tracemalloc.start()
        try:
            write_point_cloud(tmp_path / "c.ply", cloud)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestConfigIO:
    def test_empty_file_gives_empty_map(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("")
        assert read_config(path) == {}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(ParseError, match=":2"):
            read_config(path)

    def test_typed_values_and_dotted_keys(self, tmp_path):
        # values stay text; each consumer parses its own
        path = tmp_path / "c.cfg"
        path.write_text("# comment\npolicy.a = 10.1244\nlabels.k1 = 768\nname = widget\n")
        assert read_config(path) == {"policy.a": "10.1244", "labels.k1": "768", "name": "widget"}

    def test_values_carry_their_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nlabels.k1 = 768\nname = widget # trailing\n")
        assert {key: (value, value.line) for key, value in read_config(path).items()} == {
            "labels.k1": ("768", 3), "name": ("widget", 4)}

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(ParseError, match=":1"):
            read_config(path)


class TestReportFormats:
    def test_key_value_and_csv(self):
        report = EvalReport(cfr=0.75, as_mean=0.5, as_with_collision=0.25, tcr=0.5, n_selected=3)
        text = format_report(report)
        assert "cfr = 0.75" in text
        assert "n_selected = 3" in text
        csv = report_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0] == "cfr,as_mean,as_with_collision,tcr,n_selected"
        assert lines[1] == "0.75,0.5,0.25,0.5,3"
