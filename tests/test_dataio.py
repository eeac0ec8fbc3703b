import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grasplab import ConfidenceField, EvalReport, Grasp, PointCloud, ScoredGrasp
from grasplab.dataio import (
    GRASP_HEADER,
    ParseError,
    format_report,
    read_config,
    read_confidence,
    read_grasps,
    read_point_cloud,
    report_csv,
    write_confidence,
    write_grasps,
    write_point_cloud,
)


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
            g = Grasp(rng.uniform(-2, 2, 3), r, float(rng.uniform(-math.pi / 2, math.pi / 2)))
            grasps.append(ScoredGrasp(g, float(rng.uniform(0, 1))))
        path = tmp_path / "g.csv"
        write_grasps(path, grasps)
        back = read_grasps(path)
        assert len(back) == 1000
        worst = 0.0
        for a, b in zip(grasps, back):
            worst = max(worst, float(np.abs(a.grasp.center - b.grasp.center).max()))
            worst = max(worst, float(np.abs(a.grasp.orientation - b.grasp.orientation).max()))
            worst = max(worst, abs(a.grasp.theta - b.grasp.theta), abs(a.s_q - b.s_q))
        assert worst <= 1e-8

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

    def test_orientation_near_unit_renormalized(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(GRASP_HEADER + "\n0,0,0,0,1.0000005,0,0,0.5\n")
        back = read_grasps(path)
        assert np.linalg.norm(back[0].grasp.orientation) == pytest.approx(1.0, abs=1e-12)

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
            assert 1 <= exc.line <= len(path.read_text().splitlines()) + 1
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
        path = tmp_path / "c.cfg"
        path.write_text("# comment\npolicy.a = 10.1244\nlabels.k1 = 768\nname = widget\n")
        cfg = read_config(path)
        assert cfg["policy.a"] == pytest.approx(10.1244)
        assert cfg["labels.k1"] == 768
        assert cfg["name"] == "widget"

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
