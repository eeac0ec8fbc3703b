import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import grasplab
from grasplab import cli
from grasplab.cli import main
from conftest import random_sphere_cloud

GRIPPER = "0.06,0.10,0.02,0.005"


def write_inputs(root):
    cloud = random_sphere_cloud(0.045, 400, seed=11)
    body = "\n".join(" ".join(f"{v:.9g}" for v in row) for row in cloud.points)
    (root / "scene.xyz").write_text(body + "\n")
    x = np.linspace(0, 1, 50)
    y = 1.0 / (1.0 + np.exp(-10.1244 * (x - 0.6103)))
    (root / "sigmoid.csv").write_text(
        "x,y\n" + "\n".join(f"{a:.9g},{b:.9g}" for a, b in zip(x, y)) + "\n"
    )
    (root / "line.csv").write_text(
        "x,y\n" + "\n".join(f"{a:.9g},{0.8783 * a - 0.0587:.9g}" for a in x) + "\n"
    )


def run_pipeline(root, out):
    """Run every subcommand once; returns the list of produced files."""
    out.mkdir(exist_ok=True)
    scene = str(root / "scene.xyz")
    ply = str(out / "scene.ply")
    steps = [
        ["normals", scene, "-k", "12", "-o", ply],
        ["sample", ply, "--gripper", GRIPPER, "--centers", "4", "--orientations", "2",
         "--angles", "3", "--seed", "5", "-o", str(out / "cands.csv")],
        ["collide", ply, str(out / "cands.csv"), "--gripper", GRIPPER, "-o", str(out / "free.csv")],
        ["score", ply, str(out / "free.csv"), "--gripper", GRIPPER, "-o", str(out / "scored.csv")],
        ["confidence", ply, str(out / "scored.csv"), "--dth", "0.01", "-o", str(out / "conf.txt")],
        ["labels", str(out / "scored.csv"), "--cloud", ply, "--confidence", str(out / "conf.txt"),
         "--k1", "24", "--regions", "--seed", "2", "-o", str(out / "labels")],
        ["fit", str(root / "sigmoid.csv"), "--mode", "sigmoid", "-o", str(out / "sig.txt")],
        ["fit", str(root / "line.csv"), "--mode", "linear", "-o", str(out / "lin.txt")],
        ["eval", str(out / "scored.csv"), ply, str(out / "scored.csv"), "--gripper", GRIPPER,
         "--pool", "50", "--top", "10", "-o", str(out / "report.csv")],
    ]
    for argv in steps:
        assert main(argv) == 0, f"step failed: {argv}"
    return sorted(p for p in out.rglob("*") if p.is_file())


class TestPipeline:
    def test_full_chain_and_determinism(self, tmp_path):
        write_inputs(tmp_path)
        files_a = run_pipeline(tmp_path, tmp_path / "a")
        files_b = run_pipeline(tmp_path, tmp_path / "b")
        names_a = [p.relative_to(tmp_path / "a") for p in files_a]
        names_b = [p.relative_to(tmp_path / "b") for p in files_b]
        assert names_a == names_b
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), f"nondeterministic output: {pa.name}"

    def test_collide_output_subset_in_order(self, tmp_path):
        write_inputs(tmp_path)
        run_pipeline(tmp_path, tmp_path / "a")
        cands = (tmp_path / "a" / "cands.csv").read_text().splitlines()
        free = (tmp_path / "a" / "free.csv").read_text().splitlines()
        assert free[0] == cands[0]
        rows = iter(cands[1:])
        for row in free[1:]:
            for cand in rows:
                if cand == row:
                    break
            else:
                pytest.fail("collide output row not found in input order")

    def test_fit_recovers_coefficients(self, tmp_path):
        write_inputs(tmp_path)
        out = tmp_path / "a"
        run_pipeline(tmp_path, out)
        sig = dict(
            line.split(" = ") for line in (out / "sig.txt").read_text().strip().splitlines()
        )
        assert float(sig["a"]) == pytest.approx(10.1244, abs=1e-6)
        assert float(sig["b"]) == pytest.approx(0.6103, abs=1e-6)
        lin = dict(
            line.split(" = ") for line in (out / "lin.txt").read_text().strip().splitlines()
        )
        assert float(lin["slope"]) == pytest.approx(0.8783, abs=1e-9)
        assert float(lin["intercept"]) == pytest.approx(-0.0587, abs=1e-9)

    def test_eval_report_format(self, tmp_path, capsys):
        write_inputs(tmp_path)
        out = tmp_path / "a"
        run_pipeline(tmp_path, out)
        capsys.readouterr()
        assert main(["eval", str(out / "scored.csv"), str(out / "scene.ply"),
                     str(out / "scored.csv"), "--gripper", GRIPPER]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("cfr = ")
        assert "tcr = " in stdout
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "cfr,as_mean,as_with_collision,tcr,n_selected"


class TestLabelsNearestCenter:
    def test_blocks_give_the_per_point_argmin_with_lowest_index_ties(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        points = rng.uniform(-0.05, 0.05, size=(40, 3))
        (tmp_path / "c.xyz").write_text("".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in points))
        (tmp_path / "c.txt").write_text("# d_th=0.01 width=0 n=40\n"
                                        + "".join(f"{v:.9g}\n" for v in rng.uniform(0.0, 0.9, 40)))
        centers = rng.uniform(-0.05, 0.05, size=(6, 3))
        centers = np.vstack([centers, centers[::-1]])  # every center twice: ties go to the lower index
        body = "".join(f"{x:.9g},{y:.9g},{z:.9g},0,1,0,0,0.5\n" for x, y, z in centers)
        (tmp_path / "g.csv").write_text("cx,cy,cz,rx,ry,rz,theta,sq\n" + body)
        cloud = grasplab.dataio.read_point_cloud(tmp_path / "c.xyz")
        centers = np.stack([g.center for g in grasplab.dataio.read_grasps(tmp_path / "g.csv")])
        argv = ["labels", str(tmp_path / "g.csv"), "--cloud", str(tmp_path / "c.xyz"),
                "--confidence", str(tmp_path / "c.txt"), "--k1", "25"]
        outputs = []
        for pairs in (1, 3 * len(centers), cli._NEAREST_PAIRS):  # one row a block, 3 rows a block, one block
            monkeypatch.setattr(cli, "_NEAREST_PAIRS", pairs)
            assert main(argv + ["-o", str(tmp_path / str(pairs))]) == 0
            outputs.append((tmp_path / str(pairs) / "anchor_labels.csv").read_text())
        assert outputs[0] == outputs[1] == outputs[2]
        rows = [line.split(",") for line in outputs[0].splitlines()[1:]]
        assert len(rows) == 25
        for row in rows:
            p = cloud.points[int(row[0])]
            assert int(row[4]) == int(np.argmin(np.linalg.norm(centers - p, axis=1)))


U = 2.0 ** -8  # label-input coordinates are multiples of U m, so 9-digit files and translations stay exact


@st.composite
def _label_inputs(draw):
    """A tiny labels input in units of U: distinct ground-truth centers, points near them, a translation."""
    g, n = draw(st.integers(4, 16)), draw(st.integers(20, 60))
    # per ground truth: the step to its center's grid code, a nonzero direction in [-3, 3]^3, theta in pi/64 steps
    code = draw(arrays(np.int64, g, elements=st.integers(0, 64 ** 3 // 16 * (7 ** 3 - 1) * 65 - 1)))
    (step, axis), theta = np.divmod(code // 65, 7 ** 3 - 1), code % 65 - 32
    centers = np.stack(np.unravel_index(np.cumsum(step + 1) - 1, (64, 64, 64)), axis=1) - 32  # distinct
    axes = np.stack(np.unravel_index(axis + (axis >= 7 ** 3 // 2), (7,) * 3), 1) - 3  # skips (0, 0, 0)
    axes = axes / np.linalg.norm(axes, axis=1, keepdims=True)
    thetas, s_q = theta * (math.pi / 64), np.arange(g) / 16
    gts = list(zip(centers, axes, thetas.tolist(), s_q.tolist()))
    # per point: its center, its offset of at most 6 U per axis (small codes near 0), its confidence
    code = draw(arrays(np.int64, n, elements=st.integers(0, g * 13 ** 3 * 256 - 1)))
    (near, offset), conf = np.divmod(code // 256, 13 ** 3), code % 256 / 256
    zigzag = np.array([0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6])
    points = centers[near] + zigzag[np.stack(np.unravel_index(offset, (13, 13, 13)), axis=1)]
    shift = draw(arrays(np.int64, 3, elements=st.integers(-1000, 1000)))
    return points, gts, conf, draw(st.integers(1, 8)), shift, draw(st.permutations(range(g)))


class TestLabelFileInvariance:
    ANCHORS = grasplab.anchor_set(4).directions

    def labels(self, root, points, gts, conf, k1, regions=True):
        grasplab.dataio.write_point_cloud(root / "c.xyz", grasplab.PointCloud(points * U))
        grasplab.dataio.write_confidence(root / "c.txt", grasplab.ConfidenceField(conf, 0.01))
        grasplab.dataio.write_grasps(root / "g.csv", [grasplab.Grasp(c * U, r, t, q) for c, r, t, q in gts])
        argv = ["labels", str(root / "g.csv"), "--cloud", str(root / "c.xyz"), "--confidence",
                str(root / "c.txt"), "--k1", str(k1), "-o", str(root / "out")]
        assert main(argv + (["--regions", "--set", "region.keep=8"] if regions else [])) == 0
        names = ("anchor_labels.csv", "refine_labels.csv") + (("regions.csv",) if regions else ())
        return [(root / "out" / name).read_text() for name in names]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_label_inputs())
    def test_translation_and_relabeling_change_only_positions_and_gt_index(self, tmp_path, case):
        points, gts, conf, k1, shift, perm = case
        anchor, refine, regions = self.labels(tmp_path, points, gts, conf, k1)
        truth = grasplab.dataio.read_grasps(tmp_path / "g.csv")
        sq_dist = ((points[:, None] - np.stack([c for c, *_ in gts])) ** 2).sum(axis=2)  # exact, in U**2
        cells = [line.split(",") for line in anchor.splitlines()[1:]]
        for row, ref in zip(cells, [line.split(",") for line in refine.splitlines()[1:]], strict=True):
            pi, gi, pos, p = int(row[0]), int(row[4]), int(row[9]), np.array(row[1:4], dtype=float)
            assert p.tolist() == (points[pi] * U).tolist()
            assert gi == int(np.argmin(sq_dist[pi]))  # the nearest center, lowest index on ties
            gt, res = truth[gi], np.array(row[10:], dtype=float)
            if pos >= 0:
                back = grasplab.decode_proposal(res, p, self.ANCHORS[pos])
                np.testing.assert_allclose(back.center, gt.center, atol=1e-9)
                np.testing.assert_allclose(back.orientation, gt.orientation, atol=1e-8)
                assert (back.theta, res[7]) == (pytest.approx(gt.theta, abs=1e-8), gt.s_q)
            if ref[1] == "1":  # residuals of gt against the proposal (p, the anchor, theta 0, s_q 0)
                res = np.array(ref[2:], dtype=float)
                a = self.ANCHORS[pos if pos >= 0 else int(np.argmax(self.ANCHORS @ gt.orientation))]
                np.testing.assert_allclose(res[:3] * 0.1 + p, gt.center, atol=1e-9)
                np.testing.assert_allclose(res[3:6] + a, gt.orientation, atol=1e-8)
                assert res[6:] == pytest.approx([gt.theta, gt.s_q], abs=1e-8)
        assume(all(np.sum(sq_dist[int(row[0])] == sq_dist[int(row[0])].min()) == 1 for row in cells))

        moved_gts = [(gts[i][0] + shift, *gts[i][1:]) for i in perm]
        moved = self.labels(tmp_path, points + shift, moved_gts, conf, k1)
        assert moved[1:] == [refine, regions]
        for row, mrow in zip(cells, [line.split(",") for line in moved[0].splitlines()[1:]], strict=True):
            p, moved_p = (np.array(r[1:4], dtype=float) for r in (row, mrow))
            assert moved_p.tolist() == (p + shift * U).tolist()
            assert (mrow[0], perm[int(mrow[4])], mrow[5:]) == (row[0], int(row[4]), row[5:])

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_label_inputs(), st.integers(0, 2**32 - 1))
    def test_permuting_the_cloud_changes_only_point_indices(self, tmp_path, case, seed):
        # distinct confidences rank the positive points alike in both orders; regions are left out, since
        # ball_query keeps the first hits in index order and so may keep other points after a permutation
        points, gts, conf, k1, _, _ = case
        conf = np.argsort(np.argsort(conf, kind="stable")) / 256  # distinct, in the order ties broke before
        perm = np.random.default_rng(seed).permutation(len(points))  # row j of the permuted cloud is row perm[j]
        before = self.labels(tmp_path, points, gts, conf, k1, regions=False)
        after = self.labels(tmp_path, points[perm], gts, conf[perm], k1, regions=False)
        new_index = np.argsort(perm)
        for table, moved in zip(before, after, strict=True):
            rows, moved_rows = ([line.split(",", 1) for line in t.splitlines()] for t in (table, moved))
            assert moved_rows[0] == rows[0]
            assert [(int(i), rest) for i, rest in moved_rows[1:]] == [(new_index[int(i)], rest)
                                                                       for i, rest in rows[1:]]


class TestEvalWorksheet:
    def test_cli_matches_hand_computed_metrics(self, tmp_path, capsys):
        # same scene as tests/test_metrics.py: one clean pinch pair, one pinch
        # pair with a point lodged in its finger, plus two contactless grasps
        ply = tmp_path / "scene.ply"
        rows = [
            (0.0, 0.02, 0.0, 0.0, 1.0, 0.0),
            (0.0, -0.02, 0.0, 0.0, -1.0, 0.0),
            (0.2, 0.02, 0.0, 0.0, 1.0, 0.0),
            (0.2, -0.02, 0.0, 0.0, -1.0, 0.0),
            (0.2, 0.035, 0.0, 0.0, 1.0, 0.0),
        ]
        header = (
            "ply\nformat ascii 1.0\nelement vertex 5\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float nx\nproperty float ny\nproperty float nz\nend_header\n"
        )
        ply.write_text(header + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
        grasps = tmp_path / "scored.csv"
        grasps.write_text(
            "cx,cy,cz,rx,ry,rz,theta,sq\n"
            "0,0,0,0,1,0,0,0.9\n"      # clean pinch, contact score 1
            "0.2,0,0,0,1,0,0,0.8\n"    # collides with the lodged point
            "0,0,1,0,1,0,0,0.7\n"      # empty closing region
            "0,0,0,1,0,0,0,0.6\n"      # contacts on one side only
        )
        gt = tmp_path / "gt.csv"
        gt.write_text(
            "cx,cy,cz,rx,ry,rz,theta,sq\n0,0,0,0,1,0,0,0.9\n1,0,0,0,1,0,0,0.5\n"
        )
        assert main(["eval", str(grasps), str(ply), str(gt),
                     "--gripper", "0.06,0.06,0.04,0.01"]) == 0
        values = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["cfr"]) == 1.0
        assert float(values["as_mean"]) == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert float(values["as_with_collision"]) == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert float(values["tcr"]) == 0.5
        assert values["n_selected"] == "3"


class TestSubsample:
    def test_seeded_subsample_is_deterministic(self, tmp_path):
        write_inputs(tmp_path)
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        for out in (a, b):
            assert main(["normals", str(tmp_path / "scene.xyz"), "-k", "8",
                         "--subsample", "50", "--seed", "3", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "element vertex 50" in a.read_text().splitlines()[2]

    @pytest.mark.parametrize("argv", [
        ["sample", "c.ply", "--gripper", GRIPPER, "-o", "o.csv"],
        ["collide", "c.ply", "g.csv", "--gripper", GRIPPER, "-o", "o.csv"],
        ["score", "c.ply", "g.csv", "--gripper", GRIPPER, "-o", "o.csv"],
        ["confidence", "c.ply", "g.csv", "-o", "c.txt"],
        ["eval", "g.csv", "c.ply", "gt.csv", "--gripper", GRIPPER],
    ], ids=lambda argv: argv[0])
    def test_only_normals_thins_a_cloud(self, capsys, argv):
        # a later step that thinned its own copy would index other points than the files it is given
        assert main(argv + ["--subsample", "5"]) == 1
        assert "unrecognized arguments: --subsample 5" in capsys.readouterr().err


class TestSelect:
    def test_single_row_file_prints_that_row(self, tmp_path, capsys):
        row = "0.1,0.2,0.3,0,1,0,0.5,0.75"
        path = tmp_path / "one.csv"
        path.write_text("cx,cy,cz,rx,ry,rz,theta,sq\n" + row + "\n")
        assert main(["select", str(path), "--policy", "heuristic"]) == 0
        assert capsys.readouterr().out.strip() == row

    def test_policies_agree_on_dominant_grasp(self, tmp_path, capsys):
        rows = ["0,0,0,0,1,0,1.5,0.9", "1,0,0,0,1,0,-1.5,0.1"]
        path = tmp_path / "two.csv"
        path.write_text("cx,cy,cz,rx,ry,rz,theta,sq\n" + "\n".join(rows) + "\n")
        assert main(["select", str(path), "--policy", "heuristic"]) == 0
        first = capsys.readouterr().out.strip()
        assert main(["select", str(path), "--policy", "analytic"]) == 0
        second = capsys.readouterr().out.strip()
        assert first.split(",")[0] == rows[0].split(",")[0]
        assert first == second


class TestSelectCoeffs:
    ROWS = ["0,0,0,0,1,0,1.5,0.8", "1,0,0,0,1,0,-1.5,0.8"]  # near-vertical first, near-horizontal second

    def _grasps(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("cx,cy,cz,rx,ry,rz,theta,sq\n" + "\n".join(self.ROWS) + "\n")
        return str(path)

    def test_select_picks_with_the_fitted_coefficients(self, tmp_path, capsys):
        # a falling reach curve favours the horizontal grasp, where the built-in one favours the vertical
        x = np.linspace(0, 1, 40)
        y = 1.0 / (1.0 + np.exp(10.0 * (x - 0.5)))
        (tmp_path / "reach.csv").write_text("x,y\n" + "".join(f"{a:.9g},{b:.9g}\n" for a, b in zip(x, y)))
        coeffs = str(tmp_path / "c.txt")
        assert main(["fit", str(tmp_path / "reach.csv"), "--mode", "sigmoid", "-o", coeffs]) == 0
        fitted = grasplab.dataio.read_config(coeffs)
        a, b = (grasplab.dataio.parse_number(fitted[key]) for key in ("a", "b"))
        assert a == pytest.approx(-10.0, rel=1e-4) and b == pytest.approx(0.5, abs=1e-6)
        capsys.readouterr()
        assert main(["select", self._grasps(tmp_path), "--policy", "analytic"]) == 0
        assert capsys.readouterr().out == self.ROWS[0] + "\n"
        assert main(["select", self._grasps(tmp_path), "--policy", "analytic", "--coeffs", coeffs]) == 0
        assert capsys.readouterr().out == self.ROWS[1] + "\n"

    @pytest.mark.parametrize("text,message", [
        ("a = nan\n", "coefficient a must be a finite real, got 'nan'"),
        ("b = inf\n", "coefficient b must be a finite real, got 'inf'"),
        ("slope = -1e400\n", "coefficient slope must be a finite real, got '-1e400'"),
        ("a = abc\n", "coefficient a must be a finite real, got 'abc'"),
        ("a = 1\nbogus = 3\n", "unknown coefficient 'bogus'"),
        ("bogus = abc\n", "unknown coefficient 'bogus'"),
        ("policy.a = 3\n", "unknown coefficient 'policy.a'"),
    ])
    def test_bad_coefficient_is_data_error_naming_file_and_key(self, tmp_path, capsys, text, message):
        coeffs = tmp_path / "c.txt"
        coeffs.write_text(text)
        assert main(["select", self._grasps(tmp_path), "--coeffs", str(coeffs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"grasplab: error: {coeffs}: {message}" in captured.err

    def test_coeffs_with_the_heuristic_policy_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"  # never read: reading it would be a data error (exit 2)
        assert main(["select", self._grasps(tmp_path), "--policy", "heuristic", "--coeffs", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--coeffs" in captured.err and "--policy heuristic" in captured.err


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["select"]) == 1  # missing required argument
        assert main(["no-such-command"]) == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert main(["select", missing, "--policy", "heuristic"]) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        assert main(["select", str(bad), "--policy", "heuristic"]) == 2

    def test_losscheck_ok_is_zero(self, capsys):
        assert main(["losscheck", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "grn" in out and "rn" in out

    def test_losscheck_impossible_tolerance_is_three(self, capsys):
        assert main(["losscheck", "--trials", "1", "--set", "losscheck.tol=1e-15"]) == 3

    @pytest.mark.parametrize("argv,flag", [
        (["normals", "scene.xyz", "--subsample", "-5", "-o", "o.ply"], "--subsample"),
        (["normals", "scene.xyz", "--subsample", "0", "-o", "o.ply"], "--subsample"),
        (["eval", "g.csv", "scene.ply", "gt.csv", "--gripper", GRIPPER, "--pool", "0", "--top", "0"], "--pool"),
        (["eval", "g.csv", "scene.ply", "gt.csv", "--gripper", GRIPPER, "--top", "-1"], "--top"),
    ])
    def test_out_of_range_count_flag_is_usage_error(self, capsys, argv, flag):
        assert main(argv) == 1
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["losscheck", "--h", "0"], "argument --h: must be > 0, got 0.0"),
        (["losscheck", "--h", "nan"], "argument --h: must be finite, got nan"),
        (["fit", "d.csv", "--mode", "sigmoid", "-o", "o.txt", "--init-a", "nan"],
         "argument --init-a: must be finite, got nan"),
        (["fit", "d.csv", "--mode", "linear", "-o", "o.txt", "--init-b=-inf"],
         "argument --init-b: must be finite, got -inf"),
        (["normals", "c.xyz", "-k", "3", "--subsample", "4", "--seed", "-1", "-o", "o.ply"],
         "argument --seed: must be >= 0, got -1"),
        (["sample", "c.ply", "--gripper", GRIPPER, "--seed", "-1", "-o", "o.csv"],
         "argument --seed: must be >= 0, got -1"),
        (["labels", "g.csv", "--cloud", "c.ply", "--confidence", "c.txt", "-o", "out", "--seed", "1.5"],
         "argument --seed: expects an integer, got '1.5'"),
    ])
    def test_bad_plain_flag_is_usage_error_naming_it(self, capsys, argv, message):
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("row,field", [("1_0 0 0", "1_0"), ("0 \u0663 0", "\u0663"), ("0 0 \uff11", "\uff11"),
                                           ("1\x1f0\x1f0", "1\x1f0\x1f0"), ("0\xa00 0 0", "0\xa00")])
    def test_normals_rejects_numbers_python_alone_reads(self, tmp_path, capsys, row, field):
        cloud = tmp_path / "c.xyz"
        cloud.write_text("0 0 0\n1 0 0\n0 1 0\n" + row + "\n", encoding="utf-8")
        assert main(["normals", str(cloud), "-k", "3", "-o", str(tmp_path / "o.ply")]) == 2
        assert f"grasplab: error: {cloud}:4: not a number: {field!r}" in capsys.readouterr().err
        assert not (tmp_path / "o.ply").exists()

    def test_negative_pool_setting_is_data_error(self, tmp_path, capsys):
        write_inputs(tmp_path)
        out = tmp_path / "a"
        run_pipeline(tmp_path, out)
        capsys.readouterr()
        assert main(["eval", str(out / "scored.csv"), str(out / "scene.ply"), str(out / "scored.csv"),
                     "--gripper", GRIPPER, "--set", "eval.pool=-3"]) == 2
        assert "setting eval.pool must be >= 1, got -3" in capsys.readouterr().err

    def test_unknown_setting_is_data_error(self, tmp_path, capsys):
        write_inputs(tmp_path)
        assert main(["normals", str(tmp_path / "scene.xyz"), "-o",
                     str(tmp_path / "o.ply"), "--set", "bogus.key=1"]) == 2

    def test_score_without_normals_is_data_error(self, tmp_path, capsys):
        write_inputs(tmp_path)
        grasps = tmp_path / "g.csv"
        grasps.write_text("cx,cy,cz,rx,ry,rz,theta,sq\n0,0,0,0,1,0,0,0\n")
        assert main(["score", str(tmp_path / "scene.xyz"), str(grasps),
                     "--gripper", GRIPPER, "-o", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_losscheck_trials_below_one_is_usage_error(self, capsys, trials):
        assert main(["losscheck", "--trials", trials]) == 1
        assert "argument --trials: must be >= 1" in capsys.readouterr().err

    def test_losscheck_trials_setting_below_one_is_data_error(self, tmp_path, capsys):
        assert main(["losscheck", "--set", "losscheck.trials=0"]) == 2
        assert "losscheck.trials must be >= 1, got 0" in capsys.readouterr().err
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("losscheck.trials = -1\n")
        assert main(["losscheck", "--config", str(cfg)]) == 2
        assert "losscheck.trials must be >= 1, got -1" in capsys.readouterr().err

    def test_second_ply_vertex_count_is_data_error_at_its_line(self, tmp_path, capsys):
        bad = tmp_path / "twice.ply"
        bad.write_text("ply\nformat ascii 1.0\nelement vertex 5\nelement vertex 2\n"
                       "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n1 1 1\n")
        assert main(["normals", str(bad), "-o", str(tmp_path / "o.ply")]) == 2
        assert f"{bad}:4: a second 'element vertex' declaration" in capsys.readouterr().err

    def test_undecodable_byte_is_data_error_at_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.xyz"
        bad.write_bytes(b"0 0 0\n1 \xff 1\n")
        assert main(["normals", str(bad), "-o", str(tmp_path / "o.ply")]) == 2
        assert f"{bad}:2: not UTF-8 text: byte 0xff" in capsys.readouterr().err


class TestConfidenceWarning:
    def run(self, tmp_path, capsys, center):
        write_inputs(tmp_path)
        grasps = tmp_path / "g.csv"
        grasps.write_text(f"cx,cy,cz,rx,ry,rz,theta,sq\n{center},0,1,0,0,0\n")
        assert main(["confidence", str(tmp_path / "scene.xyz"), str(grasps), "--dth", "0.01",
                     "-o", str(tmp_path / "c.txt")]) == 0
        return capsys.readouterr().err

    def test_all_zero_field_warns(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "1,1,1")
        assert "warning: every confidence value is 0; no grasp center lies within d_th=0.01 m" in err

    def test_field_with_a_positive_value_does_not_warn(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, "0,0,0.045") == ""


class TestSettingTypes:
    @pytest.mark.parametrize("item,kind", [
        ("losscheck.trials=abc", "an integer"),
        ("labels.k1=7.5", "an integer"),
        ("labels.k1=7.0", "an integer"),
        ("losscheck.tol=abc", "a real"),
    ])
    def test_bad_set_value_names_the_key(self, capsys, item, kind):
        key, _, value = item.partition("=")
        argv = ["labels", "g.csv", "--cloud", "c.ply", "--confidence", "c.txt", "-o", "out", "--set", item]
        assert main(argv) == 2
        assert f"setting {key} expects {kind}, got {value!r}" in capsys.readouterr().err

    def test_value_is_quoted_without_surrounding_blanks(self, capsys):
        base = BASE_ARGV["labels"]
        assert main(base + ["--k1", " 7.5 "]) == 1
        assert "argument --k1: expects an integer, got '7.5'" in capsys.readouterr().err
        assert main(base + ["--set", "labels.k1 = 7.5 "]) == 2
        assert "setting labels.k1 expects an integer, got '7.5'" in capsys.readouterr().err

    def test_bad_config_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("labels.k1 = 7.5\n")
        assert main(["losscheck", "--trials", "1", "--config", str(cfg)]) == 2
        assert f"{cfg}:1: setting labels.k1 expects an integer, got '7.5'" in capsys.readouterr().err

    def test_float_setting_accepts_an_integer(self, tmp_path, capsys):
        write_inputs(tmp_path)
        grasps = tmp_path / "g.csv"
        grasps.write_text("cx,cy,cz,rx,ry,rz,theta,sq\n0,0,0.045,0,1,0,0,0\n")
        out = tmp_path / "c.txt"
        assert main(["confidence", str(tmp_path / "scene.xyz"), str(grasps),
                     "--set", "confidence.d_th=1", "-o", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "# d_th=1 width=0 n=400"


# one command line per subcommand with setting flags; no file in it is read before the settings resolve
BASE_ARGV = {
    "normals": ["normals", "c.xyz", "-o", "o.ply"],
    "sample": ["sample", "c.ply", "--gripper", GRIPPER, "-o", "o.csv"],
    "confidence": ["confidence", "c.ply", "g.csv", "-o", "c.txt"],
    "labels": ["labels", "g.csv", "--cloud", "c.ply", "--confidence", "c.txt", "-o", "out"],
    "losscheck": ["losscheck"],
    "eval": ["eval", "g.csv", "c.ply", "gt.csv", "--gripper", GRIPPER],
}
COMMAND_OF_PREFIX = {"normals": "normals", "sampler": "sample", "confidence": "confidence",
                     "labels": "labels", "anchors": "labels", "eval": "eval", "losscheck": "losscheck"}
FLAGGED = sorted(key for key, s in cli.SETTINGS.items() if s.flag)


def command_of(key):
    return COMMAND_OF_PREFIX[key.split(".")[0]]


def resolve(argv):
    """The settings a command line resolves to, or (exit code, message) when it is rejected."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code, err.getvalue()
    try:
        return cli._settings(args)
    except ValueError as exc:
        return 2, str(exc)


class TestSettingRanges:
    @pytest.mark.parametrize("argv,code,message", [
        (BASE_ARGV["normals"] + ["--set", "normals.k=0"], 2, "setting normals.k must be >= 3, got 0"),
        (BASE_ARGV["normals"] + ["-k", "2"], 1, "argument -k: must be >= 3, got 2"),
        (BASE_ARGV["labels"] + ["--k1", "-4"], 1, "argument --k1: must be >= 1, got -4"),
        (BASE_ARGV["labels"] + ["--k1", "abc"], 1, "argument --k1: expects an integer, got 'abc'"),
        (BASE_ARGV["labels"] + ["--set", "anchors.c_b=0"], 2, "setting anchors.c_b must be > 0, got 0.0"),
        (BASE_ARGV["sample"] + ["--centers", "0"], 1, "argument --centers: must be >= 1, got 0"),
        (BASE_ARGV["sample"] + ["--angle-range", "2"], 1,
         f"argument --angle-range: must be in (0, {math.pi / 2}], got 2.0"),
        (BASE_ARGV["sample"] + ["--set", "sampler.k=3"], 2, "setting sampler.k must be >= 4, got 3"),
        (BASE_ARGV["confidence"] + ["--dth", "inf"], 1, "argument --dth: must be finite, got inf"),
        (BASE_ARGV["confidence"] + ["--dth", "0"], 1, "argument --dth: must be > 0, got 0.0"),
        (BASE_ARGV["confidence"] + ["--set", "confidence.d_th=nan"], 2,
         "setting confidence.d_th must be finite, got nan"),
        # the confidence header's width is no setting, so no flag sets it
        (BASE_ARGV["confidence"] + ["--width", "0"], 1, "unrecognized arguments: --width 0"),
        (BASE_ARGV["losscheck"] + ["--set", "losscheck.tol=nan"], 2, "setting losscheck.tol must be finite"),
        # every subcommand checks every setting it is given
        (BASE_ARGV["losscheck"] + ["--set", "region.keep=0"], 2, "setting region.keep must be >= 1, got 0"),
        (["collide", "c.ply", "g.csv", "--gripper", GRIPPER, "-o", "o.csv", "--set", "bogus=1"], 2,
         "unknown setting 'bogus'"),
        # an option's own value "--" reaches its type instead of arriving as an empty list
        (BASE_ARGV["labels"] + ["--k1=--"], 1, "argument --k1: expects an integer, got '--'"),
        (BASE_ARGV["normals"] + ["--subsample=--"], 1, "argument --subsample: expects an integer, got '--'"),
        (BASE_ARGV["sample"] + ["--gripper=--"], 1, "argument --gripper: expects D,W,H,T reals, got '--'"),
        (BASE_ARGV["losscheck"] + ["--set=--"], 2, "--set expects key=value, got '--'"),
    ])
    def test_out_of_range_value_names_its_source(self, capsys, argv, code, message):
        assert main(argv) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,gripper,message", [
        (["sample", "c.ply", "-o", "o.csv"], "a,b,c,d", "expects D,W,H,T reals, got 'a,b,c,d'"),
        (["collide", "c.ply", "g.csv", "-o", "o.csv"], "0.06,0.1,0.02",
         "expects D,W,H,T reals, got '0.06,0.1,0.02'"),
        (["score", "c.ply", "g.csv", "-o", "o.csv"], "0.06,0.1,0.02,0.005,1", "expects D,W,H,T reals"),
        (["eval", "g.csv", "c.ply", "gt.csv"], "0.06,-0.1,0.02,0.005",
         "gripper width must be strictly positive, got -0.1"),
        (["eval", "g.csv", "c.ply", "gt.csv"], "0.06,0.1,nan,0.005", "gripper height must be finite, got nan"),
        (["eval", "g.csv", "c.ply", "gt.csv"], "0.06,inf,0.02,0.005", "gripper width must be finite, got inf"),
        (["eval", "g.csv", "c.ply", "gt.csv"], "0.06,0.1,0.02,1_0", "expects D,W,H,T reals, got '0.06,0.1,0.02,1_0'"),
    ])
    def test_bad_gripper_is_usage_error_naming_the_flag(self, capsys, argv, gripper, message):
        assert main(argv + ["--gripper", gripper]) == 1
        assert f"argument --gripper: {message}" in capsys.readouterr().err

    def test_eval_without_normals_is_data_error(self, tmp_path, capsys):
        write_inputs(tmp_path)
        grasps = tmp_path / "g.csv"
        grasps.write_text("cx,cy,cz,rx,ry,rz,theta,sq\n0,0,0,0,1,0,0,0\n")
        scene = tmp_path / "scene.xyz"
        assert main(["eval", str(grasps), str(scene), str(grasps), "--gripper", GRIPPER]) == 2
        assert f"{scene} has no normals" in capsys.readouterr().err

    def test_overflowing_normal_prints_only_its_error(self, tmp_path):
        bad = tmp_path / "bad.xyz"
        bad.write_text("0 0 0 1e300 1e300 0\n")
        code = "import sys; from grasplab.cli import main; sys.exit(main(sys.argv[1:]))"
        src = str(Path(grasplab.__file__).resolve().parents[1])
        argv = [sys.executable, "-c", code, "normals", str(bad), "-o", str(tmp_path / "o.ply")]
        proc = subprocess.run(argv, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr == f"grasplab: error: {bad}:1: normal length overflows\n"


INT64_MAX = 2**63 - 1
INT_KEYS = sorted(key for key, s in cli.SETTINGS.items() if type(s.default) is int)


class TestIntegerRange:
    """An integer setting or count flag takes what fits int64; beyond that is a range error naming its source."""

    @pytest.mark.parametrize("key", INT_KEYS)
    def test_beyond_int64_names_the_flag_key_or_line(self, tmp_path, key):
        setting = cli.SETTINGS[key]
        base = BASE_ARGV[command_of(key)] if setting.flag else BASE_ARGV["losscheck"]
        cfg = tmp_path / "big.cfg"
        for value in (2**63, 10**23):
            reason = f"must be in [{setting.low}, {INT64_MAX}], got {value}"
            if setting.flag:
                code, message = resolve(base + [setting.flag, str(value)])
                assert code == 1 and f"argument {setting.flag}: {reason}" in message
            assert resolve(base + ["--set", f"{key}={value}"]) == (2, f"setting {key} {reason}")
            cfg.write_text(f"# big\n{key} = {value}\n")
            assert resolve(base + ["--config", str(cfg)]) == (2, f"{cfg}:2: setting {key} {reason}")
        assert resolve(base + ["--set", f"{key}={INT64_MAX}"])[key] == INT64_MAX

    @pytest.mark.parametrize("flag,low", [("--seed", 0), ("--subsample", 1)])
    def test_count_flags_stop_at_int64(self, flag, low):
        code, message = resolve(BASE_ARGV["normals"] + [flag, str(INT64_MAX + 1)])
        assert code == 1 and f"argument {flag}: must be in [{low}, {INT64_MAX}], got {INT64_MAX + 1}" in message
        assert isinstance(resolve(BASE_ARGV["normals"] + [flag, str(INT64_MAX)]), dict)

    def test_count_beyond_memory_is_an_error_naming_the_step(self, tmp_path, capsys):
        # fits int64, but 10**15 int64 indices need 8 PB, more than any address space holds
        write_inputs(tmp_path)
        ply = str(tmp_path / "scene.ply")
        assert main(["normals", str(tmp_path / "scene.xyz"), "-k", "12", "-o", ply]) == 0
        capsys.readouterr()
        argv = ["sample", ply, "--gripper", GRIPPER, "--centers", str(10**15), "-o", str(tmp_path / "s.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("grasplab: error: sample: out of memory") and "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_unknown_config_key_names_its_line(self, tmp_path):
        cfg = tmp_path / "u.cfg"
        cfg.write_text("normals.k = 3\n\nbogus = 1\n")
        assert resolve(BASE_ARGV["normals"] + ["--config", str(cfg)]) == (2, f"{cfg}:3: unknown setting 'bogus'")


class TestSettingRouting:
    def test_flags_are_the_documented_twelve(self):
        assert sorted(cli.SETTINGS[key].flag for key in FLAGGED) == sorted([
            "-k", "--centers", "--orientations", "--angles", "--angle-range", "--knn", "--dth",
            "--k1", "--anchors", "--trials", "--pool", "--top"])

    @pytest.mark.parametrize("key", FLAGGED)
    def test_flag_is_accepted_by_its_subcommand_only(self, key):
        flag = cli.SETTINGS[key].flag
        value = str(cli.DEFAULTS[key])
        assert resolve(BASE_ARGV[command_of(key)] + [flag, value])[key] == cli.DEFAULTS[key]
        for command, argv in BASE_ARGV.items():
            if command != command_of(key):
                assert resolve(argv + [flag, value])[0] == 1

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(FLAGGED), text=st.one_of(
        st.integers(-10**4, 10**4).map(str),
        st.integers(INT64_MAX - 2, 2**64).map(str),
        st.floats().map(repr),
        st.text(max_size=12),
        st.sampled_from(["0", "-0", "1", "3", "4", " 5 ", "1.0", "1e3", "1e400", "nan", "-inf",
                         "1.5707963267948966", "1.5707963267948968", "", "=", "0x10", "1_000", "\x00",
                         "--", "-k"]),
    ))
    def test_flag_and_set_resolve_alike(self, key, text):
        setting, base = cli.SETTINGS[key], BASE_ARGV[command_of(key)]
        via_flag = resolve(base + [f"{setting.flag}={text}"])
        via_set = resolve(base + ["--set", f"{key}={text}"])
        if isinstance(via_flag, dict):
            value = via_flag[key]
            assert isinstance(via_set, dict) and via_set[key] == value
            assert type(value) is type(setting.default) is type(via_set[key])
            assert math.isfinite(value) and setting.low <= value <= setting.high
            assert not (setting.open_low and value == setting.low)
        else:
            code, message = via_flag
            assert code == 1 and f"argument {setting.flag}: " in message
            reason = message.split(f"argument {setting.flag}: ", 1)[1]
            assert via_set == (2, f"setting {key} {reason}".rstrip("\n"))


class TestSettingsDocs:
    PINNED = {
        "normals.k": 16, "sampler.n_centers": 10, "sampler.n_orientations": 4, "sampler.n_angles": 3,
        "sampler.angle_range": math.pi / 6, "sampler.k": 16, "confidence.d_th": 0.01,
        "region.radius": 0.02, "region.keep": 256, "labels.k1": 768, "anchors.m": 4, "anchors.c_b": 0.1,
        "anchors.angle_pos": 5 * math.pi / 12, "anchors.angle_neg": 2 * math.pi / 3, "refine.d1": 0.015,
        "refine.d2": 0.020, "refine.beta1": math.pi / 4, "refine.beta2": math.pi / 3,
        "refine.gamma1": math.pi / 4, "refine.gamma2": math.pi / 3, "eval.pool": 1000, "eval.top": 100,
        "losscheck.trials": 25, "losscheck.tol": 1e-5,
    }

    def test_defaults_keep_their_keys_values_and_types(self):
        assert list(cli.DEFAULTS) == list(self.PINNED)
        for key, value in self.PINNED.items():
            assert cli.DEFAULTS[key] == value and type(cli.DEFAULTS[key]) is type(value), key

    def test_readme_lists_every_setting_with_its_flag_and_range(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("### Settings"):readme.index("## File formats")]
        rows = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                key, _default, flag, bounds = (cell.strip() for cell in line.strip("|").split("|"))
                rows[key.strip("`")] = flag, bounds
        assert sorted(rows) == sorted(cli.DEFAULTS)
        for key, s in cli.SETTINGS.items():
            kind = "integer" if type(s.default) is int else "real"
            if s.high < math.inf:
                high = "pi/2" if s.high == math.pi / 2 else f"{s.high:g}"
                bounds = f"{kind} in {'(' if s.open_low else '['}{s.low:g}, {high}]"
            elif s.low > -math.inf:
                bounds = f"{kind} {'>' if s.open_low else '>='} {s.low:g}"
            else:
                bounds = kind
            assert rows[key] == (f"`{command_of(key)} {s.flag}`" if s.flag else "", bounds), key


class TestConfigPrecedence:
    def test_config_file_then_set_override(self, tmp_path, capsys):
        write_inputs(tmp_path)
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("confidence.d_th = 0.02\n")
        grasps = tmp_path / "g.csv"
        grasps.write_text("cx,cy,cz,rx,ry,rz,theta,sq\n0,0,0.045,0,1,0,0,0\n")
        out1 = tmp_path / "c1.txt"
        assert main(["confidence", str(tmp_path / "scene.xyz"), str(grasps),
                     "--config", str(cfg), "-o", str(out1)]) == 0
        assert "d_th=0.02" in out1.read_text().splitlines()[0]
        out2 = tmp_path / "c2.txt"
        assert main(["confidence", str(tmp_path / "scene.xyz"), str(grasps),
                     "--config", str(cfg), "--set", "confidence.d_th=0.005",
                     "-o", str(out2)]) == 0
        assert "d_th=0.005" in out2.read_text().splitlines()[0]
        out3 = tmp_path / "c3.txt"
        assert main(["confidence", str(tmp_path / "scene.xyz"), str(grasps), "--dth", "0.04",
                     "--config", str(cfg), "--set", "confidence.d_th=0.005", "-o", str(out3)]) == 0
        assert "d_th=0.04" in out3.read_text().splitlines()[0]


class TestDataErrorsNameTheirFiles:
    GRASPS = "cx,cy,cz,rx,ry,rz,theta,sq\n0,0,0.045,0,1,0,0,0.5\n"
    EMPTY_PLY = ("ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\nproperty float y\n"
                 "property float z\nend_header\n")
    EMPTY_PLY_NORMALS = EMPTY_PLY.replace("end_header", "property float nx\nproperty float ny\n"
                                                        "property float nz\nend_header")
    STEPS = {"normals": [], "sample": ["--gripper", GRIPPER]}

    def test_labels_on_a_cloud_without_points(self, tmp_path, capsys):
        cloud = tmp_path / "empty.ply"
        cloud.write_text(self.EMPTY_PLY)
        (tmp_path / "c.txt").write_text("# d_th=0.01 width=0 n=0\n")
        (tmp_path / "g.csv").write_text(self.GRASPS)
        assert main(["labels", str(tmp_path / "g.csv"), "--cloud", str(cloud), "--confidence",
                     str(tmp_path / "c.txt"), "-o", str(tmp_path / "labels")]) == 2
        err = capsys.readouterr().err
        assert err == f"grasplab: error: {cloud} has no points\n"

    @pytest.mark.parametrize("step", ["normals", "sample", "confidence", "score", "eval"])
    def test_a_cloud_without_points(self, tmp_path, capsys, step):
        cloud, grasps, out = tmp_path / "empty.ply", tmp_path / "g.csv", tmp_path / "out"
        # score and eval read normals, so their cloud carries them and reaches the point count
        cloud.write_text(self.EMPTY_PLY_NORMALS if step in ("score", "eval") else self.EMPTY_PLY)
        grasps.write_text(self.GRASPS)
        args = {"normals": [cloud], "sample": [cloud, "--gripper", GRIPPER], "confidence": [cloud, grasps],
                "score": [cloud, grasps, "--gripper", GRIPPER], "eval": [grasps, cloud, grasps, "--gripper", GRIPPER]}
        assert main([step, *map(str, args[step]), "-o", str(out)]) == 2
        assert capsys.readouterr() == ("", f"grasplab: error: {cloud} has no points\n")
        assert not out.exists()

    @pytest.mark.parametrize("step", ["score", "eval"])
    def test_a_cloud_without_points_or_normals(self, tmp_path, capsys, step):
        # the point count comes first: 'grasplab normals' cannot mend an empty cloud, so its advice is not given
        cloud, grasps, out = tmp_path / "empty.ply", tmp_path / "g.csv", tmp_path / "out"
        cloud.write_text(self.EMPTY_PLY)
        grasps.write_text(self.GRASPS)
        args = {"score": [cloud, grasps, "--gripper", GRIPPER], "eval": [grasps, cloud, grasps, "--gripper", GRIPPER]}
        assert main([step, *map(str, args[step]), "-o", str(out)]) == 2
        assert capsys.readouterr() == ("", f"grasplab: error: {cloud} has no points\n")
        assert not out.exists()
        assert main(["normals", str(cloud), "-o", str(out)]) == 2
        assert capsys.readouterr() == ("", f"grasplab: error: {cloud} has no points\n")

    def test_collide_keeps_every_grasp_of_a_cloud_without_points(self, tmp_path, capsys):
        cloud, grasps, out = tmp_path / "empty.ply", tmp_path / "g.csv", tmp_path / "free.csv"
        cloud.write_text(self.EMPTY_PLY)
        grasps.write_text(self.GRASPS)
        assert main(["collide", str(cloud), str(grasps), "--gripper", GRIPPER, "-o", str(out)]) == 0
        assert out.read_text() == self.GRASPS

    @pytest.mark.parametrize("step,extra,need", [
        ("normals", [], "k=16"),
        ("normals", ["--subsample", "3", "-k", "4"], "k=4"),
        ("sample", [], "4 for Darboux estimation"),
    ], ids=["normals", "normals-subsample", "sample"])
    def test_too_few_points_names_the_file_and_both_counts(self, tmp_path, capsys, step, extra, need):
        cloud, out = tmp_path / "three.xyz", tmp_path / "out"
        cloud.write_text("0 0 0\n1 0 0\n0 1 0\n" + ("0 0 1\n" if extra else ""))
        assert main([step, str(cloud), *self.STEPS[step], *extra, "-o", str(out)]) == 2
        kept = " kept by --subsample" if extra else ""
        err = capsys.readouterr().err
        assert err == f"grasplab: error: {cloud} has 3 points{kept}, need at least {need}\n"
        assert not out.exists()

    def test_confidence_of_an_empty_grasp_list(self, tmp_path, capsys):
        cloud, grasps, out = tmp_path / "three.xyz", tmp_path / "none.csv", tmp_path / "c.txt"
        cloud.write_text("0 0 0\n1 0 0\n0 1 0\n")
        grasps.write_text("cx,cy,cz,rx,ry,rz,theta,sq\n")
        assert main(["confidence", str(cloud), str(grasps), "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert err == f"warning: {grasps} contains no grasps; every confidence value is 0\n"
        assert out.read_text() == "# d_th=0.01 width=0 n=3\n0\n0\n0\n"

    def test_labels_length_mismatch_names_both_files(self, tmp_path, capsys):
        write_inputs(tmp_path)
        cloud, field = tmp_path / "scene.xyz", tmp_path / "c.txt"
        field.write_text("# d_th=0.01 width=0 n=3\n0\n0.5\n1\n")
        (tmp_path / "g.csv").write_text(self.GRASPS)
        assert main(["labels", str(tmp_path / "g.csv"), "--cloud", str(cloud), "--confidence", str(field),
                     "-o", str(tmp_path / "labels")]) == 2
        assert (f"confidence length 3 of {field} does not match cloud size 400 of {cloud}"
                in capsys.readouterr().err)

    def test_eval_of_an_empty_prediction_file(self, tmp_path, capsys):
        write_inputs(tmp_path)
        ply = tmp_path / "scene.ply"
        assert main(["normals", str(tmp_path / "scene.xyz"), "-o", str(ply)]) == 0
        empty, truth = tmp_path / "empty.csv", tmp_path / "gt.csv"
        empty.write_text("cx,cy,cz,rx,ry,rz,theta,sq\n")
        truth.write_text(self.GRASPS)
        assert main(["eval", str(empty), str(ply), str(truth), "--gripper", GRIPPER]) == 2
        assert capsys.readouterr().err == f"grasplab: error: {empty} contains no grasps\n"


class TestOrderedSettings:
    EVAL = ["eval", "p.csv", "scene.ply", "gt.csv", "--gripper", GRIPPER]
    LABELS = ["labels", "g.csv", "--cloud", "c.xyz", "--confidence", "c.txt"]

    @staticmethod
    def run(tmp_path, argv):
        # no input file exists, so a command that read one before checking its settings would fail otherwise
        argv = [str(tmp_path / a) if a.endswith((".csv", ".ply", ".xyz", ".txt")) else a for a in argv]
        return main(argv + ["-o", str(tmp_path / "out")])

    @pytest.mark.parametrize("argv,message", [
        (EVAL + ["--pool", "5", "--top", "10"], "setting eval.top=10 must not exceed eval.pool=5"),
        (EVAL + ["--set", "eval.pool=3", "--top", "4"], "setting eval.top=4 must not exceed eval.pool=3"),
        (LABELS + ["--set", "anchors.angle_pos=3"],
         f"setting anchors.angle_pos=3.0 must not exceed anchors.angle_neg={2 * math.pi / 3}"),
        (LABELS + ["--set", "refine.d1=0.03"], "setting refine.d1=0.03 must be below refine.d2=0.02"),
        (LABELS + ["--set", "refine.beta2=0.5"],
         f"setting refine.beta1={math.pi / 4} must be below refine.beta2=0.5"),
        (LABELS + ["--set", "refine.gamma1=1", "--set", "refine.gamma2=1"],
         "setting refine.gamma1=1.0 must be below refine.gamma2=1.0"),
    ], ids=["eval-flags", "eval-set", "angle", "d", "beta", "gamma-equal"])
    def test_a_pair_out_of_order_fails_before_any_input_is_read(self, tmp_path, capsys, argv, message):
        assert self.run(tmp_path, argv) == 2
        assert capsys.readouterr().err == f"grasplab: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [EVAL + ["--pool", "5", "--top", "5"],
                                      LABELS + ["--set", "anchors.angle_pos=2", "--set", "anchors.angle_neg=2"]],
                             ids=["eval", "labels"])
    def test_equal_values_pass_where_allowed(self, tmp_path, capsys, argv):
        assert self.run(tmp_path, argv) == 2
        assert "No such file" in capsys.readouterr().err  # the settings passed; the first input is missing


class TestOneParser:
    def test_a_reused_parser_gives_each_command_its_own_result(self, tmp_path, capsys):
        write_inputs(tmp_path)
        cfg = tmp_path / "s.cfg"
        cfg.write_text("sampler.n_angles = 2\n")
        sample = ["sample", str(tmp_path / "scene.xyz"), "--gripper", GRIPPER]
        commands = [["sample", "--centers", "0"],  # a usage error
                    sample + ["--set", "sampler.n_centers=3", "--config", str(cfg)],
                    sample]

        def run(argv, out):
            code = main(argv + ["-o", str(out)])
            captured = capsys.readouterr()
            return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

        alone = []
        for i, argv in enumerate(commands):
            cli.build_parser.cache_clear()
            alone.append(run(argv, tmp_path / f"alone{i}.csv"))
        cli.build_parser.cache_clear()
        in_turn = [run(argv, tmp_path / f"turn{i}.csv") for i, argv in enumerate(commands)]
        assert cli.build_parser() is cli.build_parser()
        assert in_turn == alone
        assert [result[0] for result in alone] == [1, 0, 0]
        assert alone[1][3] != alone[2][3]


class TestLeanStart:
    def test_import_leaves_scipy_optimize_to_fit(self, tmp_path):
        """`import grasplab.cli` does not import scipy.optimize; `fit` imports it when it runs."""
        data = tmp_path / "reach.csv"
        data.write_text("x,y\n0,0.1\n0.25,0.2\n0.5,0.5\n0.75,0.8\n1,0.9\n")
        code = ("import sys; import grasplab.cli as cli; assert 'scipy.optimize' not in sys.modules; "
                "code = cli.main(sys.argv[1:]); assert 'scipy.optimize' in sys.modules; sys.exit(code)")
        src = str(Path(grasplab.__file__).resolve().parents[1])
        argv = [sys.executable, "-c", code, "fit", str(data), "--mode", "sigmoid", "-o", str(tmp_path / "c.txt")]
        proc = subprocess.run(argv, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (tmp_path / "c.txt").read_text()
        assert list(grasplab.dataio.read_config(tmp_path / "c.txt")) == ["a", "b"]
