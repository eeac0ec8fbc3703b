import numpy as np
import pytest

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

    def test_negative_pool_setting_is_data_error(self, tmp_path, capsys):
        write_inputs(tmp_path)
        out = tmp_path / "a"
        run_pipeline(tmp_path, out)
        capsys.readouterr()
        assert main(["eval", str(out / "scored.csv"), str(out / "scene.ply"), str(out / "scored.csv"),
                     "--gripper", GRIPPER, "--set", "eval.pool=-3"]) == 2
        assert "pool and top must be >= 1, got pool=-3" in capsys.readouterr().err

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
