import math
import re
import shlex
from pathlib import Path

import numpy as np

from grasplab import Grasp, PointCloud, dataio
from grasplab.cli import main
from conftest import tabletop_cloud

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", text, re.S | re.M).group(1)
    namespace = {
        "points": tabletop_cloud(0).points,
        "ground_truth_grasps": [Grasp((0.0, 0.0, 0.06), (0, 1, 0), math.pi / 2)],
    }
    exec(compile(block, f"{README}:Library", "exec"), namespace)
    report = namespace["report"]
    assert report.n_selected >= 1
    assert capsys.readouterr().out == f"{report.cfr} {report.as_mean} {report.tcr}\n"


def run_cli_chain(tmp_path, monkeypatch, normals_options=()):
    """Run every `grasplab` line of the CLI block, each to exit 0, the normals line with normals_options
    appended. A line's optional `[...]` part runs too, once an earlier line has written the file it names."""
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```$", README.read_text(), re.S | re.M).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("grasplab ")]
    monkeypatch.chdir(tmp_path)
    dataio.write_point_cloud("scene.xyz", PointCloud(tabletop_cloud(0).points))
    x = np.linspace(0, 1, 50)
    for name, y in (("reach.csv", 1 / (1 + np.exp(-10 * (x - 0.6)))), ("success.csv", 0.88 * x - 0.06)):
        Path(name).write_text("x,y\n" + "".join(f"{a:.9g},{b:.9g}\n" for a, b in zip(x, y)))
    dataio.write_grasps("gt.csv", [Grasp((0.0, 0.0, 0.06), (0, 1, 0), math.pi / 2)])
    pending = []
    for line in lines:
        optional = re.search(r" \[(.*?)\]", line)
        argv = shlex.split(line.replace(optional.group(0), "") if optional else line)[1:]
        if argv[0] == "normals":
            argv += normals_options
        assert main(argv) == 0, line
        if optional:
            pending.append(argv + shlex.split(optional.group(1)))
        for later in [later for later in pending if Path(later[-1]).exists()]:
            assert main(later) == 0, later
            pending.remove(later)
    assert len(lines) == 10 and not pending


def test_cli_chain_runs(tmp_path, monkeypatch):
    run_cli_chain(tmp_path, monkeypatch)


def test_cli_chain_runs_on_a_thinned_scene(tmp_path, monkeypatch):
    """normals thins the scene once; every later step, labels included, reads that one file."""
    run_cli_chain(tmp_path, monkeypatch, ["--subsample", "500"])
    assert len(dataio.read_point_cloud("scene.ply")) == 500
    assert len(dataio.read_confidence("conf.txt")) == 500
    assert len((tmp_path / "labels" / "anchor_labels.csv").read_text().splitlines()) == 1 + 500
