import math
import re
from pathlib import Path

from grasplab import Grasp
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
