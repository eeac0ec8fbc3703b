"""The benchmark's workloads: input sizes and the CLI chain each one runs.

Each workload runs `grasplab.cli.main(argv)` in-process, one subcommand
after another, as `tests/test_cli.py::run_pipeline` does. Every subcommand
reads its inputs from disk and writes its outputs to disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from scenes import GRIPPER_ARG


@dataclass(frozen=True)
class Step:
    """One subcommand call and the primary outputs whose bytes are checked.

    A call's stdout is captured to `<command>.stdout`, so it can be listed too.
    """

    command: str
    argv: list
    outputs: list


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: dict
    centers: int = 0
    angles: int = 3
    k1: int = 0
    regions: bool = False

    def steps(self, d: Path) -> list[Step]:
        """The chain for one scene whose inputs are in directory d."""
        if self.name == "eval_protocol":
            return [Step("eval", ["eval", str(d / "pred.csv"), str(d / "scene.ply"), str(d / "gt.csv"),
                                  "--gripper", GRIPPER_ARG, "--pool", "1000", "--top", "100",
                                  "-o", str(d / "report.csv")],
                         ["eval.stdout", "report.csv"])]
        obj, ply = str(d / "object.ply"), str(d / "scene.ply")
        g = ["--gripper", GRIPPER_ARG]
        labels = ["labels/anchor_labels.csv", "labels/refine_labels.csv"]
        if self.regions:
            labels.append("labels/regions.csv")
        return [
            Step("normals", ["normals", str(d / "object.xyz"), "-k", "16", "-o", obj], ["object.ply"]),
            Step("normals", ["normals", str(d / "scene.xyz"), "-k", "16", "-o", ply], ["scene.ply"]),
            Step("sample", ["sample", obj, *g, "--centers", str(self.centers), "--orientations", "4",
                            "--angles", str(self.angles), "-o", str(d / "cands.csv")], ["cands.csv"]),
            Step("collide", ["collide", ply, str(d / "cands.csv"), *g, "-o", str(d / "free.csv")],
                 ["free.csv"]),
            Step("score", ["score", ply, str(d / "free.csv"), *g, "-o", str(d / "scored.csv")],
                 ["scored.csv"]),
            # the sampler puts grasp centers depth/2 = 3 cm under the surface, so at the
            # README's --dth 0.01 no point has a center in range and the field is all 0
            Step("confidence", ["confidence", ply, str(d / "scored.csv"), "--dth", "0.04",
                                "-o", str(d / "conf.txt")], ["conf.txt"]),
            Step("labels", ["labels", str(d / "scored.csv"), "--cloud", ply, "--confidence",
                            str(d / "conf.txt"), "--k1", str(self.k1),
                            *(["--regions"] if self.regions else []), "-o", str(d / "labels")], labels),
        ]


# The `why` lines are copied into BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "label_gen",
            "training-label chain on a 20k-point scene, 2,400 candidates, labels --k1 768 --regions; "
            "collision.filter and sampling.ball_query do most of the work",
            {"points": 20_000}, centers=200, k1=768, regions=True,
        ),
        Workload(
            "eval_protocol",
            "eval --pool 1000 --top 100 on 2,400 scored predictions over a 20k scene; the only path "
            "through check_collision and metrics, and it never calls ball_query or labels",
            {"points": 20_000, "predictions": 2_400, "ground_truth": 200},
        ),
        Workload(
            "dense_scene",
            "same chain on a 100k-point scene with 192 candidates and labels --k1 4096; per-point "
            "layers (dataio, normals, confidence, anchors) dominate and ball_query never runs",
            {"points": 100_000}, centers=48, angles=1, k1=4096,
        ),
    )
}
