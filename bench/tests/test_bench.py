"""Checks of the benchmark itself, kept out of the tier-1 suite (pytest's testpaths is tests/).

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import scenes  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Each workload's chain at a size that runs in about a second.
TINY = {
    "label_gen": dict(size={"points": 3000}, centers=20, k1=64),
    "eval_protocol": dict(size={"points": 3000, "predictions": 300, "ground_truth": 30}),
    "dense_scene": dict(size={"points": 6000}, centers=12, k1=128),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.fixture(scope="module")
def cli():
    return harness.import_cli()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_scene_smoke(cli, tmp_path, name):
    wl = tiny(name)
    harness.prepare(wl, 7, 1, tmp_path, None)
    ops = harness.run_scene(cli, wl, tmp_path, None)
    assert [op.command for op in ops] == [step.command for step in wl.steps(tmp_path)]
    assert all(op.ok for op in ops)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_gives_identical_bytes_for_a_seed(tmp_path, name):
    size = tiny(name).size
    written = scenes.write_inputs(name, size, 3, 2, tmp_path / "a")
    scenes.write_inputs(name, size, 3, 2, tmp_path / "b")
    scenes.write_inputs(name, size, 4, 2, tmp_path / "c")
    read = lambda d: [(tmp_path / d / n).read_bytes() for n in written]
    assert read("a") == read("b")
    assert all(x != y for x, y in zip(read("a"), read("c")))


def test_spans_nest_and_self_times_are_nonnegative(cli, tmp_path):
    tracer = spans.Tracer()
    with tracer.install():
        for index, name in enumerate(("label_gen", "eval_protocol")):
            wl, d = tiny(name), tmp_path / name
            harness.prepare(wl, 5, 1, d, None)
            tracer.scene = index
            assert all(op.ok for op in harness.run_scene(cli, wl, d, None, tracer))
    assert not hasattr(cli.filter_collision_free, "__wrapped__"), "install() must restore on exit"
    assert tracer.absent == [] and not tracer.uncounted
    assert {name for _, _, name, _ in spans.TARGETS} <= {s.name for s in tracer.spans}
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent >= 0:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
            assert parent.scene == s.scene
    assert min(spans.self_times(tracer.spans)) >= 0.0
    layers = spans.layer_metrics(tracer)
    assert layers["sampling.ball_query_calls"] == 64
    assert layers["collision.filter_in"] > layers["collision.filter_free"] > 0


def test_missing_target_is_reported_absent():
    tracer = spans.Tracer()
    targets = [("grasplab.cli", "no_such_function", "cli.no_such_function", None), spans.TARGETS[0]]
    with tracer.install(targets):
        pass
    assert tracer.absent == ["grasplab.cli.no_such_function"]


def test_flipping_one_output_byte_fails_the_call(cli, tmp_path, monkeypatch):
    wl = WORKLOADS["eval_protocol"]
    pins = harness.load_pins(wl.name)
    harness.prepare(wl, 0, 0, tmp_path, pins)
    assert all(op.ok for op in harness.run_scene(cli, wl, tmp_path, pins["outputs"]))

    real_main = cli.main

    def corrupting_main(argv):
        rc = real_main(argv)
        out = Path(argv[argv.index("-o") + 1])
        data = bytearray(out.read_bytes())
        data[-2] ^= 1
        out.write_bytes(bytes(data))
        return rc

    monkeypatch.setattr(cli, "main", corrupting_main)
    ops = harness.run_scene(cli, wl, tmp_path, pins["outputs"])
    assert sum(not op.ok for op in ops) / len(ops) > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "eval_protocol", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
