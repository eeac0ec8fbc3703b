"""grasplab benchmark: time one workload's CLI chain, check its outputs, print the metrics.

    python3 bench/run.py --workload label_gen --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all        # every workload in turn

Workloads, inputs and the chain each runs are in `workloads.py` and
`scenes.py`. A run is a closed loop with one caller and no think time:
scene after scene, each subcommand called in-process through
`grasplab.cli.main`, reading and writing files. Threads are pinned to one
(`GRASPLAB_THREADS` and the BLAS pools) and one process runs at a time.

End-to-end metrics (`--trace 0`), medians over the run's scenes:
  scene_s      wall seconds of the CLI chain per scene
  cpu_s        user+sys CPU seconds of the chain per scene
  setup_s      process start to the first timed call (import grasplab.cli,
               generate and write the first scene's inputs); set-up is
               repeated in fresh processes and the median reported
  peak_rss_mb  peak resident memory of the measuring process
  fail_ratio   failed / attempted subcommand calls; a call fails when it
               exits non-zero, raises, or writes output whose sha256 differs
               from the pin. Printed in the table, and as `failed` and
               `attempted` in the JSON line.

`--trace 1` reports the per-layer metrics of `spans.py` instead, plus
`trace.overhead_ratio` (traced over untraced scene_s in the same run).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Records and outputs are kept under
`bench/out/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
from spans import unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_ENV = {
    "GRASPLAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUPS = 3            # set-up is timed in this many fresh processes per run
CHILD_GRACE_S = 120   # how far past --seconds a child may run before it is killed

END_TO_END = (("scene_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# ROADMAP probe stage names -> the per-layer metric that times them
PROBE_STAGES = (
    ("estimate_normals", "sampling.estimate_normals_s"),
    ("sample_candidates", "sampling.sample_candidates_s"),
    ("filter_collision_free", "collision.filter_s"),
    ("ball_query", "sampling.ball_query_s"),
    ("evaluate", "metrics.evaluate_s"),
    ("point_confidence", "confidence.point_confidence_s"),
)


class ChildFailed(Exception):
    pass


def _kill_later(proc: subprocess.Popen, seconds: float) -> threading.Timer:
    timer = threading.Timer(seconds, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def run_child(args, work: Path, setup_only: bool) -> tuple[float, dict | None]:
    """Start one harness process; return (seconds until it was ready, its record)."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(BENCH / "harness.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = _kill_later(proc, args.seconds + CHILD_GRACE_S)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"harness exited with code {proc.returncode}")
    return setup, (None if setup_only else json.loads(lines[-1]))


def end_to_end(record: dict, setups: list[float]) -> dict:
    scenes = record["scenes"]
    return {
        "scene_s": statistics.median(s["wall"] for s in scenes),
        "cpu_s": statistics.median(s["cpu"] for s in scenes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record: dict) -> dict:
    """The traced run's layer metrics plus the tracing overhead, taken as the
    median traced/untraced wall ratio over scenes run both ways."""
    untraced = {s["index"]: s["wall"] for s in record["scenes"] if not s["traced"]}
    ratios = [s["wall"] / untraced[s["index"]] for s in record["scenes"]
              if s["traced"] and s["index"] in untraced]
    return {**record["layers"], "trace.overhead_ratio": statistics.median(ratios)}


def print_report(args, record: dict, metrics: dict, units: dict, attempted: int, failed: int) -> None:
    env = record["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"scenes {len(record['scenes'])}  calls {attempted}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{'metric':34s} {'value':>14s}  unit")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g}  {units[name]}")
    print(f"{'fail_ratio':34s} {failed / attempted:14.6g}  ratio")
    if args.trace:
        print("stage (ROADMAP probe names), median s per traced scene")
        for stage, key in PROBE_STAGES:
            print(f"  {stage:32s} {metrics[key]:10.4f}")
        print("  farthest_point_sampling          not timed (no CLI path)")
        if record["absent"]:
            print("absent (reported as 0): " + ", ".join(record["absent"]))
        if record["uncounted"]:
            print("uncounted (counts reported as 0): " + ", ".join(record["uncounted"]))
    else:
        print("stage (CLI subcommand), median s per scene")
        scenes = record["scenes"]
        for command in dict.fromkeys(op["command"] for op in scenes[0]["ops"]):
            per_scene = [sum(op["wall"] for op in s["ops"] if op["command"] == command) for s in scenes]
            print(f"  {command:32s} {statistics.median(per_scene):10.4f}")


def run_one(args) -> int:
    if not (ROOT / "src" / "grasplab" / "cli.py").is_file():
        print(f"bench: no grasplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = BENCH / "out" / args.workload
    work = out / "work"
    setups = []
    try:
        for _ in range(SETUPS - 1):
            shutil.rmtree(work, ignore_errors=True)
            setups.append(run_child(args, work, setup_only=True)[0])
        shutil.rmtree(work, ignore_errors=True)
        setup, record = run_child(args, work, setup_only=False)
    except ChildFailed as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    ops = [op for scene in record["scenes"] for op in scene["ops"]]
    attempted, failed = len(ops), sum(not op["ok"] for op in ops)
    if args.trace:
        metrics = per_layer(record)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = end_to_end(record, setups)
        units = dict(END_TO_END)
    record["setup_s"] = setups
    (out / f"record-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print_report(args, record, metrics, units, attempted, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one combined table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(f"{'workload':14s} {'metric':34s} {'value':>14s}  unit")
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{workload:14s} {name:34s} {m['value']:14.6g}  {m['unit']}")
        print(f"{workload:14s} {'fail_ratio':34s} {res['failed'] / res['attempted']:14.6g}  ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
