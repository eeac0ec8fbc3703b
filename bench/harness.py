"""One benchmark process: set up a workload's inputs, then run its CLI chain scene after scene.

    python3 bench/harness.py --workload label_gen --seed 1 --seconds 36 --trace 0 --out DIR

`bench/run.py` starts this process with the thread environment pinned and
times its set-up from outside: the process prints `ready` once
`grasplab.cli` is imported and the first scene's inputs are written. With
`--setup-only` it stops there. Otherwise it runs scenes until the time
budget is spent and prints the run's record as one JSON line; a traced
run also writes its spans to `spans.json` in the work directory.

Scene 0 of every run is the reference scene (seed 0), whose inputs and
primary outputs are pinned in `digests.json`; scenes 1, 2, ... come from
`--seed`, and their digests are recorded so that two versions of the
program can be compared byte for byte. With `--trace 1` every scene runs
untraced and then traced.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS = BENCH / "digests.json"
REFERENCE_SEED = 0

sys.path.insert(0, str(BENCH))
from scenes import write_inputs  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def import_cli():
    """Import grasplab.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import grasplab.cli

    where = Path(grasplab.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"bench: grasplab was imported from {where}, not from {src}")
    return grasplab.cli


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def scene_seed(seed: int, index: int) -> int:
    return REFERENCE_SEED if index == 0 else seed


def load_pins(workload: str) -> dict:
    return json.loads(PINS.read_text()).get(workload, {}) if PINS.is_file() else {}


def prepare(wl: Workload, seed: int, index: int, d: Path, pins: dict | None) -> dict:
    """Write scene `index`'s inputs into d; check the reference scene against its pins."""
    names = write_inputs(wl.name, wl.size, scene_seed(seed, index), index, d)
    digests = {n: sha256(d / n) for n in names}
    if index == 0 and pins is not None and digests != pins.get("inputs"):
        raise SystemExit(
            f"bench: the reference inputs of {wl.name} differ from {PINS.name}; "
            "the scene generator or numpy's random streams changed, so the pins no longer apply"
        )
    return digests


@dataclass
class Op:
    command: str
    ok: bool
    wall: float
    cpu: float
    digests: dict


def run_op(cli, step, d: Path, expected: dict | None, tracer: Tracer | None) -> Op:
    """Call `cli.main(step.argv)` once; failed on a non-zero exit, a raise,
    a missing output or, when `expected` is given, an output digest mismatch."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{step.command}") if tracer else contextlib.nullcontext()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(step.argv)
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    (d / f"{step.command}.stdout").write_text(out.getvalue())
    digests = {name: sha256(d / name) for name in step.outputs}
    ok = rc == 0 and None not in digests.values()
    if expected is not None:
        ok = ok and all(expected.get(name) == h for name, h in digests.items())
    if not ok:
        print(f"bench: {step.command} failed (exit {rc}) in {d}\n{err.getvalue()}", file=sys.stderr)
    return Op(step.command, ok, wall, cpu, digests)


def run_scene(cli, wl: Workload, d: Path, expected: dict | None, tracer: Tracer | None = None) -> list[Op]:
    return [run_op(cli, step, d, expected, tracer) for step in wl.steps(d)]


def _scene(cli, wl, seed, index: int, d: Path, pins: dict, tracer) -> dict:
    # scene 0 of the untraced series was written, and checked, during set-up
    inputs = pins["inputs"] if d.exists() else prepare(wl, seed, index, d, pins)
    ops = run_scene(cli, wl, d, pins["outputs"] if index == 0 else None, tracer)
    return {
        "index": index,
        "seed": scene_seed(seed, index),
        "traced": tracer is not None,
        "wall": sum(op.wall for op in ops),
        "cpu": sum(op.cpu for op in ops),
        "inputs": inputs,
        "ops": [asdict(op) for op in ops],
    }


def run_scenes(cli, wl, seed, work: Path, budget: float, pins: dict, tracer=None) -> list[dict]:
    """Run scenes 0, 1, ... while another, judged by the last one, would end no
    later than half a scene past `budget` seconds; at least one runs.

    With a tracer each scene runs untraced and then traced, back to back, so
    both see the same host speed when the tracing overhead is taken.
    """
    scenes = []
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        name = f"scene-{index:03d}"
        scenes.append(_scene(cli, wl, seed, index, work / "untraced" / name, pins, None))
        if tracer:
            tracer.scene = index
            with tracer.install():
                scenes.append(_scene(cli, wl, seed, index, work / "traced" / name, pins, tracer))
        index += 1
        now = time.perf_counter()
        if now - start + (now - began) / 2.0 >= budget:
            return scenes


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "threads": {k: os.environ.get(k) for k in
                    ("GRASPLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="work directory, emptied by the caller")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli = import_cli()
    wl = WORKLOADS[args.workload]
    pins = load_pins(wl.name)
    if not pins:
        raise SystemExit(f"bench: no pinned digests for {wl.name} in {PINS}")
    out = Path(args.out)
    prepare(wl, args.seed, 0, out / "untraced" / "scene-000", pins)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": environment()}
    tracer = Tracer() if args.trace else None
    record["scenes"] = run_scenes(cli, wl, args.seed, out, args.seconds, pins, tracer)
    if tracer:
        record["layers"] = layer_metrics(tracer)
        record["absent"] = tracer.absent
        record["uncounted"] = sorted(tracer.uncounted)
        (out / "spans.json").write_text(json.dumps([asdict(s) for s in tracer.spans]))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
