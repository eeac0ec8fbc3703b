"""Regenerate the pinned digests of each workload's reference scene (scene 0, seed 0).

    python3 bench/pin.py [WORKLOAD ...]

Run this only when a change to the outputs is deliberate: every benchmark
run checks its reference scene against these pins byte for byte.
"""

from __future__ import annotations

import json
import shutil
import sys

from harness import BENCH, PINS, import_cli, prepare, run_scene
from workloads import WORKLOADS


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(WORKLOADS)
    cli = import_cli()
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    for name in names:
        wl = WORKLOADS[name]
        d = BENCH / "out" / "pin" / name
        shutil.rmtree(d, ignore_errors=True)
        inputs = prepare(wl, 0, 0, d, None)
        ops = run_scene(cli, wl, d, None)
        if not all(op.ok for op in ops):
            print(f"pin: {name}: a subcommand failed; nothing pinned", file=sys.stderr)
            return 1
        pins[name] = {"inputs": inputs, "outputs": {k: v for op in ops for k, v in op.digests.items()}}
        print(f"pin: {name}: {len(pins[name]['outputs'])} outputs")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
