"""Command-line driver composing the library into end-to-end pipelines.

Subcommands: normals, sample, collide, score, confidence, labels,
losscheck, select, fit, eval. Every run is deterministic given --seed and
its inputs; re-running writes byte-identical files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 failed check.

Tunable constants live in a flat settings map. SETTINGS declares each one
once: its default, its allowed range and the subcommand flag that also sets
it. A --config file overrides the defaults, repeatable --set key=value flags
override the file, and an explicit subcommand flag wins over all of them.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from contextlib import suppress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import anchors as anchors_mod
from . import dataio
from .collision import filter_collision_free
from .confidence import point_confidence, select_positive_points
from .contact import antipodal_score, find_contacts
from .core import GripperParams, PointCloud, grasps_from_arrays
from .losses import _losscheck_cases, gradient_check
from .metrics import evaluate
from .policy import (
    DEFAULT_POLICY,
    SigmoidFit,
    analytic_select,
    fit_linear,
    fit_sigmoid,
    heuristic_select,
    policy_from_mapping,
)
from .sampling import SamplerConfig, ball_query, estimate_normals, sample_candidates


_INT64 = (-2**63, 2**63 - 1)  # the range an integer setting or count flag may take
_NEAREST_PAIRS = 1 << 16  # point-center pairs per block of the labels' nearest-center search


class Setting(NamedTuple):
    """One tunable: its default (every value takes the default's type), the range a value must lie in,
    and the subcommand flag that also sets it. A real value must also be finite."""

    default: int | float
    low: float = -math.inf
    high: float = math.inf
    open_low: bool = False  # low itself is out of range
    flag: str | None = None
    help: str | None = None

    def parse(self, text: str) -> int | float:
        """text as a value of this setting; also the argparse type of its flag."""
        text, kind = text.strip(dataio._BLANKS), type(self.default)
        try:
            value = dataio.parse_number(text, kind)
        except dataio.NonFinite:
            raise argparse.ArgumentTypeError(f"must be finite, got {text}") from None
        except ValueError:
            expected = "an integer" if kind is int else "a real"
            raise argparse.ArgumentTypeError(f"expects {expected}, got {text!r}") from None
        if value < self.low or (self.open_low and value == self.low) or value > self.high:
            if self.high < math.inf:
                bounds = f"in {'(' if self.open_low else '['}{self.low}, {self.high}]"
            else:
                bounds = f"{'>' if self.open_low else '>='} {self.low}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        if kind is int and not _INT64[0] <= value <= _INT64[1]:  # counts reach numpy as int64
            low = max(self.low, _INT64[0])
            raise argparse.ArgumentTypeError(f"must be in {'(' if self.open_low else '['}{low}, {_INT64[1]}], "
                                             f"got {value}")
        return value


SETTINGS = {
    "normals.k": Setting(16, 3, flag="-k", help="neighborhood size"),
    "sampler.n_centers": Setting(10, 1, flag="--centers"),
    "sampler.n_orientations": Setting(4, 1, flag="--orientations"),
    "sampler.n_angles": Setting(3, 1, flag="--angles"),
    "sampler.angle_range": Setting(SamplerConfig.angle_range, 0, math.pi / 2, open_low=True,
                                   flag="--angle-range"),
    "sampler.k": Setting(SamplerConfig.k_neighbors, 4, flag="--knn", help="Darboux neighborhood size"),
    "confidence.d_th": Setting(0.01, 0, open_low=True, flag="--dth", help="distance threshold (m)"),
    "region.radius": Setting(0.02, 0, open_low=True),
    "region.keep": Setting(256, 1),
    "labels.k1": Setting(768, 1, flag="--k1", help="number of positive points"),
    "anchors.m": Setting(4, 1, flag="--anchors", help="number of anchor orientations"),
    "anchors.c_b": Setting(anchors_mod.CENTER_BALANCE, 0, open_low=True),
    "anchors.angle_pos": Setting(anchors_mod.ANGLE_POS),
    "anchors.angle_neg": Setting(anchors_mod.ANGLE_NEG),
    "refine.d1": Setting(anchors_mod.REFINE_D1),
    "refine.d2": Setting(anchors_mod.REFINE_D2),
    "refine.beta1": Setting(anchors_mod.REFINE_BETA1),
    "refine.beta2": Setting(anchors_mod.REFINE_BETA2),
    "refine.gamma1": Setting(anchors_mod.REFINE_GAMMA1),
    "refine.gamma2": Setting(anchors_mod.REFINE_GAMMA2),
    "eval.pool": Setting(1000, 1, flag="--pool"),
    "eval.top": Setting(100, 1, flag="--top"),
    "losscheck.trials": Setting(25, 1, flag="--trials"),
    "losscheck.tol": Setting(1e-5),
}
DEFAULTS = {key: setting.default for key, setting in SETTINGS.items()}
# per subcommand, settings whose values must keep an order: (lower key, upper key, whether they may be equal)
_ORDERED = {
    "labels": [("anchors.angle_pos", "anchors.angle_neg", True)]
    + [(f"refine.{name}1", f"refine.{name}2", False) for name in ("d", "beta", "gamma")],
    "eval": [("eval.top", "eval.pool", True)],
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this artifact reserves 2 for
    data errors, so remap usage failures to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def _get_values(self, action, arg_strings):
        # An option's own value "--" (`--k1=--`) is a value, not the end of the options. The argparse of
        # Python 3.10 and 3.11 drops it and gives the option an empty list; pass it to the option's type.
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _parse_gripper(text: str) -> GripperParams:
    """argparse type of --gripper: depth, width, height and thickness in meters."""
    fields, values = text.split(","), []
    for name, field in zip(("depth", "width", "height", "thickness"), fields if len(fields) == 4 else ()):
        try:
            values.append(dataio.parse_number(field))
        except dataio.NonFinite:
            raise argparse.ArgumentTypeError(f"gripper {name} must be finite, got {field}") from None
        except ValueError:
            break
    if len(values) != 4:
        raise argparse.ArgumentTypeError(f"expects D,W,H,T reals, got {text!r}")
    try:
        return GripperParams(*values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _settings(args) -> dict:
    """DEFAULTS, then the --config file, then each --set, then the flags.

    A bad key or value names the key, and from the --config file also its file:line.
    """
    merged = dict(DEFAULTS)
    config = dataio.read_config(args.config).items() if args.config else ()
    items = [(key, value, f"{args.config}:{value.line}: ") for key, value in config]
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        items.append((key.strip(dataio._BLANKS), value, ""))
    for key, value, where in items:
        if key not in merged:
            raise ValueError(f"{where}unknown setting {key!r}")
        try:
            merged[key] = SETTINGS[key].parse(value)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{where}setting {key} {exc}") from None
    merged.update((key, value) for key, value in vars(args).items() if key in SETTINGS)
    return merged


def _check_order(command: str, settings: dict) -> None:
    """A pair of command's settings out of its _ORDERED order is an error naming both keys and values."""
    for low, high, equal in _ORDERED.get(command, ()):
        if settings[low] > settings[high] or (settings[low] == settings[high] and not equal):
            rule = "must not exceed" if equal else "must be below"
            raise ValueError(f"setting {low}={settings[low]} {rule} {high}={settings[high]}")


def _load_cloud(args, normals: bool = False) -> PointCloud:
    cloud = dataio.read_point_cloud(args.cloud)
    if normals:  # an empty cloud is reported as such: 'grasplab normals' cannot mend it
        _require_points(args, cloud)
        if cloud.normals is None:
            raise ValueError(f"{args.cloud} has no normals; run 'grasplab normals' first")
    return cloud


def _require_points(args, cloud: PointCloud, need: int = 1, what: str = "") -> None:
    """A cloud too small for a step is an error that names its file and both counts."""
    if not len(cloud):
        raise ValueError(f"{args.cloud} has no points")
    if len(cloud) < need:
        kept = " kept by --subsample" if getattr(args, "subsample", None) == len(cloud) else ""
        raise ValueError(f"{args.cloud} has {len(cloud)} points{kept}, need at least {what}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_normals(args, settings) -> int:
    cloud = _load_cloud(args)
    if args.subsample is not None and args.subsample < len(cloud):  # only here: later files index these points
        rng = np.random.default_rng(args.seed)
        idx = np.sort(rng.choice(len(cloud), size=args.subsample, replace=False))
        cloud = PointCloud(*(None if a is None else a[idx] for a in (cloud.points, cloud.normals, cloud.colors)))
    k = settings["normals.k"]
    _require_points(args, cloud, k, f"k={k}")
    normals, valid = estimate_normals(cloud, k)
    n_bad = int(np.sum(~valid))
    if n_bad:
        print(f"warning: {n_bad} point(s) with degenerate neighborhoods", file=sys.stderr)
    dataio.write_point_cloud(args.output, cloud.with_normals(normals))
    return 0


def _cmd_sample(args, settings) -> int:
    cloud = _load_cloud(args)
    _require_points(args, cloud, 4, "4 for Darboux estimation")  # sample_candidates' own minimum
    cfg = SamplerConfig(
        n_centers=settings["sampler.n_centers"],
        n_orientation_perturbations=settings["sampler.n_orientations"],
        n_angle_perturbations=settings["sampler.n_angles"],
        angle_range=settings["sampler.angle_range"],
        rng_seed=args.seed,
        k_neighbors=settings["sampler.k"],
    )
    dataio.write_grasps(args.output, sample_candidates(cloud, args.gripper, cfg))
    return 0


def _cmd_collide(args, settings) -> int:
    cloud = _load_cloud(args)
    dataio.write_grasps(args.output, filter_collision_free(dataio.read_grasps(args.grasps), cloud, args.gripper))
    return 0


def _cmd_score(args, settings) -> int:
    cloud = _load_cloud(args, normals=True)
    out = [g.with_score(antipodal_score(find_contacts(cloud, g, args.gripper), g))
           for g in dataio.read_grasps(args.grasps)]
    dataio.write_grasps(args.output, out)
    return 0


def _cmd_confidence(args, settings) -> int:
    cloud = _load_cloud(args)
    _require_points(args, cloud)
    d_th = settings["confidence.d_th"]
    grasps = dataio.read_grasps(args.grasps)
    field = point_confidence(cloud, grasps, d_th)
    if not grasps:
        print(f"warning: {args.grasps} contains no grasps; every confidence value is 0", file=sys.stderr)
    elif not field.values.any():
        print(f"warning: every confidence value is 0; no grasp center lies within d_th={d_th:g} m of a point",
              file=sys.stderr)
    dataio.write_confidence(args.output, field)
    return 0


def _cmd_labels(args, settings) -> int:
    cloud = _load_cloud(args)
    _require_points(args, cloud)
    field = dataio.read_confidence(args.confidence)
    if len(field) != len(cloud):
        raise ValueError(f"confidence length {len(field)} of {args.confidence} does not match cloud size "
                         f"{len(cloud)} of {args.cloud}")
    scored = dataio.read_grasps(args.grasps)
    if not scored:
        raise ValueError(f"{args.grasps} contains no grasps")
    k1 = settings["labels.k1"]
    if k1 > len(cloud):
        print(f"warning: k1={k1} exceeds cloud size; using {len(cloud)}", file=sys.stderr)
        k1 = len(cloud)
    m, c_b, keep = settings["anchors.m"], settings["anchors.c_b"], settings["region.keep"]
    angle_pos = settings["anchors.angle_pos"]
    angle_neg = settings["anchors.angle_neg"]
    thresholds = {k: settings[f"refine.{k}"] for k in ("d1", "d2", "beta1", "beta2", "gamma1", "gamma2")}

    anchor_dirs = anchors_mod.anchor_set(m)
    positives = select_positive_points(field, k1)
    centers = np.stack([g.center for g in scored])
    # each positive point's nearest ground-truth center, lowest index on ties
    nearest = np.empty(len(positives), dtype=np.intp)
    step = max(1, _NEAREST_PAIRS // len(centers))
    for lo in range(0, len(positives), step):
        points = cloud.points[positives[lo:lo + step], None]
        nearest[lo:lo + step] = np.argmin(np.linalg.norm(centers - points, axis=2), axis=1)

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    # one %-template per table: point index, then integer ('d') and real ('g') fields
    anchor_row = dataio._row_template("dgggd" + "d" * (m + 1) + "g" * 8, ",")
    refine_row = dataio._row_template("dd" + "g" * 8, ",")
    region_row = dataio._row_template("dd" + "d" * keep, ",")
    anchor_rows = ["point_index,px,py,pz,gt_index," + "".join(f"o{j}," for j in range(m))
                   + "pos_anchor,res_cx,res_cy,res_cz,res_rx,res_ry,res_rz,theta,sq\n"]
    refine_rows = ["point_index,y,res_cx,res_cy,res_cz,res_rx,res_ry,res_rz,res_theta,res_sq\n"]
    region_rows = ["point_index,padded" + "".join(f",i{j}" for j in range(keep)) + "\n"]

    nearest_anchor = []
    for pi, gi in zip(positives.tolist(), nearest.tolist()):
        p = cloud.points[pi]
        label = anchors_mod.assign_anchor_labels(scored[gi], anchor_dirs, angle_pos, angle_neg)
        label = anchors_mod.complete_label(label, scored[gi], anchor_dirs, p, c_b)
        nearest_anchor.append(label.nearest)
        block = label.residuals if label.residuals is not None else np.zeros(8)
        pos_idx = -1 if label.positive_index is None else label.positive_index
        anchor_rows.append(anchor_row % (pi, *p, gi, *label.classes, pos_idx, *block))
        if args.regions:
            idx, padded = ball_query(cloud, p, radius=settings["region.radius"], keep=keep, seed=args.seed)
            region_rows.append(region_row % (pi, padded, *idx))
    # refine labels grade the anchor-reference poses (p, nearest anchor, 0), built as one table
    proposals = grasps_from_arrays(cloud.points[positives], anchor_dirs.directions[nearest_anchor],
                                   np.zeros(len(positives)))
    for pi, gi, proposal in zip(positives.tolist(), nearest.tolist(), proposals):
        refine = anchors_mod.assign_refine_labels(scored[gi], proposal, **thresholds, c_b=c_b)
        rblock = refine.residuals if refine.residuals is not None else np.zeros(8)
        refine_rows.append(refine_row % (pi, refine.y, *rblock))

    (out_dir / "anchor_labels.csv").write_text("".join(anchor_rows))
    (out_dir / "refine_labels.csv").write_text("".join(refine_rows))
    if args.regions:
        (out_dir / "regions.csv").write_text("".join(region_rows))
    return 0


def _cmd_losscheck(args, settings) -> int:
    tol = settings["losscheck.tol"]
    worst: dict[str, float] = {}
    for name, fn, x0 in _losscheck_cases(np.random.default_rng(args.seed), settings["losscheck.trials"]):
        base = name.split("[")[0]
        worst[base] = max(worst.get(base, 0.0), gradient_check(fn, x0, args.h))
    for name in sorted(worst):
        print(f"{name}: max relative error {worst[name]:.3e} [{'ok' if worst[name] < tol else 'FAIL'}]")
    return 3 if max(worst.values()) >= tol else 0


def _cmd_select(args, settings) -> int:
    if args.policy == "heuristic" and args.coeffs:
        print("grasplab select: error: argument --coeffs: applies only to --policy analytic, "
              "not to --policy heuristic", file=sys.stderr)
        return 1
    scored = dataio.read_grasps(args.grasps)
    if not scored:
        raise ValueError(f"{args.grasps} contains no grasps")
    if args.policy == "heuristic":
        idx = heuristic_select(scored)
    else:
        policy = DEFAULT_POLICY
        if args.coeffs:
            coeffs = dataio.read_config(args.coeffs)
            for key, text in coeffs.items():  # text that is no finite real stays text, for the policy to refuse
                with suppress(ValueError):
                    coeffs[key] = dataio.parse_number(text)
            try:
                policy = policy_from_mapping(coeffs)
            except ValueError as exc:
                raise ValueError(f"{args.coeffs}: {exc}") from None
        idx = analytic_select(scored, policy)
    print(dataio._rows_text(dataio._grasp_array([scored[idx]]), ","), end="")
    return 0


def _cmd_fit(args, settings) -> int:
    xs, ys = dataio.read_xy(args.data)
    if args.mode == "linear":
        fit = fit_linear(xs, ys)
    else:
        fit = fit_sigmoid(xs, ys, init=SigmoidFit(a=args.init_a, b=args.init_b))
    text = "".join(f"{key} = {value:.9g}\n" for key, value in vars(fit).items())
    Path(args.output).write_text(text)
    print(text, end="")
    return 0


def _cmd_eval(args, settings) -> int:
    scene = _load_cloud(args, normals=True)
    scored = dataio.read_grasps(args.grasps)
    if not scored:
        raise ValueError(f"{args.grasps} contains no grasps")
    truth = dataio.read_grasps(args.gt)
    if not truth:
        raise ValueError(f"{args.gt} contains no ground-truth grasps")
    pool, top = settings["eval.pool"], settings["eval.top"]
    t0 = time.perf_counter()
    report = evaluate(scored, scene, truth, args.gripper, pool=pool, top=top)
    elapsed = time.perf_counter() - t0
    print(dataio.format_report(report), end="")
    print(f"elapsed_s = {elapsed:.3f}", file=sys.stderr)
    if args.output:
        Path(args.output).write_text(dataio.report_csv(report))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _setting_flags(p: argparse.ArgumentParser, *prefixes: str) -> None:
    """Declare on subcommand p the flag of each setting whose key starts with one of prefixes."""
    for key, setting in SETTINGS.items():
        if setting.flag and key.startswith(prefixes):
            p.add_argument(setting.flag, dest=key, type=setting.parse, default=argparse.SUPPRESS,
                           help=setting.help)


@functools.cache  # one parser per process: main is also called in-process, once per step
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=Setting(0, 0).parse, default=0, help="seed for all randomized steps")
    common.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a default setting")
    common.add_argument("--config", help="key=value settings file")

    gripper_opts = argparse.ArgumentParser(add_help=False)
    gripper_opts.add_argument("--gripper", required=True, type=_parse_gripper, metavar="D,W,H,T")

    parser = _Parser(prog="grasplab", description=__doc__.partition("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normals", parents=[common], help="estimate and attach surface normals")
    p.add_argument("cloud")
    p.add_argument("--subsample", type=Setting(1, 1).parse,  # a count of at least 1, as the settings
                   help="randomly keep this many input points (seeded)")
    _setting_flags(p, "normals.")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_normals)

    p = sub.add_parser("sample", parents=[common, gripper_opts], help="generate grasp candidates")
    p.add_argument("cloud")
    _setting_flags(p, "sampler.")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("collide", parents=[common, gripper_opts],
                       help="drop candidates colliding with a scene")
    p.add_argument("cloud")
    p.add_argument("grasps")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_collide)

    p = sub.add_parser("score", parents=[common, gripper_opts],
                       help="fill antipodal scores from contacts")
    p.add_argument("cloud")
    p.add_argument("grasps")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("confidence", parents=[common], help="per-point grasp confidence field")
    p.add_argument("cloud")
    p.add_argument("grasps")
    _setting_flags(p, "confidence.")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_confidence)

    p = sub.add_parser("labels", parents=[common], help="anchor and refine label files")
    p.add_argument("grasps")
    p.add_argument("--cloud", required=True, help="point cloud the confidence field aligns with")
    p.add_argument("--confidence", required=True, help="confidence field file")
    _setting_flags(p, "labels.", "anchors.")
    p.add_argument("--regions", action="store_true", help="also write ball-query region indices")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_labels)

    p = sub.add_parser("losscheck", parents=[common], help="finite-difference gradient checks")
    p.add_argument("--h", type=Setting(1e-6, 0, open_low=True).parse, default=1e-6,
                   help="central-difference step")
    _setting_flags(p, "losscheck.")
    p.set_defaults(func=_cmd_losscheck)

    p = sub.add_parser("select", parents=[common], help="pick the best grasp from a list")
    p.add_argument("grasps")
    p.add_argument("--policy", choices=("heuristic", "analytic"), default="analytic")
    p.add_argument("--coeffs", help="key = value file of analytic coefficients (--policy analytic only)")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("fit", parents=[common], help="fit policy coefficients from x,y samples")
    p.add_argument("data", help="CSV with header x,y")
    p.add_argument("--mode", choices=("sigmoid", "linear"), required=True)
    p.add_argument("--init-a", type=Setting(1.0).parse, default=1.0, dest="init_a")
    p.add_argument("--init-b", type=Setting(0.5).parse, default=0.5, dest="init_b")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", parents=[common, gripper_opts],
                       help="evaluation report for a grasp set")
    p.add_argument("grasps")
    p.add_argument("cloud", help="scene cloud with normals")
    p.add_argument("gt", help="ground-truth grasp list")
    _setting_flags(p, "eval.")
    p.add_argument("-o", "--output", default=None, help="also write the report as a CSV row")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        settings = _settings(args)
        _check_order(args.command, settings)  # before any input is read
        return args.func(args, settings)
    except (ValueError, OSError) as exc:
        print(f"grasplab: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a count that fits int64 can still ask for more memory than there is
        detail = f" ({exc})" if str(exc) else ""
        print(f"grasplab: error: {args.command}: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
