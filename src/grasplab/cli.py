"""Command-line driver composing the library into end-to-end pipelines.

Subcommands: normals, sample, collide, score, confidence, labels,
losscheck, select, fit, eval. Every run is deterministic given its inputs
and, on the four subcommands that draw random numbers (normals, sample,
labels, losscheck), --seed; re-running writes byte-identical files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 failed check.
Warnings leave through `main` alone, as one `warning: <message>` line per
distinct message on stderr, with a count when it was raised more than once.

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
import warnings
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import anchors as anchors_mod
from . import dataio
from .collision import filter_collision_free
from .confidence import point_confidence, select_positive_points
from .contact import antipodal_score, find_contacts
from .core import GripperParams, PointCloud, cache_frames, grasps_from_arrays
from .losses import _losscheck_cases, gradient_check
from .metrics import evaluate
from .policy import (
    DEFAULT_POLICY,
    AnalyticPolicy,
    LinearFit,
    SigmoidFit,
    analytic_select,
    fit_linear,
    fit_sigmoid,
    heuristic_select,
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
# the analytic policy's coefficients, keyed by the fields `fit -o` writes; a --coeffs file sets any of them
COEFFICIENTS = {key: Setting(value) for fit in (DEFAULT_POLICY.sigmoid, DEFAULT_POLICY.linear)
                for key, value in vars(fit).items()}
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


def _file_items(path) -> list[tuple[str, str, str]]:
    """The (key, value text, "path:line: ") items of a key = value file."""
    return [(key, value, f"{path}:{value.line}: ") for key, value in dataio.read_config(path).items()]


def _parse_items(items, table: dict, what: str) -> dict:
    """(key, text, where) items as values of their Settings in table (SETTINGS or COEFFICIENTS), later
    items winning. A key not in table, or a value its Setting refuses, is an error naming where, what and key."""
    out = {}
    for key, text, where in items:
        if key not in table:
            raise ValueError(f"{where}unknown {what} {key!r}")
        try:
            out[key] = table[key].parse(text)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{where}{what} {key} {exc}") from None
    return out


def _settings(args) -> dict:
    """DEFAULTS, then the --config file, then each --set, then the flags.

    A bad key or value names the key, and from the --config file also its file:line.
    """
    items = _file_items(args.config) if args.config else []
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        items.append((key.strip(dataio._BLANKS), value, ""))
    merged = {**DEFAULTS, **_parse_items(items, SETTINGS, "setting")}
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
        warnings.warn(f"{n_bad} point(s) with degenerate neighborhoods", RuntimeWarning)
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
    grasps = dataio.read_grasps(args.grasps)
    cache_frames(grasps)  # one batch, not one frame per find_contacts call
    out = [g.with_score(antipodal_score(find_contacts(cloud, g, args.gripper), g)) for g in grasps]
    dataio.write_grasps(args.output, out)
    return 0


def _cmd_confidence(args, settings) -> int:
    cloud = _load_cloud(args)
    _require_points(args, cloud)
    d_th = settings["confidence.d_th"]
    grasps = dataio.read_grasps(args.grasps)
    field = point_confidence(cloud, grasps, d_th)
    if not grasps:
        warnings.warn(f"{args.grasps} contains no grasps; every confidence value is 0", RuntimeWarning)
    elif not field.values.any():
        warnings.warn(f"every confidence value is 0; no grasp center lies within d_th={d_th:g} m of a point",
                      RuntimeWarning)
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
        warnings.warn(f"k1={k1} exceeds cloud size; using {len(cloud)}", RuntimeWarning)
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

    # a label without a positive anchor, or a refine label that is not positive, keeps -1 and zero residuals
    n = len(positives)
    classes, nearest_anchor, positive_anchor, anchor_res = (np.empty((n, m), int), np.empty(n, int),
                                                            np.full(n, -1), np.zeros((n, 8)))
    regions, padded = np.empty((n, keep if args.regions else 0), int), np.empty(n, int)
    order = np.argsort(nearest, kind="stable")
    truths, firsts = np.unique(nearest[order], return_index=True)
    for gi, rows in zip(truths.tolist(), np.split(order, firsts[1:])):  # one label per truth, at all its points
        label = anchors_mod.assign_anchor_labels(scored[gi], anchor_dirs, angle_pos, angle_neg)
        label = anchors_mod.complete_label(label, scored[gi], anchor_dirs, cloud.points[positives[rows]], c_b)
        classes[rows], nearest_anchor[rows] = label.classes, label.nearest
        if label.positive_index is not None:
            positive_anchor[rows], anchor_res[rows] = label.positive_index, label.residuals
    for row, p in enumerate(cloud.points[positives] if args.regions else ()):
        regions[row], padded[row] = ball_query(cloud, p, radius=settings["region.radius"], keep=keep, seed=args.seed)
    # refine labels grade the anchor-reference poses (p, nearest anchor, 0), built as one table
    proposals = grasps_from_arrays(cloud.points[positives], anchor_dirs.directions[nearest_anchor], np.zeros(n))
    y, refine_res = np.empty(n, int), np.zeros((n, 8))
    for row, (gi, proposal) in enumerate(zip(nearest.tolist(), proposals)):
        refine = anchors_mod.assign_refine_labels(scored[gi], proposal, **thresholds, c_b=c_b)
        y[row] = refine.y
        if refine.residuals is not None:
            refine_res[row] = refine.residuals

    dataio.write_anchor_labels(out_dir / "anchor_labels.csv", positives, cloud.points[positives], nearest,
                               classes, positive_anchor, anchor_res)
    dataio.write_refine_labels(out_dir / "refine_labels.csv", positives, y, refine_res)
    if args.regions:
        dataio.write_regions(out_dir / "regions.csv", positives, padded, regions)
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
    scored = dataio.read_grasps(args.grasps)
    if not scored:
        raise ValueError(f"{args.grasps} contains no grasps")
    if args.policy == "heuristic":
        idx = heuristic_select(scored)
    else:
        c = {key: coefficient.default for key, coefficient in COEFFICIENTS.items()}
        if args.coeffs:  # a key the file leaves out keeps its default
            c.update(_parse_items(_file_items(args.coeffs), COEFFICIENTS, "coefficient"))
        idx = analytic_select(scored, AnalyticPolicy(SigmoidFit(c["a"], c["b"]), LinearFit(c["slope"], c["intercept"])))
    print(dataio.format_grasp(scored[idx]), end="")
    return 0


def _cmd_fit(args, settings) -> int:
    xs, ys = dataio.read_xy(args.data)
    if args.mode == "linear":
        fit = fit_linear(xs, ys)
    else:
        fit = fit_sigmoid(xs, ys, init=SigmoidFit(a=args.init_a, b=args.init_b))
    dataio.write_config(args.output, vars(fit))
    print(dataio.format_config(vars(fit)), end="")
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
    report = evaluate(scored, scene, truth, args.gripper, pool=pool, top=top)
    print(dataio.format_report(report), end="")
    if args.output:
        dataio.write_report(args.output, report)
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
    common.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a default setting")
    common.add_argument("--config", help="key=value settings file")

    seed_opts = argparse.ArgumentParser(add_help=False)  # only the subcommands that draw random numbers
    seed_opts.add_argument("--seed", type=Setting(0, 0).parse, default=0, help="seed of the random draws")

    gripper_opts = argparse.ArgumentParser(add_help=False)
    gripper_opts.add_argument("--gripper", required=True, type=_parse_gripper, metavar="D,W,H,T")

    parser = _Parser(prog="grasplab", description=__doc__.partition("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normals", parents=[common, seed_opts], help="estimate and attach surface normals")
    p.add_argument("cloud")
    p.add_argument("--subsample", type=Setting(1, 1).parse,  # a count of at least 1, as the settings
                   help="randomly keep this many input points (seeded)")
    _setting_flags(p, "normals.")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_normals)

    p = sub.add_parser("sample", parents=[common, seed_opts, gripper_opts], help="generate grasp candidates")
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

    p = sub.add_parser("labels", parents=[common, seed_opts], help="anchor and refine label files")
    p.add_argument("grasps")
    p.add_argument("--cloud", required=True, help="point cloud the confidence field aligns with")
    p.add_argument("--confidence", required=True, help="confidence field file")
    _setting_flags(p, "labels.", "anchors.")
    p.add_argument("--regions", action="store_true", help="also write ball-query region indices")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_labels)

    p = sub.add_parser("losscheck", parents=[common, seed_opts], help="finite-difference gradient checks")
    p.add_argument("--h", type=Setting(1e-6, 0, open_low=True).parse, default=1e-6,
                   help="central-difference step")
    _setting_flags(p, "losscheck.")
    p.set_defaults(func=_cmd_losscheck)

    p = sub.add_parser("select", parents=[common], help="pick the best grasp from a list")
    p.add_argument("grasps")
    p.add_argument("--policy", choices=("heuristic", "analytic"), default="analytic")
    p.add_argument("--coeffs", help="key = value file of analytic coefficients (--policy analytic only)")
    p.set_defaults(func=_cmd_select, subparser=p)

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
        if getattr(args, "policy", None) == "heuristic" and args.coeffs:  # a pairing argparse cannot declare
            args.subparser.error("argument --coeffs: applies only to --policy analytic, not to --policy heuristic")
    except SystemExit as exc:
        return int(exc.code or 0)
    error = None
    # every RuntimeWarning is recorded and counted; other categories keep their filters (an 'error' one raises)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            settings = _settings(args)
            _check_order(args.command, settings)  # before any input is read
            code = args.func(args, settings)
        except (ValueError, OSError) as exc:
            code, error = 2, str(exc)
        except MemoryError as exc:  # a count that fits int64 can still ask for more memory than there is
            code, error = 2, f"{args.command}: out of memory" + (f" ({exc})" if str(exc) else "")
    for message, count in Counter(str(w.message) for w in caught).items():
        print(f"warning: {message}" + (f" ({count} times)" if count > 1 else ""), file=sys.stderr)
    if error is not None:
        print(f"grasplab: error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
