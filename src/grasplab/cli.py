"""Command-line driver composing the library into end-to-end pipelines.

Subcommands: normals, sample, collide, score, confidence, labels,
losscheck, select, fit, eval. Every run is deterministic given --seed and
its inputs; re-running writes byte-identical files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 failed check.

Tunable constants live in a flat settings map (see DEFAULTS), overridable
by a --config file and repeatable --set key=value flags; explicit
subcommand flags win over both. Each value takes the type of its default.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import anchors as anchors_mod
from . import dataio
from .collision import filter_collision_free
from .confidence import point_confidence, select_positive_points
from .contact import antipodal_score, find_contacts
from .core import Grasp, GripperParams, PointCloud
from .losses import _losscheck_cases, _random_grn_case, _random_rn_case, gradient_check
from .metrics import evaluate
from .policy import (
    DEFAULT_POLICY,
    ScoredGrasp,
    SigmoidFit,
    analytic_select,
    fit_linear,
    fit_sigmoid,
    heuristic_select,
    policy_from_mapping,
)
from .sampling import SamplerConfig, ball_query, estimate_normals, sample_candidates

DEFAULTS = {
    "normals.k": 16,
    "sampler.n_centers": 10,
    "sampler.n_orientations": 4,
    "sampler.n_angles": 3,
    "sampler.angle_range": math.pi / 6,
    "sampler.k": 16,
    "confidence.d_th": 0.01,
    "confidence.width": 0.0,
    "region.radius": 0.02,
    "region.keep": 256,
    "labels.k1": 768,
    "anchors.m": 4,
    "anchors.c_b": 0.1,
    "anchors.angle_pos": anchors_mod.ANGLE_POS,
    "anchors.angle_neg": anchors_mod.ANGLE_NEG,
    "refine.d1": 0.015,
    "refine.d2": 0.020,
    "refine.beta1": math.pi / 4,
    "refine.beta2": math.pi / 3,
    "refine.gamma1": math.pi / 4,
    "refine.gamma2": math.pi / 3,
    "eval.pool": 1000,
    "eval.top": 100,
    "losscheck.trials": 25,
    "losscheck.tol": 1e-5,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this artifact reserves 2 for
    data errors, so remap usage failures to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_gripper(text: str) -> GripperParams:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--gripper expects D,W,H,T, got {text!r}")
    d, w, h, t = (float(p) for p in parts)
    return GripperParams(d, w, h, t)


def _typed(key: str, text: str):
    """A setting's text as the type of its default: a float takes any real, an int only an integer."""
    kind = type(DEFAULTS[key])
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a real"
        raise ValueError(f"setting {key} expects {expected}, got {text!r}") from None


def _settings(args) -> dict:
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, value in dataio.read_config(args.config).items():
            if key not in merged:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _typed(key, str(value))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in merged:
            raise ValueError(f"unknown setting {key!r}")
        merged[key] = _typed(key, value.strip())
    return merged


def _pick(flag, settings: dict, key: str):
    return settings[key] if flag is None else flag


def _load_cloud(args) -> PointCloud:
    cloud = dataio.read_point_cloud(args.cloud)
    n = getattr(args, "subsample", None)
    if n is not None and n < len(cloud):
        rng = np.random.default_rng(args.seed)
        idx = np.sort(rng.choice(len(cloud), size=n, replace=False))
        cloud = PointCloud(
            cloud.points[idx],
            None if cloud.normals is None else cloud.normals[idx],
            None if cloud.colors is None else cloud.colors[idx],
        )
    return cloud


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_normals(args) -> int:
    settings = _settings(args)
    cloud = _load_cloud(args)
    k = _pick(args.k, settings, "normals.k")
    normals, valid = estimate_normals(cloud, k)
    n_bad = int(np.sum(~valid))
    if n_bad:
        print(f"warning: {n_bad} point(s) with degenerate neighborhoods", file=sys.stderr)
    dataio.write_point_cloud(args.output, cloud.with_normals(normals))
    return 0


def _cmd_sample(args) -> int:
    settings = _settings(args)
    cloud = _load_cloud(args)
    gripper = _parse_gripper(args.gripper)
    cfg = SamplerConfig(
        n_centers=_pick(args.centers, settings, "sampler.n_centers"),
        n_orientation_perturbations=_pick(args.orientations, settings, "sampler.n_orientations"),
        n_angle_perturbations=_pick(args.angles, settings, "sampler.n_angles"),
        angle_range=_pick(args.angle_range, settings, "sampler.angle_range"),
        rng_seed=args.seed,
        k_neighbors=_pick(args.knn, settings, "sampler.k"),
    )
    candidates = sample_candidates(cloud, gripper, cfg)
    dataio.write_grasps(args.output, [ScoredGrasp(g, 0.0) for g in candidates])
    return 0


def _cmd_collide(args) -> int:
    cloud = _load_cloud(args)
    scored = dataio.read_grasps(args.grasps)
    gripper = _parse_gripper(args.gripper)
    free = {id(g) for g in filter_collision_free([sg.grasp for sg in scored], cloud, gripper)}
    dataio.write_grasps(args.output, [sg for sg in scored if id(sg.grasp) in free])
    return 0


def _cmd_score(args) -> int:
    cloud = _load_cloud(args)
    if cloud.normals is None:
        raise ValueError(f"{args.cloud} has no normals; run 'grasplab normals' first")
    scored = dataio.read_grasps(args.grasps)
    gripper = _parse_gripper(args.gripper)
    out = []
    for sg in scored:
        pair = find_contacts(cloud, sg.grasp, gripper)
        s_q = antipodal_score(pair, sg.grasp) if pair is not None else 0.0
        out.append(ScoredGrasp(sg.grasp, s_q))
    dataio.write_grasps(args.output, out)
    return 0


def _cmd_confidence(args) -> int:
    settings = _settings(args)
    cloud = _load_cloud(args)
    scored = dataio.read_grasps(args.grasps)
    d_th = _pick(args.dth, settings, "confidence.d_th")
    width = _pick(args.width, settings, "confidence.width")
    field = point_confidence(cloud, [sg.grasp for sg in scored], d_th, width)
    dataio.write_confidence(args.output, field)
    return 0


def _cmd_labels(args) -> int:
    settings = _settings(args)
    cloud = dataio.read_point_cloud(args.cloud)
    field = dataio.read_confidence(args.confidence)
    if len(field) != len(cloud):
        raise ValueError(f"confidence length {len(field)} does not match cloud size {len(cloud)}")
    scored = dataio.read_grasps(args.grasps)
    if not scored:
        raise ValueError(f"{args.grasps} contains no grasps")
    k1 = _pick(args.k1, settings, "labels.k1")
    if k1 > len(cloud):
        print(f"warning: k1={k1} exceeds cloud size; using {len(cloud)}", file=sys.stderr)
        k1 = len(cloud)
    m = _pick(args.anchors, settings, "anchors.m")
    c_b = settings["anchors.c_b"]
    angle_pos = settings["anchors.angle_pos"]
    angle_neg = settings["anchors.angle_neg"]

    anchor_dirs = anchors_mod.anchor_set(m)
    positives = select_positive_points(field, k1)
    centers = np.stack([sg.grasp.center for sg in scored])

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    anchor_lines = [
        "point_index,px,py,pz,gt_index,"
        + ",".join(f"o{j}" for j in range(m))
        + ",pos_anchor,res_cx,res_cy,res_cz,res_rx,res_ry,res_rz,theta,sq"
    ]
    refine_lines = ["point_index,y,res_cx,res_cy,res_cz,res_rx,res_ry,res_rz,res_theta,res_sq"]
    region_lines = ["point_index,padded," + ",".join(f"i{j}" for j in range(settings["region.keep"]))]

    fmt = dataio._fmt
    for pi in positives:
        p = cloud.points[pi]
        gi = int(np.argmin(np.linalg.norm(centers - p, axis=1)))
        gt = scored[gi]
        label = anchors_mod.assign_anchor_labels(gt.grasp, anchor_dirs, angle_pos, angle_neg, quality=gt.s_q)
        label = anchors_mod.complete_label(label, gt.grasp, anchor_dirs, p, c_b, gt.s_q)
        block = label.residuals.as_array() if label.residuals is not None else np.zeros(8)
        pos_idx = -1 if label.positive_index is None else label.positive_index
        anchor_lines.append(
            ",".join(
                [str(int(pi)), fmt(p[0]), fmt(p[1]), fmt(p[2]), str(gi)]
                + [str(int(c)) for c in label.classes]
                + [str(pos_idx)]
                + [fmt(v) for v in block]
            )
        )
        # refine labels grade the anchor-reference pose (p, nearest anchor, 0)
        ref_idx = label.positive_index
        if ref_idx is None:
            ref_idx = int(np.argmax(anchor_dirs.directions @ gt.grasp.orientation))
        proposal = Grasp(p, anchor_dirs.directions[ref_idx], 0.0)
        refine = anchors_mod.assign_refine_labels(
            gt.grasp,
            proposal,
            **{k: settings[f"refine.{k}"] for k in ("d1", "d2", "beta1", "beta2", "gamma1", "gamma2")},
            c_b=c_b,
            gt_quality=gt.s_q,
        )
        rblock = refine.residuals.as_array() if refine.residuals is not None else np.zeros(8)
        refine_lines.append(
            ",".join([str(int(pi)), str(int(refine.y))] + [fmt(v) for v in rblock])
        )
        if args.regions:
            idx, padded = ball_query(cloud, p, radius=settings["region.radius"], keep=settings["region.keep"],
                                     seed=args.seed)
            region_lines.append(",".join([str(int(pi)), str(int(padded))] + [str(int(i)) for i in idx]))

    (out_dir / "anchor_labels.csv").write_text("\n".join(anchor_lines) + "\n")
    (out_dir / "refine_labels.csv").write_text("\n".join(refine_lines) + "\n")
    if args.regions:
        (out_dir / "regions.csv").write_text("\n".join(region_lines) + "\n")
    return 0


def _cmd_losscheck(args) -> int:
    settings = _settings(args)
    trials = _pick(args.trials, settings, "losscheck.trials")
    if trials < 1:
        raise ValueError(f"losscheck.trials must be >= 1, got {trials}")
    tol = settings["losscheck.tol"]
    h = args.h
    rng = np.random.default_rng(args.seed)
    worst: dict[str, float] = {}
    for name, fn, x0 in _losscheck_cases(rng, trials):
        base = name.split("[")[0]
        worst[base] = max(worst.get(base, 0.0), gradient_check(fn, x0, h))
    for t in range(trials):
        fn, x0 = _random_grn_case(rng)
        worst["grn"] = max(worst.get("grn", 0.0), gradient_check(fn, x0, h))
        fn, x0 = _random_rn_case(rng)
        worst["rn"] = max(worst.get("rn", 0.0), gradient_check(fn, x0, h))
    failed = False
    for name in sorted(worst):
        status = "ok" if worst[name] < tol else "FAIL"
        print(f"{name}: max relative error {worst[name]:.3e} [{status}]")
        failed |= worst[name] >= tol
    return 3 if failed else 0


def _cmd_select(args) -> int:
    scored = dataio.read_grasps(args.grasps)
    if not scored:
        raise ValueError(f"{args.grasps} contains no grasps")
    if args.policy == "heuristic":
        idx = heuristic_select(scored)
    else:
        policy = DEFAULT_POLICY
        if args.coeffs:
            policy = policy_from_mapping(dataio.read_config(args.coeffs))
        idx = analytic_select(scored, policy)
    print(dataio.grasp_row(scored[idx]))
    return 0


def _cmd_fit(args) -> int:
    xs, ys = dataio.read_xy(args.data)
    if args.mode == "linear":
        fit = fit_linear(xs, ys)
        text = f"slope = {fit.slope:.9g}\nintercept = {fit.intercept:.9g}\n"
    else:
        fit = fit_sigmoid(xs, ys, init=SigmoidFit(a=args.init_a, b=args.init_b))
        text = f"a = {fit.a:.9g}\nb = {fit.b:.9g}\n"
    Path(args.output).write_text(text)
    print(text, end="")
    return 0


def _cmd_eval(args) -> int:
    settings = _settings(args)
    scene = _load_cloud(args)
    if scene.normals is None:
        raise ValueError(f"{args.cloud} has no normals; run 'grasplab normals' first")
    scored = dataio.read_grasps(args.grasps)
    gt = dataio.read_grasps(args.gt)
    if not gt:
        raise ValueError(f"{args.gt} contains no ground-truth grasps")
    gripper = _parse_gripper(args.gripper)
    t0 = time.perf_counter()
    report = evaluate(
        scored,
        scene,
        [sg.grasp for sg in gt],
        gripper,
        pool=_pick(args.pool, settings, "eval.pool"),
        top=_pick(args.top, settings, "eval.top"),
    )
    elapsed = time.perf_counter() - t0
    print(dataio.format_report(report), end="")
    print(f"elapsed_s = {elapsed:.3f}", file=sys.stderr)
    if args.output:
        Path(args.output).write_text(dataio.report_csv(report))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
    common.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a default setting")
    common.add_argument("--config", help="key=value settings file")

    cloud_opts = argparse.ArgumentParser(add_help=False)
    cloud_opts.add_argument("--subsample", type=_positive_int, help="randomly keep this many input points (seeded)")

    parser = _Parser(prog="grasplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normals", parents=[common, cloud_opts], help="estimate and attach surface normals")
    p.add_argument("cloud")
    p.add_argument("-k", type=int, default=None, help="neighborhood size")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_normals)

    p = sub.add_parser("sample", parents=[common, cloud_opts], help="generate grasp candidates")
    p.add_argument("cloud")
    p.add_argument("--gripper", required=True, metavar="D,W,H,T")
    p.add_argument("--centers", type=int, default=None)
    p.add_argument("--orientations", type=int, default=None)
    p.add_argument("--angles", type=int, default=None)
    p.add_argument("--angle-range", type=float, default=None, dest="angle_range")
    p.add_argument("--knn", type=int, default=None, help="Darboux neighborhood size")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("collide", parents=[common, cloud_opts], help="drop candidates colliding with a scene")
    p.add_argument("cloud")
    p.add_argument("grasps")
    p.add_argument("--gripper", required=True, metavar="D,W,H,T")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_collide)

    p = sub.add_parser("score", parents=[common, cloud_opts], help="fill antipodal scores from contacts")
    p.add_argument("cloud")
    p.add_argument("grasps")
    p.add_argument("--gripper", required=True, metavar="D,W,H,T")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("confidence", parents=[common, cloud_opts], help="per-point grasp confidence field")
    p.add_argument("cloud")
    p.add_argument("grasps")
    p.add_argument("--dth", type=float, default=None, help="distance threshold (m)")
    p.add_argument("--width", type=float, default=None, help="gripper width metadata (m)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_confidence)

    p = sub.add_parser("labels", parents=[common], help="anchor and refine label files")
    p.add_argument("grasps")
    p.add_argument("--cloud", required=True, help="point cloud the confidence field aligns with")
    p.add_argument("--confidence", required=True, help="confidence field file")
    p.add_argument("--k1", type=int, default=None, help="number of positive points")
    p.add_argument("--anchors", type=int, default=None, help="number of anchor orientations")
    p.add_argument("--regions", action="store_true", help="also write ball-query region indices")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_labels)

    p = sub.add_parser("losscheck", parents=[common], help="finite-difference gradient checks")
    p.add_argument("--h", type=float, default=1e-6, help="central-difference step")
    p.add_argument("--trials", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_losscheck)

    p = sub.add_parser("select", parents=[common], help="pick the best grasp from a list")
    p.add_argument("grasps")
    p.add_argument("--policy", choices=("heuristic", "analytic"), default="analytic")
    p.add_argument("--coeffs", help="key=value file with a, b, slope, intercept")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("fit", parents=[common], help="fit policy coefficients from x,y samples")
    p.add_argument("data", help="CSV with header x,y")
    p.add_argument("--mode", choices=("sigmoid", "linear"), required=True)
    p.add_argument("--init-a", type=float, default=1.0, dest="init_a")
    p.add_argument("--init-b", type=float, default=0.5, dest="init_b")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", parents=[common, cloud_opts], help="evaluation report for a grasp set")
    p.add_argument("grasps")
    p.add_argument("cloud", help="scene cloud with normals")
    p.add_argument("gt", help="ground-truth grasp list")
    p.add_argument("--gripper", required=True, metavar="D,W,H,T")
    p.add_argument("--pool", type=_positive_int, default=None)
    p.add_argument("--top", type=_positive_int, default=None)
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"grasplab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
