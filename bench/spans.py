"""Spans around calls into grasplab's layers, recorded from outside the package.

Each public function is wrapped at the name its caller looks up (for
example `grasplab.metrics.check_collision`, which `evaluate` reaches
through the metrics module's globals), so the program itself is not
edited. A span records its name, start, end, parent span and counts taken
from the call's arguments and return value. Spans stay in memory until
the benchmark writes them out. A target that no longer exists is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1            # index into Tracer.spans, -1 for a root
    scene: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module whose global the caller looks up, attribute, span name, counts from
# (args, kwargs, result)). Counts read positional arguments as the CLI passes them.
TARGETS = [
    ("grasplab.dataio", "read_point_cloud", "dataio.read_point_cloud",
     lambda a, k, r: {"bytes_read": os.path.getsize(a[0])}),
    ("grasplab.dataio", "write_point_cloud", "dataio.write_point_cloud",
     lambda a, k, r: {"bytes_written": os.path.getsize(a[0])}),
    ("grasplab.dataio", "read_grasps", "dataio.read_grasps",
     lambda a, k, r: {"bytes_read": os.path.getsize(a[0])}),
    ("grasplab.dataio", "write_grasps", "dataio.write_grasps",
     lambda a, k, r: {"bytes_written": os.path.getsize(a[0])}),
    ("grasplab.dataio", "read_confidence", "dataio.read_confidence",
     lambda a, k, r: {"bytes_read": os.path.getsize(a[0])}),
    ("grasplab.dataio", "write_confidence", "dataio.write_confidence",
     lambda a, k, r: {"bytes_written": os.path.getsize(a[0])}),
    ("grasplab.cli", "estimate_normals", "sampling.estimate_normals",
     lambda a, k, r: {"points": len(a[0]), "invalid": int((~r[1]).sum())}),
    ("grasplab.cli", "sample_candidates", "sampling.sample_candidates",
     lambda a, k, r: {"candidates": len(r)}),
    ("grasplab.cli", "ball_query", "sampling.ball_query",
     lambda a, k, r: {"padded": int(bool(r[1]))}),
    ("grasplab.cli", "filter_collision_free", "collision.filter_collision_free",
     lambda a, k, r: {"in": len(a[0]), "free": len(r)}),
    ("grasplab.metrics", "filter_collision_free", "collision.filter_collision_free",
     lambda a, k, r: {"in": len(a[0]), "free": len(r)}),
    ("grasplab.metrics", "check_collision", "collision.check_collision",
     lambda a, k, r: {"hits": int(bool(r))}),
    ("grasplab.cli", "find_contacts", "contact.find_contacts",
     lambda a, k, r: {"pairs": int(r is not None)}),
    ("grasplab.metrics", "find_contacts", "contact.find_contacts",
     lambda a, k, r: {"pairs": int(r is not None)}),
    ("grasplab.cli", "antipodal_score", "contact.antipodal_score", None),
    ("grasplab.metrics", "antipodal_score", "contact.antipodal_score", None),
    ("grasplab.cli", "point_confidence", "confidence.point_confidence",
     lambda a, k, r: {"nonzero": int((r.values > 0.0).sum())}),
    ("grasplab.cli", "select_positive_points", "confidence.select_positive_points", None),
    ("grasplab.anchors", "assign_anchor_labels", "anchors.assign_anchor_labels",
     lambda a, k, r: {"positive": int(r.positive_index is not None)}),
    ("grasplab.anchors", "complete_label", "anchors.complete_label", None),
    ("grasplab.anchors", "assign_refine_labels", "anchors.assign_refine_labels",
     lambda a, k, r: {"positive": int(r.y == 1), "ignored": int(r.y == -1)}),
    ("grasplab.cli", "evaluate", "metrics.evaluate", None),
    ("grasplab.metrics", "select_for_eval", "metrics.select_for_eval",
     lambda a, k, r: {"selected": len(r)}),
    ("grasplab.metrics", "antipodal_metrics", "metrics.antipodal_metrics", None),
    ("grasplab.metrics", "cfr", "metrics.cfr", None),
    ("grasplab.metrics", "coverage_rate", "metrics.coverage_rate", None),
    ("grasplab.collision", "grasp_frame", "core.grasp_frame", None),
    ("grasplab.contact", "grasp_frame", "core.grasp_frame", None),
]


class Tracer:
    """Collects spans; `install` patches TARGETS for the life of a with-block."""

    def __init__(self):
        self.spans: list[Span] = []
        self.scene = 0
        self.absent: list[str] = []      # targets the last install found missing
        self.uncounted: set[str] = set() # targets whose counts could not be read
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        s = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1, scene=self.scene)
        self.spans.append(s)
        stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    s.counts["raised"] = s.counts.get("raised", 0) + 1
                    raise
                if counter is not None:
                    try:
                        s.counts.update(counter(args, kwargs, result))
                    except Exception:  # a changed signature must not stop the run
                        self.uncounted.add(name)
                return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self, targets=TARGETS):
        patched = []
        self.absent = []
        try:
            for module_name, attr, name, counter in targets:
                try:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self.wrap(fn, name, counter))
                patched.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _total(spans, name, key=None):
    return sum((s.counts.get(key, 0) if key else s.duration) for s in spans if s.name == name)


def _calls(spans, name):
    return sum(1 for s in spans if s.name == name)


def _ratio(num, den):
    return num / den if den else 0.0


def scene_layer_metrics(spans: list[Span], own: list[float]) -> dict:
    """Per-layer metrics of one scene; `own` holds the matching self times.

    A `_s` metric is the inclusive time of the named spans, a `_self_s`
    metric the time no wrapped callee accounts for. A layer the scene never
    reaches reports 0.
    """
    t = lambda n, k=None: _total(spans, n, k)
    m = {}
    for cmd in ("normals", "sample", "collide", "score", "confidence", "labels", "eval"):
        m[f"cli.{cmd}_s"] = t(f"cli.{cmd}")
    m["cli.labels_self_s"] = sum(o for s, o in zip(spans, own) if s.name == "cli.labels")

    reads = ("dataio.read_point_cloud", "dataio.read_grasps", "dataio.read_confidence")
    writes = ("dataio.write_point_cloud", "dataio.write_grasps", "dataio.write_confidence")
    m["dataio.read_cloud_s"] = t("dataio.read_point_cloud")
    m["dataio.write_cloud_s"] = t("dataio.write_point_cloud")
    m["dataio.grasps_io_s"] = t("dataio.read_grasps") + t("dataio.write_grasps")
    m["dataio.confidence_io_s"] = t("dataio.read_confidence") + t("dataio.write_confidence")
    m["dataio.cloud_reads"] = _calls(spans, "dataio.read_point_cloud")
    m["dataio.bytes_read"] = sum(t(n, "bytes_read") for n in reads)
    m["dataio.bytes_written"] = sum(t(n, "bytes_written") for n in writes)
    m["dataio.read_cloud_mb_per_s"] = _ratio(t("dataio.read_point_cloud", "bytes_read") / 1e6,
                                             m["dataio.read_cloud_s"])

    m["sampling.estimate_normals_s"] = t("sampling.estimate_normals")
    m["sampling.normals_points"] = t("sampling.estimate_normals", "points")
    m["sampling.normals_invalid"] = t("sampling.estimate_normals", "invalid")
    m["sampling.sample_candidates_s"] = t("sampling.sample_candidates")
    m["sampling.candidates"] = t("sampling.sample_candidates", "candidates")
    m["sampling.ball_query_s"] = t("sampling.ball_query")
    m["sampling.ball_query_calls"] = _calls(spans, "sampling.ball_query")
    m["sampling.ball_query_padded"] = t("sampling.ball_query", "padded")
    m["sampling.ball_query_empty"] = t("sampling.ball_query", "raised")

    m["collision.filter_s"] = t("collision.filter_collision_free")
    m["collision.filter_in"] = t("collision.filter_collision_free", "in")
    m["collision.filter_free"] = t("collision.filter_collision_free", "free")
    m["collision.free_ratio"] = _ratio(m["collision.filter_free"], m["collision.filter_in"])
    m["collision.filter_us_per_grasp"] = _ratio(m["collision.filter_s"] * 1e6, m["collision.filter_in"])
    m["collision.check_s"] = t("collision.check_collision")
    m["collision.check_calls"] = _calls(spans, "collision.check_collision")
    m["collision.check_hits"] = t("collision.check_collision", "hits")

    m["contact.find_contacts_s"] = t("contact.find_contacts")
    m["contact.find_contacts_calls"] = _calls(spans, "contact.find_contacts")
    m["contact.pairs_found"] = t("contact.find_contacts", "pairs")
    m["contact.pair_ratio"] = _ratio(m["contact.pairs_found"], m["contact.find_contacts_calls"])
    m["contact.antipodal_score_s"] = t("contact.antipodal_score")

    m["confidence.point_confidence_s"] = t("confidence.point_confidence")
    m["confidence.nonzero_points"] = t("confidence.point_confidence", "nonzero")
    m["confidence.select_positive_s"] = t("confidence.select_positive_points")

    m["anchors.anchor_labels_s"] = t("anchors.assign_anchor_labels") + t("anchors.complete_label")
    m["anchors.anchor_calls"] = _calls(spans, "anchors.assign_anchor_labels")
    m["anchors.anchor_positive"] = t("anchors.assign_anchor_labels", "positive")
    m["anchors.refine_labels_s"] = t("anchors.assign_refine_labels")
    m["anchors.refine_positive"] = t("anchors.assign_refine_labels", "positive")
    m["anchors.refine_ignored"] = t("anchors.assign_refine_labels", "ignored")

    m["metrics.evaluate_s"] = t("metrics.evaluate")
    m["metrics.select_for_eval_s"] = t("metrics.select_for_eval")
    m["metrics.selected"] = t("metrics.select_for_eval", "selected")
    m["metrics.antipodal_metrics_s"] = t("metrics.antipodal_metrics")
    m["metrics.cfr_s"] = t("metrics.cfr")
    m["metrics.coverage_s"] = t("metrics.coverage_rate")
    m["metrics.collision_checks"] = m["collision.check_calls"]
    m["metrics.evaluate_self_s"] = sum(o for s, o in zip(spans, own) if s.name == "metrics.evaluate")

    m["core.frames_built"] = _calls(spans, "core.grasp_frame")
    m["core.frame_s"] = t("core.grasp_frame")
    return m


def unit_of(name: str) -> str:
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_us_per_grasp", "us"), ("_s", "s"), ("_ratio", "ratio"),
                         ("bytes_read", "B"), ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics over all traced scenes.

    Counts and count ratios come from the first traced scene (the pinned
    reference scene), so they repeat exactly from run to run; times and
    rates are medians over the traced scenes.
    """
    own = self_times(tracer.spans)
    by_scene: dict[int, tuple[list, list]] = {}
    for s, o in zip(tracer.spans, own):
        spans, owns = by_scene.setdefault(s.scene, ([], []))
        spans.append(s)
        owns.append(o)
    per_scene = [scene_layer_metrics(*by_scene[k]) for k in sorted(by_scene)]
    out = {}
    for name in per_scene[0]:
        unit = unit_of(name)
        if unit in ("count", "ratio", "B"):
            out[name] = per_scene[0][name]
        else:
            out[name] = statistics.median(m[name] for m in per_scene)
    return out
