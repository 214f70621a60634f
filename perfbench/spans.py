"""In-memory span recorder, layer wrappers and per-layer aggregation.

A span is ``[name, start_ns, end_ns, parent, attrs, error]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``attrs`` a dict of counts
taken where the work happened (or None), ``error`` the exception class name
when the wrapped call raised (or None).

Spans are recorded from the benchmark's side only: :func:`instrument`
replaces the public names each layer calls, at the module where the caller
looks them up (``irgaze.cli.observe_face``,
``irgaze.detection.connected_components``, ...), so no file of the package
changes.  Nothing is written until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import statistics
import time
from pathlib import Path

_now = time.perf_counter_ns


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, None, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None, error: str | None = None) -> None:
        span = self.spans[idx]
        span[2] = _now()
        span[4] = attrs
        span[5] = error
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def dump(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path: str | Path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _wrap(rec: Recorder, fn, name: str, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx, error=type(exc).__name__)
            raise
        rec.close(idx, attrs(args, out) if attrs else None)
        return out

    return wrapper


def _label_attrs(args, regions):
    return {"regions": len(regions), "fg_px": sum(r.area for r in regions)}


# (module where the caller looks the name up, attribute, span name, attrs)
WRAP_POINTS = (
    ("irgaze.cli", "decode_pgm", "imaging.decode_pgm", None),
    ("irgaze.cli", "observe_face", "detection.observe_face", None),
    ("irgaze.cli", "row_to_observation", "cli.row_to_observation", None),
    ("irgaze.synth", "render_scene", "synth.render_scene", None),
    ("irgaze.synth", "encode_pgm", "imaging.encode_pgm", None),
    ("irgaze.detection", "detect_markers", "detection.detect_markers", None),
    ("irgaze.detection", "extract_eye_roi", "detection.extract_eye_roi", None),
    ("irgaze.detection", "detect_pupil", "detection.detect_pupil", None),
    ("irgaze.detection", "validate_pupil_pair", "detection.validate_pupil_pair",
     lambda args, ok: {"consistent": ok}),
    ("irgaze.detection", "histogram_equalize", "imaging.equalize", None),
    ("irgaze.detection", "connected_components", "imaging.label", _label_attrs),
    ("irgaze.detection", "morphology", "imaging.morphology", None),
    ("irgaze.gaze", "select_closest", "gaze.select_closest",
     lambda args, out: {"vectors": sum(len(v) for v in args[0].by_corner.values())}),
    ("irgaze.gaze", "estimate_gaze_single_eye", "gaze.interpolate", None),
)


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, attrs in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(rec, original, name, attrs))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- aggregation ------------------------------------------------------------

def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are merged, not double-counted)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced round; names match BENCHMARK.json."""
    dur = [(s[2] - s[1]) / 1e6 for s in spans]  # ms
    self_ms = [t / 1e6 for t in self_times(spans)]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def parent_name(i: int) -> str:
        p = spans[i][3]
        return spans[p][0] if p >= 0 else ""

    def stage(i: int) -> str:
        while spans[i][3] >= 0:
            i = spans[i][3]
        return spans[i][0]

    def ms(name: str, where=lambda i: True) -> list[float]:
        return [dur[i] for i in by_name.get(name, ()) if where(i)]

    def stage_s(name: str) -> float:
        return statistics.median(ms(name)) / 1e3 if name in by_name else 0.0

    labels_marker = [i for i in by_name.get("imaging.label", ())
                     if parent_name(i) == "detection.detect_markers"]
    labels_pupil = [i for i in by_name.get("imaging.label", ())
                    if parent_name(i) == "detection.detect_pupil"]
    pupils = by_name.get("detection.detect_pupil", [])
    marker_regions = sum(spans[i][4]["regions"] for i in labels_marker)
    observe = ms("detection.observe_face")
    selects = by_name.get("gaze.select_closest", [])

    return {
        "cli.synth_s": stage_s("cli.synth"),
        "cli.detect_s": stage_s("cli.detect"),
        "cli.train_s": stage_s("cli.train"),
        "cli.estimate_s": stage_s("cli.estimate"),
        "cli.evaluate_s": stage_s("cli.evaluate"),
        "cli.row_to_observation_us": 1e3 * _mean(
            ms("cli.row_to_observation", lambda i: stage(i) == "cli.estimate")),
        "synth.render_scene_ms": _mean(ms("synth.render_scene")),
        "imaging.encode_pgm_ms": _mean(ms("imaging.encode_pgm")),
        "imaging.decode_pgm_ms": _mean(ms("imaging.decode_pgm")),
        "imaging.equalize_frame_ms": _mean(ms(
            "imaging.equalize", lambda i: parent_name(i) == "detection.detect_markers")),
        "imaging.equalize_roi_ms": _mean(ms(
            "imaging.equalize", lambda i: parent_name(i) == "detection.detect_pupil")),
        "imaging.label_marker_ms": _mean([dur[i] for i in labels_marker]),
        "imaging.label_marker_regions": _mean(
            [spans[i][4]["regions"] for i in labels_marker]),
        "imaging.label_marker_fg_px": _mean([spans[i][4]["fg_px"] for i in labels_marker]),
        "imaging.label_pupil_ms": _mean([dur[i] for i in labels_pupil]),
        "imaging.morphology_ms": _mean(ms("imaging.morphology")),
        "detection.observe_face_ms_p50": statistics.median(observe) if observe else 0.0,
        "detection.observe_face_ms_p90": _p90(observe),
        "detection.detect_markers_self_ms": _mean(
            [self_ms[i] for i in by_name.get("detection.detect_markers", ())]),
        "detection.extract_eye_roi_ms": _mean(ms("detection.extract_eye_roi")),
        "detection.detect_pupil_ms": _mean([dur[i] for i in pupils]),
        "detection.ladder_steps": len(labels_pupil) / len(pupils) if pupils else 0.0,
        "detection.marker_useful_ratio": (
            3 * len(labels_marker) / marker_regions if marker_regions else 0.0),
        "detection.pupil_failed": sum(1 for i in pupils if spans[i][5] is not None),
        "detection.pair_drops": sum(
            1 for i in by_name.get("detection.validate_pupil_pair", ())
            if spans[i][4] is not None and not spans[i][4]["consistent"]),
        "gaze.select_closest_us": 1e3 * _mean([dur[i] for i in selects]),
        "gaze.vectors_scored": _mean([spans[i][4]["vectors"] for i in selects]),
        "gaze.interpolate_us": 1e3 * _mean(ms("gaze.interpolate")),
    }
