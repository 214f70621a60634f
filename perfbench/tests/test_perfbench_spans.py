"""Span bookkeeping: self time, the recorder, the wrappers and aggregation."""

import pytest

import spans
from spans import Recorder, instrument, layer_metrics, self_times


def span(name, start, end, parent, attrs=None, error=None):
    return [name, start, end, parent, attrs, error]


def test_self_time_of_hand_built_nested_spans():
    s = [
        span("root", 0, 100, -1),       # children cover 10-40 and 50-60
        span("a", 10, 40, 0),           # child covers 15-25 and 20-30 (overlap)
        span("a1", 15, 25, 1),
        span("a2", 20, 30, 1),
        span("b", 50, 60, 0),           # leaf
        span("other", 200, 250, -1),    # second top-level span, no children
    ]
    assert self_times(s) == [60, 15, 10, 10, 10, 50]


def test_self_time_clips_children_to_the_parent():
    s = [span("p", 10, 20, -1), span("c", 5, 15, 0)]
    assert self_times(s) == [5, 10]


def test_recorder_nests_and_wrappers_mark_errors():
    def bad():
        raise KeyError("x")

    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with pytest.raises(KeyError):
            spans._wrap(rec, bad, "bad")()
    names = [(s[0], s[3], s[5]) for s in rec.spans]
    assert names == [("outer", -1, None), ("inner", 0, None), ("bad", 0, "KeyError")]
    assert all(s[1] <= s[2] for s in rec.spans)


def test_instrument_wraps_and_restores_the_lookup_points():
    import irgaze.detection as detection

    original = detection.connected_components
    rec = Recorder()
    with instrument(rec):
        assert detection.connected_components is not original
    assert detection.connected_components is original


def test_layer_metrics_attributes_labels_to_their_caller():
    ms = 1_000_000
    s = [
        span("cli.detect", 0, 100 * ms, -1),
        span("detection.observe_face", 0, 50 * ms, 0),
        span("detection.detect_markers", 0, 20 * ms, 1),
        span("imaging.equalize", 0, 4 * ms, 2),
        span("imaging.label", 5 * ms, 15 * ms, 2, {"regions": 6, "fg_px": 600}),
        span("detection.detect_pupil", 20 * ms, 30 * ms, 1),
        span("imaging.label", 21 * ms, 23 * ms, 5, {"regions": 2, "fg_px": 30}),
        span("imaging.label", 24 * ms, 26 * ms, 5, {"regions": 1, "fg_px": 20}),
        span("detection.detect_pupil", 30 * ms, 40 * ms, 1, None, "NoPupilFound"),
        span("imaging.label", 31 * ms, 33 * ms, 8, {"regions": 0, "fg_px": 0}),
    ]
    m = layer_metrics(s)
    assert m["cli.detect_s"] == pytest.approx(0.1)
    assert m["imaging.label_marker_ms"] == pytest.approx(10.0)
    assert m["imaging.label_marker_regions"] == 6
    assert m["imaging.label_pupil_ms"] == pytest.approx(2.0)
    assert m["detection.detect_markers_self_ms"] == pytest.approx(6.0)
    assert m["detection.ladder_steps"] == pytest.approx(1.5)
    assert m["detection.marker_useful_ratio"] == pytest.approx(0.5)
    assert m["detection.pupil_failed"] == 1
    assert set(m) | {"trace.overhead_s"} == set(_per_layer_names())


def _per_layer_names():
    import json
    from pathlib import Path

    bench = json.loads((Path(spans.__file__).parent.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer"]]
