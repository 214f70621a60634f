"""The benchmark's per-layer figures come from wrappers installed on names
the package looks up at call time (``perfbench/spans.py``).  A refactor that
stops calling one of them would leave its figure reading 0 without any
error, so one small synth -> estimate run must reach every one."""

import importlib.util
from pathlib import Path

from irgaze.cli import main

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_fires_on_a_small_pipeline(tmp_path):
    spans = _spans_module()
    ds, obs, ts = tmp_path / "ds", tmp_path / "obs.jsonl", tmp_path / "ts.json"
    man = str(ds / "manifest.json")
    rec = spans.Recorder()
    with spans.instrument(rec):
        for argv in (
            ["synth", "--out", str(ds), "--poses", "1", "--points", "2",
             "--training-repeats", "1", "--seed", "1"],
            ["detect", "--manifest", man, "--out", str(obs)],
            ["train", "--observations", str(obs), "--manifest", man, "--out", str(ts)],
            ["estimate", "--observations", str(obs), "--training-set", str(ts),
             "--out", str(tmp_path / "est.csv")],
        ):
            assert main(argv) == 0, argv

    names = [span[0] for span in rec.spans]
    assert {name for _, _, name, _ in spans.WRAP_POINTS} <= set(names)
    label_callers = {rec.spans[span[3]][0] for span in rec.spans
                     if span[0] == "imaging.label"}
    assert {"detection.detect_markers", "detection.detect_pupil"} <= label_callers

    # The trace is written as JSON lines, which take plain Python numbers
    # only: a numpy scalar in a span's counts would make the dump raise.
    trace = tmp_path / "trace.jsonl"
    rec.dump(trace)
    assert spans.load_spans(trace) == rec.spans
    labels = [span[4] for span in rec.spans if span[0] == "imaging.label"]
    assert labels and all(type(attrs["regions"]) is int and type(attrs["fg_px"]) is int
                          for attrs in labels)
