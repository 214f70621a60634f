import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from irgaze.cli import main
from irgaze.imaging import encode_pgm


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth->detect->train->estimate->evaluate run, shared."""
    root = tmp_path_factory.mktemp("pipeline")
    ds = root / "ds"
    argsets = [
        ["synth", "--out", str(ds), "--poses", "2", "--points", "4",
         "--training-repeats", "1", "--seed", "77"],
        ["detect", "--manifest", str(ds / "manifest.json"),
         "--out", str(root / "obs.jsonl")],
        ["train", "--observations", str(root / "obs.jsonl"),
         "--manifest", str(ds / "manifest.json"), "--out", str(root / "train.json")],
        ["estimate", "--observations", str(root / "obs.jsonl"),
         "--training-set", str(root / "train.json"), "--out", str(root / "est.csv")],
        ["evaluate", "--estimates", str(root / "est.csv"),
         "--manifest", str(ds / "manifest.json"), "--out", str(root / "report")],
    ]
    for argv in argsets:
        assert main(argv) == 0, argv
    return root


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def test_synth_poses_points_counts(tmp_path):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--poses", "1", "--points", "4"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    eval_frames = [f for f in manifest["frames"] if f["role"] == "evaluation"]
    assert len(eval_frames) == 4


def test_synth_invalid_output_path(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    bad = blocker / "nested"
    assert main(["synth", "--out", str(bad), "--poses", "1", "--points", "1"]) == 1
    assert str(bad) in capsys.readouterr().err


def test_detect_output_accounts_for_every_frame(pipeline):
    manifest = json.loads((pipeline / "ds" / "manifest.json").read_text())
    rows = read_jsonl(pipeline / "obs.jsonl")
    assert {r["frame"] for r in rows} == {Path(f["file"]).stem for f in manifest["frames"]}
    assert [r["frame"] for r in rows] == sorted(r["frame"] for r in rows)
    assert all(r["ok"] for r in rows)


def test_detect_records_failures_as_rows(pipeline, tmp_path):
    black = tmp_path / "black.pgm"
    black.write_bytes(encode_pgm(np.zeros((120, 160), dtype=np.uint8)))
    out = tmp_path / "obs.jsonl"
    code = main(["detect", str(black),
                 "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(out)])
    assert code == 0  # other frames succeeded
    rows = {r["frame"]: r for r in read_jsonl(out)}
    assert rows["black"]["ok"] is False
    assert rows["black"]["error"] == "TooFewComponents"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_detect_missing_frame_is_an_error_row(pipeline, tmp_path, jobs):
    good = next((pipeline / "ds").glob("*.pgm"))
    out = tmp_path / "x.jsonl"
    code = main(["detect", str(tmp_path / "nothere.pgm"), str(good),
                 "--out", str(out), "--jobs", jobs])
    assert code == 0
    rows = {r["frame"]: r for r in read_jsonl(out)}
    assert set(rows) == {"nothere", good.stem}
    assert rows["nothere"]["ok"] is False
    assert rows["nothere"]["error"] == "FileNotFoundError"
    assert rows[good.stem]["ok"] is True


def test_detect_all_failures_exit_code(tmp_path):
    black = tmp_path / "black.pgm"
    black.write_bytes(encode_pgm(np.zeros((40, 40), dtype=np.uint8)))
    assert main(["detect", str(black), "--out", str(tmp_path / "o.jsonl")]) == 1


def test_detect_rerun_is_byte_identical(pipeline, tmp_path):
    out = tmp_path / "obs2.jsonl"
    assert main(["detect", "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (pipeline / "obs.jsonl").read_bytes()


def test_detect_parallel_matches_serial(pipeline, tmp_path):
    out = tmp_path / "obs-j2.jsonl"
    assert main(["detect", "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(out), "--jobs", "2"]) == 0
    assert out.read_bytes() == (pipeline / "obs.jsonl").read_bytes()


def test_train_writes_training_set(pipeline):
    doc = json.loads((pipeline / "train.json").read_text())
    assert set(doc["corners"]) == {"1", "2", "3", "4"}
    assert all(len(v) == 2 for v in doc["corners"].values())  # 2 poses x 1 repeat


def test_train_missing_corner_fails(pipeline, tmp_path, capsys):
    manifest = json.loads((pipeline / "ds" / "manifest.json").read_text())
    manifest["frames"] = [
        f for f in manifest["frames"]
        if not (f["role"] == "training" and f.get("corner") == 3)
    ]
    crippled = tmp_path / "manifest.json"
    crippled.write_text(json.dumps(manifest))
    code = main(["train", "--observations", str(pipeline / "obs.jsonl"),
                 "--manifest", str(crippled), "--out", str(tmp_path / "t.json")])
    assert code == 1
    assert "corner 3" in capsys.readouterr().err


def test_estimate_rows_and_weights(pipeline):
    with open(pipeline / "est.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    obs = read_jsonl(pipeline / "obs.jsonl")
    assert len(rows) == len(obs)
    for row in rows:
        assert row["error"] == ""
        assert row["eyes_used"] == "both"
        assert float(row["right_w"]) == pytest.approx(min(1, max(0, float(row["right_w"]))))


def test_estimate_empty_observations_gives_header_only(tmp_path, pipeline):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "est.csv"
    assert main(["estimate", "--observations", str(empty),
                 "--training-set", str(pipeline / "train.json"),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("frame,x_g,y_g,eyes_used")


def test_estimate_single_eye_row(tmp_path, pipeline):
    rows = read_jsonl(pipeline / "obs.jsonl")
    target = next(r for r in rows if r["frame"].startswith("eval"))
    target = json.loads(json.dumps(target))
    target["pupils"]["left"] = None
    single = tmp_path / "one.jsonl"
    single.write_text(json.dumps(target) + "\n")
    out = tmp_path / "est.csv"
    assert main(["estimate", "--observations", str(single),
                 "--training-set", str(pipeline / "train.json"),
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["eyes_used"] == "right"
    assert row["left_alpha"] == ""
    assert row["right_alpha"] != ""


def test_evaluate_report_shape_and_percentages(pipeline):
    with open(pipeline / "report" / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "est", "AVG", "STD"]
    assert [r[0] for r in rows[1:]] == [str(n) for n in range(2, 11)]
    for r in rows[1:]:
        assert 0.0 <= float(r[1]) <= 100.0
    detail = (pipeline / "report" / "details_est.csv").read_text().splitlines()
    assert detail[0] == "frame,dx,dy"
    assert len(detail) == 1 + 8  # 2 poses x 4 evaluation points


def test_evaluate_details_stay_within_2cm_for_matched_poses(pipeline):
    with open(pipeline / "report" / "details_est.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert abs(float(row["dx"])) <= 2.0
        assert abs(float(row["dy"])) <= 2.0


def test_evaluate_zero_error_estimates_scores_100(tmp_path, pipeline):
    manifest = json.loads((pipeline / "ds" / "manifest.json").read_text())
    est = tmp_path / "perfect.csv"
    with open(est, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "x_g", "y_g", "eyes_used", "error"])
        for f in manifest["frames"]:
            if f["role"] == "evaluation":
                writer.writerow([Path(f["file"]).stem, f["gaze"][0], f["gaze"][1],
                                 "both", ""])
    out = tmp_path / "rep"
    assert main(["evaluate", "--estimates", str(est),
                 "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(out)]) == 0
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(r[1] == "100.0" for r in rows[1:])


def test_evaluate_boundary_case_at_table_level(tmp_path, pipeline):
    manifest = json.loads((pipeline / "ds" / "manifest.json").read_text())
    frame = next(f for f in manifest["frames"] if f["role"] == "evaluation")
    est = tmp_path / "edge.csv"
    with open(est, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "x_g", "y_g", "eyes_used", "error"])
        # dx exactly Lx/(2*5) = 6.0: incorrect at N=5 (strict), correct at N<=4
        writer.writerow([Path(frame["file"]).stem,
                         frame["gaze"][0] + 6.0, frame["gaze"][1], "both", ""])
    out = tmp_path / "rep"
    assert main(["evaluate", "--estimates", str(est),
                 "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(out)]) == 0
    with open(out / "report.csv", newline="") as fh:
        table = {int(r[0]): float(r[1]) for r in list(csv.reader(fh))[1:]}
    assert table[4] == 100.0
    assert table[5] == 0.0


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": "euclidean", "typo_key": 1}))
    code = main(["synth", "--out", str(tmp_path / "ds"), "--config", str(cfg),
                 "--poses", "1", "--points", "1"])
    assert code == 2
    assert "typo_key" in capsys.readouterr().err


def test_nested_config_override_and_unknown_nested_key(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"synth": {"noise_sigma": 0.0}, "seed": 5}))
    assert main(["synth", "--out", str(tmp_path / "ds"), "--config", str(good),
                 "--poses", "1", "--points", "1"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"synth": {"noise": 0.0}}))
    assert main(["synth", "--out", str(tmp_path / "ds2"), "--config", str(bad),
                 "--poses", "1", "--points", "1"]) == 2
    assert "synth.noise" in capsys.readouterr().err


def test_full_pipeline_determinism(tmp_path):
    outputs = []
    for name in ("run1", "run2"):
        root = tmp_path / name
        ds = root / "ds"
        assert main(["synth", "--out", str(ds), "--poses", "2", "--points", "3",
                     "--training-repeats", "1", "--seed", "2024"]) == 0
        assert main(["detect", "--manifest", str(ds / "manifest.json"),
                     "--out", str(root / "obs.jsonl")]) == 0
        assert main(["train", "--observations", str(root / "obs.jsonl"),
                     "--manifest", str(ds / "manifest.json"),
                     "--out", str(root / "train.json")]) == 0
        assert main(["estimate", "--observations", str(root / "obs.jsonl"),
                     "--training-set", str(root / "train.json"),
                     "--out", str(root / "est.csv")]) == 0
        assert main(["evaluate", "--estimates", str(root / "est.csv"),
                     "--manifest", str(ds / "manifest.json"),
                     "--out", str(root / "report")]) == 0
        outputs.append({
            "manifest": (ds / "manifest.json").read_bytes(),
            "obs": (root / "obs.jsonl").read_bytes(),
            "train": (root / "train.json").read_bytes(),
            "est": (root / "est.csv").read_bytes(),
            "report": (root / "report" / "report.csv").read_bytes(),
            "details": (root / "report" / "details_est.csv").read_bytes(),
        })
    assert outputs[0] == outputs[1]


# --- flags and config ---------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["synth", "--out", "d", "--eq10-variant", "literal"],
    ["synth", "--out", "d", "--jobs", "2"],
    ["detect", "x.pgm", "--out", "o.jsonl", "--metric", "euclidean"],
    ["train", "--observations", "o", "--manifest", "m", "--out", "t", "--jobs", "2"],
    ["estimate", "--observations", "o", "--training-set", "t", "--out", "e",
     "--metric", "euclidean"],
    ["evaluate", "--estimates", "e", "--manifest", "m", "--out", "r", "--jobs", "7"],
    ["evaluate", "--estimates", "e", "--manifest", "m", "--out", "r",
     "--eq10-variant", "literal"],
])
def test_stage_rejects_flags_it_does_not_read(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_every_stage_takes_config_and_seed(pipeline, tmp_path):
    """The benchmark's argv: one "--config C --seed S" prefix on all five
    stages.  Only synth reads the seed, so this reruns the fixture exactly."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    common = ["--config", str(cfg), "--seed", "77"]
    ds, man = tmp_path / "ds", str(tmp_path / "ds" / "manifest.json")
    obs, ts, est = (str(tmp_path / n) for n in ("obs.jsonl", "train.json", "est.csv"))
    for argv in (
        ["synth", *common, "--out", str(ds), "--poses", "2", "--points", "4",
         "--training-repeats", "1"],
        ["detect", *common, "--jobs", "1", "--manifest", man, "--out", obs],
        ["train", *common, "--observations", obs, "--manifest", man, "--out", ts],
        ["estimate", *common, "--observations", obs, "--training-set", ts, "--out", est],
        ["evaluate", *common, "--estimates", est, "--manifest", man,
         "--out", str(tmp_path / "report")],
    ):
        assert main(argv) == 0, argv
    for name in ("ds/manifest.json", "obs.jsonl", "train.json", "est.csv",
                 "report/report.csv"):
        assert (tmp_path / name).read_bytes() == (pipeline / name).read_bytes(), name


@pytest.mark.parametrize("override, named", [
    ({"detect": {"top_n": 462}}, "detect.top_n"),
    ({"detect": {"expected_pupil_diameter": 10.0}}, "detect.expected_pupil_diameter"),
    ({"detect": {"cleanup": "close"}}, "detect.cleanup"),
    ({"detect": {"max_retries": -1}}, "max_retries"),
    ({"jobs": "2"}, "jobs"),
    ({"jobs": True}, "jobs"),
    ({"metric": "cosine"}, "metric"),
    ({"detect": {"expected_marker_area": float("inf")}}, "expected_marker_area"),
    ({"jobs": 0}, "jobs"),
])
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, override, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    assert main(["detect", "--config", str(cfg), str(tmp_path / "x.pgm"),
                 "--out", str(tmp_path / "o.jsonl")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_detect_rejects_jobs_below_1_from_the_flag(pipeline, tmp_path, capsys, jobs):
    frame = next((pipeline / "ds").glob("*.pgm"))
    out = tmp_path / "o.jsonl"
    assert main(["detect", str(frame), "--out", str(out), "--jobs", jobs]) == 2
    assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_rejects_an_empty_grid_range(pipeline, tmp_path, capsys):
    assert main(["evaluate", "--estimates", str(pipeline / "est.csv"),
                 "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(tmp_path / "r"), "--n-min", "5", "--n-max", "3"]) == 2
    assert "grid_n_min" in capsys.readouterr().err


def test_config_accepts_an_int_where_a_float_is_expected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"noise_sigma": 0, "blur_sigma": 1}}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ds"),
                 "--poses", "1", "--points", "1"]) == 0


# --- input files ----------------------------------------------------------------

def test_detect_rejects_duplicate_frame_ids(tmp_path, capsys):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "x.pgm")
        paths[-1].write_bytes(encode_pgm(np.zeros((40, 40), dtype=np.uint8)))
    out = tmp_path / "o.jsonl"
    assert main(["detect", *map(str, paths), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(paths[0]) in err and str(paths[1]) in err
    assert not out.exists()


def test_train_truncated_observations_names_file_and_line(pipeline, tmp_path, capsys):
    lines = (pipeline / "obs.jsonl").read_text().splitlines()
    truncated = tmp_path / "obs.jsonl"
    truncated.write_text("\n".join(lines[:2] + [lines[2][: len(lines[2]) // 2]]) + "\n")
    assert main(["train", "--observations", str(truncated),
                 "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(tmp_path / "t.json")]) == 2
    assert f"{truncated}:3" in capsys.readouterr().err


def _drop_middle_marker(row):
    del row["markers"]["middle"]


def _number_the_frame(row):
    row["frame"] = 5


def _nan_middle_marker(row):
    row["markers"]["middle"][0] = float("nan")


def _infinite_left_pupil(row):
    row["pupils"]["left"]["point"][1] = float("-inf")


def _fail_without_an_error(row):
    """Once read, estimate and train stopped on an AttributeError traceback."""
    row.update(ok=False, error=None)


@pytest.mark.parametrize("spoil, named", [
    (_drop_middle_marker, "missing field 'middle'"),
    (_number_the_frame, "frame must be a string"),
    (_nan_middle_marker, "malformed field: markers.middle must be finite"),
    (_infinite_left_pupil, "malformed field: pupils.left.point must be finite"),
    (_fail_without_an_error, "malformed field: error of a failed frame must be a string"),
])
def test_estimate_bad_observation_names_line_and_field(pipeline, tmp_path, capsys,
                                                        spoil, named):
    rows = read_jsonl(pipeline / "obs.jsonl")
    spoil(rows[1])
    bad = tmp_path / "obs.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["estimate", "--observations", str(bad),
                 "--training-set", str(pipeline / "train.json"),
                 "--out", str(tmp_path / "e.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2" in err and named in err


def _keep_an_empty_screen(doc):
    doc.clear()
    doc["screen"] = {}


def _nan_into_corner_1(doc):
    """json.dumps writes the bare NaN that train wrote for a NaN
    observation; once read, every estimate came out as nan."""
    for vector in doc["corners"]["1"]:
        vector["x_mm"] = float("nan")


def _left_marker_onto_middle(doc):
    """One corner-2 vector whose marker triangle has a zero edge: once read,
    it made every congruency estimate fail with DegenerateTriangle."""
    vector = doc["corners"]["2"][0]
    vector["x_ml"], vector["y_ml"] = vector["x_mm"], vector["y_mm"]


@pytest.mark.parametrize("spoil, named", [
    pytest.param(_keep_an_empty_screen, "missing field 'corners'", id="doc0-corners"),
    pytest.param(lambda doc: doc["screen"].pop("Lx"), "screen: missing field 'Lx'",
                 id="None-Lx"),
    pytest.param(lambda doc: doc["corners"]["3"][0].pop("y_pl"),
                 "corners.3.0: missing field 'y_pl'", id="vector-y_pl"),
    pytest.param(lambda doc: doc["corners"].pop("2"), "corners: missing field '2'",
                 id="corner-2"),
    pytest.param(_left_marker_onto_middle,
                 "corners.2.0: malformed field: marker triangle has an edge under 1e-9",
                 id="degenerate-2.0"),
    pytest.param(_nan_into_corner_1, "corners.1.0: malformed field: x_mm must be finite",
                 id="nan-1.0"),
    pytest.param(lambda doc: doc["screen"].update(Lx=float("inf")),
                 "screen: malformed field: screen extents and corner targets must be finite",
                 id="infinite-Lx"),
])
def test_estimate_bad_training_set_names_the_field(pipeline, tmp_path, capsys, spoil, named):
    doc = json.loads((pipeline / "train.json").read_text())
    spoil(doc)
    bad = tmp_path / "ts.json"
    bad.write_text(json.dumps(doc))
    assert main(["estimate", "--observations", str(pipeline / "obs.jsonl"),
                 "--training-set", str(bad), "--out", str(tmp_path / "e.csv")]) == 2
    assert f"{bad}: {named}" in capsys.readouterr().err


def test_evaluate_rejects_estimates_sharing_a_name(pipeline, tmp_path, capsys):
    """Both files would be reported as dataset "est": two report columns of
    one name, and one details_est.csv for both."""
    first, second = pipeline / "est.csv", tmp_path / "b" / "est.csv"
    second.parent.mkdir()
    second.write_bytes(first.read_bytes())
    man = str(pipeline / "ds" / "manifest.json")
    out = tmp_path / "r"
    assert main(["evaluate", "--estimates", str(first), "--manifest", man,
                 "--estimates", str(second), "--manifest", man, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(first) in err and str(second) in err
    assert not out.exists()


def test_evaluate_needs_one_manifest_per_estimates_file(pipeline, tmp_path, capsys):
    est, man = str(pipeline / "est.csv"), str(pipeline / "ds" / "manifest.json")
    out = tmp_path / "r"
    assert main(["evaluate", "--estimates", est, "--manifest", man, "--manifest", man,
                 "--out", str(out)]) == 2
    assert "give one --manifest per --estimates, got 1 and 2" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_manifest_missing_gaze_names_the_field(pipeline, tmp_path, capsys):
    manifest = json.loads((pipeline / "ds" / "manifest.json").read_text())
    i = next(i for i, f in enumerate(manifest["frames"]) if f["role"] == "evaluation")
    del manifest["frames"][i]["gaze"]
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    assert main(["evaluate", "--estimates", str(pipeline / "est.csv"),
                 "--manifest", str(bad), "--out", str(tmp_path / "r")]) == 2
    assert f"frames.{i}: missing field 'gaze'" in capsys.readouterr().err


def _spoiled_manifest(pipeline, tmp_path, spoil):
    manifest = json.loads((pipeline / "ds" / "manifest.json").read_text())
    spoil(manifest)
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    return bad


@pytest.mark.parametrize("stage", ["train", "evaluate"])
def test_manifest_with_an_infinite_screen_names_the_field(pipeline, tmp_path, capsys, stage):
    """An infinite Lx once let evaluate score every estimate correct."""
    bad = _spoiled_manifest(pipeline, tmp_path,
                            lambda doc: doc["screen"].update(Lx=float("inf")))
    out = str(tmp_path / "out")
    argv = (["train", "--observations", str(pipeline / "obs.jsonl"), "--manifest", str(bad),
             "--out", out] if stage == "train" else
            ["evaluate", "--estimates", str(pipeline / "est.csv"), "--manifest", str(bad),
             "--out", out])
    assert main(argv) == 2
    assert (f"{bad}: screen: malformed field: screen extents and corner targets "
            "must be finite") in capsys.readouterr().err


def test_evaluate_manifest_nan_gaze_names_the_frame(pipeline, tmp_path, capsys):
    """A NaN gaze point once scored its frame wrong at every N, exit 0."""
    manifest = json.loads((pipeline / "ds" / "manifest.json").read_text())
    i = next(i for i, f in enumerate(manifest["frames"]) if f["role"] == "evaluation")

    def spoil(doc):
        doc["frames"][i]["gaze"] = [float("nan"), 30.0]

    bad = _spoiled_manifest(pipeline, tmp_path, spoil)
    assert main(["evaluate", "--estimates", str(pipeline / "est.csv"),
                 "--manifest", str(bad), "--out", str(tmp_path / "r")]) == 2
    assert (f"{bad}: frames.{i}: malformed field: gaze must be finite, got [nan, 30.0]"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field, value", [("x_g", "nan"), ("y_g", "inf")])
def test_evaluate_non_finite_estimate_names_the_line(pipeline, tmp_path, capsys, field,
                                                     value):
    """A nan x_g on one row and an inf y_g on another once made evaluate
    report 98.7% at every N, exit 0."""
    with open(pipeline / "est.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    i = next(i for i, row in enumerate(rows) if row["x_g"] and not row["error"])
    rows[i][field] = value
    bad = tmp_path / "est.csv"
    with open(bad, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "r"
    assert main(["evaluate", "--estimates", str(bad),
                 "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(out)]) == 2
    assert (f"{bad}:{i + 2}: malformed field: {field} must be finite, got {value}"
            in capsys.readouterr().err)
    assert not (out / "report.csv").exists()


def _repeat_first_evaluation_frame(doc):
    """The same frame id under another file, with another gaze point."""
    first = next(f for f in doc["frames"] if f["role"] == "evaluation")
    doc["frames"].append(dict(first, file="sub/" + first["file"],
                              gaze=[first["gaze"][0] + 7.0, first["gaze"][1]]))
    return doc["frames"].index(first), len(doc["frames"]) - 1, first["file"]


@pytest.mark.parametrize("stage", ["train", "evaluate"])
def test_manifest_repeating_a_frame_id_names_both_entries(pipeline, tmp_path, capsys,
                                                           stage):
    """Two entries for one frame once made evaluate score the joined
    estimate against either gaze point, 75.0% where 100% is right, exit 0."""
    found = []
    bad = _spoiled_manifest(pipeline, tmp_path,
                            lambda doc: found.extend(_repeat_first_evaluation_frame(doc)))
    i, j, file = found
    out = str(tmp_path / "out")
    argv = (["train", "--observations", str(pipeline / "obs.jsonl"), "--manifest", str(bad),
             "--out", out] if stage == "train" else
            ["evaluate", "--estimates", str(pipeline / "est.csv"), "--manifest", str(bad),
             "--out", out])
    assert main(argv) == 2
    assert (f"frame id {Path(file).stem!r} names both {bad}: frames.{i} ({file}) and "
            f"{bad}: frames.{j} (sub/{file})") in capsys.readouterr().err


@pytest.mark.parametrize("corner", [True, 1.0, "1"])
def test_train_manifest_corner_must_be_an_integer(pipeline, tmp_path, capsys, corner):
    """A JSON true (or 1.0) equals 1 in Python and once trained as corner 1."""
    manifest = json.loads((pipeline / "ds" / "manifest.json").read_text())
    i = next(i for i, f in enumerate(manifest["frames"]) if f["role"] == "training")

    def spoil(doc):
        doc["frames"][i]["corner"] = corner

    bad = _spoiled_manifest(pipeline, tmp_path, spoil)
    assert main(["train", "--observations", str(pipeline / "obs.jsonl"),
                 "--manifest", str(bad), "--out", str(tmp_path / "t.json")]) == 2
    assert (f"{bad}: frames.{i}: malformed field: corner must be an integer, got {corner!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("stage", ["train", "estimate"])
def test_observations_repeating_a_frame_name_both_lines(pipeline, tmp_path, capsys, stage):
    """A repeated line once gave estimate a duplicated row and counted a
    training frame twice."""
    lines = (pipeline / "obs.jsonl").read_text().splitlines()
    bad = tmp_path / "obs.jsonl"
    bad.write_text("\n".join(lines + [lines[1]]) + "\n")
    out = str(tmp_path / "out")
    argv = (["train", "--observations", str(bad),
             "--manifest", str(pipeline / "ds" / "manifest.json"), "--out", out]
            if stage == "train" else
            ["estimate", "--observations", str(bad),
             "--training-set", str(pipeline / "train.json"), "--out", out])
    assert main(argv) == 2
    frame = json.loads(lines[1])["frame"]
    assert (f"frame id {frame!r} names both {bad}:2 and {bad}:{len(lines) + 1}"
            in capsys.readouterr().err)


def test_evaluate_estimates_repeating_a_frame_name_both_rows(pipeline, tmp_path, capsys):
    lines = (pipeline / "est.csv").read_text().splitlines()
    bad = tmp_path / "est.csv"
    bad.write_text("\n".join(lines + [lines[2]]) + "\n")
    assert main(["evaluate", "--estimates", str(bad),
                 "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(tmp_path / "r")]) == 2
    frame = lines[2].split(",")[0]
    assert (f"frame id {frame!r} names both {bad}:3 and {bad}:{len(lines) + 1}"
            in capsys.readouterr().err)


def test_evaluate_estimates_without_columns_names_the_file(pipeline, tmp_path, capsys):
    bad = tmp_path / "est.csv"
    bad.write_text("frame,x\nf,1\n")
    assert main(["evaluate", "--estimates", str(bad),
                 "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(tmp_path / "r")]) == 2
    assert f"{bad}: missing field 'error'" in capsys.readouterr().err


def test_artifacts_match_their_schemas(pipeline):
    import jsonschema

    schemas = Path(__file__).resolve().parent.parent / "schemas"
    for doc, schema in (("ds/manifest.json", "manifest.schema.json"),
                        ("train.json", "training_set.schema.json")):
        jsonschema.validate(json.loads((pipeline / doc).read_text()),
                            json.loads((schemas / schema).read_text()))


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """A small dataset and its observations: 2 poses, 3 evaluation points,
    3 training frames per pose and corner.  The two metrics pick different
    vectors on it, so all four estimate files differ."""
    root = tmp_path_factory.mktemp("observed")
    ds = root / "ds"
    assert main(["synth", "--out", str(ds), "--poses", "2", "--points", "3",
                 "--training-repeats", "3", "--seed", "77"]) == 0
    assert main(["detect", "--manifest", str(ds / "manifest.json"),
                 "--out", str(root / "obs.jsonl")]) == 0
    return root


# Digests taken when each training vector was still an object of five
# Points; ts.json and est.csv must keep these bytes.
@pytest.mark.parametrize("metric, weighting, ts_digest, est_digest", [
    ("congruency", "corrected",
     "00a98b399880d535397faffbdb31e0edd459fb0d94f48d70767ba286f98b530a",
     "59efc5dcd32fe9f6c061974266b05fadfcf9183d1fba29adcbaef82fa154ad23"),
    ("congruency", "literal",
     "00a98b399880d535397faffbdb31e0edd459fb0d94f48d70767ba286f98b530a",
     "246fd9252f348c39227230fb121ed8f9a4368b645cf87e179e77e8f394ff9ae4"),
    ("euclidean", "corrected",
     "8e29e981158712056c3ce81d9eb0bf18ad0a349be1175e848959122820f3dde0",
     "cec9da66fdd9fc72440f363eafce6a112474ef4973315d5cd2ec386f2b0f2be3"),
    ("euclidean", "literal",
     "8e29e981158712056c3ce81d9eb0bf18ad0a349be1175e848959122820f3dde0",
     "0d961e2271834561e9d8fe40d589b7cd5d4abd7876bf03bb4b6b03e3c329ce62"),
])
def test_training_set_and_estimate_bytes_are_pinned(observed, tmp_path, metric, weighting,
                                                    ts_digest, est_digest):
    obs, ts, est = str(observed / "obs.jsonl"), tmp_path / "ts.json", tmp_path / "est.csv"
    assert main(["train", "--metric", metric, "--observations", obs,
                 "--manifest", str(observed / "ds" / "manifest.json"),
                 "--out", str(ts)]) == 0
    assert main(["estimate", "--eq10-variant", weighting, "--observations", obs,
                 "--training-set", str(ts), "--out", str(est)]) == 0
    assert hashlib.sha256(ts.read_bytes()).hexdigest() == ts_digest
    assert hashlib.sha256(est.read_bytes()).hexdigest() == est_digest


# Digests taken with the row-by-row labeler; detect must keep these bytes.
def test_observation_bytes_are_pinned(observed):
    digest = hashlib.sha256((observed / "obs.jsonl").read_bytes()).hexdigest()
    assert digest == "e44538893a0ab4e89188c2b3cf0837cbbcc3ac039e45f64d41208c0dcb1bbf17"


def test_hires_observation_bytes_are_pinned(tmp_path):
    """At 1280x1024 the marker mask saturates: about 2.5k regions a frame."""
    cfg, ds, obs = tmp_path / "cfg.json", tmp_path / "ds", tmp_path / "obs.jsonl"
    cfg.write_text(json.dumps({"synth": {"width": 1280, "height": 1024}}))
    assert main(["synth", "--config", str(cfg), "--out", str(ds), "--poses", "1",
                 "--points", "3", "--training-repeats", "1", "--seed", "5"]) == 0
    assert main(["detect", "--manifest", str(ds / "manifest.json"), "--out", str(obs)]) == 0
    digest = hashlib.sha256(obs.read_bytes()).hexdigest()
    assert digest == "7a21f72d4dd2c3f5e97e21a5d4a35fc32ecb9b2f50cf539c4b05018d785b821d"
