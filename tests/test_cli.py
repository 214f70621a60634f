import csv
import json
from pathlib import Path

import numpy as np
import pytest

from irgaze.cli import main
from irgaze.imaging import GrayImage, encode_pgm


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
    black.write_bytes(encode_pgm(GrayImage(np.zeros((120, 160), dtype=np.uint8))))
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
    black.write_bytes(encode_pgm(GrayImage(np.zeros((40, 40), dtype=np.uint8))))
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
