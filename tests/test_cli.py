import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from irgaze.cli import CONFIG_DEFAULTS, STAGE_FLAGS, main
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


def _stage_argv(pipeline, stage: str) -> list[str]:
    """The fixture's argv of ``stage``, less its --out."""
    man, obs = str(pipeline / "ds" / "manifest.json"), str(pipeline / "obs.jsonl")
    return {
        "synth": ["synth", "--poses", "1", "--points", "1"],
        "detect": ["detect", "--manifest", man],
        "train": ["train", "--observations", obs, "--manifest", man],
        "estimate": ["estimate", "--observations", obs,
                     "--training-set", str(pipeline / "train.json")],
        "evaluate": ["evaluate", "--estimates", str(pipeline / "est.csv"), "--manifest", man],
    }[stage]


@pytest.mark.parametrize("stage", list(STAGE_FLAGS))
def test_invalid_output_path(pipeline, tmp_path, capsys, stage):
    """Only synth once caught this; the other stages exited 1 with a
    NotADirectoryError traceback."""
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    bad = blocker / "nested"
    assert main([*_stage_argv(pipeline, stage), "--out", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error: cannot write" in err and str(bad) in err


@pytest.mark.parametrize("how", ["flag", "config"])
def test_synth_negative_seed_exits_2_naming_it(tmp_path, capsys, how):
    """A negative seed once failed in numpy's SeedSequence with a traceback,
    after the output directory was made."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    seed = ["--seed", "-1"] if how == "flag" else ["--config", str(cfg)]
    out = tmp_path / "ds"
    assert main(["synth", *seed, "--out", str(out), "--poses", "1", "--points", "1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


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
    ["evaluate", "--estimates", "e", "--manifest", "m", "--out", "r", "--n-max", "5"],
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
    ({"detect": {"eccentricity_max": 0.5}}, "detect.eccentricity_max"),
    ({"detect": {"high_mean_weight": 2.0}}, "detect.high_mean_weight"),
    ({"detect": {"pupil_diameter_fraction": 0.1}}, "detect.pupil_diameter_fraction"),
    ({"detect": {"pair_tolerance_floor": 0.02}}, "detect.pair_tolerance_floor"),
    ({"screen": {"training_targets": "corners"}}, "screen.training_targets"),
    ({"grid_n_min": 2}, "grid_n_min"),
    ({"grid_n_max": 10}, "grid_n_max"),
    # Finite, but 3 x area is inf, which has no integer top_n.
    ({"detect": {"expected_marker_area": 1e308}}, "config detect: expected_marker_area"),
    # An int key had no range test: 10**400 reached synth as a traceback.
    ({"synth": {"width": 10**400}}, "config key 'synth.width' must be finite"),
])
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, override, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    assert main(["detect", "--config", str(cfg), str(tmp_path / "x.pgm"),
                 "--out", str(tmp_path / "o.jsonl")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o.jsonl").exists()


def test_readme_config_table_lists_every_key():
    def leaves(section, prefix=""):
        for key, value in section.items():
            if isinstance(value, dict):
                yield from leaves(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### Run configuration")[1].split("\n###")[0]
    documented = re.findall(r"^\| `([\w.]+)` \|", table, flags=re.MULTILINE)
    assert sorted(documented) == sorted(leaves(CONFIG_DEFAULTS))


def test_readme_stage_flags_table_lists_every_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = re.split(r"^\| stage +\| own flags.*$", readme, flags=re.MULTILINE)[1]
    table = table.split("\n\n")[0]
    rows = re.findall(r"^\| (\w+) +\|(.*)\|$", table, flags=re.MULTILINE)
    documented = {stage: re.findall(r"`(--[\w-]+)", flags) for stage, flags in rows}
    assert documented == {stage: [flag for flag, _, _ in flags]
                          for stage, flags in STAGE_FLAGS.items()}


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_detect_rejects_jobs_below_1_from_the_flag(pipeline, tmp_path, capsys, jobs):
    frame = next((pipeline / "ds").glob("*.pgm"))
    out = tmp_path / "o.jsonl"
    assert main(["detect", str(frame), "--out", str(out), "--jobs", jobs]) == 2
    assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's worker count
    and maps in this process."""

    built: list[int] = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("n_frames, built", [(2, [2]), (1, [])])
def test_detect_starts_no_more_workers_than_frames(pipeline, tmp_path, monkeypatch,
                                                   n_frames, built):
    monkeypatch.setattr("irgaze.cli.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "built", [])
    frames = [str(p) for p in sorted((pipeline / "ds").glob("*.pgm"))[:n_frames]]
    serial, pooled = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
    assert main(["detect", *frames, "--out", str(serial)]) == 0
    assert main(["detect", *frames, "--out", str(pooled), "--jobs", "64"]) == 0
    assert _RecordingPool.built == built
    assert pooled.read_bytes() == serial.read_bytes()


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


def _left_pupil(field, value):
    """Set the left pupil's ``field``; an area or eccentricity like these was
    once read without a check, and train and estimate exited 0."""
    def spoil(row):
        row["pupils"]["left"][field] = value
    return spoil


@pytest.mark.parametrize("spoil, named", [
    (_drop_middle_marker, "missing field 'middle'"),
    (_number_the_frame, "frame must be a string"),
    (_nan_middle_marker, "malformed field: markers.middle must be finite"),
    (_infinite_left_pupil, "malformed field: pupils.left.point must be finite"),
    (_fail_without_an_error, "malformed field: error of a failed frame must be a string"),
    *((_left_pupil("area", bad), f"malformed field: pupils.left.area must be a positive int, "
       f"got {bad!r}") for bad in ("x", None, float("nan"), -3, 0, 2.0, True)),
    *((_left_pupil("eccentricity", bad), f"malformed field: pupils.left.eccentricity must be "
       f"finite, got {bad!r}") for bad in ("x", None, float("nan"), float("inf"), True)),
    *((_left_pupil("eccentricity", bad), f"malformed field: pupils.left.eccentricity must lie "
       f"in [0, 1], got {bad!r}") for bad in (-3, -0.5, 1.5)),
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
    pytest.param(lambda doc: doc["corners"]["3"][0].update(x_pl="12.5"),
                 "corners.3.0: malformed field: x_pl must be finite, got '12.5'",
                 id="string-x_pl"),
    pytest.param(lambda doc: doc["screen"].update(Lx="60.0"),
                 "screen: malformed field: screen extents must be finite, got ['60.0', 60.0]",
                 id="string-Lx"),
    pytest.param(lambda doc: doc["screen"].update(Lx=float("inf")),
                 "screen: malformed field: screen extents must be finite",
                 id="infinite-Lx"),
    pytest.param(lambda doc: doc["screen"]["corners"][1].__setitem__(0, 50.0),
                 "screen: malformed field: corner targets must be the screen's corners",
                 id="other-corners"),
    pytest.param(lambda doc: doc["screen"]["corners"][3].__setitem__(1, float("nan")),
                 "screen: malformed field: corner targets must be the screen's corners",
                 id="nan-corner"),
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


def test_evaluate_estimates_sharing_no_frame_with_the_manifest(pipeline, tmp_path, capsys):
    """Such a file once exited 1 after creating an empty report directory."""
    est = tmp_path / "est.csv"
    est.write_text((pipeline / "est.csv").read_text().replace("eval_", "zzz_"))
    man, out = str(pipeline / "ds" / "manifest.json"), tmp_path / "r"
    assert main(["evaluate", "--estimates", str(est), "--manifest", man,
                 "--out", str(out)]) == 2
    assert f"{est} shares no evaluation frame with {man}" in capsys.readouterr().err
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
    err = capsys.readouterr().err
    assert f"{bad}: screen: malformed field: screen extents must be finite" in err


@pytest.mark.parametrize("stage", ["train", "evaluate"])
def test_manifest_with_a_numeric_string_extent_names_the_screen(pipeline, tmp_path, capsys,
                                                                stage):
    """float() once read "60.0" as a number, so both stages ran on it."""
    bad = _spoiled_manifest(pipeline, tmp_path, lambda doc: doc["screen"].update(Lx="60.0"))
    argv = [*_stage_argv(pipeline, stage), "--out", str(tmp_path / "out")]
    argv[argv.index("--manifest") + 1] = str(bad)
    assert main(argv) == 2
    assert (f"{bad}: screen: malformed field: screen extents must be finite, got "
            "['60.0', 60.0]") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage", ["train", "evaluate"])
@pytest.mark.parametrize("spoil", [
    pytest.param(lambda doc: doc["screen"]["corners"].reverse(), id="reversed"),
    pytest.param(lambda doc: doc["screen"]["corners"][0].__setitem__(1, 50.0), id="inside"),
    pytest.param(lambda doc: doc["screen"]["corners"][2].__setitem__(0, float("nan")),
                 id="nan"),
])
def test_manifest_with_other_corner_targets_names_the_screen(pipeline, tmp_path, capsys,
                                                             stage, spoil):
    """The training targets are the screen's corners; a file claiming
    others is refused, never read as if it held the corners."""
    bad = _spoiled_manifest(pipeline, tmp_path, spoil)
    argv = [*_stage_argv(pipeline, stage), "--out", str(tmp_path / "out")]
    argv[argv.index("--manifest") + 1] = str(bad)
    assert main(argv) == 2
    assert (f"{bad}: screen: malformed field: corner targets must be the screen's "
            "corners") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


# Digests taken with exact integer region moments; detect must keep these bytes.
def test_observation_bytes_are_pinned(observed):
    digest = hashlib.sha256((observed / "obs.jsonl").read_bytes()).hexdigest()
    assert digest == "c42da5ccfedc5d618c0274ccffda76afb01c5b8ceaf9e65f2ac1f39e9cd5e2ee"


def test_hires_observation_bytes_are_pinned(tmp_path):
    """At 1280x1024 the marker mask saturates: about 2.5k regions a frame."""
    cfg, ds, obs = tmp_path / "cfg.json", tmp_path / "ds", tmp_path / "obs.jsonl"
    cfg.write_text(json.dumps({"synth": {"width": 1280, "height": 1024}}))
    assert main(["synth", "--config", str(cfg), "--out", str(ds), "--poses", "1",
                 "--points", "3", "--training-repeats", "1", "--seed", "5"]) == 0
    assert main(["detect", "--manifest", str(ds / "manifest.json"), "--out", str(obs)]) == 0
    digest = hashlib.sha256(obs.read_bytes()).hexdigest()
    assert digest == "3e7c9d0bff6983682237af2f5665de8b118576282650200cade051aef63b797c"


def test_non_default_screen_bytes_are_pinned(tmp_path):
    """A 52 x 33.5 screen from the config, an int extent among them: the
    manifest writes it as given, and every stage scores against it."""
    cfg, ds = tmp_path / "cfg.json", tmp_path / "ds"
    cfg.write_text(json.dumps({"screen": {"width_cm": 52, "height_cm": 33.5}}))
    man, obs = str(ds / "manifest.json"), str(tmp_path / "obs.jsonl")
    ts, est = str(tmp_path / "ts.json"), str(tmp_path / "est.csv")
    for argv in (
        ["synth", "--config", str(cfg), "--out", str(ds), "--poses", "2", "--points", "3",
         "--training-repeats", "3", "--seed", "77"],
        ["detect", "--manifest", man, "--out", obs],
        ["train", "--observations", obs, "--manifest", man, "--out", ts],
        ["estimate", "--observations", obs, "--training-set", ts, "--out", est],
        ["evaluate", "--estimates", est, "--manifest", man, "--out", str(tmp_path / "report")],
    ):
        assert main(argv) == 0, argv
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("ds/manifest.json", "ts.json", "est.csv", "report/report.csv")}
    assert digests == {
        "ds/manifest.json": "67d7da0d3d67e89b3c438aba92835e004122a11078d08977638da7ee23dfde2c",
        "ts.json": "64b88f57a5458a575b1e99683c83a133846c2439bf9b5f103d6f3529afd69b34",
        "est.csv": "725515b49591f29fbb99eb344178cd4c95d6471908ccbfa3ec82e04b7aa50907",
        "report/report.csv": "43caa974ac8a059dad25a7d8dc480e4c4ca55a306bbfde7f6222a68da10b8fc5",
    }


# --- integers beyond float range ------------------------------------------------

HUGE = 10**400  # json.dumps writes it as a bare integer; float() overflows on it


def _huge_gaze_in_manifest(pipeline, tmp_path):
    doc = json.loads((pipeline / "ds" / "manifest.json").read_text())
    i = next(i for i, f in enumerate(doc["frames"]) if f["role"] == "evaluation")
    doc["frames"][i]["gaze"][0] = HUGE
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    return (["detect", "--manifest", str(bad), "--out", str(tmp_path / "out")],
            f"{bad}: frames.{i}: malformed field: gaze must be finite")


def _huge_marker_in_observations(pipeline, tmp_path):
    rows = read_jsonl(pipeline / "obs.jsonl")
    rows[1]["markers"]["middle"][0] = HUGE
    bad = tmp_path / "obs.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return (["train", "--observations", str(bad),
             "--manifest", str(pipeline / "ds" / "manifest.json"),
             "--out", str(tmp_path / "out")],
            f"{bad}:2: malformed field: markers.middle must be finite")


def _huge_pupil_in_training_set(pipeline, tmp_path):
    doc = json.loads((pipeline / "train.json").read_text())
    doc["corners"]["3"][0]["y_pl"] = HUGE
    bad = tmp_path / "ts.json"
    bad.write_text(json.dumps(doc))
    return (["estimate", "--observations", str(pipeline / "obs.jsonl"),
             "--training-set", str(bad), "--out", str(tmp_path / "out")],
            f"{bad}: corners.3.0: malformed field")


def _huge_noise_sigma_in_config(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"noise_sigma": HUGE}}))
    return (["synth", "--config", str(cfg), "--out", str(tmp_path / "out"),
             "--poses", "1", "--points", "1"],
            "config key 'synth.noise_sigma' must be finite")


def _huge_width_in_config(pipeline, tmp_path):
    """An int key had no range test: this ended in default_poses as an
    OverflowError traceback, exit 1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"width": HUGE}}))
    return (["synth", "--config", str(cfg), "--out", str(tmp_path / "out")],
            "config key 'synth.width' must be finite")


def _huge_seed_in_config(pipeline, tmp_path):
    """numpy's SeedSequence takes it, but it is no JSON number a reader of
    the config can count on."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": HUGE}))
    return (["synth", "--config", str(cfg), "--out", str(tmp_path / "out"),
             "--poses", "1", "--points", "1"],
            "config key 'seed' must be finite")


def _overlong_noise_sigma_in_config(pipeline, tmp_path):
    """Past 4300 digits json.loads itself raises a plain ValueError."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"synth": {"noise_sigma": ' + "9" * 5000 + "}}")
    return (["synth", "--config", str(cfg), "--out", str(tmp_path / "out")],
            f"config {cfg} is not valid JSON")


@pytest.mark.parametrize("spoil", [_huge_gaze_in_manifest, _huge_marker_in_observations,
                                   _huge_pupil_in_training_set, _huge_noise_sigma_in_config,
                                   _overlong_noise_sigma_in_config, _huge_width_in_config,
                                   _huge_seed_in_config])
def test_integer_beyond_float_range_exits_2_naming_the_field(pipeline, tmp_path, capsys,
                                                             spoil):
    argv, named = spoil(pipeline, tmp_path)
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("blur", [
    pytest.param(1e308, id="1e308"),  # math.ceil(3 x blur) overflowed
    pytest.param(1e300, id="1e300"),  # numpy could not allocate the kernel
    pytest.param(213.34, id="past-bound"),  # 3 x blur > 640, the longer side
])
def test_synth_huge_blur_sigma_exits_2_before_writing(tmp_path, capsys, blur):
    """Both huge values once ended in a traceback, exit 1, after --out was made."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"blur_sigma": blur}}))
    out = tmp_path / "ds"
    assert main(["synth", "--config", str(cfg), "--out", str(out),
                 "--poses", "1", "--points", "1"]) == 2
    assert "config synth: the blur radius, 3 x blur_sigma, must be at most" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flag, key", [
    *((flag, key) for flags in STAGE_FLAGS.values() for flag, key, options in flags
      if options.get("type") is int),
    ("--seed", "seed"),
])
def test_flag_beyond_float_range_exits_2_as_its_config_key_does(tmp_path, capsys, flag, key):
    """Flag values once reached the run settings unchecked: a 400-digit
    --seed or --training-repeats wrote a dataset, and a 400-digit
    --training-repeats with poses to render ran without end."""
    argv = (["detect", str(tmp_path / "x.pgm")] if flag == "--jobs"
            else ["synth", "--poses", "0"])
    section, _, leaf = key.rpartition(".")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {leaf: HUGE}} if section else {leaf: HUGE}))
    errors = []
    for setting in ([flag, str(HUGE)], ["--config", str(cfg)]):
        assert main([*argv, *setting, "--out", str(tmp_path / "out")]) == 2
        errors.append(capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
    assert errors == [f"error: config key {key!r} must be finite, got {HUGE!r}\n"] * 2


def test_synth_frame_beyond_one_array_exits_2_before_writing(tmp_path, capsys):
    """numpy once refused the noise buffers with a traceback, exit 1, after
    --out was made."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"width": 10**17}}))
    out = tmp_path / "ds"
    assert main(["synth", "--config", str(cfg), "--out", str(out), "--poses", "1",
                 "--points", "1", "--training-repeats", "0"]) == 2
    assert "config synth: width x height must be at most" in capsys.readouterr().err
    assert not out.exists()


def test_synth_beyond_the_frame_bound_exits_2_before_writing(tmp_path, capsys):
    """A huge but finite --training-repeats once built the frame plan
    without end after --out was made."""
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--poses", "1", "--points", "0",
                 "--training-repeats", "1000000000000"]) == 2
    assert ("config synth: the dataset must plan at most 100000 frames, got 4000000000000"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["train", "--metric", "congruency"], id="train-congruency"),
    pytest.param(["train", "--metric", "euclidean"], id="train-euclidean"),
    pytest.param(["estimate", "--training-set", "{root}/train.json"], id="estimate"),
])
def test_observation_with_a_degenerate_marker_triangle_names_its_line(pipeline, tmp_path,
                                                                      capsys, argv):
    """train once wrote such a row into a training set that estimate then
    refused; estimate made it an error row under congruency only."""
    rows = read_jsonl(pipeline / "obs.jsonl")
    lineno = next(i for i, r in enumerate(rows, 1) if r["frame"] == "train_p0_c2_r0")
    rows[lineno - 1]["markers"]["middle"] = rows[lineno - 1]["markers"]["right"]
    bad = tmp_path / "obs.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    argv = [a.format(root=pipeline) for a in argv]
    if argv[0] == "train":
        argv += ["--manifest", str(pipeline / "ds" / "manifest.json")]
    assert main([*argv, "--observations", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert (f"{bad}:{lineno}: malformed field: marker triangle has an edge under 1e-9"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_estimate_gaze_that_is_not_finite_is_an_error_row(pipeline, tmp_path, capsys):
    """Once written as x_g = nan and counted as made; evaluate then refused
    the estimates file."""
    rows = read_jsonl(pipeline / "obs.jsonl")
    row = next(r for r in rows if r["frame"].startswith("eval_"))
    row["pupils"]["right"]["point"] = [1e308, 1e308]
    row["pupils"]["left"]["point"] = [-1e308, 1e308]
    obs, est = tmp_path / "obs.jsonl", tmp_path / "est.csv"
    obs.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["estimate", "--observations", str(obs),
                 "--training-set", str(pipeline / "train.json"), "--out", str(est)]) == 0
    assert f"{len(rows) - 1}/{len(rows)} estimates" in capsys.readouterr().out
    with open(est, newline="") as fh:
        written = {r["frame"]: r for r in csv.DictReader(fh)}[row["frame"]]
    assert (written["x_g"], written["error"]) == ("", "NoUsableEye")
    assert main(["evaluate", "--estimates", str(est),
                 "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(tmp_path / "report")]) == 0
