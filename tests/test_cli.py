import csv
import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from irgaze.cli import (
    CONFIG_CHOICES,
    CONFIG_DEFAULTS,
    STAGE_FLAGS,
    _read_observations,
    main,
    observation_to_row,
)
from irgaze.imaging import encode_pgm
from irgaze.synth import DatasetSpec, default_poses


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
    ({"synth": 5}, "config key 'synth' must be an object"),
    ([1, 2], "config must be an object, got [1, 2]"),
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
    cells = {stage: re.findall(r"`(--[\w-]+) ?([^`]*)`", flags) for stage, flags in rows}
    assert {stage: [flag for flag, _ in cell] for stage, cell in cells.items()} == {
        stage: [flag for flag, _, _ in flags] for stage, flags in STAGE_FLAGS.items()}
    # A value list such as `--metric congruency\|euclidean` names the key's choices.
    listed = {flag: tuple(values.split("\\|")) for cell in cells.values()
              for flag, values in cell if re.fullmatch(r"\w+(\\\|\w+)*", values)}
    assert listed == {flag: CONFIG_CHOICES[key] for flags in STAGE_FLAGS.values()
                      for flag, key, _ in flags if key in CONFIG_CHOICES}


def _with_config(tmp_path, doc) -> list[str]:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return ["--config", str(cfg)]


def _readme_ts_without_y_pl(pipeline, tmp_path):
    ts = tmp_path / "ts.json"
    ts.write_text(_spoiled_text(pipeline / "train.json",
                                lambda doc: doc["corners"]["3"][0].pop("y_pl")))
    return ["estimate", "--observations", str(pipeline / "obs.jsonl"), "--training-set", str(ts),
            "--out", str(tmp_path / "e.csv")]


def _readme_manifest_with_entry_7_a_number(pipeline, tmp_path):
    bad = _spoiled_manifest(pipeline, tmp_path, lambda doc: doc["frames"].__setitem__(7, 5))
    return ["train", "--observations", str(pipeline / "obs.jsonl"), "--manifest", str(bad),
            "--out", str(tmp_path / "t.json")]


def _readme_unwritable_out(pipeline, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    return [*_stage_argv(pipeline, "train"), "--out", str(blocker / "t.json")]


# Each error message the README's CLI section quotes: the exit code and the
# argv of a run that writes it.  A <...> or "..." in a quote stands for any text.
README_MESSAGES = {
    "config key 'jobs' must be an integer, got '2'": (2, lambda pipeline, tmp_path: [
        "detect", *_with_config(tmp_path, {"jobs": "2"}), "--out", str(tmp_path / "o")]),
    "config key 'screen.width_cm' must be a number, got '60'": (2, lambda pipeline, tmp_path: [
        "synth", *_with_config(tmp_path, {"screen": {"width_cm": "60"}}),
        "--out", str(tmp_path / "ds")]),
    "config key 'metric' must be one of ('congruency', 'euclidean')": (
        2, lambda pipeline, tmp_path: [*_stage_argv(pipeline, "train"), "--metric", "foo",
                                       "--out", str(tmp_path / "t.json")]),
    "config key 'synth.training_repeats' must be finite, got ...": (
        2, lambda pipeline, tmp_path: ["synth", "--training-repeats", str(HUGE),
                                       "--out", str(tmp_path / "ds")]),
    "config <file>: malformed field: config must be an object, got [1, 2]": (
        2, lambda pipeline, tmp_path: ["detect", *_with_config(tmp_path, [1, 2]),
                                       "--out", str(tmp_path / "o")]),
    "ts.json: corners.3.0: missing field 'y_pl'": (2, _readme_ts_without_y_pl),
    "manifest.json: frames.7: malformed field: entry must be an object, got 5": (
        2, _readme_manifest_with_entry_7_a_number),
    "error: cannot write <--out>: <reason>": (1, _readme_unwritable_out),
    "error: no input frames (give --manifest or PGM paths)": (
        1, lambda pipeline, tmp_path: ["detect", "--out", str(tmp_path / "o")]),
    "unknown config key 'detect.max_retries'": (2, lambda pipeline, tmp_path: [
        "detect", *_with_config(tmp_path, {"detect": {"max_retries": 5}}),
        "--out", str(tmp_path / "o")]),
    "unknown config key '<key>'": (2, lambda pipeline, tmp_path: [
        "detect", *_with_config(tmp_path, {"grid_n_min": 2}), "--out", str(tmp_path / "o")]),
}


def test_readme_quotes_no_message_without_a_run_that_writes_it():
    """Every backquoted span of the README's CLI section that reads as an
    error message is a key of README_MESSAGES, and every key is quoted there."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = re.sub(r"```.*?```", "", readme.split("\n## CLI\n")[1].split("\n## ")[0],
                     flags=re.DOTALL)
    spans = (" ".join(span.split()) for span in re.findall(r"`([^`]+)`", section))
    quoted = [span for span in spans
              if re.search(r"must be|missing field|malformed field|unknown config key|error:",
                           span)]
    assert sorted(quoted) == sorted(README_MESSAGES)


@pytest.mark.parametrize("quote", README_MESSAGES)
def test_cli_writes_each_message_the_readme_quotes(pipeline, tmp_path, capsys, quote):
    code, argv = README_MESSAGES[quote]
    assert main(argv(pipeline, tmp_path)) == code
    pattern = re.sub(r"<[^>]*>|(\\\.){3}", ".+", re.escape(quote))
    assert re.search(pattern, capsys.readouterr().err), pattern


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


def test_synth_without_a_config_plans_the_default_dataset(tmp_path, monkeypatch):
    """The seed and synth defaults are read off DatasetSpec(), so the plain
    command plans DatasetSpec() itself."""
    planned = []

    def plan_only(spec, out):
        planned.append(spec)
        return {"frames": [{"role": "evaluation"}], "skipped": []}

    monkeypatch.setattr("irgaze.cli.generate_dataset", plan_only)
    assert main(["synth", "--out", str(tmp_path / "ds")]) == 0
    assert planned == [DatasetSpec()]


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


def _drop_pair_consistent(row):
    """Such a row was once read as if its pair check had not run, and
    estimate exited 0, though every other field of an ok row is required."""
    del row["pair_consistent"]


def _number_the_frame(row):
    row["frame"] = 5


def _nan_middle_marker(row):
    row["markers"]["middle"][0] = float("nan")


def _infinite_left_pupil(row):
    row["pupils"]["left"]["point"][1] = float("-inf")


def _set_field(path, value):
    """Set the field at ``path``, a dotted path into the row.  An ok or
    pair_consistent like these was once read without a check, and estimate
    exited 0; a markers, pupils or point like these once exited 2 on a
    message that named no field."""
    *parents, last = path.split(".")

    def spoil(row):
        for key in parents:
            row = row[key]
        row[last] = value
    return spoil


def _fail_without_an_error(row):
    """Once read, estimate and train stopped on an AttributeError traceback."""
    row.update(ok=False, error=None)


def _line(text):
    """Line 2 becomes ``text``, a JSON value that is no object; it once exited
    2 on a message that named no field."""
    return lambda row: text


def _left_pupil(field, value):
    """Set the left pupil's ``field``; an area or eccentricity like these was
    once read without a check, and train and estimate exited 0, and an
    eccentricity of [0.5] once exited 2 on a message that named no field
    ("'<=' not supported between instances of 'int' and 'list'")."""
    def spoil(row):
        row["pupils"]["left"][field] = value
    return spoil


@pytest.mark.parametrize("spoil, named", [
    (_drop_middle_marker, "missing field 'middle'"),
    (_drop_pair_consistent, "missing field 'pair_consistent'"),
    (_number_the_frame, "frame must be a string"),
    (_nan_middle_marker, "malformed field: markers.middle must be finite"),
    (_infinite_left_pupil, "malformed field: pupils.left.point must be finite"),
    (_fail_without_an_error, "malformed field: error of a failed frame must be a string"),
    *((_set_field("ok", bad), f"malformed field: ok must be true or false, got {bad!r}")
      for bad in ("no", None, 1, 0)),
    *((_set_field("pair_consistent", bad), f"malformed field: pair_consistent must be true, false "
       f"or null, got {bad!r}") for bad in ("no", 1, 0, [])),
    *((_left_pupil("area", bad), f"malformed field: pupils.left.area must be an integer, "
       f"got {bad!r}") for bad in ("x", None, float("nan"), 2.0, True, [5])),
    *((_left_pupil("area", bad), f"malformed field: pupils.left.area must be positive, "
       f"got {bad!r}") for bad in (-3, 0)),
    *((_left_pupil("eccentricity", bad), f"malformed field: pupils.left.eccentricity must be "
       f"a number, got {bad!r}") for bad in ("x", None, True, [0.5])),
    *((_left_pupil("eccentricity", bad), f"malformed field: pupils.left.eccentricity must be "
       f"finite, got {bad!r}") for bad in (float("nan"), float("inf"))),
    *((_left_pupil("eccentricity", bad), f"malformed field: pupils.left.eccentricity must lie "
       f"in [0, 1], got {bad!r}") for bad in (-3, -0.5, 1.5)),
    *((_set_field(field, bad), f"malformed field: {field} must be an object, got {bad!r}")
      for field in ("markers", "pupils") for bad in (None, [], [1.0, 2.0])),
    *((_set_field(field, bad), f"malformed field: {field} must be an [x, y] pair, got {bad!r}")
      for field in ("markers.middle", "pupils.left.point")
      for bad in (5, 2.5, [], [1.0], [1.0, 2.0, 3.0], "ab", {"x": 1.0})),
    *((_set_field("pupils.left", bad), f"malformed field: pupils.left must be an object or null, "
       f"got {bad!r}") for bad in (5, [], [1.0, 2.0], "x", True)),
    *((_line(text), f"malformed field: row must be an object, got {value!r}")
      for text, value in (("null", None), ("5", 5), ('"f"', "f"), ("[1, 2]", [1, 2]))),
])
def test_estimate_bad_observation_names_line_and_field(pipeline, tmp_path, capsys,
                                                        spoil, named):
    rows = read_jsonl(pipeline / "obs.jsonl")
    line = spoil(rows[1])  # the text of line 2, or None to write the edited row
    lines = [json.dumps(r) for r in rows]
    lines[1] = lines[1] if line is None else line
    bad = tmp_path / "obs.jsonl"
    bad.write_text("".join(text + "\n" for text in lines))
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


def _vector_field(field, value):
    return lambda doc: doc["corners"]["4"][0].update({field: value})


def _drop(*path):
    """Delete the field at ``path``."""
    def spoil(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        del doc[last]
    return spoil


# Each spoil edits the document in place or returns the file's text.  The
# first six shapes once exited 2 on a message that named no field ("list
# indices must be integers or slices, not str", "'int' object is not
# subscriptable", "string indices must be integers, not 'str'"); a frame of 5
# or null was read as "5" or "None", and a missing metric or frame as
# "congruency" or "", though the schema requires both.
_TRAINING_SET_SHAPES = [
    pytest.param(lambda doc: json.dumps([doc]), "malformed field: training set must be an "
                 "object, got [{'corners': {...}, 'metric': 'congruency', 'screen': {...}}]",
                 id="array-doc"),
    pytest.param(lambda doc: doc.update(screen="x"),
                 "malformed field: screen must be an object, got 'x'", id="string-screen"),
    *(pytest.param(lambda doc, bad=bad: doc.update(corners=bad),
                   f"malformed field: corners must be an object, got {bad!r}",
                   id=f"corners-{bad}") for bad in (5, [])),
    *(pytest.param(lambda doc, bad=bad: doc["corners"].update({"1": [bad]}),
                   f"corners.1.0: malformed field: vector must be an object, got {bad!r}",
                   id=f"vector-{bad}") for bad in (5, [1.0, 2.0])),
    *(pytest.param(_vector_field("frame", bad), f"corners.4.0: malformed field: frame must be "
                   f"a string, got {bad!r}", id=f"frame-{bad}") for bad in (5, None)),
    pytest.param(_drop("metric"), "missing field 'metric'", id="no-metric"),
    pytest.param(_drop("corners", "2", 0, "frame"), "corners.2.0: missing field 'frame'",
                 id="no-frame"),
    pytest.param(lambda doc: doc.update(metric="cosine"),
                 "malformed field: metric must be one of ('congruency', 'euclidean')",
                 id="metric-cosine"),
]


@pytest.mark.parametrize("spoil, named", [
    pytest.param(_keep_an_empty_screen, "missing field 'corners'", id="doc0-corners"),
    pytest.param(lambda doc: doc["screen"].pop("Lx"), "screen: missing field 'Lx'",
                 id="None-Lx"),
    pytest.param(lambda doc: doc["corners"]["3"][0].pop("y_pl"),
                 "corners.3.0: missing field 'y_pl'", id="vector-y_pl"),
    pytest.param(lambda doc: doc["corners"].pop("2"), "corners: missing field '2'",
                 id="corner-2"),
    pytest.param(lambda doc: doc["corners"].update({"1": None}),
                 "corners: malformed field: corners.1 must be an array, got None",
                 id="null-corner-1"),
    pytest.param(lambda doc: doc["corners"].update({"3": 5}),
                 "corners: malformed field: corners.3 must be an array, got 5",
                 id="number-corner-3"),
    pytest.param(_left_marker_onto_middle,
                 "corners.2.0: malformed field: marker triangle has an edge under 1e-9",
                 id="degenerate-2.0"),
    pytest.param(_nan_into_corner_1, "corners.1.0: malformed field: x_mm must be finite",
                 id="nan-1.0"),
    pytest.param(lambda doc: doc["corners"]["3"][0].update(x_pl="12.5"),
                 "corners.3.0: malformed field: x_pl must be a number, got '12.5'",
                 id="string-x_pl"),
    # Once "float() argument must be a string or a real number, not 'list'".
    pytest.param(lambda doc: doc["corners"]["2"][0].update(x_mr=[1.0]),
                 "corners.2.0: malformed field: x_mr must be a number, got [1.0]",
                 id="list-x_mr"),
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
    *_TRAINING_SET_SHAPES,
])
def test_estimate_bad_training_set_names_the_field(pipeline, tmp_path, capsys, spoil, named):
    bad = tmp_path / "ts.json"
    bad.write_text(_spoiled_text(pipeline / "train.json", spoil))
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
@pytest.mark.parametrize("frames", [None, 5, {}])
def test_manifest_whose_frames_is_no_array_names_the_field(pipeline, tmp_path, capsys, stage,
                                                          frames):
    """A null or numeric frames once stopped both stages on a TypeError
    traceback, and an object was read as no frames at all."""
    bad = _spoiled_manifest(pipeline, tmp_path, lambda doc: doc.update(frames=frames))
    argv = [*_stage_argv(pipeline, stage), "--out", str(tmp_path / "out")]
    argv[argv.index("--manifest") + 1] = str(bad)
    assert main(argv) == 2
    assert (f"{bad}: malformed field: frames must be an array, got {frames!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("field, value", [("x_g", "nan"), ("y_g", "inf"), ("y_g", None),
                                          ("x_g", None), ("error", None)])
def test_evaluate_non_finite_estimate_names_the_line(pipeline, tmp_path, capsys, field,
                                                     value):
    """A nan x_g on one row and an inf y_g on another once made evaluate
    report 98.7% at every N, exit 0.  A None value cuts the row short just
    before the field: cut before y_g, it once exited 2 on "float() argument
    must be a string or a real number, not 'NoneType'"; cut before x_g, it
    was skipped as a failed frame, and cut before the trailing error, it was
    scored, both with exit 0."""
    with open(pipeline / "est.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    i = next(i for i, row in enumerate(rows)
             if row[header.index("x_g")] and not row[header.index("error")])
    col = header.index(field)
    rows[i] = rows[i][:col] if value is None else [*rows[i][:col], value, *rows[i][col + 1:]]
    bad = tmp_path / "est.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    out = tmp_path / "r"
    assert main(["evaluate", "--estimates", str(bad),
                 "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(out)]) == 2
    named = (f"missing field {field!r}" if value is None else
             f"malformed field: {field} must be finite, got {value}")
    assert f"{bad}:{i + 2}: {named}" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("spoil, named", [
    # A row longer than its header was once scored, exit 0.
    pytest.param(lambda row: [*row, "a", "b"], "{bad}:3: malformed field: 2 cells past the "
                 "header's {columns}", id="long-row"),
    # A field past csv's limit once ended in a _csv.Error traceback, exit 1.
    pytest.param(lambda row: ["f" * 131_073, *row[1:]], "{bad}: malformed field: field "
                 "larger than field limit (131072)", id="overlong-field"),
])
def test_evaluate_estimates_past_the_header_or_csv_limit_exit_2(pipeline, tmp_path, capsys,
                                                                spoil, named):
    with open(pipeline / "est.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    rows[1] = spoil(rows[1])
    bad, out = tmp_path / "est.csv", tmp_path / "r"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert main(["evaluate", "--estimates", str(bad),
                 "--manifest", str(pipeline / "ds" / "manifest.json"),
                 "--out", str(out)]) == 2
    assert named.format(bad=bad, columns=len(header)) in capsys.readouterr().err
    assert not out.exists()


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

    for doc, schema in (("ds/manifest.json", "manifest.schema.json"),
                        ("train.json", "training_set.schema.json")):
        jsonschema.validate(json.loads((pipeline / doc).read_text()), _schema(schema))


def _spoiled_text(path, spoil):
    """The text of the JSON file at ``path`` after ``spoil``, which edits the
    document in place or returns the text to use."""
    doc = json.loads(Path(path).read_text())
    text = spoil(doc)
    return text if isinstance(text, str) else json.dumps(doc)


def _evaluation_frame(doc):
    """The manifest's first evaluation frame; messages read its index as {i}."""
    return next(f for f in doc["frames"] if f["role"] == "evaluation")


def _frame_field(field, value):
    return lambda doc: _evaluation_frame(doc).update({field: value})


def _frame_entry(value):
    def spoil(doc):
        doc["frames"][doc["frames"].index(_evaluation_frame(doc))] = value
    return spoil


# Each once exited 2 on a message that named no field: "list indices must be
# integers or slices, not str", "'int' object is not subscriptable", "expected
# str, bytes or os.PathLike object, not int", "Point.__new__() takes 3
# positional arguments" and the like.
_MANIFEST_SHAPES = [
    pytest.param(lambda doc: json.dumps([doc]), "malformed field: manifest must be an object, "
                 "got [{'frames': [...], 'screen': {...}, 'skipped': []}]", id="array-manifest"),
    *(pytest.param(lambda doc, bad=bad: doc.update(screen=bad),
                   f"malformed field: screen must be an object, got {bad!r}",
                   id=f"screen-{bad}") for bad in ("x", [60.0, 60.0])),
    *(pytest.param(_frame_entry(bad), f"frames.{{i}}: malformed field: entry must be an "
                   f"object, got {bad!r}", id=f"entry-{bad}") for bad in (5, None, ["a.pgm"])),
    *(pytest.param(_frame_field("file", bad), f"frames.{{i}}: malformed field: file must be "
                   f"a string, got {bad!r}", id=f"file-{bad}") for bad in (5, None)),
    *(pytest.param(_frame_field("gaze", bad), f"frames.{{i}}: malformed field: gaze must be "
                   f"an [x, y] pair, got {bad!r}", id=f"gaze-{bad}")
      for bad in ([1, 2, 3], [1], 5)),
    # These three are of the right type, but out of range.
    pytest.param(lambda doc: doc["screen"].update(Lx=0),
                 "screen: malformed field: screen extents must be positive", id="zero-Lx"),
    *(pytest.param(lambda doc, fields=fields: _evaluation_frame(doc).update(fields),
                   "frames.{i}: malformed field: need role 'evaluation', or 'training' with a "
                   "corner in (1, 2, 3, 4)", id=f"{fields['role']}-role")
      for fields in ({"role": "foo"}, {"role": "training", "corner": 5})),
    # detect once ended in "embedded null byte" from read_bytes, exit 1.
    pytest.param(_frame_field("file", "a\0b.pgm"), "frames.{i}: malformed field: file must "
                 "not hold a NUL byte, got 'a\\x00b.pgm'", id="file-NUL"),
]


@pytest.mark.parametrize("stage", ["detect", "train", "evaluate"])
@pytest.mark.parametrize("spoil, named", _MANIFEST_SHAPES)
def test_manifest_of_the_wrong_shape_names_the_field(pipeline, tmp_path, capsys, stage,
                                                     spoil, named):
    manifest = pipeline / "ds" / "manifest.json"
    frames = json.loads(manifest.read_text())["frames"]
    i = next(i for i, f in enumerate(frames) if f["role"] == "evaluation")
    bad = tmp_path / "manifest.json"
    bad.write_text(_spoiled_text(manifest, spoil))
    argv = [*_stage_argv(pipeline, stage), "--out", str(tmp_path / "out")]
    argv[argv.index("--manifest") + 1] = str(bad)
    assert main(argv) == 2
    assert f"{bad}: {named.replace('{i}', str(i))}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, schema, spoil", [
    *(pytest.param("ds/manifest.json", "manifest.schema.json", p.values[0],
                   id=f"manifest-{p.id}") for p in _MANIFEST_SHAPES),
    *(pytest.param("train.json", "training_set.schema.json", p.values[0], id=f"ts-{p.id}")
      for p in _TRAINING_SET_SHAPES),
])
def test_schemas_refuse_every_shape_the_readers_refuse(pipeline, doc, schema, spoil):
    """The published format and the readers agree on each malformed shape."""
    import jsonschema

    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(json.loads(_spoiled_text(pipeline / doc, spoil)), _schema(schema))


def _schema(name):
    return json.loads((Path(__file__).resolve().parent.parent / "schemas" / name).read_text())


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


# Digests taken when background pixels began reading their bytes from the
# quantile table; ts.json and est.csv must keep these bytes.
@pytest.mark.parametrize("metric, weighting, ts_digest, est_digest", [
    ("congruency", "corrected",
     "766c6658873cde5bc123612415da83516f01c283878614ce3fae1ac05e35c863",
     "c20f886d6eddf86cfa65736adc738b93c83e0cbd874efa9673227d3d2417e8ff"),
    ("congruency", "literal",
     "766c6658873cde5bc123612415da83516f01c283878614ce3fae1ac05e35c863",
     "0fdf30705b5af4ed050ad534cffe66943e598a85f783557678305eb7ea2883ed"),
    ("euclidean", "corrected",
     "0301a7b8c86e4ced6e259112b1375282f1c6f56794750fba4339bda260dbce48",
     "e8844bf67f3f36a9a74dd395fa50d48d7aa5af7b82450b7ce08e7bcf1a181dd5"),
    ("euclidean", "literal",
     "0301a7b8c86e4ced6e259112b1375282f1c6f56794750fba4339bda260dbce48",
     "4620506ad96316410bb6dcf3976f805b6e088b3a60b2e44d13a514c8f261adb6"),
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


# Digests re-taken with the background quantile table; detect must keep these bytes.
def test_observation_bytes_are_pinned(observed):
    digest = hashlib.sha256((observed / "obs.jsonl").read_bytes()).hexdigest()
    assert digest == "c9b245c5dd4a794e9051e465c449c45c4805f8b5ca74eaea1b061c0e7dd5429c"


def test_hires_observation_bytes_are_pinned(tmp_path):
    """At 1280x1024 the marker mask saturates: about 2.5k regions a frame."""
    cfg, ds, obs = tmp_path / "cfg.json", tmp_path / "ds", tmp_path / "obs.jsonl"
    cfg.write_text(json.dumps({"synth": {"width": 1280, "height": 1024}}))
    assert main(["synth", "--config", str(cfg), "--out", str(ds), "--poses", "1",
                 "--points", "3", "--training-repeats", "1", "--seed", "5"]) == 0
    assert main(["detect", "--manifest", str(ds / "manifest.json"), "--out", str(obs)]) == 0
    digest = hashlib.sha256(obs.read_bytes()).hexdigest()
    assert digest == "5e1ae2cf1767b527f8ffbd34eaaac8ab77a7c747bd2e9f71bc075080ed34b378"


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
        "ts.json": "da7b7b0050a000b3f057bd0749c028e5891917ebeec70c40692210a0cb2aba09",
        "est.csv": "07aa5a1b7d377c764a82a78b5715f7906d24bcc9131376e04b6e754907b40276",
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
            f"config {cfg}: malformed field: Exceeds the limit")


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


@pytest.mark.parametrize("argv, flag, key", [
    (["train", "--manifest", "manifest.json"], "--metric", "metric"),
    (["estimate", "--training-set", "ts.json"], "--eq10-variant", "eq10_variant"),
])
def test_choice_flag_fails_as_its_config_key_does(tmp_path, capsys, argv, flag, key):
    """argparse once checked a choice flag first, with its own usage error."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "foo"}))
    errors = []
    for setting in ([flag, "foo"], ["--config", str(cfg)]):
        assert main([*argv, "--observations", "obs.jsonl", *setting,
                     "--out", str(tmp_path / "out")]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: config key {key!r} must be one of {CONFIG_CHOICES[key]}\n"] * 2


@pytest.mark.parametrize("config, stage, code, named", [
    (None, "synth", 2, "error: cannot read config {cfg}: "),
    (json.dumps({"synth": {"poses": len(default_poses()) + 1}}), "synth", 2,
     f"error: synth.poses must lie in [0, {len(default_poses())}]"),
    ("{}", "detect", 1, "error: no input frames (give --manifest or PGM paths)"),
    (json.dumps({"synth": {"points": 26}}), "synth", 2,
     "error: config synth: eval_points must lie in [0, 25]"),
    (json.dumps({"synth": {"training_repeats": -1}}), "synth", 2,
     "error: config synth: training_repeats must be >= 0"),
    (json.dumps({"synth": {"width": 19}}), "synth", 2,
     "error: config synth: width and height must be at least 20"),
    (json.dumps({"screen": {"width_cm": 0}}), "synth", 2,
     "error: config screen: screen extents must be positive"),
])
def test_bad_invocation_exits_naming_the_file_or_key(tmp_path, capsys, config, stage, code,
                                                     named):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    if config is not None:
        cfg.write_text(config)
    assert main([stage, "--config", str(cfg), "--out", str(out)]) == code
    assert named.format(cfg=cfg) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage, flag, where", [
    pytest.param("synth", "--config", "config {bad}", id="config"),
    pytest.param("detect", "--manifest", "{bad}", id="manifest"),
    pytest.param("train", "--observations", "{bad}:1", id="observations"),
    pytest.param("estimate", "--training-set", "{bad}", id="training-set"),
])
def test_json_nested_past_the_recursion_limit_exits_2_naming_the_file(pipeline, tmp_path,
                                                                      capsys, stage, flag,
                                                                      where):
    """Each once ended in a RecursionError traceback, exit 1."""
    bad, out = tmp_path / "deep.json", tmp_path / "out"
    bad.write_text("[" * 100_000 + "\n")
    assert main([*_stage_argv(pipeline, stage), flag, str(bad), "--out", str(out)]) == 2
    assert f"{where.format(bad=bad)}: not valid JSON: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage, flag", [("train", "--manifest"), ("train", "--observations"),
                                         ("estimate", "--training-set"),
                                         ("evaluate", "--estimates")])
def test_missing_input_file_exits_2_naming_it(pipeline, tmp_path, capsys, stage, flag):
    missing, out = tmp_path / "missing", tmp_path / "out"
    argv = [*_stage_argv(pipeline, stage), "--out", str(out)]
    argv[argv.index(flag) + 1] = str(missing)
    assert main(argv) == 2
    assert f"error: cannot read {missing}: " in capsys.readouterr().err
    assert not out.exists()


def test_synth_counts_the_frames_it_skips(tmp_path, capsys):
    """A 200x200 frame leaves the default face no 10 px margin, so synth
    skips every frame it plans, says how many, lists each skip in the
    manifest and exits 1, having written no frame; it once exited 0."""
    out = tmp_path / "ds"
    assert main(["synth", *_with_config(tmp_path, {"synth": {"width": 200, "height": 200}}),
                 "--poses", "1", "--points", "2", "--training-repeats", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "0 training + 0 evaluation frames, 6 skipped")
    assert len(json.loads((out / "manifest.json").read_text())["skipped"]) == 6


def test_evaluate_estimate_without_an_error_needs_its_gaze_point(pipeline, tmp_path, capsys):
    """A row whose error is empty was once left out as a failed frame when
    its x_g was blank: with two such rows and one exact row, evaluate exited
    0 and read 100% at every N, scored over one frame.  A blank or
    non-numeric x_g then exited 2 on float()'s message, which named no
    field."""
    manifest = json.loads((pipeline / "ds" / "manifest.json").read_text())
    frames = [f for f in manifest["frames"] if f["role"] == "evaluation"][:3]
    est, out = tmp_path / "est.csv", tmp_path / "r"
    for cell in ("", "abc"):
        with open(est, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame", "x_g", "y_g", "eyes_used", "error"])
            for k, f in enumerate(frames):
                writer.writerow([Path(f["file"]).stem, cell if k else f["gaze"][0],
                                 f["gaze"][1], "both", ""])
        assert main(["evaluate", "--estimates", str(est), "--manifest",
                     str(pipeline / "ds" / "manifest.json"), "--out", str(out)]) == 2
        assert f"{est}:3: malformed field: x_g must be finite, got {cell!r}" in (
            capsys.readouterr().err)
    assert not out.exists()


def _write_offset_estimates(path, manifest: dict, offsets: list[float]) -> None:
    """Estimates of the manifest's evaluation frames, frame i off by
    offsets[i] cm in x."""
    frames = [f for f in manifest["frames"] if f["role"] == "evaluation"]
    assert len(frames) == len(offsets)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "x_g", "y_g", "eyes_used", "error"])
        for f, dx in zip(frames, offsets):
            writer.writerow([Path(f["file"]).stem, f["gaze"][0] + dx, f["gaze"][1], "both", ""])


@pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c")])
def test_evaluate_multi_dataset_report_averages_and_spreads(pipeline, tmp_path, names):
    """The paper's three-user table: one column per dataset, then the mean
    and sample standard deviation of the columns at each N."""
    manifest_path = pipeline / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    half_lx = manifest["screen"]["Lx"] / 2  # the half cell is half_lx / n
    offsets = {"a": [0.0] * 8,  # 100% at every N
               "b": [6.5] * 4 + [0.0] * 4,  # half wrong from N = 5 (half cell 6.0)
               "c": [4.0] * 8}  # all wrong from N = 8 (half cell 3.75)
    argv = ["evaluate", "--out", str(tmp_path / "r")]
    for name in names:
        _write_offset_estimates(tmp_path / f"{name}.csv", manifest, offsets[name])
        argv += ["--estimates", str(tmp_path / f"{name}.csv"), "--manifest", str(manifest_path)]
    assert main(argv) == 0
    with open(tmp_path / "r" / "report.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["N", *names, "AVG", "STD"]
    assert [int(row[0]) for row in rows] == list(range(2, 11))
    for row in rows:
        n = int(row[0])
        pct = [100 * sum(abs(dx) < half_lx / n for dx in offsets[name]) / 8 for name in names]
        avg = sum(pct) / len(pct)
        std = (abs(pct[0] - pct[1]) / math.sqrt(2) if len(pct) == 2 else
               math.sqrt(sum((p - avg) ** 2 for p in pct) / (len(pct) - 1)))
        assert row[1:] == [*(f"{p:.1f}" for p in pct), f"{avg:.1f}", f"{std:.1f}"]
    assert any(row[-1] != "0.0" for row in rows)


@pytest.mark.parametrize("side", ["right", "left"])
def test_one_pupil_row_round_trips_and_train_skips_it(pipeline, tmp_path, capsys, side):
    rows = _read_observations(str(pipeline / "obs.jsonl"))
    i, (frame, obs) = next((i, (f, o)) for i, (f, o) in enumerate(rows) if f.startswith("train_")
                           and not isinstance(o, str) and o.pupils.right and o.pupils.left)
    one_eyed = dataclasses.replace(obs, pupils=dataclasses.replace(obs.pupils, **{side: None}))
    line = json.dumps(observation_to_row(one_eyed))
    assert f'"{side}": null' in line
    lines = (pipeline / "obs.jsonl").read_text().splitlines()
    lines[i] = line
    bad = tmp_path / "obs.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert _read_observations(str(bad))[i] == (frame, one_eyed)

    argv = ["--manifest", str(pipeline / "ds" / "manifest.json"), "--out"]
    assert main(["train", "--observations", str(pipeline / "obs.jsonl"), *argv,
                 str(tmp_path / "base.json")]) == 0
    skipped = re.findall(r"skipped (\d+) unusable", capsys.readouterr().err)
    assert main(["train", "--observations", str(bad), *argv, str(tmp_path / "ts.json")]) == 0
    base = int(skipped[0]) if skipped else 0
    assert f"skipped {base + 1} unusable training frames" in capsys.readouterr().err
    trained = json.loads((tmp_path / "ts.json").read_text())["corners"]
    assert frame not in {v["frame"] for vectors in trained.values() for v in vectors}
    assert frame in {v["frame"] for vectors in json.loads(
        (tmp_path / "base.json").read_text())["corners"].values() for v in vectors}
