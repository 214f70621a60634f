"""Batch front end: synth -> detect -> train -> estimate -> evaluate.

Each subcommand reads/writes plain files (PGM frames, a JSON manifest,
JSON-lines observations, CSV estimates and reports) so the stages can be
re-run and diffed independently.  Per-frame failures are data, recorded in
the stage output; a stage exits non-zero only when it produced nothing
usable.  All outputs are byte-deterministic for a fixed seed and config.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .detection import (
    DetectConfig,
    FaceObservation,
    MarkerTriple,
    PupilDetection,
    PupilPair,
    observe_face,
)
from .errors import (
    DegenerateTriangle,
    EmptyCorner,
    InputFileError,
    IrGazeError,
)
from .gaze import (
    CORNERS,
    GRID_NS,
    METRICS,
    WEIGHTINGS,
    EyeEstimate,
    ScreenGeometry,
    accuracy_table,
    build_training_set,
    estimate_gaze,
    TrainingSet,
    check_marker_triangle,
)
from .imaging import Point, check_finite, decode_pgm
from .synth import DatasetSpec, RenderConfig, default_poses, generate_dataset

CONFIG_DEFAULTS: dict = {
    "seed": 1234,
    "metric": "congruency",
    "eq10_variant": "corrected",
    "jobs": 1,
    "screen": dataclasses.asdict(ScreenGeometry()),
    "detect": dataclasses.asdict(DetectConfig()),
    "synth": {
        "width": 640,
        "height": 480,
        "noise_sigma": 2.0,
        "blur_sigma": 0.8,
        "poses": 6,
        "points": 25,
        "training_repeats": 2,
    },
}

CONFIG_CHOICES = {
    "metric": METRICS,
    "eq10_variant": WEIGHTINGS,
}

# Each stage's own flags: (flag, config key it sets, argparse options).
# Every stage also takes --config and --seed, since the benchmark drives all
# five stages with one "--config C --seed S" prefix; only synth reads the seed.
STAGE_FLAGS: dict[str, tuple[tuple[str, str, dict], ...]] = {
    "synth": (
        ("--poses", "synth.poses", dict(type=int, help="number of head poses")),
        ("--points", "synth.points", dict(type=int, help="evaluation gaze points per pose")),
        ("--training-repeats", "synth.training_repeats",
         dict(type=int, help="training frames per pose and corner")),
    ),
    "detect": (("--jobs", "jobs", dict(type=int, help="parallel worker count")),),
    "train": (("--metric", "metric", dict(choices=METRICS, help="head-orientation metric")),),
    "estimate": (("--eq10-variant", "eq10_variant",
                  dict(choices=WEIGHTINGS, help="vertical-interpolation weighting")),),
    "evaluate": (),
}

_WEIGHT_NAMES = tuple(f.name for f in dataclasses.fields(EyeEstimate) if f.name != "point")
ESTIMATE_COLUMNS = ("frame", "x_g", "y_g", "eyes_used",
                    *(f"{side}_{name}" for side in ("right", "left") for name in _WEIGHT_NAMES),
                    "error")


class ConfigError(IrGazeError):
    """Bad run-configuration file."""


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        default = base[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            out[key] = _merge_config(default, value, where)
            continue
        want = (int, float) if isinstance(default, float) else type(default)
        if isinstance(value, bool) or not isinstance(value, want):
            raise ConfigError(f"config key {where!r} must be {type(default).__name__}, "
                              f"got {value!r}")
        if isinstance(value, (int, float)):
            try:
                check_finite(value, where)
            except ValueError:
                raise ConfigError(f"config key {where!r} must be finite, got {value!r}") from None
        if value not in CONFIG_CHOICES.get(where, (value,)):
            raise ConfigError(f"config key {where!r} must be one of {CONFIG_CHOICES[where]}")
        out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(CONFIG_DEFAULTS)
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # also an integer over int()'s digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return _merge_config(CONFIG_DEFAULTS, raw)


def _configured(section: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, its ValueError reported as bad config."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"config {section}: {exc}") from exc


# --- input files ----------------------------------------------------------

@contextlib.contextmanager
def _reading(where: str):
    """Report an unreadable file, bad JSON or a missing or malformed field
    met in the block as an InputFileError naming ``where``: the file, and
    the line or the object being read."""
    try:
        yield
    except OSError as exc:
        raise InputFileError(f"cannot read {where}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputFileError(f"{where}: not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise InputFileError(f"{where}: missing field {exc.args[0]!r}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError, EmptyCorner,
            DegenerateTriangle) as exc:
        raise InputFileError(f"{where}: malformed field: {exc}") from exc


def _claim(seen: dict[str, str], frame_id: str, entry: str) -> None:
    """Record that ``entry`` holds ``frame_id``, which no entry in ``seen``
    may hold already."""
    if frame_id in seen:
        raise InputFileError(f"frame id {frame_id!r} names both {seen[frame_id]} and {entry}")
    seen[frame_id] = entry


def _read_manifest(path: str) -> tuple[ScreenGeometry, list[tuple[str, str, str, object]]]:
    """The screen and the frames of a dataset manifest.  Each frame is
    (frame id, file, role, label): the label is the corner of a training
    frame and the gaze point of an evaluation frame."""
    with _reading(path):
        doc = json.loads(Path(path).read_text())
        screen_doc, frame_docs = doc["screen"], doc["frames"]
    with _reading(f"{path}: screen"):
        screen = ScreenGeometry.from_dict(screen_doc)
    frames = []
    seen: dict[str, str] = {}
    for i, entry in enumerate(frame_docs):
        with _reading(f"{path}: frames.{i}"):
            role = entry["role"]
            if role == "training":
                label = entry["corner"]
                if type(label) is not int:
                    raise TypeError(f"corner must be an integer, got {label!r}")
            else:
                label = Point(*map(float, check_finite(entry["gaze"], "gaze")))
            if role != "evaluation" and label not in CORNERS:
                raise ValueError(
                    f"need role 'evaluation', or 'training' with a corner in {CORNERS}")
            frame_id = Path(entry["file"]).stem
            _claim(seen, frame_id, f"{path}: frames.{i} ({entry['file']})")
            frames.append((frame_id, entry["file"], role, label))
    return screen, frames


def _read_observations(path: str) -> list[tuple[str, FaceObservation | str]]:
    """(frame id, observation) per line of an observations file; a failed
    frame carries its error class name in place of the observation."""
    with _reading(path):
        lines = Path(path).read_text().splitlines()
    rows = []
    seen: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        if line.strip():
            with _reading(f"{path}:{lineno}"):
                row = json.loads(line)
                if not isinstance(row["frame"], str):
                    raise TypeError("frame must be a string")
                if not (row["ok"] or isinstance(row["error"], str)):
                    raise TypeError("error of a failed frame must be a string")
                _claim(seen, row["frame"], f"{path}:{lineno}")
                rows.append((row["frame"],
                             row_to_observation(row) if row["ok"] else row["error"]))
    return rows


def _read_training_set(path: str) -> TrainingSet:
    with _reading(path):
        return TrainingSet.from_dict(json.loads(Path(path).read_text()),
                                     reading=lambda section: _reading(f"{path}: {section}"))


# --- synth --------------------------------------------------------------

def cmd_synth(args: argparse.Namespace, cfg: dict) -> int:
    sy = cfg["synth"]
    all_poses = default_poses(sy["width"], sy["height"])
    if not 0 <= sy["poses"] <= len(all_poses):
        raise ConfigError(f"synth.poses must lie in [0, {len(all_poses)}]")
    render = _configured(
        "synth", RenderConfig, width=sy["width"], height=sy["height"],
        noise_sigma=sy["noise_sigma"], blur_sigma=sy["blur_sigma"],
    )
    spec = _configured(
        "synth", DatasetSpec,
        poses=all_poses[: sy["poses"]],
        eval_points=sy["points"],
        training_repeats=sy["training_repeats"],
        screen=_configured("screen", ScreenGeometry, **cfg["screen"]),
        render=render,
        master_seed=cfg["seed"],
    )
    manifest = generate_dataset(spec, args.out)
    n_eval = sum(1 for f in manifest["frames"] if f["role"] == "evaluation")
    n_train = len(manifest["frames"]) - n_eval
    print(Path(args.out) / "manifest.json")
    summary = f"{n_train} training + {n_eval} evaluation frames"
    if manifest["skipped"]:
        summary += f", {len(manifest['skipped'])} skipped"
    print(summary)
    return 0


# --- detect ---------------------------------------------------------------

def observation_to_row(obs: FaceObservation) -> dict:
    def pupil_dict(p: PupilDetection | None):
        if p is None:
            return None
        return {"point": [p.point.x, p.point.y], "area": p.area,
                "eccentricity": p.eccentricity}

    return {
        "frame": obs.frame_id,
        "ok": True,
        "markers": {
            "right": [obs.markers.right.x, obs.markers.right.y],
            "middle": [obs.markers.middle.x, obs.markers.middle.y],
            "left": [obs.markers.left.x, obs.markers.left.y],
        },
        "pupils": {
            "right": pupil_dict(obs.pupils.right),
            "left": pupil_dict(obs.pupils.left),
        },
        "pair_consistent": obs.pair_consistent,
    }


def row_to_observation(row: dict) -> FaceObservation:
    """The observation an ok row of an observations file records; a
    non-finite coordinate, a pupil area that is not a positive int or an
    eccentricity outside [0, 1] raises ValueError naming its field, and a
    marker triangle that a training set refuses raises DegenerateTriangle."""

    def point(xy, field: str) -> Point:
        return Point(*check_finite(xy, field))

    def pupil(side):
        d = row["pupils"][side]
        if d is None:
            return None
        area, ecc = d["area"], check_finite(d["eccentricity"], f"pupils.{side}.eccentricity")
        if not (isinstance(area, int) and not isinstance(area, bool) and area > 0):
            raise ValueError(f"pupils.{side}.area must be a positive int, got {area!r}")
        if not 0 <= ecc <= 1:
            raise ValueError(f"pupils.{side}.eccentricity must lie in [0, 1], got {ecc!r}")
        return PupilDetection(point=point(d["point"], f"pupils.{side}.point"),
                              area=area, eccentricity=ecc)

    m = row["markers"]
    markers = MarkerTriple(*(point(m[s], f"markers.{s}") for s in ("right", "middle", "left")))
    check_marker_triangle([*markers.right, *markers.middle, *markers.left])
    return FaceObservation(
        markers=markers,
        pupils=PupilPair(right=pupil("right"), left=pupil("left")),
        frame_id=row["frame"],
        pair_consistent=row.get("pair_consistent"),
    )


def _detect_one(job: tuple[str, str, DetectConfig]) -> dict:
    frame_id, path, det = job
    try:
        obs = observe_face(decode_pgm(Path(path).read_bytes()), det, frame_id=frame_id)
        return observation_to_row(obs)
    except (IrGazeError, OSError) as exc:
        return {"frame": frame_id, "ok": False,
                "error": type(exc).__name__, "message": str(exc)}


def cmd_detect(args: argparse.Namespace, cfg: dict) -> int:
    workers = cfg["jobs"]
    if workers < 1:
        raise ConfigError(f"jobs must be at least 1, got {workers}")
    det = _configured("detect", DetectConfig, **cfg["detect"])

    inputs = [(Path(path).stem, path) for path in args.images]
    if args.manifest:
        base = Path(args.manifest).parent
        _, frames = _read_manifest(args.manifest)
        inputs[:0] = [(frame_id, str(base / file)) for frame_id, file, _, _ in frames]
    paths: dict[str, str] = {}
    for frame_id, path in inputs:
        _claim(paths, frame_id, path)
    jobs_list = [(frame_id, path, det) for frame_id, path in paths.items()]
    if not jobs_list:
        print("error: no input frames (give --manifest or PGM paths)", file=sys.stderr)
        return 1

    # A fork-started pool forks all its workers at the first submit.
    workers = min(workers, len(jobs_list))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_detect_one, jobs_list))
    else:
        rows = [_detect_one(j) for j in jobs_list]
    rows.sort(key=lambda r: r["frame"])

    with open(args.out, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")

    n_ok = sum(1 for r in rows if r["ok"])
    print(f"{n_ok}/{len(rows)} frames detected -> {args.out}")
    return 0 if n_ok > 0 else 1


# --- train ----------------------------------------------------------------

def cmd_train(args: argparse.Namespace, cfg: dict) -> int:
    screen, frames = _read_manifest(args.manifest)
    corners = {fid: label for fid, _, role, label in frames if role == "training"}

    labeled = []
    skipped = 0
    for frame_id, obs in _read_observations(args.observations):
        corner = corners.get(frame_id)
        if corner is None:
            continue
        if isinstance(obs, str) or obs.pupils.right is None or obs.pupils.left is None:
            skipped += 1
            continue
        labeled.append((obs, corner))

    try:
        ts = build_training_set(labeled, screen, metric=cfg["metric"])
    except EmptyCorner as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ts.save(args.out)
    counts = ts.counts()
    if skipped:
        print(f"skipped {skipped} unusable training frames", file=sys.stderr)
    print(f"training set {dict(counts)} -> {args.out}")
    return 0


# --- estimate ---------------------------------------------------------------

def cmd_estimate(args: argparse.Namespace, cfg: dict) -> int:
    ts = _read_training_set(args.training_set)

    rows = sorted(_read_observations(args.observations), key=lambda r: r[0])
    out_rows = []
    for frame_id, obs in rows:
        record = {**dict.fromkeys(ESTIMATE_COLUMNS, ""), "frame": frame_id}
        out_rows.append(record)
        try:
            est = obs if isinstance(obs, str) else estimate_gaze(
                obs, ts, weighting=cfg["eq10_variant"])
        except IrGazeError as exc:
            est = type(exc).__name__
        if isinstance(est, str):  # the error class of the failed frame or estimate
            record["error"] = est
            continue
        record.update(x_g=repr(est.point.x), y_g=repr(est.point.y), eyes_used=est.eyes_used)
        for side in ("right", "left"):
            if (eye := getattr(est, side)) is not None:
                record.update({f"{side}_{n}": repr(getattr(eye, n)) for n in _WEIGHT_NAMES})

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ESTIMATE_COLUMNS)
        writer.writeheader()
        writer.writerows(out_rows)
    n_ok = sum(1 for r in out_rows if not r["error"])
    print(f"{n_ok}/{len(out_rows)} estimates -> {args.out}")
    return 0


# --- evaluate ----------------------------------------------------------------

def _load_estimates(path: str | Path) -> dict[str, Point]:
    points = {}
    seen: dict[str, str] = {}
    with _reading(path), open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{path}:{reader.line_num}"
            _claim(seen, row["frame"], where)
            if row["error"] or not row["x_g"]:
                continue
            with _reading(where):
                points[row["frame"]] = Point(
                    *(check_finite(float(row[field]), field) for field in ("x_g", "y_g")))
    return points


def cmd_evaluate(args: argparse.Namespace, cfg: dict) -> int:
    if len(args.estimates) != len(args.manifest):
        raise InputFileError(f"give one --manifest per --estimates, got "
                             f"{len(args.estimates)} and {len(args.manifest)}")
    # Each dataset is named by its estimates file's stem, which labels its
    # report column and its details file.
    stems: dict[str, str] = {}
    for est_path in args.estimates:
        name = Path(est_path).stem
        if name in stems:
            raise InputFileError(
                f"estimates {stems[name]} and {est_path} share the dataset name {name!r}")
        stems[name] = est_path

    # Read and join every input first, so that a bad one leaves no report.
    datasets = []
    for (name, est_path), man_path in zip(stems.items(), args.manifest):
        screen, frames = _read_manifest(man_path)
        truths = {fid: label for fid, _, role, label in frames if role == "evaluation"}
        estimates = _load_estimates(est_path)
        joined = sorted(set(truths) & set(estimates))
        if not joined:
            raise InputFileError(f"{est_path} shares no evaluation frame with {man_path}")
        datasets.append((name, screen, [(f, estimates[f], truths[f]) for f in joined]))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    columns = []
    for name, screen, rows in datasets:
        table = accuracy_table([(est, truth) for _, est, truth in rows], screen)
        columns.append([acc for _, acc in table])

        with open(out_dir / f"details_{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame", "dx", "dy"])
            for f, est, truth in rows:
                writer.writerow([f, repr(est.x - truth.x), repr(est.y - truth.y)])

    report_path = out_dir / "report.csv"
    with open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", *stems, "AVG", "STD"])
        for i, n in enumerate(GRID_NS):
            pct = [100.0 * col[i] for col in columns]
            avg = sum(pct) / len(pct)
            if len(pct) > 1:
                var = sum((p - avg) ** 2 for p in pct) / (len(pct) - 1)
                std = math.sqrt(var)
            else:
                std = 0.0
            writer.writerow([n, *(f"{p:.1f}" for p in pct), f"{avg:.1f}", f"{std:.1f}"])

    print(report_path)
    with open(report_path) as fh:
        sys.stdout.write(fh.read())
    return 0


# --- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irgaze",
        description="Offline infrared gaze detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON run-configuration file")
        p.add_argument("--seed", type=int, help="master seed override")
        for flag, key, options in STAGE_FLAGS[name]:
            p.add_argument(flag, dest=key, **options)
        p.set_defaults(func=func)
        return p

    p = stage("synth", cmd_synth, "generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")

    p = stage("detect", cmd_detect, "detect markers and pupils in frames")
    p.add_argument("images", nargs="*", help="PGM frames")
    p.add_argument("--manifest", help="dataset manifest listing the frames")
    p.add_argument("--out", required=True, help="observations JSONL path")

    p = stage("train", cmd_train, "build a training set from observations")
    p.add_argument("--observations", required=True)
    p.add_argument("--manifest", required=True,
                   help="manifest carrying corner labels and screen geometry")
    p.add_argument("--out", required=True, help="training-set JSON path")

    p = stage("estimate", cmd_estimate, "estimate gaze points for observations")
    p.add_argument("--observations", required=True)
    p.add_argument("--training-set", dest="training_set", required=True)
    p.add_argument("--out", required=True, help="estimates CSV path")

    p = stage("evaluate", cmd_evaluate, "score estimates against ground truth")
    p.add_argument("--estimates", action="append", required=True,
                   help="estimates CSV (repeatable for multi-dataset reports)")
    p.add_argument("--manifest", action="append", required=True,
                   help="matching manifest (one per --estimates)")
    p.add_argument("--out", required=True, help="report output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        flags: dict = {}
        for key in ("seed", *(key for _, key, _ in STAGE_FLAGS[args.command])):
            if (value := getattr(args, key)) is not None:
                section, _, leaf = key.rpartition(".")
                (flags.setdefault(section, {}) if section else flags)[leaf] = value
        return args.func(args, _merge_config(load_config(args.config), flags))
    except (ConfigError, InputFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a failed read is an InputFileError by now
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
