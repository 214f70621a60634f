"""Batch front end: synth -> detect -> train -> estimate -> evaluate.

Each subcommand reads/writes plain files (PGM frames, a JSON manifest,
JSON-lines observations, CSV estimates and reports) so the stages can be
re-run and diffed independently.  Per-frame failures are data, recorded in
the stage output; a stage exits non-zero only when it produced nothing
usable.  All outputs are byte-deterministic for a fixed seed and config.
"""

from __future__ import annotations

import argparse
import copy
import csv
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
from .errors import EmptyCorner, IrGazeError, NoUsableEye
from .gaze import (
    ScreenGeometry,
    accuracy_table,
    build_training_set,
    estimate_gaze,
    TrainingSet,
)
from .imaging import Point, decode_pgm
from .synth import DatasetSpec, RenderConfig, default_poses, generate_dataset

CONFIG_DEFAULTS: dict = {
    "seed": 1234,
    "metric": "congruency",
    "eq10_variant": "corrected",
    "jobs": 1,
    "grid_n_min": 2,
    "grid_n_max": 10,
    "screen": {
        "width_cm": 60.0,
        "height_cm": 60.0,
        "training_targets": "corners",  # or "cell_centers"
    },
    "detect": {
        "expected_marker_area": DetectConfig().expected_marker_area,
        "top_n": None,
        "expected_pupil_diameter": None,
        "pupil_diameter_fraction": 0.10,
        "eccentricity_max": 0.9,
        "high_mean_weight": 2.0,
        "max_retries": 5,
        "pair_tolerance_floor": 0.02,
        "cleanup": "open",
    },
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

ESTIMATE_COLUMNS = (
    "frame", "x_g", "y_g", "eyes_used",
    "right_alpha", "right_beta", "right_gamma", "right_delta",
    "right_w", "right_w_prime",
    "left_alpha", "left_beta", "left_gamma", "left_delta",
    "left_w", "left_w_prime",
    "error",
)


class ConfigError(IrGazeError):
    """Bad run-configuration file."""


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            out[key] = _merge_config(base[key], value, where)
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(CONFIG_DEFAULTS)
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return _merge_config(CONFIG_DEFAULTS, raw)


def _apply_flag_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    for key in ("seed", "metric", "jobs"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    variant = getattr(args, "eq10_variant", None)
    if variant is not None:
        cfg["eq10_variant"] = variant
    return cfg


def _screen_from_config(cfg: dict) -> ScreenGeometry:
    sc = cfg["screen"]
    if sc["training_targets"] == "corners":
        return ScreenGeometry.with_corner_targets(sc["width_cm"], sc["height_cm"])
    if sc["training_targets"] == "cell_centers":
        return ScreenGeometry.with_cell_center_targets(sc["width_cm"], sc["height_cm"])
    raise ConfigError(
        f"screen.training_targets must be 'corners' or 'cell_centers', "
        f"got {sc['training_targets']!r}"
    )


def _detect_config(cfg: dict) -> DetectConfig:
    return DetectConfig(**cfg["detect"])


# --- synth --------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _apply_flag_overrides(load_config(args.config), args)
    sy = cfg["synth"]
    if args.poses is not None:
        sy["poses"] = args.poses
    if args.points is not None:
        sy["points"] = args.points
    if args.training_repeats is not None:
        sy["training_repeats"] = args.training_repeats

    all_poses = default_poses(sy["width"], sy["height"])
    if not 0 <= sy["poses"] <= len(all_poses):
        raise ConfigError(f"synth.poses must lie in [0, {len(all_poses)}]")
    spec = DatasetSpec(
        poses=all_poses[: sy["poses"]],
        eval_points=sy["points"],
        training_repeats=sy["training_repeats"],
        screen=_screen_from_config(cfg),
        render=RenderConfig(
            width=sy["width"], height=sy["height"],
            noise_sigma=sy["noise_sigma"], blur_sigma=sy["blur_sigma"],
        ),
        master_seed=cfg["seed"],
    )
    try:
        manifest = generate_dataset(spec, args.out)
    except OSError as exc:
        print(f"error: cannot write dataset to {args.out}: {exc}", file=sys.stderr)
        return 1
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
    def pupil(d):
        if d is None:
            return None
        return PupilDetection(point=Point(*d["point"]), area=d["area"],
                              eccentricity=d["eccentricity"])

    m = row["markers"]
    return FaceObservation(
        markers=MarkerTriple(
            right=Point(*m["right"]), middle=Point(*m["middle"]), left=Point(*m["left"])
        ),
        pupils=PupilPair(right=pupil(row["pupils"]["right"]),
                         left=pupil(row["pupils"]["left"])),
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


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = _apply_flag_overrides(load_config(args.config), args)
    det = _detect_config(cfg)

    jobs_list: list[tuple[str, str, DetectConfig]] = []
    if args.manifest:
        manifest = json.loads(Path(args.manifest).read_text())
        base = Path(args.manifest).parent
        for entry in manifest["frames"]:
            jobs_list.append((Path(entry["file"]).stem, str(base / entry["file"]), det))
    for path in args.images:
        jobs_list.append((Path(path).stem, path, det))
    if not jobs_list:
        print("error: no input frames (give --manifest or PGM paths)", file=sys.stderr)
        return 1

    workers = cfg["jobs"]
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

def _read_observations(path: str | Path) -> list[dict]:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _apply_flag_overrides(load_config(args.config), args)
    manifest = json.loads(Path(args.manifest).read_text())
    corners = {
        Path(e["file"]).stem: e["corner"]
        for e in manifest["frames"]
        if e["role"] == "training"
    }
    screen = ScreenGeometry.from_dict(manifest["screen"])

    labeled = []
    skipped = 0
    for row in _read_observations(args.observations):
        corner = corners.get(row["frame"])
        if corner is None:
            continue
        if not row["ok"]:
            skipped += 1
            continue
        obs = row_to_observation(row)
        if obs.pupils.right is None or obs.pupils.left is None:
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

def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _apply_flag_overrides(load_config(args.config), args)
    ts = TrainingSet.load(args.training_set)

    rows = sorted(_read_observations(args.observations), key=lambda r: r["frame"])
    out_rows = []
    for row in rows:
        record = {c: "" for c in ESTIMATE_COLUMNS}
        record["frame"] = row["frame"]
        if not row["ok"]:
            record["error"] = row["error"]
            out_rows.append(record)
            continue
        try:
            est = estimate_gaze(row_to_observation(row), ts,
                                weighting=cfg["eq10_variant"])
        except (NoUsableEye, IrGazeError) as exc:
            record["error"] = type(exc).__name__
            out_rows.append(record)
            continue
        record["x_g"] = repr(est.point.x)
        record["y_g"] = repr(est.point.y)
        record["eyes_used"] = est.eyes_used
        for side in ("right", "left"):
            eye = getattr(est, side)
            if eye is None:
                continue
            w = eye.weights
            record[f"{side}_alpha"] = repr(w.alpha)
            record[f"{side}_beta"] = repr(w.beta)
            record[f"{side}_gamma"] = repr(w.gamma)
            record[f"{side}_delta"] = repr(w.delta)
            record[f"{side}_w"] = repr(w.w)
            record[f"{side}_w_prime"] = repr(w.w_prime)
        out_rows.append(record)

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
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["error"] or not row["x_g"]:
                continue
            points[row["frame"]] = Point(float(row["x_g"]), float(row["y_g"]))
    return points


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _apply_flag_overrides(load_config(args.config), args)
    n_min = args.n_min if args.n_min is not None else cfg["grid_n_min"]
    n_max = args.n_max if args.n_max is not None else cfg["grid_n_max"]
    if not 2 <= n_min <= n_max:
        print("error: need 2 <= n-min <= n-max", file=sys.stderr)
        return 1

    if len(args.estimates) != len(args.manifest):
        print("error: give one --manifest per --estimates", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    names = []
    columns = []
    for est_path, man_path in zip(args.estimates, args.manifest):
        name = Path(est_path).stem
        manifest = json.loads(Path(man_path).read_text())
        truths = {
            Path(e["file"]).stem: Point(*e["gaze"])
            for e in manifest["frames"]
            if e["role"] == "evaluation"
        }
        estimates = _load_estimates(est_path)
        joined = sorted(set(truths) & set(estimates))
        if not joined:
            print(f"error: no evaluation frames joined for {est_path}", file=sys.stderr)
            return 1
        pairs = [(estimates[f], truths[f]) for f in joined]

        screen = manifest["screen"]
        table = accuracy_table(pairs, screen["Lx"], screen["Ly"],
                               range(n_min, n_max + 1))
        names.append(name)
        columns.append([acc for _, acc in table])

        detail_path = out_dir / f"details_{name}.csv"
        with open(detail_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame", "dx", "dy"])
            for f in joined:
                est, truth = estimates[f], truths[f]
                writer.writerow([f, repr(est.x - truth.x), repr(est.y - truth.y)])

    report_path = out_dir / "report.csv"
    with open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", *names, "AVG", "STD"])
        for i, n in enumerate(range(n_min, n_max + 1)):
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON run-configuration file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--metric", choices=("congruency", "euclidean"),
                       help="head-orientation similarity metric")
        p.add_argument("--eq10-variant", dest="eq10_variant",
                       choices=("corrected", "literal"),
                       help="vertical-interpolation weighting variant")
        p.add_argument("--jobs", type=int, help="parallel worker count")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--poses", type=int, help="number of head poses")
    p.add_argument("--points", type=int, help="evaluation gaze points per pose")
    p.add_argument("--training-repeats", type=int,
                   help="training frames per pose and corner")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="detect markers and pupils in frames")
    common(p)
    p.add_argument("images", nargs="*", help="PGM frames")
    p.add_argument("--manifest", help="dataset manifest listing the frames")
    p.add_argument("--out", required=True, help="observations JSONL path")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("train", help="build a training set from observations")
    common(p)
    p.add_argument("--observations", required=True)
    p.add_argument("--manifest", required=True,
                   help="manifest carrying corner labels and screen geometry")
    p.add_argument("--out", required=True, help="training-set JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate", help="estimate gaze points for observations")
    common(p)
    p.add_argument("--observations", required=True)
    p.add_argument("--training-set", dest="training_set", required=True)
    p.add_argument("--out", required=True, help="estimates CSV path")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="score estimates against ground truth")
    common(p)
    p.add_argument("--estimates", action="append", required=True,
                   help="estimates CSV (repeatable for multi-dataset reports)")
    p.add_argument("--manifest", action="append", required=True,
                   help="matching manifest (one per --estimates)")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--n-min", type=int, dest="n_min")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
