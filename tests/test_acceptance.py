"""Acceptance gate: every shipping criterion, each at its stated tolerance.

Run with plain ``pytest tests/test_acceptance.py`` -- each criterion prints
one PASS/FAIL line straight to the terminal (bypassing capture) before
asserting.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    assert_same_image,
    flood_fill_components,
    observation_from_row,
    synthetic_observation,
    truth_from_manifest_entry,
)
from irgaze.cli import main as cli_main
from irgaze.detection import DetectConfig, FaceObservation, observe_face
from irgaze.errors import IrGazeError
from irgaze.gaze import (
    METRICS,
    WEIGHTINGS,
    GridSpec,
    ScreenGeometry,
    accuracy_table,
    build_training_set,
    congruency,
    estimate_gaze,
    estimate_gaze_single_eye,
    score_accuracy,
)
from irgaze.imaging import (
    Point,
    connected_components,
    decode_pgm,
    encode_pgm,
    morphology,
)
from irgaze.synth import (
    DatasetSpec,
    FaceLayout,
    GroundTruth,
    HeadPose,
    RenderConfig,
    default_poses,
    feature_model,
    generate_dataset,
    render_scene,
)

MASTER_SEED = 20240808
SCREEN = ScreenGeometry.with_corner_targets(60.0, 60.0)


def announce(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory):
    """Default synthetic dataset, fully detected, with eval-pass timing."""
    out = tmp_path_factory.mktemp("oracle")
    spec = DatasetSpec(master_seed=MASTER_SEED)
    manifest = generate_dataset(spec, out)

    cfg = DetectConfig()
    observations: dict[str, FaceObservation] = {}
    failures: dict[str, str] = {}
    eval_entries = [f for f in manifest["frames"] if f["role"] == "evaluation"]
    train_entries = [f for f in manifest["frames"] if f["role"] == "training"]

    t0 = time.perf_counter()
    for entry in eval_entries:
        img = decode_pgm((out / entry["file"]).read_bytes())
        frame = Path(entry["file"]).stem
        try:
            observations[frame] = observe_face(img, cfg, frame_id=frame)
        except IrGazeError as exc:
            failures[frame] = type(exc).__name__
    eval_seconds = time.perf_counter() - t0

    for entry in train_entries:
        img = decode_pgm((out / entry["file"]).read_bytes())
        frame = Path(entry["file"]).stem
        try:
            observations[frame] = observe_face(img, cfg, frame_id=frame)
        except IrGazeError as exc:
            failures[frame] = type(exc).__name__

    return {
        "dir": out,
        "manifest": manifest,
        "observations": observations,
        "failures": failures,
        "eval_entries": eval_entries,
        "train_entries": train_entries,
        "eval_seconds": eval_seconds,
    }


def test_oracle_detection_accuracy(oracle_run, capsys):
    eval_entries = oracle_run["eval_entries"]
    observations = oracle_run["observations"]
    assert len(eval_entries) == 150, "expected 6 poses x 25 gaze points"

    detected = 0
    worst = 0.0
    for entry in eval_entries:
        frame = Path(entry["file"]).stem
        obs = observations.get(frame)
        if obs is None:
            continue
        detected += 1
        truth = truth_from_manifest_entry(entry).features
        points = [
            (obs.markers.right, truth.marker_right),
            (obs.markers.middle, truth.marker_middle),
            (obs.markers.left, truth.marker_left),
            (obs.pupils.right.point, truth.pupil_right),
            (obs.pupils.left.point, truth.pupil_left),
        ]
        worst = max(worst, max(a.distance_to(b) for a, b in points))

    rate = detected / len(eval_entries)
    seconds = oracle_run["eval_seconds"]
    ok = rate >= 0.99 and worst < 1.5 and seconds < 60.0
    announce(capsys, "oracle-detection", ok,
             f"success {rate:.1%}, worst feature error {worst:.3f} px, "
             f"{seconds:.1f} s for 150 frames")
    assert rate >= 0.99
    assert worst < 1.5
    assert seconds < 60.0


@pytest.fixture(scope="module")
def trained(oracle_run):
    labeled = []
    for entry in oracle_run["train_entries"]:
        frame = Path(entry["file"]).stem
        obs = oracle_run["observations"].get(frame)
        if obs is not None and obs.pupils.right and obs.pupils.left:
            labeled.append((obs, entry["corner"]))
    return build_training_set(labeled, SCREEN)


def _eval_pairs(oracle_run, trained, weighting):
    pairs = []
    for entry in oracle_run["eval_entries"]:
        frame = Path(entry["file"]).stem
        obs = oracle_run["observations"].get(frame)
        if obs is None:
            continue
        est = estimate_gaze(obs, trained, weighting)
        pairs.append((est.point, Point(*entry["gaze"])))
    return pairs


def test_end_to_end_gaze_accuracy(oracle_run, trained, capsys):
    pairs = _eval_pairs(oracle_run, trained, "corrected")
    table = dict(accuracy_table(pairs, SCREEN.width_cm, SCREEN.height_cm))
    literal = dict(accuracy_table(_eval_pairs(oracle_run, trained, "literal"),
                                  SCREEN.width_cm, SCREEN.height_cm))
    ok = table[5] >= 0.95 and table[2] == 1.0 and table[3] == 1.0
    announce(capsys, "end-to-end-accuracy", ok,
             f"corrected N=5 {table[5]:.1%}, N=2 {table[2]:.1%}, N=3 {table[3]:.1%}")
    with capsys.disabled():
        row = lambda t: "  ".join(f"N={n}:{t[n] * 100:5.1f}%" for n in range(2, 11))
        print(f"  corrected  {row(table)}")
        print(f"  literal    {row(literal)}")
    assert table[5] >= 0.95
    assert table[2] == 1.0
    assert table[3] == 1.0


def test_accuracy_table_monotone(oracle_run, trained, capsys):
    pairs = _eval_pairs(oracle_run, trained, "corrected")
    accs = [acc for _, acc in accuracy_table(pairs, SCREEN.width_cm, SCREEN.height_cm)]
    ok = all(a >= b for a, b in zip(accs, accs[1:]))
    announce(capsys, "monotonicity", ok,
             f"accuracies N=2..10: {['%.3f' % a for a in accs]}")
    assert ok


# Correct estimates out of 75 at N = 2..10 on held-out poses, recorded when
# labeling still walked the mask row by row.  A floor, not a target: the
# translation-only head-pose correction is what keeps these low.
HELD_OUT_FLOOR = {
    ("congruency", "corrected"): (75, 46, 11, 2, 0, 0, 0, 0, 0),
    ("congruency", "literal"): (75, 48, 14, 1, 0, 0, 0, 0, 0),
    ("euclidean", "corrected"): (75, 60, 37, 29, 25, 19, 10, 6, 3),
    ("euclidean", "literal"): (75, 60, 39, 30, 26, 22, 12, 9, 5),
}


@pytest.fixture(scope="module")
def held_out(tmp_path_factory):
    """Training frames at poses 0, 2 and 4 of default_poses(), evaluation
    frames at poses 1, 3 and 5, each set detected frame by frame."""
    root = tmp_path_factory.mktemp("held_out")
    poses = default_poses()
    specs = {
        "training": DatasetSpec(poses=poses[0::2], eval_points=0, master_seed=MASTER_SEED),
        "evaluation": DatasetSpec(poses=poses[1::2], training_repeats=0,
                                  master_seed=MASTER_SEED + 1),
    }
    detected = {}
    for role, spec in specs.items():
        manifest = generate_dataset(spec, root / role)
        detected[role] = [
            (entry, observe_face(decode_pgm((root / role / entry["file"]).read_bytes()),
                                 DetectConfig(), frame_id=Path(entry["file"]).stem))
            for entry in manifest["frames"]
        ]
    return detected


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_held_out_pose_accuracy_floor(held_out, capsys, metric, weighting):
    ts = build_training_set([(obs, entry["corner"]) for entry, obs in held_out["training"]],
                            SCREEN, metric)
    pairs = [(estimate_gaze(obs, ts, weighting).point, Point(*entry["gaze"]))
             for entry, obs in held_out["evaluation"]]
    correct = tuple(round(acc * len(pairs))
                    for _, acc in accuracy_table(pairs, SCREEN.width_cm, SCREEN.height_cm))
    floor = HELD_OUT_FLOOR[(metric, weighting)]
    ok = len(pairs) == 75 and all(c >= f for c, f in zip(correct, floor))
    announce(capsys, f"held-out-poses {metric}/{weighting}", ok,
             f"correct of {len(pairs)} at N=2..10: {correct}")
    assert len(pairs) == 75
    assert all(c >= f for c, f in zip(correct, floor)), (correct, floor)


def test_corner_reproduction_both_variants(capsys):
    pose = HeadPose(320, 240, 0.0, 1.0)
    corner_gaze = {1: (0.0, 1.0), 2: (1.0, 1.0), 3: (0.0, 0.0), 4: (1.0, 0.0)}
    labeled = [(synthetic_observation(pose, corner_gaze[c], frame_id=f"c{c}"), c)
               for c in (1, 2, 3, 4)]
    ts = build_training_set(labeled, SCREEN)
    worst = 0.0
    for weighting in ("corrected", "literal"):
        for c in (1, 2, 3, 4):
            obs = observation_from_row(ts.by_corner[c][0])
            est = estimate_gaze(obs, ts, weighting)
            expected = SCREEN.corner(c)
            worst = max(worst, abs(est.point.x - expected.x), abs(est.point.y - expected.y))
    ok = worst < 1e-9
    announce(capsys, "corner-reproduction", ok, f"worst error {worst:.2e} cm")
    assert ok


def test_exact_interpolation_identity(capsys):
    spots = {1: Point(100, 110), 2: Point(120, 110), 3: Point(100, 90), 4: Point(120, 90)}
    est = estimate_gaze_single_eye(Point(110, 100), spots, SCREEN)
    err = max(abs(est.point.x - 30.0), abs(est.point.y - 30.0))
    ok = err < 1e-9
    announce(capsys, "interpolation-identity", ok,
             f"(110,100) -> ({est.point.x:.12f}, {est.point.y:.12f})")
    assert ok


def test_congruency_properties(capsys):
    tri = synthetic_observation(HeadPose(320, 240, 0.1, 1.3), (0.5, 0.5)).markers
    self_m = congruency(tri, tri)
    worst = 0.0
    for k in (0.5, 1.1, 2.0):
        scaled = type(tri)(
            right=Point(tri.right.x * k, tri.right.y * k),
            middle=Point(tri.middle.x * k, tri.middle.y * k),
            left=Point(tri.left.x * k, tri.left.y * k),
        )
        worst = max(worst, abs(congruency(tri, scaled) - (3.0 - 3.0 / k)))
    ok = self_m == 0.0 and worst < 1e-12
    announce(capsys, "congruency-properties", ok,
             f"M(a,a)={self_m}, uniform-scale error {worst:.2e}")
    assert self_m == 0.0
    assert worst < 1e-12


def test_half_cell_boundary_is_strict(capsys):
    ok = True
    for n in range(2, 11):
        grid = GridSpec(n=n, width_cm=60.0, height_cm=60.0)
        half = 60.0 / (2 * n)
        truth = Point(0.0, 30.0)  # delta against 0 stays exact in floats
        at_bound = [(Point(half, truth.y), truth)]
        below = [(Point(np.nextafter(half, 0.0), truth.y), truth)]
        ok = ok and score_accuracy(at_bound, grid) == 0.0
        ok = ok and score_accuracy(below, grid) == 1.0
    announce(capsys, "half-cell-boundary", ok,
             "dx = Lx/(2N) incorrect, one ulp below correct, N = 2..10")
    assert ok


def test_imaging_oracles(capsys):
    rng = np.random.default_rng(MASTER_SEED)

    cc_checked = 0
    for _ in range(500):
        h, w = rng.integers(1, 33, 2)
        mask = rng.random((h, w)) < rng.choice([0.15, 0.35, 0.55, 0.8])
        ours = {
            frozenset(map(tuple, region.pixels.tolist()))
            for region in connected_components(mask)
        }
        assert ours == set(flood_fill_components(mask))
        cc_checked += 1

    morph_checked = 0
    for _ in range(500):
        h, w = rng.integers(2, 33, 2)
        small = rng.random((h, w)) < 0.4
        big = small | (rng.random((h, w)) < 0.2)
        radius = int(rng.integers(1, 4))
        for op in ("erode", "dilate", "open", "close"):
            assert (morphology(small, op, radius) <= morphology(big, op, radius)).all()
        opened = morphology(small, "open", radius)
        assert np.array_equal(morphology(opened, "open", radius), opened)
        assert (morphology(small, "erode", radius) <= small).all()
        assert (small <= morphology(small, "dilate", radius)).all()
        assert (opened <= small).all()
        assert (small <= morphology(small, "close", radius)).all()
        morph_checked += 1

    pgm_checked = 0
    for _ in range(200):
        h, w = rng.integers(1, 40, 2)
        img = rng.integers(0, 256, (h, w), dtype=np.uint8)
        data = encode_pgm(img)
        back = decode_pgm(data)
        assert_same_image(back, img)
        assert back.tobytes() == img.tobytes()
        assert encode_pgm(back) == data
        pgm_checked += 1

    announce(capsys, "imaging-oracles", True,
             f"{cc_checked} component images vs flood fill, "
             f"{morph_checked} morphology images, {pgm_checked} PGM round trips")


def test_performance_budget(capsys):
    big = RenderConfig(width=1280, height=1024)
    pose = HeadPose(640.0, 512.0, 0.02, 2.0)
    layout = FaceLayout()
    cfg = DetectConfig(expected_marker_area=math.pi * (layout.marker_radius * 2.0) ** 2)

    corner_gaze = {1: (0.0, 1.0), 2: (1.0, 1.0), 3: (0.0, 0.0), 4: (1.0, 0.0)}
    labeled = []
    for c in (1, 2, 3, 4):
        truth = GroundTruth(feature_model(pose, corner_gaze[c], layout),
                            SCREEN.corner(c), pose, seed=4000 + c)
        obs = observe_face(render_scene(truth, layout, big), cfg, frame_id=f"t{c}")
        labeled.append((obs, c))
    ts = build_training_set(labeled, SCREEN)

    rng = np.random.default_rng(123)
    frames = []
    for i in range(50):
        s = (float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)))
        truth = GroundTruth(feature_model(pose, s, layout),
                            Point(s[0] * 60, s[1] * 60), pose, seed=5000 + i)
        frames.append(render_scene(truth, layout, big))

    timings = []
    for i, img in enumerate(frames):
        t0 = time.perf_counter()
        obs = observe_face(img, cfg, frame_id=str(i))
        estimate_gaze(obs, ts)
        timings.append((time.perf_counter() - t0) * 1000.0)
    median = float(np.median(timings))
    ok = median < 200.0
    announce(capsys, "performance", ok,
             f"median {median:.1f} ms over 50 frames at 1280x1024 "
             f"(p95 {np.percentile(timings, 95):.1f} ms)")
    assert ok


def test_pipeline_determinism(tmp_path, capsys):
    captured = []
    for name in ("a", "b"):
        root = tmp_path / name
        ds = root / "ds"
        for argv in (
            ["synth", "--out", str(ds), "--poses", "2", "--points", "3",
             "--training-repeats", "1", "--seed", str(MASTER_SEED)],
            ["detect", "--manifest", str(ds / "manifest.json"),
             "--out", str(root / "obs.jsonl")],
            ["train", "--observations", str(root / "obs.jsonl"),
             "--manifest", str(ds / "manifest.json"), "--out", str(root / "ts.json")],
            ["estimate", "--observations", str(root / "obs.jsonl"),
             "--training-set", str(root / "ts.json"), "--out", str(root / "est.csv")],
            ["evaluate", "--estimates", str(root / "est.csv"),
             "--manifest", str(ds / "manifest.json"), "--out", str(root / "rep")],
        ):
            assert cli_main(argv) == 0
        blobs = {
            "manifest": (ds / "manifest.json").read_bytes(),
            "observations": (root / "obs.jsonl").read_bytes(),
            "training": (root / "ts.json").read_bytes(),
            "estimates": (root / "est.csv").read_bytes(),
            "report": (root / "rep" / "report.csv").read_bytes(),
            "details": (root / "rep" / "details_est.csv").read_bytes(),
        }
        frames = {p.name: p.read_bytes() for p in ds.glob("*.pgm")}
        captured.append((blobs, frames))
    ok = captured[0] == captured[1]
    announce(capsys, "determinism", ok,
             "two seeded pipeline runs compared byte-for-byte "
             f"({len(captured[0][1])} frames + 6 artifacts)")
    assert ok
