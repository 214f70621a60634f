import dataclasses
import hashlib
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irgaze.cli import main
from irgaze.detection import DetectConfig, observe_face
from irgaze.errors import FeatureOutOfFrame
from irgaze.gaze import congruency
from irgaze.imaging import Point, decode_pgm
from irgaze.synth import (
    MAX_ROTATION,
    RENDER_MARGIN,
    DatasetSpec,
    FaceLayout,
    GroundTruth,
    HeadPose,
    RenderConfig,
    default_poses,
    draw_noise,
    feature_model,
    generate_dataset,
    render_scene,
)

from helpers import assert_same_image, reference_render, truth_from_manifest_entry

LAYOUT = FaceLayout()


def truth_for(pose, s, seed=None):
    return GroundTruth(
        features=feature_model(pose, s, LAYOUT),
        gaze_cm=Point(s[0] * 60.0, s[1] * 60.0),
        pose=pose,
        seed=seed,
    )


# --- feature_model -----------------------------------------------------------

def test_identity_pose_center_gaze_is_canonical_layout():
    f = feature_model(HeadPose(0, 0), (0.5, 0.5), LAYOUT)
    assert f.marker_right == LAYOUT.marker_right
    assert f.marker_middle == LAYOUT.marker_middle
    assert f.marker_left == LAYOUT.marker_left
    assert f.pupil_right == LAYOUT.eye_right
    assert f.pupil_left == LAYOUT.eye_left


def test_gaze_extremes_differ_by_full_gain():
    hi = feature_model(HeadPose(0, 0), (1.0, 1.0), LAYOUT)
    lo = feature_model(HeadPose(0, 0), (0.0, 0.0), LAYOUT)
    gx, gy = LAYOUT.pupil_gain
    assert hi.pupil_right.x - lo.pupil_right.x == pytest.approx(gx)
    assert hi.pupil_right.y - lo.pupil_right.y == pytest.approx(gy)
    assert hi.marker_right == lo.marker_right  # markers ignore gaze


def test_pose_transform_matches_matrix_evaluation():
    pose = HeadPose(15.0, -10.0, 0.1, 1.2)
    f = feature_model(pose, (0.25, 0.75), LAYOUT)
    rot = np.array([
        [math.cos(0.1), -math.sin(0.1)],
        [math.sin(0.1), math.cos(0.1)],
    ])
    t = np.array([15.0, -10.0])
    for name, canonical in [
        ("marker_right", np.array(LAYOUT.marker_right)),
        ("marker_middle", np.array(LAYOUT.marker_middle)),
        ("marker_left", np.array(LAYOUT.marker_left)),
        ("pupil_right", np.array(LAYOUT.eye_right) + [(0.25 - 0.5) * 12, (0.75 - 0.5) * 12]),
        ("pupil_left", np.array(LAYOUT.eye_left) + [(0.25 - 0.5) * 12, (0.75 - 0.5) * 12]),
    ]:
        expected = 1.2 * rot @ canonical + t
        got = getattr(f, name)
        assert got.x == pytest.approx(expected[0], abs=1e-12)
        assert got.y == pytest.approx(expected[1], abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    tx=st.floats(-50, 50), ty=st.floats(-50, 50),
    theta=st.floats(-0.3, 0.3), k=st.floats(0.6, 1.8),
    sx=st.floats(0, 1), sy=st.floats(0, 1),
)
def test_model_is_linear_in_gaze(tx, ty, theta, k, sx, sy):
    pose = HeadPose(tx, ty, theta, k)
    lo = feature_model(pose, (0.0, 0.0), LAYOUT)
    hi = feature_model(pose, (sx, sy), LAYOUT)
    mid = feature_model(pose, (sx / 2, sy / 2), LAYOUT)
    assert mid.pupil_right.x == pytest.approx((lo.pupil_right.x + hi.pupil_right.x) / 2, abs=1e-9)
    assert mid.pupil_right.y == pytest.approx((lo.pupil_right.y + hi.pupil_right.y) / 2, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    tx=st.floats(-80, 80), ty=st.floats(-80, 80),
    theta=st.floats(-0.35, 0.35), k=st.floats(0.5, 2.0),
    sx=st.floats(0, 1), sy=st.floats(0, 1),
)
def test_model_marker_triple_is_always_valid(tx, ty, theta, k, sx, sy):
    f = feature_model(HeadPose(tx, ty, theta, k), (sx, sy), LAYOUT)
    assert f.marker_right.x >= f.marker_left.x
    assert f.marker_middle.y < 0.5 * (f.marker_right.y + f.marker_left.y)


def test_same_scale_zero_rotation_poses_are_congruent():
    a = feature_model(HeadPose(320, 240, 0.0, 1.0), (0.5, 0.5), LAYOUT)
    b = feature_model(HeadPose(400, 180, 0.0, 1.0), (0.2, 0.9), LAYOUT)
    from irgaze.detection import MarkerTriple
    ta = MarkerTriple(a.marker_right, a.marker_middle, a.marker_left)
    tb = MarkerTriple(b.marker_right, b.marker_middle, b.marker_left)
    assert congruency(ta, tb) == pytest.approx(0.0, abs=1e-12)


def test_gaze_outside_unit_square_rejected():
    with pytest.raises(ValueError):
        feature_model(HeadPose(0, 0), (1.2, 0.5), LAYOUT)


def test_pose_validation():
    with pytest.raises(ValueError):
        HeadPose(0, 0, 0.0, 0.4)
    with pytest.raises(ValueError):
        HeadPose(0, 0, 0.5, 1.0)


def test_layout_validation():
    with pytest.raises(ValueError):
        FaceLayout(marker_middle=Point(0.0, 80.0))  # above the outer markers
    with pytest.raises(ValueError):
        FaceLayout(eye_right=Point(95.0, 30.0))  # outside its marker rectangle


def test_render_config_validation():
    with pytest.raises(ValueError):
        RenderConfig(pupil=250, marker=250)


# --- render_scene -------------------------------------------------------------

def test_render_is_deterministic():
    truth = truth_for(HeadPose(320, 240, 0.02, 1.05), (0.3, 0.7), seed=42)
    a = render_scene(truth, LAYOUT, RenderConfig())
    b = render_scene(truth, LAYOUT, RenderConfig())
    assert_same_image(a, b)
    assert a.tobytes() == b.tobytes()


def test_render_different_seeds_differ():
    truth = truth_for(HeadPose(320, 240), (0.5, 0.5), seed=1)
    a = render_scene(truth, LAYOUT, RenderConfig())
    b = render_scene(dataclasses.replace(truth, seed=2), LAYOUT, RenderConfig())
    assert a.shape == b.shape and not np.array_equal(a, b)


def test_render_clean_marker_centers_hit_paint_level():
    cfg = RenderConfig(blur_sigma=0.0, noise_sigma=0.0)
    truth = truth_for(HeadPose(320, 240), (0.5, 0.5))
    img = render_scene(truth, LAYOUT, cfg)
    for marker in (truth.features.marker_right, truth.features.marker_middle,
                   truth.features.marker_left):
        row = (img.shape[0] - 1) - round(marker.y)
        assert img[row, round(marker.x)] == 250
    row = (img.shape[0] - 1) - round(truth.features.pupil_right.y)
    assert img[row, round(truth.features.pupil_right.x)] == 180


def test_render_rejects_features_near_the_border():
    truth = truth_for(HeadPose(95, 240), (0.5, 0.5), seed=3)  # left marker at x=5
    with pytest.raises(FeatureOutOfFrame):
        render_scene(truth, LAYOUT, RenderConfig())


def test_render_feeds_back_through_detection():
    truth = truth_for(HeadPose(320, 240, -0.05, 0.95), (0.9, 0.1), seed=77)
    obs = observe_face(render_scene(truth, LAYOUT, RenderConfig()), DetectConfig())
    f = truth.features
    assert obs.markers.right.distance_to(f.marker_right) < 1.5
    assert obs.markers.middle.distance_to(f.marker_middle) < 1.5
    assert obs.markers.left.distance_to(f.marker_left) < 1.5
    assert obs.pupils.right.point.distance_to(f.pupil_right) < 1.5
    assert obs.pupils.left.point.distance_to(f.pupil_left) < 1.5


@pytest.mark.parametrize("sigma", [0.7, 2.0, 3.3])
@pytest.mark.parametrize("shape", [(1, 517), (517, 1), (480, 640)])
def test_draw_noise_equals_rng_normal_bit_for_bit(sigma, shape):
    """Sigma 2.0 multiplies exactly; 0.7 and 3.3 would show a draw that
    rounds differently from numpy's ``0.0 + sigma * z``."""
    for seed in (0, 77, 2**63 + 5):
        want = np.random.default_rng(seed).normal(0.0, sigma, shape)
        got = draw_noise(seed, sigma, np.empty(shape))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_render_on_given_noise_equals_render_drawing_it():
    cfg = RenderConfig(noise_sigma=0.7)
    truth = truth_for(HeadPose(300, 250, 0.03, 0.95), (0.2, 0.6), seed=31)
    noise = draw_noise(31, cfg.noise_sigma, np.empty((cfg.height, cfg.width)))
    assert_same_image(render_scene(truth, LAYOUT, cfg, noise=noise),
                      render_scene(truth, LAYOUT, cfg))
    with pytest.raises(ValueError):
        render_scene(truth, LAYOUT, cfg, noise=np.zeros((cfg.width, cfg.height)))


# Largest distance of any feature center from the face center in the default
# layout at scale 1 (the outer markers, sqrt(90^2 + 55^2) = 105.5).
_FEATURE_REACH = 106.0


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(30, 480), height=st.integers(30, 360),
    theta=st.floats(-MAX_ROTATION, MAX_ROTATION), k=st.floats(0.5, 2.0),
    shrink=st.floats(0.05, 1.0), face=st.floats(0.1, 1.5),
    ux=st.floats(0, 1), uy=st.floats(0, 1),
    s=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    blur=st.sampled_from([0.0, 0.3, 0.8, 2.5]), noise=st.sampled_from([0.0, 0.7, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=60, height=50, theta=0.0, k=2.0, shrink=1.0, face=1.0, ux=0.5, uy=0.5,
         s=(0.5, 0.5), blur=0.8, noise=2.0, seed=1)
@example(width=640, height=480, theta=MAX_ROTATION, k=2.0, shrink=1.0, face=1.0,
         ux=0.0, uy=1.0, s=(0.0, 1.0), blur=2.5, noise=2.0, seed=2)
@example(width=640, height=480, theta=-MAX_ROTATION, k=0.5, shrink=1.0, face=1.5,
         ux=1.0, uy=0.0, s=(1.0, 0.0), blur=0.3, noise=0.0, seed=3)
def test_render_matches_full_frame_reference(width, height, theta, k, shrink, face,
                                             ux, uy, s, blur, noise, seed):
    """The face-box renderer equals the full-frame painter byte for byte,
    also where the face spills past the frame edge or exceeds the frame."""
    # Shrink the feature layout so every feature keeps the margin in this
    # frame; the face axes scale on their own, so the ellipse may still
    # cover or spill past the frame.
    room = (min(width, height) - 1 - 2 * RENDER_MARGIN) / 2.0
    f = shrink * min(1.0, room / (k * _FEATURE_REACH))
    d = FaceLayout()

    def scaled(p):
        return Point(p.x * f, p.y * f)

    layout = FaceLayout(
        marker_right=scaled(d.marker_right), marker_left=scaled(d.marker_left),
        marker_middle=scaled(d.marker_middle),
        eye_right=scaled(d.eye_right), eye_left=scaled(d.eye_left),
        marker_radius=d.marker_radius * f, pupil_radius=d.pupil_radius * f,
        pupil_gain=(d.pupil_gain[0] * f, d.pupil_gain[1] * f),
        face_axes=(d.face_axes[0] * face, d.face_axes[1] * face),
    )
    reach = k * _FEATURE_REACH * f
    x_lo, x_hi = RENDER_MARGIN + reach, width - 1 - RENDER_MARGIN - reach
    y_lo, y_hi = RENDER_MARGIN + reach, height - 1 - RENDER_MARGIN - reach
    pose = HeadPose(x_lo + ux * (x_hi - x_lo), y_lo + uy * (y_hi - y_lo), theta, k)
    truth = GroundTruth(feature_model(pose, s, layout), Point(0.0, 0.0), pose, seed=seed)
    cfg = RenderConfig(width=width, height=height, blur_sigma=blur, noise_sigma=noise)
    got = render_scene(truth, layout, cfg)
    assert_same_image(got, reference_render(truth, layout, cfg, seed))


# --- generate_dataset -----------------------------------------------------------

def test_dataset_default_shape(tmp_path):
    spec = DatasetSpec(master_seed=5)
    manifest = generate_dataset(spec, tmp_path / "ds")
    frames = manifest["frames"]
    eval_frames = [f for f in frames if f["role"] == "evaluation"]
    train_frames = [f for f in frames if f["role"] == "training"]
    assert len(eval_frames) == 150  # 6 poses x 25 cell centers
    assert len(train_frames) == 6 * 4 * 2
    assert manifest["skipped"] == []
    assert all("corner" in f for f in train_frames)
    assert all("corner" not in f for f in eval_frames)
    listed = {f["file"] for f in frames}
    on_disk = {p.name for p in (tmp_path / "ds").glob("*.pgm")}
    assert listed == on_disk


def test_dataset_empty_spec(tmp_path):
    spec = DatasetSpec(poses=(), eval_points=0, training_repeats=0)
    manifest = generate_dataset(spec, tmp_path / "empty")
    assert manifest["frames"] == []
    assert list((tmp_path / "empty").glob("*.pgm")) == []


def test_dataset_fixed_seed_reproduces_bytes(tmp_path):
    spec = DatasetSpec(poses=default_poses()[:1], eval_points=3,
                       training_repeats=1, master_seed=99)
    m1 = generate_dataset(spec, tmp_path / "a")
    m2 = generate_dataset(spec, tmp_path / "b")
    assert m1 == m2
    for f in m1["frames"]:
        assert (tmp_path / "a" / f["file"]).read_bytes() == \
            (tmp_path / "b" / f["file"]).read_bytes()


def test_dataset_truth_matches_rendered_file(tmp_path):
    spec = DatasetSpec(poses=default_poses()[:1], eval_points=2,
                       training_repeats=0, master_seed=13)
    manifest = generate_dataset(spec, tmp_path / "ds")
    entry = manifest["frames"][0]
    truth = truth_from_manifest_entry(entry)
    rerendered = render_scene(truth, spec.layout, spec.render)
    stored = decode_pgm((tmp_path / "ds" / entry["file"]).read_bytes())
    assert_same_image(rerendered, stored)


def test_dataset_out_of_frame_pose_is_skipped_and_logged(tmp_path):
    bad = HeadPose(60.0, 240.0)  # face half out of the frame
    spec = DatasetSpec(poses=(bad,), eval_points=1, training_repeats=0, master_seed=1)
    manifest = generate_dataset(spec, tmp_path / "ds")
    assert manifest["frames"] == []
    assert len(manifest["skipped"]) == 1
    assert "margin" in manifest["skipped"][0]["error"]


def test_dataset_skip_between_good_poses_keeps_plan_order(tmp_path):
    """The noise drawn ahead for a skipped frame is not handed to the next
    one: every written frame matches the full-frame reference."""
    good = default_poses()
    spec = DatasetSpec(poses=(good[1], HeadPose(60.0, 240.0), good[4]), eval_points=2,
                       training_repeats=1, render=RenderConfig(noise_sigma=0.7),
                       master_seed=3)
    manifest = generate_dataset(spec, tmp_path / "ds")
    plan = ([f"train_p{p}_c{c}_r0.pgm" for p in range(3) for c in (1, 2, 3, 4)]
            + [f"eval_p{p}_k{k:02d}.pgm" for p in range(3) for k in (1, 2)])
    assert [f["file"] for f in manifest["frames"]] == [f for f in plan if "_p1_" not in f]
    assert [f["file"] for f in manifest["skipped"]] == [f for f in plan if "_p1_" in f]
    for entry in manifest["frames"]:
        stored = decode_pgm((tmp_path / "ds" / entry["file"]).read_bytes())
        want = reference_render(truth_from_manifest_entry(entry), spec.layout, spec.render,
                                entry["seed"])
        assert_same_image(stored, want, entry["file"])


def test_dataset_without_noise_starts_no_thread(tmp_path, monkeypatch):
    def refuse(thread):
        raise AssertionError(f"started {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    spec = DatasetSpec(poses=default_poses()[:1], eval_points=1, training_repeats=0,
                       render=RenderConfig(noise_sigma=0.0), master_seed=4)
    entry = generate_dataset(spec, tmp_path / "ds")["frames"][0]
    stored = decode_pgm((tmp_path / "ds" / entry["file"]).read_bytes())
    assert_same_image(stored, reference_render(truth_from_manifest_entry(entry), spec.layout,
                                               spec.render, entry["seed"]))


def test_synth_write_failure_exits_1_and_joins_the_worker(tmp_path, capsys):
    out = tmp_path / "ds"
    (out / "train_p0_c1_r0.pgm").mkdir(parents=True)
    before = set(threading.enumerate())
    assert main(["synth", "--out", str(out), "--poses", "1", "--points", "1"]) == 1
    assert f"cannot write dataset to {out}" in capsys.readouterr().err
    assert set(threading.enumerate()) <= before


def test_manifest_schema_fields(tmp_path):
    spec = DatasetSpec(poses=default_poses()[:1], eval_points=1,
                       training_repeats=1, master_seed=2)
    generate_dataset(spec, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert set(manifest) == {"screen", "frames", "skipped"}
    assert set(manifest["screen"]) == {"Lx", "Ly", "corners"}
    train = next(f for f in manifest["frames"] if f["role"] == "training")
    assert set(train) == {"file", "role", "gaze", "pose", "truth", "seed", "corner"}
    assert set(train["pose"]) == {"tx", "ty", "theta", "k"}
    assert set(train["truth"]) == {"x_mr", "y_mr", "x_mm", "y_mm", "x_ml", "y_ml",
                                   "x_pr", "y_pr", "x_pl", "y_pl"}


def _dataset_digest(directory) -> tuple[int, str]:
    """One SHA-256 over the sorted files: each file's name, then the
    SHA-256 of its bytes."""
    h = hashlib.sha256()
    files = sorted(directory.iterdir())
    for path in files:
        h.update(path.name.encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return len(files), h.hexdigest()


# Digests taken with the full-frame renderer; every frame and the manifest
# must keep these bytes.
@pytest.mark.parametrize("spec, n_files, digest", [
    (DatasetSpec(poses=default_poses()[:2], eval_points=5, training_repeats=2,
                 master_seed=1234),
     27, "8908fedc9bb3d58958a3e26629561206dbd82763750b7b7e9945e1c61a4477b1"),
    (DatasetSpec(poses=default_poses(1280, 1024)[:1], eval_points=3,
                 training_repeats=1, render=RenderConfig(width=1280, height=1024),
                 master_seed=7),
     8, "820600f0189c578975ed007982c90b35adfe043b693e72886b359b5d41aec85f"),
], ids=["640x480", "1280x1024"])
def test_dataset_bytes_are_pinned(tmp_path, spec, n_files, digest):
    generate_dataset(spec, tmp_path / "ds")
    assert _dataset_digest(tmp_path / "ds") == (n_files, digest)
