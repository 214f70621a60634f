import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import as_image, blank, paint_disk, paint_ellipse, reference_marker_mask
from irgaze.detection import (
    DetectConfig,
    EyeRoi,
    MarkerTriple,
    PupilDetection,
    PupilPair,
    detect_markers,
    detect_pupil,
    extract_eye_roi,
    marker_mask,
    observe_face,
    pupil_threshold,
    validate_pupil_pair,
)
from irgaze.errors import (
    AmbiguousPupil,
    DegenerateRoi,
    MarkerGeometryInvalid,
    MissingPupil,
    NoPupilFound,
    TooFewComponents,
)
from irgaze.imaging import Point, binarize
from irgaze.synth import (
    FaceLayout,
    GroundTruth,
    HeadPose,
    RenderConfig,
    default_poses,
    feature_model,
    render_scene,
)

LAYOUT = FaceLayout()
QUIET = RenderConfig(noise_sigma=0.0)


def rendered_frame(pose=HeadPose(320, 240), gaze=(0.5, 0.5), cfg=RenderConfig(), seed=7):
    feats = feature_model(pose, gaze, LAYOUT)
    truth = GroundTruth(features=feats, gaze_cm=Point(gaze[0] * 60, gaze[1] * 60),
                        pose=pose, seed=seed)
    return render_scene(truth, LAYOUT, cfg), feats


# --- pupil_threshold --------------------------------------------------------

def test_pupil_threshold_constant_region():
    roi = np.full((4, 4), 100, dtype=np.uint8)
    assert pupil_threshold(roi, 2.0) == 100.0


def test_pupil_threshold_weighted_example():
    roi = np.array([[10, 10, 100]], dtype=np.uint8)
    assert pupil_threshold(roi, 2.0) == pytest.approx(55.0)


def test_pupil_threshold_weight_one_is_plain_mean():
    rng = np.random.default_rng(3)
    roi = rng.integers(0, 256, (9, 7), dtype=np.uint8)
    assert pupil_threshold(roi, 1.0) == pytest.approx(float(roi.mean()))


def test_pupil_threshold_never_below_mean():
    rng = np.random.default_rng(4)
    for _ in range(20):
        roi = rng.integers(0, 256, (6, 6), dtype=np.uint8)
        assert pupil_threshold(roi, 2.0) >= float(roi.mean()) - 1e-9


# --- validate_pupil_pair -----------------------------------------------------

def pair_at(y_right, y_left):
    return PupilPair(
        right=PupilDetection(Point(150.0, y_right), 50, 0.1),
        left=PupilDetection(Point(50.0, y_left), 50, 0.1),
    )


def test_pair_check_bound_from_marker_geometry():
    markers = MarkerTriple(right=Point(200, 98), middle=Point(100, 130), left=Point(0, 102))
    cfg = DetectConfig()
    # bound = 0.25 * |(98-102) * (130-100)| = 30; floor = (0.02*~200)^2 ~ 16
    assert validate_pupil_pair(pair_at(105, 100), markers, cfg) is True
    assert validate_pupil_pair(pair_at(106, 100), markers, cfg) is False


def test_pair_check_level_markers_fall_to_floor():
    markers = MarkerTriple(right=Point(200, 100), middle=Point(100, 60), left=Point(0, 100))
    cfg = DetectConfig()
    floor = (cfg.pair_tolerance_floor * 200.0) ** 2
    ok_gap = np.sqrt(floor) - 0.1
    assert validate_pupil_pair(pair_at(100 + ok_gap, 100), markers, cfg) is True
    assert validate_pupil_pair(pair_at(100 + np.sqrt(floor) + 0.1, 100), markers, cfg) is False


def test_pair_check_equal_heights_always_pass():
    markers = MarkerTriple(right=Point(200, 100), middle=Point(100, 60), left=Point(0, 100))
    assert validate_pupil_pair(pair_at(123.4, 123.4), markers, DetectConfig()) is True


def test_pair_check_symmetric_under_swap():
    markers = MarkerTriple(right=Point(200, 98), middle=Point(100, 130), left=Point(0, 102))
    cfg = DetectConfig()
    a = validate_pupil_pair(pair_at(105, 101), markers, cfg)
    b = validate_pupil_pair(pair_at(101, 105), markers, cfg)
    assert a == b


def test_pair_check_needs_both_pupils():
    markers = MarkerTriple(right=Point(200, 100), middle=Point(100, 60), left=Point(0, 100))
    incomplete = PupilPair(right=PupilDetection(Point(1, 1), 5, 0.1), left=None)
    with pytest.raises(MissingPupil):
        validate_pupil_pair(incomplete, markers, DetectConfig())


# --- detect_markers -----------------------------------------------------------

def _frame(kind: str, h: int, w: int, rng) -> np.ndarray:
    if kind == "constant":
        return np.full((h, w), rng.integers(0, 256), dtype=np.uint8)
    if kind == "levels":  # 2-4 distinct levels
        levels = rng.choice(256, size=rng.integers(2, 5), replace=False)
        return rng.choice(levels, size=(h, w)).astype(np.uint8)
    # Gaussian noise clipped at 0 and 255, so the extremes pile up.
    noise = rng.normal(rng.uniform(0, 255), rng.uniform(1, 120), (h, w))
    return np.clip(np.round(noise), 0, 255).astype(np.uint8)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["noise", "levels", "constant"]),
    w=st.integers(1, 40),
    h=st.integers(1, 40),
    top_n=st.one_of(st.integers(1, 30), st.integers(1, 2000)),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="noise", w=37, h=1, top_n=4, seed=1)
@example(kind="noise", w=1, h=37, top_n=4, seed=1)
@example(kind="levels", w=6, h=5, top_n=30, seed=2)
@example(kind="levels", w=6, h=5, top_n=31, seed=2)
@example(kind="constant", w=5, h=4, top_n=3, seed=0)
def test_marker_mask_matches_the_equalized_frame_cut(kind, w, h, top_n, seed):
    """Cutting the raw frame at a level read off the histogram keeps the
    same pixels as equalizing the frame and partitioning it, including
    ties at the cut and top_n at or beyond the pixel count."""
    img = _frame(kind, h, w, np.random.default_rng(seed))
    assert np.array_equal(marker_mask(img, top_n), reference_marker_mask(img, top_n))


@pytest.mark.parametrize("width, height", [(640, 480), (1280, 1024)])
def test_marker_mask_matches_on_rendered_frames(width, height):
    """At 1280x1024 the equalized top-N cut saturates at 255 and keeps
    about ten times top_n pixels; the raw cut must keep exactly those."""
    cfg = RenderConfig(width=width, height=height)
    img, _ = rendered_frame(pose=default_poses(width, height)[0], cfg=cfg)
    top_n = DetectConfig().top_n
    expected = reference_marker_mask(img, top_n)
    assert np.array_equal(marker_mask(img, top_n), expected)
    if width == 1280:
        assert expected.sum() > 5 * top_n


def test_detect_markers_on_rendered_frame():
    img, feats = rendered_frame()
    markers = detect_markers(img, DetectConfig())
    assert markers.right.distance_to(feats.marker_right) < 1.5
    assert markers.middle.distance_to(feats.marker_middle) < 1.5
    assert markers.left.distance_to(feats.marker_left) < 1.5
    assert markers.regions is not None


def test_detect_markers_two_blobs_is_too_few():
    canvas = blank(640, 480, 30)
    paint_disk(canvas, 230, 290, 8, 250)
    paint_disk(canvas, 410, 290, 8, 250)
    with pytest.raises(TooFewComponents):
        detect_markers(as_image(canvas), DetectConfig())


def test_detect_markers_middle_above_outer_pair():
    canvas = blank(640, 480, 30)
    paint_disk(canvas, 230, 240, 8, 250)
    paint_disk(canvas, 410, 240, 8, 250)
    paint_disk(canvas, 320, 300, 8, 250)  # "middle" above the outer pair
    with pytest.raises(MarkerGeometryInvalid):
        detect_markers(as_image(canvas), DetectConfig())


def test_detect_markers_outer_pair_too_close():
    canvas = blank(640, 480, 30)
    paint_disk(canvas, 310, 240, 8, 250)
    paint_disk(canvas, 330, 240, 8, 250)
    paint_disk(canvas, 320, 200, 8, 250)
    with pytest.raises(MarkerGeometryInvalid):
        detect_markers(as_image(canvas), DetectConfig())


# --- extract_eye_roi -----------------------------------------------------------

def test_roi_rectangle_from_diagonal_corners():
    img = np.zeros((300, 300), dtype=np.uint8)
    markers = MarkerTriple(right=Point(200, 150), middle=Point(150, 100), left=Point(40, 150))
    roi = extract_eye_roi(img, markers, "right")
    assert roi.col_origin == 150
    assert roi.image.shape[1] == 51  # columns 150..200
    assert roi.image.shape[0] == 51  # Cartesian rows 100..150
    assert roi.row_origin == (300 - 1) - 150


def test_roi_masks_outer_marker_pixels():
    img, _ = rendered_frame(cfg=QUIET)
    cfg = DetectConfig()
    markers = detect_markers(img, cfg)
    roi = extract_eye_roi(img, markers, "right")
    mask = np.zeros(roi.image.shape, dtype=bool)
    for col, row in markers.regions[0].pixels:  # the right marker's blob
        r, c = row - roi.row_origin, col - roi.col_origin
        if 0 <= r < mask.shape[0] and 0 <= c < mask.shape[1]:
            mask[r, c] = True
    assert mask.any(), "outer marker blob should overlap the ROI corner"
    masked_values = roi.image[mask]
    unmasked_mean = roi.image[~mask].mean()
    assert np.all(np.abs(masked_values.astype(float) - unmasked_mean) <= 1.0)
    # middle-marker pixels are retained: the opposite corner keeps bright pixels
    assert roi.image.max() >= 200


def test_roi_degenerate_when_corners_coincide():
    img = np.zeros((100, 100), dtype=np.uint8)
    markers = MarkerTriple(right=Point(50, 50), middle=Point(50, 50), left=Point(10, 50))
    with pytest.raises(DegenerateRoi):
        extract_eye_roi(img, markers, "right")


def test_roi_rejects_unknown_side():
    img = np.zeros((50, 50), dtype=np.uint8)
    markers = MarkerTriple(right=Point(40, 40), middle=Point(20, 10), left=Point(0, 40))
    with pytest.raises(ValueError):
        extract_eye_roi(img, markers, "up")


# --- detect_pupil ---------------------------------------------------------------

def whole_roi(canvas, col_origin=0, row_origin=0, frame_height=None):
    img = as_image(canvas)
    return EyeRoi(image=img, col_origin=col_origin, row_origin=row_origin,
                  frame_height=img.shape[0] if frame_height is None else frame_height)


def test_detect_pupil_single_round_blob():
    canvas = blank(60, 40, 80)
    paint_disk(canvas, 30, 20, 5, 170)
    found = detect_pupil(whole_roi(canvas), DetectConfig(), 10.0)
    assert found.point.distance_to(Point(30, 20)) < 0.5
    assert found.eccentricity < 0.9
    assert found.area > 50


def test_detect_pupil_offsets_map_to_frame_coordinates():
    canvas = blank(60, 40, 80)
    paint_disk(canvas, 30, 20, 5, 170)
    roi = whole_roi(canvas, col_origin=100, row_origin=200, frame_height=480)
    found = detect_pupil(roi, DetectConfig(), 10.0)
    # ROI row of the blob center: (40-1)-20 = 19 -> frame row 219 -> y = 479-219
    assert found.point.x == pytest.approx(130, abs=0.5)
    assert found.point.y == pytest.approx(479 - 219, abs=0.5)


def test_detect_pupil_border_blob_rejected():
    canvas = blank(60, 40, 80)
    paint_disk(canvas, 30, 38, 5, 170)  # pokes past the top edge
    with pytest.raises(NoPupilFound):
        detect_pupil(whole_roi(canvas), DetectConfig(), 10.0)


def test_detect_pupil_two_persistent_blobs_ambiguous():
    canvas = blank(60, 40, 80)
    paint_disk(canvas, 20, 20, 5, 170)
    paint_disk(canvas, 40, 20, 5, 170)
    with pytest.raises(AmbiguousPupil):
        detect_pupil(whole_roi(canvas), DetectConfig(), 10.0)


def test_detect_pupil_retry_raises_threshold_until_unique():
    # dim distractor dies once the threshold climbs; bright pupil survives
    canvas = blank(60, 40, 80)
    paint_disk(canvas, 20, 20, 5, 140)
    paint_disk(canvas, 42, 20, 5, 235)
    found = detect_pupil(whole_roi(canvas), DetectConfig(), 10.0)
    assert found.point.distance_to(Point(42, 20)) < 0.5


def test_threshold_raising_shrinks_foreground():
    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, (30, 30), dtype=np.uint8)
    lo = binarize(img, 90.0)
    hi = binarize(img, 90.0 + 0.5 * (255 - 90.0))
    assert (hi <= lo).all()


# --- observe_face ------------------------------------------------------------

def test_observe_face_recovers_all_features():
    img, feats = rendered_frame(pose=HeadPose(330, 250, 0.03, 1.02), gaze=(0.3, 0.7))
    obs = observe_face(img, DetectConfig(), frame_id="f1")
    assert obs.frame_id == "f1"
    assert obs.pair_consistent is True
    assert obs.markers.right.distance_to(feats.marker_right) < 1.5
    assert obs.markers.middle.distance_to(feats.marker_middle) < 1.5
    assert obs.markers.left.distance_to(feats.marker_left) < 1.5
    assert obs.pupils.right.point.distance_to(feats.pupil_right) < 1.5
    assert obs.pupils.left.point.distance_to(feats.pupil_left) < 1.5
    assert obs.pupils.right.point.x >= obs.pupils.left.point.x


def test_observe_face_occluded_left_eye_degrades_to_right_only():
    img, feats = rendered_frame(cfg=QUIET)
    canvas = img.astype(np.float64).copy()
    paint_disk(canvas, feats.pupil_left.x, feats.pupil_left.y, 9, 80)
    obs = observe_face(as_image(canvas), DetectConfig())
    assert obs.pupils.left is None
    assert obs.pupils.right is not None
    assert obs.pair_consistent is None
    assert obs.pupils.right.point.distance_to(feats.pupil_right) < 1.5


def test_observe_face_drops_more_eccentric_pupil_on_pair_mismatch():
    canvas = blank(640, 480, 30)
    paint_ellipse(canvas, 320, 240, 140, 110, 80)  # face
    paint_disk(canvas, 410, 295, 7, 250)  # markers, perfectly level
    paint_disk(canvas, 230, 295, 7, 250)
    paint_disk(canvas, 320, 248, 7, 250)
    paint_disk(canvas, 365, 270, 5, 180)  # right pupil, round
    paint_ellipse(canvas, 275, 282, 8, 4, 180)  # left blob, high and elongated
    obs = observe_face(as_image(canvas), DetectConfig())
    assert obs.pair_consistent is False
    assert obs.pupils.left is None
    assert obs.pupils.right is not None
    assert obs.pupils.right.point.distance_to(Point(365, 270)) < 1.0


def test_observe_face_fails_when_no_eye_usable():
    img, feats = rendered_frame(cfg=QUIET)
    canvas = img.astype(np.float64).copy()
    paint_disk(canvas, feats.pupil_left.x, feats.pupil_left.y, 9, 80)
    paint_disk(canvas, feats.pupil_right.x, feats.pupil_right.y, 9, 80)
    with pytest.raises(NoPupilFound):
        observe_face(as_image(canvas), DetectConfig())


def test_observe_face_is_deterministic():
    img, _ = rendered_frame(pose=HeadPose(300, 230, -0.04, 0.95), gaze=(0.8, 0.2))
    cfg = DetectConfig()
    assert observe_face(img, cfg) == observe_face(img, cfg)


# --- DetectConfig -------------------------------------------------------------

def test_config_default_top_n_tracks_marker_area():
    assert DetectConfig(expected_marker_area=100.0).top_n == 300


@pytest.mark.parametrize("bad", [
    dict(expected_marker_area=0.5),  # top_n = round(1.5) = 2
    dict(eccentricity_max=0.0),
    dict(eccentricity_max=1.2),
    dict(max_retries=-1),
    dict(expected_marker_area=0.0),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        DetectConfig(**bad)


def test_config_replace_keeps_frozen_semantics():
    cfg = DetectConfig()
    derived = dataclasses.replace(cfg, max_retries=2)
    assert cfg.max_retries == 5
    assert derived.max_retries == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_retries = 1
