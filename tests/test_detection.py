import dataclasses
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (as_image, blank, flood_fill_components, paint_disk, paint_ellipse,
                     reference_detect_pupil, reference_marker_mask)
from irgaze import detection
from irgaze.detection import (
    MAX_RETRIES,
    PAIR_TOLERANCE_FLOOR,
    PUPIL_DIAMETER_FRACTION,
    DetectConfig,
    EyeRoi,
    MarkerTriple,
    PupilDetection,
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
    DetectionError,
    MarkerGeometryInvalid,
    NoPupilFound,
    TooFewComponents,
)
from irgaze.imaging import Point, binarize, connected_components, decode_pgm
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
    assert pupil_threshold(roi) == 100.0


def test_pupil_threshold_weighted_example():
    roi = np.array([[10, 10, 100]], dtype=np.uint8)
    assert pupil_threshold(roi) == pytest.approx(55.0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pupil_threshold_counts_above_mean_pixels_high_mean_weight_times(seed):
    """Checked in exact rational arithmetic against the weighted mean."""
    roi = np.random.default_rng(seed).integers(0, 256, (5 + seed, 8), dtype=np.uint8)
    vals = [int(v) for v in roi.ravel()]
    mean = Fraction(sum(vals), len(vals))
    weight = Fraction(detection.HIGH_MEAN_WEIGHT)
    weights = [weight if v > mean else 1 for v in vals]
    expected = sum(wt * v for wt, v in zip(weights, vals)) / sum(weights)
    assert pupil_threshold(roi) == pytest.approx(float(expected), rel=1e-12)


def test_pupil_threshold_never_below_mean():
    rng = np.random.default_rng(4)
    for _ in range(20):
        roi = rng.integers(0, 256, (6, 6), dtype=np.uint8)
        assert pupil_threshold(roi) >= float(roi.mean()) - 1e-9


# --- validate_pupil_pair -----------------------------------------------------

def pair_at(y_right, y_left):
    return (PupilDetection(Point(150.0, y_right), 50, 0.1),
            PupilDetection(Point(50.0, y_left), 50, 0.1))


def test_pair_check_bound_from_marker_geometry():
    markers = MarkerTriple(right=Point(200, 98), middle=Point(100, 130), left=Point(0, 102))
    # bound = 0.25 * |(98-102) * (130-100)| = 30; floor = (0.02*~200)^2 ~ 16
    assert validate_pupil_pair(*pair_at(105, 100), markers) is True
    assert validate_pupil_pair(*pair_at(106, 100), markers) is False


def test_pair_check_level_markers_fall_to_floor():
    markers = MarkerTriple(right=Point(200, 100), middle=Point(100, 60), left=Point(0, 100))
    floor = (PAIR_TOLERANCE_FLOOR * 200.0) ** 2
    ok_gap = np.sqrt(floor) - 0.1
    assert validate_pupil_pair(*pair_at(100 + ok_gap, 100), markers) is True
    assert validate_pupil_pair(*pair_at(100 + np.sqrt(floor) + 0.1, 100), markers) is False


def test_pair_check_equal_heights_always_pass():
    markers = MarkerTriple(right=Point(200, 100), middle=Point(100, 60), left=Point(0, 100))
    assert validate_pupil_pair(*pair_at(123.4, 123.4), markers) is True


def test_pair_check_symmetric_under_swap():
    markers = MarkerTriple(right=Point(200, 98), middle=Point(100, 130), left=Point(0, 102))
    a = validate_pupil_pair(*pair_at(105, 101), markers)
    b = validate_pupil_pair(*pair_at(101, 105), markers)
    assert a == b


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


def _mask_inputs():
    """Frames whose bytes do not pair up evenly or do not lie in one run."""
    rng = np.random.default_rng(23)
    big = _frame("noise", 61, 47, rng)
    return {
        "odd-count": _frame("noise", 37, 21, rng),
        "odd-count-levels": _frame("levels", 3, 5, rng),
        "one-pixel": big[:1, :1].copy(),
        "one-pixel-view": big[5:6, 7:8],
        "strided": big[::2, ::3],
        "column-cut": big[:, 1:],
        "transposed": big.T,
        "odd-offset": big.ravel()[1 : 1 + 45 * 47].reshape(45, 47),
    }


@pytest.mark.parametrize("name", sorted(_mask_inputs()))
@pytest.mark.parametrize("top_n", [1, 3, 462, 10**6])
def test_marker_mask_counts_odd_and_strided_frames(name, top_n):
    """The pixel-pair histogram counts an odd last byte on its own and
    takes strided or misaligned views as they are."""
    img = _mask_inputs()[name]
    assert np.array_equal(marker_mask(img, top_n), reference_marker_mask(img, top_n))


def test_detect_markers_on_rendered_frame():
    img, feats = rendered_frame()
    markers = detect_markers(img, DetectConfig())
    assert markers.right.distance_to(feats.marker_right) < 1.5
    assert markers.middle.distance_to(feats.marker_middle) < 1.5
    assert markers.left.distance_to(feats.marker_left) < 1.5
    assert markers.blobs.shape == img.shape and markers.blobs.dtype == bool
    assert not markers.blobs.flags.writeable


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
    mask = markers.blobs[roi.row_origin : roi.row_origin + roi.image.shape[0],
                         roi.col_origin : roi.col_origin + roi.image.shape[1]]
    assert mask.any(), "outer marker blob should overlap the ROI corner"
    masked_values = roi.image[mask]
    unmasked_mean = roi.image[~mask].mean()
    assert np.all(np.abs(masked_values.astype(float) - unmasked_mean) <= 1.0)
    # middle-marker pixels are retained: the opposite corner keeps bright pixels
    assert roi.image.max() >= 200


def test_roi_masks_only_the_marker_blobs_own_pixels():
    """A bright speck inside the right marker's bounding box and inside the
    right eye region, but not touching the marker, keeps its value: the
    mask is the blob's own pixels, read off the label image, not every
    bright pixel of its box."""
    canvas = blank(640, 480, 30)
    paint_disk(canvas, 230, 290, 8, 250)
    paint_disk(canvas, 410, 290, 8, 250)
    paint_disk(canvas, 320, 250, 8, 250)
    speck = np.array([(480 - 1) - 282, 402])  # (row, col): the box's corner toward the middle
    canvas[speck[0], speck[1]] = 250
    img = as_image(canvas)
    markers = detect_markers(img, DetectConfig())
    blob = np.argwhere(markers.blobs)
    blob = blob[blob[:, 1] > 320]  # the right marker's pixels
    assert (blob.min(axis=0) <= speck).all() and (speck <= blob.max(axis=0)).all()
    assert np.abs(blob - speck).max(axis=1).min() > 1, "speck must not touch the marker"

    roi = extract_eye_roi(img, markers, "right")
    origin = (roi.row_origin, roi.col_origin)
    speck_r, speck_c = speck - origin
    assert roi.image[speck_r, speck_c] == 250
    own = blob - origin
    own = own[((own >= 0) & (own < roi.image.shape)).all(axis=1)]
    assert len(own) > 10, "the marker blob should overlap the ROI corner"
    mask = np.zeros(roi.image.shape, dtype=bool)
    mask[own[:, 0], own[:, 1]] = True
    crop = img[roi.row_origin : roi.row_origin + roi.image.shape[0],
               roi.col_origin : roi.col_origin + roi.image.shape[1]]
    fill = np.floor(crop[~mask].mean() + 0.5)
    assert (roi.image[mask] == fill).all()
    assert np.array_equal(roi.image[~mask], crop[~mask])


@pytest.mark.parametrize("width, height", [(640, 480), (1280, 1024)])
def test_blobs_and_rois_match_the_flood_fill_components(width, height):
    """``blobs`` is the union of the flood-fill components of the marker
    mask that hold the outer markers' true centers, and each eye region is
    its crop with those pixels set to the rounded mean of the rest, also
    where the mask saturates into thousands of regions at 1280x1024."""
    img, feats = rendered_frame(pose=default_poses(width, height)[0],
                                cfg=RenderConfig(width=width, height=height))
    components = flood_fill_components(marker_mask(img, DetectConfig().top_n))
    assert (len(components) > 1000) == (width == 1280)
    expected = np.zeros(img.shape, dtype=bool)
    for center in (feats.marker_right, feats.marker_left):
        pixel = (height - 1 - round(center.y), round(center.x))
        rows, cols = zip(*next(c for c in components if pixel in c))
        expected[rows, cols] = True

    markers = detect_markers(img, DetectConfig())
    assert np.array_equal(markers.blobs, expected)
    for side in ("right", "left"):
        roi = extract_eye_roi(img, markers, side)
        window = np.s_[roi.row_origin : roi.row_origin + roi.image.shape[0],
                       roi.col_origin : roi.col_origin + roi.image.shape[1]]
        crop, mask = img[window].copy(), expected[window]
        assert mask.any(), f"the {side} marker blob should overlap its eye region"
        crop[mask] = np.floor(crop[~mask].mean() + 0.5)
        assert np.array_equal(roi.image, crop)


def test_roi_degenerate_when_corners_coincide():
    img = np.zeros((100, 100), dtype=np.uint8)
    markers = MarkerTriple(right=Point(50, 50), middle=Point(50, 50), left=Point(10, 50))
    with pytest.raises(DegenerateRoi):
        extract_eye_roi(img, markers, "right")


@pytest.mark.parametrize("width, height", [(300, 400), (1280, 1024)])
def test_roi_rejects_blobs_of_another_frame(width, height):
    """A triple detected on a 640x480 frame, applied to a frame of another
    shape, once masked that frame's pixels at the wrong place, or none."""
    img, _ = rendered_frame()
    markers = detect_markers(img, DetectConfig())
    other = np.zeros((height, width), dtype=np.uint8)
    shapes = re.escape(f"shape {(480, 640)}, the frame {(height, width)}")
    for side in ("right", "left"):
        with pytest.raises(ValueError, match=shapes):
            extract_eye_roi(other, markers, side)


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
    (found,) = detect_pupil([whole_roi(canvas)], 10.0)
    assert found.point.distance_to(Point(30, 20)) < 0.5
    assert found.eccentricity < 0.9
    assert found.area > 50


def test_detect_pupil_offsets_map_to_frame_coordinates():
    canvas = blank(60, 40, 80)
    paint_disk(canvas, 30, 20, 5, 170)
    roi = whole_roi(canvas, col_origin=100, row_origin=200, frame_height=480)
    (found,) = detect_pupil([roi], 10.0)
    # ROI row of the blob center: (40-1)-20 = 19 -> frame row 219 -> y = 479-219
    assert found.point.x == pytest.approx(130, abs=0.5)
    assert found.point.y == pytest.approx(479 - 219, abs=0.5)


def test_detect_pupil_border_blob_rejected():
    canvas = blank(60, 40, 80)
    paint_disk(canvas, 30, 38, 5, 170)  # pokes past the top edge
    (found,) = detect_pupil([whole_roi(canvas)], 10.0)
    assert isinstance(found, NoPupilFound)


def test_detect_pupil_two_persistent_blobs_ambiguous():
    canvas = blank(60, 40, 80)
    paint_disk(canvas, 20, 20, 5, 170)
    paint_disk(canvas, 40, 20, 5, 170)
    (found,) = detect_pupil([whole_roi(canvas)], 10.0)
    assert isinstance(found, AmbiguousPupil)


def test_detect_pupil_retry_raises_threshold_until_unique():
    # dim distractor dies once the threshold climbs; bright pupil survives
    canvas = blank(60, 40, 80)
    paint_disk(canvas, 20, 20, 5, 140)
    paint_disk(canvas, 42, 20, 5, 235)
    (found,) = detect_pupil([whole_roi(canvas)], 10.0)
    assert found.point.distance_to(Point(42, 20)) < 0.5


def test_detect_pupil_of_no_region_is_empty():
    assert detect_pupil([], 10.0) == []


def test_threshold_raising_shrinks_foreground():
    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, (30, 30), dtype=np.uint8)
    lo = binarize(img, 90.0)
    hi = binarize(img, 90.0 + 0.5 * (255 - 90.0))
    assert (hi <= lo).all()


def ladder_exit(roi, pupil_diameter, found=None):
    """Where the reference ladder left: ("unique", step), ("NoPupilFound",
    step) or ("AmbiguousPupil", MAX_RETRIES + 1); with ``found``, the
    outcome ``detect_pupil`` gave for ``roi`` (by default from a call on
    ``roi`` alone), checked against the reference's on the way: the
    detection's point, area and eccentricity with ==, or the error's class
    and message."""
    if found is None:
        (found,) = detect_pupil([roi], pupil_diameter)
    try:
        expected, steps = reference_detect_pupil(roi, pupil_diameter)
    except DetectionError as exc:
        assert type(found) is type(exc) and str(found) == str(exc)
        attempt = re.search(r"\(attempt (\d+)\)$", str(exc))
        return type(exc).__name__, int(attempt[1]) if attempt else MAX_RETRIES + 1
    assert (found.point, found.area, found.eccentricity) == (
        expected.point, expected.area, expected.eccentricity)
    assert type(found.area) is int and type(found.eccentricity) is float
    return "unique", steps


def _eye_rois(spec, tmp_path):
    manifest = generate_dataset(spec, tmp_path)
    for entry in manifest["frames"]:
        img = decode_pgm((tmp_path / entry["file"]).read_bytes())
        markers = detect_markers(img, DetectConfig())
        for side in ("right", "left"):
            yield (extract_eye_roi(img, markers, side),
                   PUPIL_DIAMETER_FRACTION * markers.outer_distance())


def _two_ridged_disks():
    """Two disks that both pass the first cuts, each with a 1-px-wide ridge
    that alone passes the later ones and that the radius-1 opening removes."""
    canvas = blank(60, 40, 80)
    for cx in (18, 42):
        paint_disk(canvas, cx, 20, 5, 170)
        canvas[19, cx - 4 : cx + 5] = 250
    return whole_roi(canvas), 20.0


def test_detect_pupil_matches_the_reference_ladder_on_every_exit(tmp_path):
    """Every eye ROI of a seeded 640x480 and 1280x1024 dataset, and ROIs
    built to leave the ladder at each of its exits."""
    rois = [*_eye_rois(DatasetSpec(eval_points=4, training_repeats=1, master_seed=17),
                       tmp_path / "640"),
            *_eye_rois(DatasetSpec(poses=default_poses(1280, 1024)[:2], eval_points=4,
                                   training_repeats=1,
                                   render=RenderConfig(width=1280, height=1024),
                                   master_seed=17), tmp_path / "1280")]
    assert len(rois) == 2 * (6 * 8 + 2 * 8)
    one_disk, two_disks, distractor = blank(60, 40, 80), blank(60, 40, 80), blank(60, 40, 80)
    paint_disk(one_disk, 30, 20, 5, 170)
    for canvas, level in ((two_disks, 170), (distractor, 140)):
        paint_disk(canvas, 20, 20, 5, level)
        paint_disk(canvas, 42, 20, 5, 235 if level == 140 else 170)
    rois += [(whole_roi(canvas), 10.0) for canvas in (one_disk, two_disks, distractor)]
    rois.append(_two_ridged_disks())
    exits = {(kind, step > 1) for kind, step in map(ladder_exit, *zip(*rois))}
    assert {("unique", False), ("unique", True), ("NoPupilFound", True),
            ("AmbiguousPupil", True)} <= exits


@settings(max_examples=120, deadline=None, derandomize=True)
@given(w=st.integers(6, 90), h=st.integers(6, 70), disks=st.integers(0, 3),
       diameter=st.floats(5.0, 60.0), seed=st.integers(0, 2**32 - 1))
def test_detect_pupil_matches_the_reference_ladder_on_random_rois(w, h, disks, diameter,
                                                                  seed):
    """Noise plus up to three bright disks of about the pupil's size."""
    rng = np.random.default_rng(seed)
    canvas = rng.normal(rng.uniform(30.0, 120.0), rng.uniform(0.0, 25.0), (h, w))
    for _ in range(disks):
        paint_disk(canvas, rng.uniform(0, w - 1), rng.uniform(0, h - 1),
                   0.5 * diameter * rng.uniform(0.3, 1.2), int(rng.integers(120, 256)))
    row_origin = int(rng.integers(0, 300))
    roi = EyeRoi(image=as_image(canvas), col_origin=int(rng.integers(0, 400)),
                 row_origin=row_origin, frame_height=row_origin + h + int(rng.integers(0, 300)))
    ladder_exit(roi, diameter)


def _shaped_exit_rois():
    """ROIs of five shapes, built to leave the ladder at each of its exits,
    two of them with a blob cut by the ROI's top or right edge."""
    one_disk, two_disks, distractor = blank(52, 36, 80), blank(70, 44, 80), blank(64, 50, 80)
    paint_disk(one_disk, 26, 18, 5, 170)
    paint_disk(two_disks, 22, 22, 5, 170)
    paint_disk(two_disks, 46, 22, 5, 170)
    paint_disk(distractor, 20, 25, 5, 140)
    paint_disk(distractor, 42, 25, 5, 235)
    top_cut, right_cut = blank(40, 30, 80), blank(40, 30, 80)
    paint_disk(top_cut, 20, 28, 5, 170)
    paint_disk(right_cut, 38, 15, 5, 170)
    return [*((whole_roi(canvas), 10.0)
              for canvas in (one_disk, two_disks, distractor, top_cut, right_cut)),
            _two_ridged_disks()]


def test_detect_pupil_matches_the_reference_for_each_region_of_one_call():
    """Two regions of different shapes share one stack, the smaller one's
    top and right edges inside it: each must leave the ladder as the
    reference does on that region alone, with a 640x480 frame's two eye
    regions among them."""
    img, _ = rendered_frame()
    markers = detect_markers(img, DetectConfig())
    rois = [*_shaped_exit_rois(),
            *((extract_eye_roi(img, markers, side), 10.0) for side in ("right", "left"))]
    exits = set()
    for (a, diameter), (b, _) in itertools.permutations(rois, 2):
        if a.image.shape == b.image.shape:
            continue
        found = detect_pupil([a, b], diameter)
        assert len(found) == 2
        exits |= {(kind, step > 1) for kind, step in (ladder_exit(a, diameter, found[0]),
                                                       ladder_exit(b, diameter, found[1]))}
    assert {("unique", False), ("unique", True), ("NoPupilFound", False),
            ("NoPupilFound", True), ("AmbiguousPupil", True)} <= exits


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


def test_observe_face_drops_an_eye_whose_region_is_too_narrow():
    """A middle marker 1 px right of the left one leaves the left eye a
    region under 4 px wide: that eye is absent and the right one is kept."""
    canvas = blank(640, 480, 30)
    paint_ellipse(canvas, 320, 240, 140, 110, 80)  # face
    paint_disk(canvas, 410, 295, 7, 250)  # markers: right, left, middle
    paint_disk(canvas, 230, 295, 7, 250)
    paint_disk(canvas, 231, 248, 7, 250)
    paint_disk(canvas, 365, 270, 5, 180)  # right pupil
    img = as_image(canvas)
    with pytest.raises(DegenerateRoi):
        extract_eye_roi(img, detect_markers(img, DetectConfig()), "left")
    obs = observe_face(img, DetectConfig())
    assert obs.pupils.left is None and obs.pair_consistent is None
    assert obs.pupils.right.point.distance_to(Point(365, 270)) < 1.0


def test_observe_face_fails_when_no_eye_usable():
    img, feats = rendered_frame(cfg=QUIET)
    canvas = img.astype(np.float64).copy()
    paint_disk(canvas, feats.pupil_left.x, feats.pupil_left.y, 9, 80)
    paint_disk(canvas, feats.pupil_right.x, feats.pupil_right.y, 9, 80)
    with pytest.raises(NoPupilFound):
        observe_face(as_image(canvas), DetectConfig())


def test_observe_face_labels_twice_per_frame(monkeypatch):
    """Once for the markers, once for both eyes' ladders together."""
    shapes = []

    def counting(mask):
        shapes.append(mask.shape)
        return connected_components(mask)

    monkeypatch.setattr(detection, "connected_components", counting)
    img, _ = rendered_frame()
    obs = observe_face(img, DetectConfig())
    assert obs.pupils.right is not None and obs.pupils.left is not None
    assert len(shapes) == 2
    assert shapes[0] == img.shape and shapes[1][0] == 2 * (MAX_RETRIES + 1)


def test_observe_face_is_deterministic():
    img, _ = rendered_frame(pose=HeadPose(300, 230, -0.04, 0.95), gaze=(0.8, 0.2))
    cfg = DetectConfig()
    first, second = observe_face(img, cfg), observe_face(img, cfg)
    assert first == second
    assert np.array_equal(first.markers.blobs, second.markers.blobs)


# --- DetectConfig -------------------------------------------------------------

def test_config_default_top_n_tracks_marker_area():
    assert DetectConfig(expected_marker_area=100.0).top_n == 300


# Case ids are fixed names, not list positions: retired cases leave gaps.
@pytest.mark.parametrize("bad", [
    pytest.param(dict(expected_marker_area=0.5), id="bad0"),  # top_n = round(1.5) = 2
    pytest.param(dict(expected_marker_area=0.0), id="bad4"),
    pytest.param(dict(expected_marker_area=1e308), id="huge"),  # 3 x area is inf
    pytest.param(dict(expected_marker_area=10**400), id="beyond-float"),  # was OverflowError
    pytest.param(dict(expected_marker_area=float("nan")), id="nan"),
    pytest.param(dict(expected_marker_area="153.9"), id="string"),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        DetectConfig(**bad)


def test_config_replace_keeps_frozen_semantics():
    cfg = DetectConfig()
    derived = dataclasses.replace(cfg, expected_marker_area=4.0 * cfg.expected_marker_area)
    assert cfg.expected_marker_area == math.pi * 7.0 * 7.0
    assert (cfg.top_n, derived.top_n) == (462, 1847)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.expected_marker_area = 1.0
