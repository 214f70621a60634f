import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import observation_from_row, select_closest_reference, synthetic_observation
from irgaze import gaze
from irgaze.detection import MarkerTriple, PupilDetection, PupilPair, FaceObservation
from irgaze.errors import (
    DegenerateTraining,
    DegenerateTriangle,
    EmptyCorner,
    EmptyInput,
    IncompleteObservation,
    NoUsableEye,
)
from irgaze.gaze import (
    CORNERS,
    MARKER_COLS,
    METRICS,
    ScreenGeometry,
    TrainingSet,
    accuracy_table,
    build_training_set,
    congruency,
    estimate_gaze,
    estimate_gaze_single_eye,
    score_accuracy,
    select_closest,
)
from irgaze.imaging import Point
from irgaze.synth import HeadPose

SCREEN = ScreenGeometry(60.0, 60.0)


def triple_with_edges_equilateral(side: float, offset=(0.0, 0.0)) -> MarkerTriple:
    ox, oy = offset
    return MarkerTriple(
        right=Point(ox + side, oy),
        middle=Point(ox + side / 2, oy - side * math.sqrt(3) / 2),
        left=Point(ox, oy),
    )


def scaled(t: MarkerTriple, k: float) -> MarkerTriple:
    return MarkerTriple(
        right=Point(t.right.x * k, t.right.y * k),
        middle=Point(t.middle.x * k, t.middle.y * k),
        left=Point(t.left.x * k, t.left.y * k),
    )


def vector_row(markers: MarkerTriple, pupil_right, pupil_left) -> tuple[float, ...]:
    """One training vector as its ten coordinates, in COORD_KEYS order."""
    return (*markers.right, *markers.middle, *markers.left, *pupil_right, *pupil_left)


def vector_at(pupil_right, pupil_left=None, middle=Point(100.0, 50.0)):
    """Training vector with a simple fixed marker triangle."""
    if pupil_left is None:
        pupil_left = Point(pupil_right.x - 60.0, pupil_right.y)
    markers = MarkerTriple(right=Point(middle.x + 80, middle.y + 45), middle=middle,
                           left=Point(middle.x - 80, middle.y + 45))
    return vector_row(markers, pupil_right, pupil_left)


def rectangle_pupils():
    """Axis-aligned pupil rectangle: p1..p4 at the canonical example spots."""
    return {1: Point(100, 110), 2: Point(120, 110), 3: Point(100, 90), 4: Point(120, 90)}


# --- congruency ----------------------------------------------------------------

def test_congruency_identical_triangles_is_zero():
    t = triple_with_edges_equilateral(10.0)
    assert congruency(t, t) == 0.0


def test_congruency_equilateral_10_vs_20():
    a = triple_with_edges_equilateral(10.0)
    b = triple_with_edges_equilateral(20.0)
    assert congruency(a, b) == pytest.approx(1.5, abs=1e-12)


def test_congruency_right_triangle_double():
    # edges a = (6, 8, 10), b = (3, 4, 5), role-paired
    a = MarkerTriple(right=Point(10, 0), middle=Point(6.4, -4.8), left=Point(0, 0))
    b = MarkerTriple(right=Point(5, 0), middle=Point(3.2, -2.4), left=Point(0, 0))
    assert congruency(a, b) == pytest.approx(-3.0, abs=1e-12)


@pytest.mark.parametrize("k", [0.5, 1.1, 2.0])
def test_congruency_uniform_scale(k):
    a = triple_with_edges_equilateral(37.0, offset=(12.0, -4.0))
    assert congruency(a, scaled(a, k)) == pytest.approx(3.0 - 3.0 / k, abs=1e-12)


@pytest.mark.parametrize("degenerate", ["a", "b"])
def test_congruency_degenerate_edge(degenerate):
    """Either triangle with an edge under 1e-9 raises, with the one message
    that a training-set row or an observation row would also get."""
    collapsed = MarkerTriple(right=Point(1, 1), middle=Point(1, 1), left=Point(0, 0))
    good = triple_with_edges_equilateral(5.0)
    a, b = (collapsed, good) if degenerate == "a" else (good, collapsed)
    with pytest.raises(DegenerateTriangle, match="^marker triangle has an edge under 1e-9$"):
        congruency(a, b)


# --- training set -------------------------------------------------------------

def obs_for_corner(c, scale=1.0, frame=""):
    pose = HeadPose(320, 240, 0.0, scale)
    s = {1: (0.0, 1.0), 2: (1.0, 1.0), 3: (0.0, 0.0), 4: (1.0, 0.0)}[c]
    return synthetic_observation(pose, s, frame_id=frame)


def test_build_training_set_one_per_corner():
    ts = build_training_set([(obs_for_corner(c), c) for c in (1, 2, 3, 4)], SCREEN)
    assert ts.counts() == {1: 1, 2: 1, 3: 1, 4: 1}


def test_build_training_set_missing_corner():
    with pytest.raises(EmptyCorner) as info:
        build_training_set([(obs_for_corner(c), c) for c in (1, 2, 3)], SCREEN)
    assert info.value.corner == 4


def test_build_training_set_rejects_one_eyed_observation():
    obs = obs_for_corner(1)
    one_eyed = FaceObservation(
        markers=obs.markers,
        pupils=PupilPair(right=obs.pupils.right, left=None),
        frame_id="x",
    )
    with pytest.raises(IncompleteObservation):
        build_training_set([(one_eyed, 1)], SCREEN)


def test_build_training_set_rejects_bad_corner_index():
    with pytest.raises(ValueError):
        build_training_set([(obs_for_corner(1), 5)], SCREEN)


def test_training_set_needs_one_ten_column_row_per_frame_id():
    rows = {c: [[1.0] * (9 if c == 3 else 10)] for c in CORNERS}
    with pytest.raises(ValueError, match=r"corner 3: need one 10-column row per frame id, "
                                         r"got shape \(1, 9\)"):
        make_ts(rows)


def test_build_training_set_groups_600_frames():
    poses = [HeadPose(320 + 5 * i, 240 - 3 * i, 0.0, 0.9 + 0.02 * i) for i in range(6)]
    labeled = []
    for pose in poses:
        for c in (1, 2, 3, 4):
            s = {1: (0.0, 1.0), 2: (1.0, 1.0), 3: (0.0, 0.0), 4: (1.0, 0.0)}[c]
            for rep in range(25):
                labeled.append((synthetic_observation(pose, s, frame_id=f"{c}-{rep}"), c))
    ts = build_training_set(labeled, SCREEN)
    assert ts.counts() == {1: 150, 2: 150, 3: 150, 4: 150}


def test_training_set_round_trips_losslessly(tmp_path):
    labeled = [(obs_for_corner(c, scale=1.0 + 0.01 * c, frame=f"f{c}"), c)
               for c in (1, 2, 3, 4)]
    ts = build_training_set(labeled, SCREEN, metric="euclidean")
    path = tmp_path / "ts.json"
    ts.save(path)
    loaded = TrainingSet.from_dict(json.loads(path.read_text()))
    assert loaded.metric == "euclidean"
    assert loaded.screen == ts.screen
    for c in (1, 2, 3, 4):
        # exact float equality: round trip is lossless
        assert np.array_equal(loaded.by_corner[c], ts.by_corner[c])
        assert loaded.frame_ids[c] == ts.frame_ids[c] == (f"f{c}",)
    assert loaded.to_dict() == ts.to_dict()


def test_training_set_schema_field_names(tmp_path):
    ts = build_training_set([(obs_for_corner(c), c) for c in (1, 2, 3, 4)], SCREEN)
    doc = ts.to_dict()
    assert set(doc) == {"screen", "metric", "corners"}
    assert set(doc["screen"]) == {"Lx", "Ly", "corners"}
    assert set(doc["corners"]) == {"1", "2", "3", "4"}
    vec = doc["corners"]["1"][0]
    assert set(vec) == {"frame", "x_mr", "y_mr", "x_mm", "y_mm", "x_ml", "y_ml",
                        "x_pr", "y_pr", "x_pl", "y_pl"}
    json.dumps(doc)  # stays plain JSON


# --- select_closest -----------------------------------------------------------

def make_ts(rows_by_corner, metric="congruency", frame_ids=None):
    """Training set from {corner: [ten-coordinate row, ...]}."""
    if frame_ids is None:
        frame_ids = {c: ("",) * len(rows) for c, rows in rows_by_corner.items()}
    return TrainingSet(
        by_corner={c: np.array(rows, dtype=np.float64) for c, rows in rows_by_corner.items()},
        frame_ids={c: tuple(ids) for c, ids in frame_ids.items()},
        screen=SCREEN, metric=metric,
    )


def marker_values(t: MarkerTriple) -> list[float]:
    return [*t.right, *t.middle, *t.left]


def test_select_exact_match_wins():
    base = obs_for_corner(1)
    ts = build_training_set(
        [(obs_for_corner(1), 1), (obs_for_corner(1, scale=1.3), 1),
         (obs_for_corner(2), 2), (obs_for_corner(3), 3), (obs_for_corner(4), 4)],
        SCREEN,
    )
    chosen = select_closest(ts, base)
    assert chosen[1] == 0
    assert ts.by_corner[1][chosen[1], MARKER_COLS].tolist() == marker_values(base.markers)


def test_select_smaller_scale_mismatch_wins():
    base = triple_with_edges_equilateral(40.0)
    near = vector_row(scaled(base, 1.1), Point(0, 0), Point(-1, 0))
    far = vector_row(scaled(base, 2.0), Point(0, 0), Point(-1, 0))
    others = {c: [vector_at(Point(10 * c, 5))] for c in (2, 3, 4)}
    ts = make_ts({1: [far, near], **others},
                 frame_ids={1: ("x2.0", "x1.1"), 2: ("",), 3: ("",), 4: ("",)})
    obs = FaceObservation(
        markers=base,
        pupils=PupilPair(PupilDetection(Point(1, 1), 9, 0.1),
                         PupilDetection(Point(0, 1), 9, 0.1)),
    )
    assert ts.frame_ids[1][select_closest(ts, obs)[1]] == "x1.1"


def test_select_tie_breaks_on_middle_marker_distance():
    base = triple_with_edges_equilateral(40.0)
    near = vector_row(triple_with_edges_equilateral(40.0, offset=(5, 5)),
                      Point(0, 0), Point(-1, 0))
    far = vector_row(triple_with_edges_equilateral(40.0, offset=(50, 50)),
                     Point(0, 0), Point(-1, 0))
    others = {c: [vector_at(Point(10 * c, 5))] for c in (2, 3, 4)}
    ts = make_ts({1: [far, near], **others},
                 frame_ids={1: ("far", "near"), 2: ("",), 3: ("",), 4: ("",)})
    obs = FaceObservation(
        markers=base,
        pupils=PupilPair(PupilDetection(Point(1, 1), 9, 0.1),
                         PupilDetection(Point(0, 1), 9, 0.1)),
    )
    assert ts.frame_ids[1][select_closest(ts, obs)[1]] == "near"


def test_select_congruency_ignores_input_translation():
    obs = obs_for_corner(2)
    shifted = FaceObservation(
        markers=MarkerTriple(
            right=obs.markers.right.shifted(31.0, -17.0),
            middle=obs.markers.middle.shifted(31.0, -17.0),
            left=obs.markers.left.shifted(31.0, -17.0),
        ),
        pupils=obs.pupils,
    )
    ts = build_training_set(
        [(obs_for_corner(c, scale=1.0), c) for c in (1, 2, 3, 4)]
        + [(obs_for_corner(c, scale=1.2), c) for c in (1, 2, 3, 4)],
        SCREEN,
    )
    a = select_closest(ts, obs)
    b = select_closest(ts, shifted)
    assert a == b


def test_select_euclidean_metric():
    obs = obs_for_corner(1)
    ts = build_training_set(
        [(obs_for_corner(c), c) for c in (1, 2, 3, 4)]
        + [(obs_for_corner(c, scale=1.15), c) for c in (1, 2, 3, 4)],
        SCREEN, metric="euclidean",
    )
    chosen = select_closest(ts, obs)
    assert ts.by_corner[1][chosen[1], MARKER_COLS].tolist() == marker_values(obs.markers)


COORD = st.one_of(st.integers(-6, 6).map(lambda v: 0.5 * v),
                  st.floats(-100.0, 100.0, allow_nan=False))


@st.composite
def selection_cases(draw):
    """A training set built from a few triangles, each reused exactly or
    translated (exact ties and near-ties), plus an input triangle drawn the
    same way.  Small half-integer coordinates also yield degenerate
    triangles."""
    point = st.tuples(COORD, COORD)
    triangles = draw(st.lists(st.tuples(point, point, point), min_size=1, max_size=4))
    shifts = draw(st.lists(point, min_size=1, max_size=3))

    def placed():
        tri = draw(st.sampled_from(triangles))
        dx, dy = draw(st.sampled_from([(0.0, 0.0), *shifts]))
        return [v for x, y in tri for v in (x + dx, y + dy)]

    rows = {c: [placed() + [1.0, 2.0, 3.0, 4.0]
                for _ in range(draw(st.integers(1, 5)))] for c in CORNERS}
    m = placed()
    markers = MarkerTriple(Point(m[0], m[1]), Point(m[2], m[3]), Point(m[4], m[5]))
    return make_ts(rows, metric=draw(st.sampled_from(METRICS))), markers


def _chosen_or_error(select, ts, obs):
    try:
        return select(ts, obs)
    except DegenerateTriangle:
        return DegenerateTriangle


@settings(max_examples=300, deadline=None)
@given(selection_cases())
def test_select_matches_the_reference(case):
    ts, markers = case
    obs = FaceObservation(markers=markers, pupils=PupilPair(None, None))
    assert (_chosen_or_error(select_closest, ts, obs)
            == _chosen_or_error(select_closest_reference, ts, obs))


# --- translation to the input's middle marker ----------------------------------

def interpolated_pupils(monkeypatch, ts, obs):
    """The corner pupils that estimate_gaze hands to the interpolation, right
    eye first."""
    seen = []

    def spy(pupil, corner_pupils, screen, weighting="corrected"):
        seen.append(dict(corner_pupils))
        return estimate_gaze_single_eye(pupil, corner_pupils, screen, weighting)

    monkeypatch.setattr(gaze, "estimate_gaze_single_eye", spy)
    estimate_gaze(obs, ts)
    return seen


def rectangle_ts(shift=(0.0, 0.0)):
    """One vector per corner, every coordinate moved by ``shift``."""
    dx, dy = shift
    return make_ts({c: [[v + (dy if k % 2 else dx) for k, v in enumerate(vector_at(p))]]
                    for c, p in rectangle_pupils().items()})


def input_at(middle: Point) -> FaceObservation:
    """An input whose marker triangle matches vector_at's, its middle marker
    at ``middle``."""
    return observation_from_row(vector_at(Point(110, 100), middle=middle))


def test_translate_identity(monkeypatch):
    ts = rectangle_ts()
    right, left = interpolated_pupils(monkeypatch, ts, input_at(Point(100.0, 50.0)))
    for c in CORNERS:
        row = ts.by_corner[c][0].tolist()
        assert right[c] == Point(row[6], row[7])
        assert left[c] == Point(row[8], row[9])


def test_translate_shifts_every_point(monkeypatch):
    ts = rectangle_ts()
    right, left = interpolated_pupils(monkeypatch, ts, input_at(Point(110.0, 45.0)))
    for c in CORNERS:
        row = ts.by_corner[c][0].tolist()
        for moved, x, y in ((right[c], row[6], row[7]), (left[c], row[8], row[9])):
            assert (moved.x - x, moved.y - y) == (10, -5)
            assert type(moved.x) is float and type(moved.y) is float


def test_translate_composes(monkeypatch):
    obs = input_at(Point(7.5, -3.25))
    once = interpolated_pupils(monkeypatch, rectangle_ts(), obs)
    twice = interpolated_pupils(monkeypatch, rectangle_ts(shift=(300.0, -48.0)), obs)
    assert once == twice


# --- single-eye interpolation ----------------------------------------------------

def test_interpolation_center_of_rectangle():
    est = estimate_gaze_single_eye(Point(110, 100), rectangle_pupils(), SCREEN)
    assert est.point.x == pytest.approx(30.0, abs=1e-9)
    assert est.point.y == pytest.approx(30.0, abs=1e-9)
    assert (est.alpha, est.beta, est.gamma, est.delta) == (0.5, 0.5, 0.5, 0.5)
    assert (est.w, est.w_prime) == (0.5, 0.5)


@pytest.mark.parametrize("weighting", ["corrected", "literal"])
@pytest.mark.parametrize("corner", [1, 2, 3, 4])
def test_interpolation_reproduces_corners(weighting, corner):
    pupils = rectangle_pupils()
    est = estimate_gaze_single_eye(pupils[corner], pupils, SCREEN, weighting)
    expected = SCREEN.corner(corner)
    assert est.point.x == pytest.approx(expected.x, abs=1e-9)
    assert est.point.y == pytest.approx(expected.y, abs=1e-9)


def test_interpolation_extrapolates_past_the_edge():
    est = estimate_gaze_single_eye(Point(130, 100), rectangle_pupils(), SCREEN)
    assert est.alpha == pytest.approx(1.5)
    assert est.beta == pytest.approx(1.5)
    assert est.point.x == pytest.approx(90.0, abs=1e-9)


def test_interpolation_blend_weights_clamped():
    est = estimate_gaze_single_eye(Point(110, 150), rectangle_pupils(), SCREEN)
    assert est.w == 1.0  # far above the rectangle clamps the blend


def test_interpolation_degenerate_denominator():
    collapsed = rectangle_pupils()
    collapsed[2] = collapsed[1]  # x2 == x1
    with pytest.raises(DegenerateTraining):
        estimate_gaze_single_eye(Point(110, 100), collapsed, SCREEN)


def test_interpolation_rejects_unknown_weighting():
    with pytest.raises(ValueError):
        estimate_gaze_single_eye(Point(110, 100), rectangle_pupils(),
                                 SCREEN, weighting="reversed")


# --- estimate_gaze -------------------------------------------------------------

def full_ts(scales=(1.0,)):
    labeled = []
    for k in scales:
        for c in (1, 2, 3, 4):
            labeled.append((obs_for_corner(c, scale=k, frame=f"k{k}c{c}"), c))
    return build_training_set(labeled, SCREEN)


def test_estimate_gaze_both_eyes_average():
    ts = full_ts()
    pose = HeadPose(320, 240)
    obs = synthetic_observation(pose, (0.5, 0.5))
    est = estimate_gaze(obs, ts)
    assert est.eyes_used == "both"
    assert est.point.x == pytest.approx(0.5 * (est.right.point.x + est.left.point.x))
    assert est.point.y == pytest.approx(0.5 * (est.right.point.y + est.left.point.y))
    assert est.point.x == pytest.approx(30.0, abs=1e-9)
    assert est.point.y == pytest.approx(30.0, abs=1e-9)


def test_estimate_gaze_single_eye_fallback():
    ts = full_ts()
    obs = synthetic_observation(HeadPose(320, 240), (0.25, 0.75))
    one_eyed = FaceObservation(
        markers=obs.markers,
        pupils=PupilPair(right=obs.pupils.right, left=None),
        frame_id="r-only",
    )
    est = estimate_gaze(one_eyed, ts)
    assert est.eyes_used == "right"
    assert est.left is None
    both = estimate_gaze(obs, ts)
    assert est.point.x == pytest.approx(both.right.point.x)
    assert est.point.y == pytest.approx(both.right.point.y)


def test_estimate_gaze_corner_reproduction_through_full_path():
    ts = full_ts()
    for weighting in ("corrected", "literal"):
        for c in (1, 2, 3, 4):
            obs = observation_from_row(ts.by_corner[c][0])
            est = estimate_gaze(obs, ts, weighting)
            expected = SCREEN.corner(c)
            assert abs(est.point.x - expected.x) < 1e-9
            assert abs(est.point.y - expected.y) < 1e-9


def test_estimate_gaze_translation_invariance():
    ts = full_ts(scales=(1.0, 1.1))
    obs = synthetic_observation(HeadPose(320, 240), (0.3, 0.6))
    moved = synthetic_observation(HeadPose(320 + 37.5, 240 - 12.25), (0.3, 0.6))
    a = estimate_gaze(obs, ts)
    b = estimate_gaze(moved, ts)
    assert b.point.x == pytest.approx(a.point.x, abs=1e-9)
    assert b.point.y == pytest.approx(a.point.y, abs=1e-9)


def test_estimate_gaze_one_degenerate_eye_falls_back():
    # left-eye training pupils share one x coordinate -> left interpolation
    # degenerates; the right eye must carry the estimate alone
    markers = MarkerTriple(Point(180, 145), Point(100, 100), Point(20, 145))
    ts = make_ts({c: [vector_row(markers, p, Point(40.0, p.y))]  # left collapsed in x
                  for c, p in rectangle_pupils().items()})
    obs = FaceObservation(
        markers=markers,
        pupils=PupilPair(
            right=PupilDetection(Point(110, 100), 80, 0.05),
            left=PupilDetection(Point(40.0, 100), 80, 0.05),
        ),
    )
    est = estimate_gaze(obs, ts)
    assert est.eyes_used == "right"
    assert est.left is None
    assert est.point.x == pytest.approx(30.0, abs=1e-9)


def test_estimate_gaze_rendered_matched_pose_within_2cm():
    from irgaze.detection import DetectConfig, observe_face
    from irgaze.synth import FaceLayout, GroundTruth, RenderConfig, feature_model, render_scene

    layout = FaceLayout()
    cfg = DetectConfig()
    pose = HeadPose(320, 240)
    corner_gaze = {1: (0.0, 1.0), 2: (1.0, 1.0), 3: (0.0, 0.0), 4: (1.0, 0.0)}
    labeled = []
    for c in (1, 2, 3, 4):
        truth = GroundTruth(feature_model(pose, corner_gaze[c], layout),
                            SCREEN.corner(c), pose, seed=600 + c)
        obs = observe_face(render_scene(truth, layout, RenderConfig()), cfg)
        labeled.append((obs, c))
    ts = build_training_set(labeled, SCREEN)

    target = Point(30.0, 30.0)  # center cell of the default grid
    truth = GroundTruth(feature_model(pose, (0.5, 0.5), layout), target, pose, seed=610)
    obs = observe_face(render_scene(truth, layout, RenderConfig()), cfg)
    est = estimate_gaze(obs, ts)
    assert abs(est.point.x - target.x) <= 2.0
    assert abs(est.point.y - target.y) <= 2.0


def test_estimate_gaze_no_usable_eye():
    ts = full_ts()
    obs = synthetic_observation(HeadPose(320, 240), (0.5, 0.5))
    degenerate = build_training_set(
        [(obs_for_corner(1), 1), (obs_for_corner(1), 2),
         (obs_for_corner(3), 3), (obs_for_corner(3), 4)],
        SCREEN,
    )
    with pytest.raises(NoUsableEye):
        estimate_gaze(obs, degenerate)


def test_interpolation_rejects_a_point_that_is_not_finite():
    """A pupil near the end of float range once gave the point nan, which
    estimate wrote to est.csv and counted as made."""
    with pytest.raises(DegenerateTraining, match=r"gaze point must be finite, got \[nan, nan\]"):
        estimate_gaze_single_eye(Point(1e308, 1e308), rectangle_pupils(), SCREEN)


def test_estimate_gaze_mean_of_two_huge_eyes_stays_finite(monkeypatch):
    """0.5 * (a + b) once overflowed to inf for finite a and b beyond half
    of float range."""
    huge = gaze.EyeEstimate(Point(1.5e308, -1.5e308), *[0.0] * 6)
    monkeypatch.setattr(gaze, "estimate_gaze_single_eye", lambda *args: huge)
    est = estimate_gaze(synthetic_observation(HeadPose(320, 240), (0.5, 0.5)), full_ts())
    assert (est.point, est.eyes_used) == (huge.point, "both")


@pytest.mark.parametrize("sides, used", [
    (("right",), "right"), (("left",), "left"), (("right", "left"), "both")])
def test_eyes_used_names_the_eyes_present(sides, used):
    eye = gaze.EyeEstimate(Point(1.0, 2.0), *[0.5] * 6)
    est = gaze.GazeEstimate(eye.point, **{s: eye if s in sides else None
                                          for s in ("right", "left")})
    assert est.eyes_used == used


# --- grid + scoring --------------------------------------------------------------

def test_score_all_exact_pairs():
    pairs = [(Point(10, 10), Point(10, 10))] * 4
    assert score_accuracy(pairs, SCREEN, 5) == 1.0


def test_score_strict_half_cell_boundary():
    ok = [(Point(30 + 5.9, 30), Point(30, 30))]
    bad = [(Point(36.0, 30), Point(30, 30))]
    assert score_accuracy(ok, SCREEN, 5) == 1.0
    assert score_accuracy(bad, SCREEN, 5) == 0.0


def test_score_counts_fraction():
    pairs = [
        (Point(30, 30), Point(30, 30)),
        (Point(0, 0), Point(30, 30)),
        (Point(10, 50), Point(40, 20)),
        (Point(59, 59), Point(20, 20)),
    ]
    assert score_accuracy(pairs, SCREEN, 5) == 0.25


def test_score_empty_input():
    with pytest.raises(EmptyInput):
        score_accuracy([], SCREEN, 5)


def test_accuracy_table_zero_error_everywhere():
    pairs = [(Point(7, 9), Point(7, 9))] * 3
    table = accuracy_table(pairs, SCREEN)
    assert [n for n, _ in table] == list(range(2, 11))
    assert all(acc == 1.0 for _, acc in table)


def test_accuracy_table_monotone_non_increasing():
    rng_pairs = [
        (Point(30 + d, 30 - d), Point(30, 30))
        for d in (0.0, 1.0, 2.4, 3.3, 4.8, 6.1, 9.0, 14.0)
    ]
    table = accuracy_table(rng_pairs, SCREEN)
    accs = [acc for _, acc in table]
    assert all(a >= b for a, b in zip(accs, accs[1:]))


# --- screen geometry -------------------------------------------------------------

def test_screen_corner_targets_layout():
    s = ScreenGeometry(60, 48)
    assert s.corner(1) == Point(0, 48)
    assert s.corner(2) == Point(60, 48)
    assert s.corner(3) == Point(0, 0)
    assert s.corner(4) == Point(60, 0)
    with pytest.raises(IndexError):
        s.corner(5)



def test_screen_cell_centers_run_row_major_from_the_top_left():
    s = ScreenGeometry(60, 48)
    assert s.cell_center(5, 1) == Point(6.0, 43.2)
    assert s.cell_center(5, 5) == Point(54.0, 43.2)
    assert s.cell_center(5, 21) == Point(6.0, 4.799999999999997)
    assert s.cell_center(2, 4) == Point(45.0, 12.0)


@pytest.mark.parametrize("grid_of_one", [
    pytest.param(lambda: score_accuracy([(Point(1, 1), Point(1, 1))], SCREEN, 1),
                 id="score_accuracy"),
    pytest.param(lambda: SCREEN.cell_center(1, 1), id="cell_center"),
])
def test_grid_resolution_must_be_at_least_2(grid_of_one):
    with pytest.raises(ValueError, match="grid resolution must be at least 2"):
        grid_of_one()


@pytest.mark.parametrize("n", [2.5, True])
@pytest.mark.parametrize("entry", [
    pytest.param(lambda n: score_accuracy([(Point(1, 1), Point(1, 1))], SCREEN, n),
                 id="score_accuracy"),
    pytest.param(lambda n: SCREEN.cell_center(n, 1), id="cell_center"),
])
def test_grid_resolution_must_be_an_integer(entry, n):
    """A resolution of 2.5 once scored against half-cells, and cell_center(2.5, 1)
    gave (12.0, 48.0)."""
    with pytest.raises(TypeError, match=f"grid resolution must be an integer, got {n}"):
        entry(n)


@pytest.mark.parametrize("n, label", [(5, 0), (5, 26), (2, -1)])
def test_cell_label_must_lie_on_the_grid(n, label):
    """Labels 0 and 26 of a 5x5 grid once gave points above and below the
    screen."""
    with pytest.raises(ValueError, match=f"cell label must lie in 1..{n * n}, got {label}"):
        SCREEN.cell_center(n, label)


@pytest.mark.parametrize("label", [2.5, 3.0, True])
def test_cell_label_must_be_an_integer(label):
    """2.5 once gave (24.0, 54.0), on the border of cells 2 and 3, and True
    gave cell 1's centre."""
    with pytest.raises(TypeError, match=f"cell label must be an integer, got {label}"):
        SCREEN.cell_center(5, label)


def test_screen_file_keeps_the_extents_as_given():
    """A config's int extent is written as an int, and read back as float."""
    doc = ScreenGeometry(52, 33.5).to_dict()
    assert json.dumps(doc) == ('{"Lx": 52, "Ly": 33.5, "corners": '
                               '[[0.0, 33.5], [52, 33.5], [0.0, 0.0], [52, 0.0]]}')
    assert ScreenGeometry.from_dict(doc) == ScreenGeometry(52.0, 33.5)


@pytest.mark.parametrize("extents", [
    pytest.param((10**400, 1), id="int-beyond-float"),  # was an OverflowError
    pytest.param((60.0, float("nan")), id="nan"),
    pytest.param((float("-inf"), 60.0), id="-inf"),
    pytest.param(("60", 60.0), id="string"),
    pytest.param((True, 60.0), id="bool"),
])
def test_screen_extents_must_be_finite_numbers(extents):
    with pytest.raises(ValueError, match="screen extents must be finite"):
        ScreenGeometry(*extents)


def test_screen_file_extents_must_be_json_numbers():
    """float() would read the string as 52.0."""
    doc = ScreenGeometry(52.0, 33.5).to_dict()
    doc["Lx"] = "52"
    with pytest.raises(ValueError, match=r"screen extents must be finite, got \['52', 33.5\]"):
        ScreenGeometry.from_dict(doc)


@pytest.mark.parametrize("corners", [
    [[0.0, 33.5], [52.0, 33.5], [0.0, 0.0], [52.0, 0.5]],
    [[52.0, 33.5], [0.0, 33.5], [0.0, 0.0], [52.0, 0.0]],
    [[0.0, 33.5], [52.0, 33.5], [0.0, 0.0]],
])
def test_screen_file_with_other_corner_targets_is_refused(corners):
    with pytest.raises(ValueError, match="corner targets must be the screen's corners"):
        ScreenGeometry.from_dict({"Lx": 52, "Ly": 33.5, "corners": corners})
