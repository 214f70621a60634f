"""Metamorphic relations of the detector on rendered frames, and of the
estimate stage on the default dataset's features.

Each relation changes a frame in a way whose effect on the scene is known,
and checks that the detected features change the same way:

- lowering every level by a constant leaves every feature and area as it
  was (equalization and the marker threshold are ranks of levels);
- a left-right mirror swaps right and left and maps x to W - 1 - x;
- an integer roll that keeps the face inside the frame moves every
  feature by the roll, since only background noise wraps around.

Unlike the ground-truth and pinned-digest tests, these hold for any
detector that treats the frame's pixels alike wherever they are, so a
change that moves observation bytes on purpose must still keep them.

Train + estimate, on the exact (manifest truth) and the detected features
of the default dataset, under every metric and weighting, keeps four
relations:

- a mirror x -> W - 1 - x that swaps right and left and relabels the
  corners 1<->2 and 3<->4 mirrors each estimate to (Lx - x_G, y_G);
- a shift of every feature by a dyadic offset leaves each estimate as it
  was, bit for bit;
- a scale about the frame center leaves each estimate as it was;
- a permutation of the training rows leaves each estimate as it was, bit
  for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irgaze.detection import (
    DetectConfig,
    FaceObservation,
    MarkerTriple,
    PupilDetection,
    PupilPair,
    observe_face,
)
from irgaze.errors import IrGazeError, NoUsableEye
from irgaze.gaze import (
    COORD_KEYS,
    METRICS,
    WEIGHTINGS,
    ScreenGeometry,
    build_training_set,
    estimate_gaze,
)
from irgaze.imaging import Point, decode_pgm, y_to_row
from irgaze.synth import (
    DatasetSpec,
    FaceLayout,
    GroundTruth,
    RenderConfig,
    default_poses,
    feature_model,
    generate_dataset,
    render_scene,
)

from helpers import observation_from_row

TOL = 1e-9
LAYOUT = FaceLayout()
GAZES = ((0.1, 0.9), (0.5, 0.5), (0.85, 0.2))
# (width, height, frames): every pose of default_poses() under three gazes
# at 640x480, under one at 1280x1024.
SIZES = ((640, 480, 18), (1280, 1024, 6))
FRAMES = st.sampled_from([(w, h, i) for w, h, n in SIZES for i in range(n)])


@functools.cache
def rendered(width: int, height: int, i: int):
    """Frame i at this size, its observation, and the room in columns
    (left, right) and rows (top, bottom) between the face and the border."""
    cfg = RenderConfig(width=width, height=height)
    pose = default_poses(width, height)[i % 6]
    truth = GroundTruth(feature_model(pose, GAZES[i // 6 % len(GAZES)], LAYOUT),
                        Point(0.0, 0.0), pose, seed=1000 + i)
    img = render_scene(truth, LAYOUT, cfg)
    reach = max(LAYOUT.face_axes) * pose.scale + 2 * math.ceil(3.0 * cfg.blur_sigma) + 1
    cols = (math.floor(pose.tx - reach), width - 1 - math.ceil(pose.tx + reach))
    rows = (math.floor(y_to_row(pose.ty + reach, height)),
            height - 1 - math.ceil(y_to_row(pose.ty - reach, height)))
    return img, observe_face(img, DetectConfig()), cols, rows


def assert_features_moved(got: FaceObservation, want: FaceObservation, move,
                          swap: bool = False) -> None:
    """``got`` holds ``want``'s features with each point mapped by
    ``move``, right and left swapped when ``swap`` is set; areas are
    equal."""
    mate = {"right": "left", "left": "right"} if swap else {}

    def assert_close(p: Point, q: Point) -> None:
        assert abs(p.x - q.x) <= TOL and abs(p.y - q.y) <= TOL, (p, q)

    for side in ("right", "middle", "left"):
        want_point, got_point = getattr(want.markers, side), getattr(got.markers, mate.get(side, side))
        assert_close(move(want_point), got_point)
    for side in ("right", "left"):
        w, g = getattr(want.pupils, side), getattr(got.pupils, mate.get(side, side))
        assert (w is None) == (g is None), side
        if w is not None:
            assert_close(move(w.point), g.point)
            assert g.area == w.area, side
            assert math.isclose(g.eccentricity, w.eccentricity, rel_tol=TOL, abs_tol=TOL)
    assert got.pair_consistent == want.pair_consistent


@settings(max_examples=20, deadline=None, derandomize=True)
@given(FRAMES, st.data())
def test_level_shift_leaves_features_and_areas(key, data):
    img, obs, _, _ = rendered(*key)
    shift = data.draw(st.integers(1, int(img.min())), label="shift")
    got = observe_face(img - np.uint8(shift), DetectConfig())
    assert_features_moved(got, obs, lambda p: p)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(FRAMES)
def test_mirror_swaps_sides_and_reflects_x(key):
    img, obs, _, _ = rendered(*key)
    width = img.shape[1]
    got = observe_face(img[:, ::-1], DetectConfig())
    assert_features_moved(got, obs, lambda p: Point(width - 1 - p.x, p.y), swap=True)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(FRAMES, st.data())
def test_roll_within_the_margins_moves_features_by_the_roll(key, data):
    img, obs, (left, right), (top, bottom) = rendered(*key)
    dc = data.draw(st.integers(-left, right), label="columns")
    dr = data.draw(st.integers(-top, bottom), label="rows")
    got = observe_face(np.roll(img, (dr, dc), axis=(0, 1)), DetectConfig())
    assert_features_moved(got, obs, lambda p: Point(p.x + dc, p.y - dr))


# --- the estimate stage ---------------------------------------------------------

MIRRORED_CORNER = {1: 2, 2: 1, 3: 4, 4: 3}


@dataclasses.dataclass(frozen=True)
class Features:
    """One dataset's features: the labeled training observations, and each
    evaluation frame's observation (None where detection failed) beside its
    manifest entry."""

    screen: ScreenGeometry
    width: int
    training: list[tuple[FaceObservation, int]]
    evaluation: list[tuple[FaceObservation | None, dict]]


def detected_observation(path) -> FaceObservation | None:
    try:
        return observe_face(decode_pgm(path.read_bytes()), DetectConfig(), frame_id=path.name)
    except IrGazeError:
        return None


@pytest.fixture(scope="module", params=[1, 7], ids=lambda seed: f"seed{seed}")
def dataset(request, tmp_path_factory) -> dict[str, Features]:
    """The default dataset at this seed, built once per module: its exact
    and its detected features.  Training keeps the frames with both pupils,
    as ``irgaze train`` does."""
    spec = DatasetSpec(master_seed=request.param)
    out = tmp_path_factory.mktemp(f"seed{request.param}")
    manifest = generate_dataset(spec, out)
    screen = ScreenGeometry.from_dict(manifest["screen"])
    features = {}
    for kind in ("exact", "detected"):
        observed = [(observation_from_row([e["truth"][k] for k in COORD_KEYS]) if kind == "exact"
                     else detected_observation(out / e["file"]), e) for e in manifest["frames"]]
        training = [(obs, e["corner"]) for obs, e in observed if e["role"] == "training"
                    and obs is not None and obs.pupils.right is not None
                    and obs.pupils.left is not None]
        evaluation = [(obs, e) for obs, e in observed if e["role"] == "evaluation"]
        features[kind] = Features(screen, spec.render.width, training, evaluation)
    return features


def estimates(features: Features, metric: str, weighting: str, move=None, swap=False,
              corner=lambda c: c, order=None) -> list[Point | None]:
    """Each evaluation frame's estimate (None where there is none), from a
    training set of the same features, every point mapped by ``move`` with
    right and left swapped when ``swap`` is set, each training corner
    relabeled by ``corner`` and the training rows taken in ``order``."""

    def moved(obs: FaceObservation) -> FaceObservation:
        if move is None:
            return obs
        right, left = ("left", "right") if swap else ("right", "left")

        def pupil(side: str) -> PupilDetection | None:
            d = getattr(obs.pupils, side)
            return None if d is None else dataclasses.replace(d, point=move(d.point))

        m = obs.markers
        return FaceObservation(
            MarkerTriple(move(getattr(m, right)), move(m.middle), move(getattr(m, left))),
            PupilPair(pupil(right), pupil(left)), obs.frame_id, obs.pair_consistent)

    training = features.training if order is None else [features.training[i] for i in order]
    ts = build_training_set([(moved(obs), corner(c)) for obs, c in training],
                            features.screen, metric)
    points = []
    for obs, _ in features.evaluation:
        try:
            points.append(None if obs is None else estimate_gaze(moved(obs), ts, weighting).point)
        except NoUsableEye:
            points.append(None)
    return points


def assert_relation(want: list[Point | None], got: list[Point | None], tol: float) -> None:
    """The same frames have estimates, at least two thirds of them, and
    each of ``got`` lies within ``tol`` of ``want`` in both axes."""
    assert [p is None for p in got] == [p is None for p in want]
    assert sum(p is not None for p in want) >= 2 * len(want) / 3
    for w, g in zip(want, got):
        if w is not None:
            assert abs(g.x - w.x) <= tol and abs(g.y - w.y) <= tol, (w, g)


RELATION_CASES = pytest.mark.parametrize(
    "kind, metric, weighting",
    [(kind, m, w) for kind in ("exact", "detected") for m in METRICS for w in WEIGHTINGS])


@RELATION_CASES
def test_estimate_mirror_swaps_corners_and_reflects_x_g(dataset, kind, metric, weighting):
    features = dataset[kind]
    lx = features.screen.width_cm
    want = [None if p is None else Point(lx - p.x, p.y)
            for p in estimates(features, metric, weighting)]
    got = estimates(features, metric, weighting,
                    move=lambda p: Point(features.width - 1 - p.x, p.y), swap=True,
                    corner=MIRRORED_CORNER.get)
    assert_relation(want, got, TOL)


@RELATION_CASES
def test_estimate_is_bit_identical_under_a_dyadic_shift(dataset, kind, metric, weighting):
    features = dataset[kind]
    want = estimates(features, metric, weighting)
    got = estimates(features, metric, weighting, move=lambda p: Point(p.x + 7.25, p.y - 5.5))
    assert got == want


@RELATION_CASES
def test_estimate_holds_under_a_scale_about_the_frame_center(dataset, kind, metric,
                                                              weighting):
    features = dataset[kind]
    want = estimates(features, metric, weighting)
    got = estimates(features, metric, weighting,
                    move=lambda p: Point(320.0 + 1.25 * (p.x - 320.0),
                                         240.0 + 1.25 * (p.y - 240.0)))
    assert_relation(want, got, TOL)


@RELATION_CASES
def test_estimate_is_bit_identical_under_a_permutation_of_training_rows(dataset, kind, metric,
                                                                         weighting):
    features = dataset[kind]
    want = estimates(features, metric, weighting)
    order = np.random.default_rng(5).permutation(len(features.training))
    got = estimates(features, metric, weighting, order=order)
    assert got == want


def test_interpolation_is_exact_at_zero_rotation_only(dataset):
    """On exact features under the corrected weighting, the unrotated pose
    reproduces every gaze point; each rotated pose misses somewhere, since
    its corner pupils span a tilted rectangle."""
    features = dataset["exact"]
    errors: dict[float, list[float]] = {}
    for p, (_, entry) in zip(estimates(features, "congruency", "corrected"),
                             features.evaluation):
        gaze = Point(*entry["gaze"])
        errors.setdefault(entry["pose"]["theta"], []).append(p.distance_to(gaze))
    assert max(errors.pop(0.0)) <= TOL
    assert len(errors) == len(default_poses()) - 1
    for theta, errs in errors.items():
        assert max(errs) > 1e-6, theta
