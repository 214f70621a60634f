"""Metamorphic relations of the detector on rendered frames.

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
"""

from __future__ import annotations

import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from irgaze.detection import DetectConfig, FaceObservation, observe_face
from irgaze.imaging import Point, y_to_row
from irgaze.synth import (
    FaceLayout,
    GroundTruth,
    RenderConfig,
    default_poses,
    feature_model,
    render_scene,
)

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
