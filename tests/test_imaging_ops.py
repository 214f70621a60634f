import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_image, reference_morphology
from irgaze.detection import (
    DetectConfig,
    MarkerTriple,
    detect_markers,
    extract_eye_roi,
    marker_mask,
    observe_face,
    pupil_threshold,
)
from irgaze.imaging import (
    Point,
    binarize,
    check_finite,
    check_type,
    connected_components,
    decode_pgm,
    encode_pgm,
    histogram_equalize,
    morphology,
)
from irgaze.synth import GroundTruth, HeadPose, feature_model, render_scene


def gray(rows) -> np.ndarray:
    return np.array(rows, dtype=np.uint8)


def binary(rows) -> np.ndarray:
    return np.array(rows, dtype=bool)


@st.composite
def random_gray(draw, max_side=16):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)


@st.composite
def random_binary(draw, max_side=16):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    rng = np.random.default_rng(seed)
    return rng.random((h, w)) < density


# --- histogram equalization -------------------------------------------------

def test_equalize_constant_image_maps_to_zero():
    out = histogram_equalize(gray([[77, 77], [77, 77]]))
    assert_same_image(out, gray([[0, 0], [0, 0]]))


def test_equalize_two_level_half_half():
    out = histogram_equalize(gray([[10, 10], [20, 20]]))
    assert_same_image(out, gray([[0, 0], [255, 255]]))


def test_equalize_full_range_levels_are_fixed_points():
    out = histogram_equalize(gray([[0, 0], [255, 255]]))
    assert_same_image(out, gray([[0, 0], [255, 255]]))


@settings(max_examples=60, deadline=None)
@given(img=random_gray())
def test_equalize_preserves_intensity_ordering(img):
    out = histogram_equalize(img)
    src = img.ravel().astype(int)
    dst = out.ravel().astype(int)
    order = np.argsort(src, kind="stable")
    assert (np.diff(dst[order]) >= 0).all()


# --- binarize -----------------------------------------------------------------

def test_binarize_all_zero_below_threshold():
    assert binarize(gray([[0, 0]]), 1).sum() == 0


def test_binarize_threshold_zero_is_all_ones():
    out = binarize(gray([[0, 7], [200, 255]]), 0)
    assert out.sum() == 4


def test_binarize_is_inclusive_at_threshold():
    out = binarize(gray([[10, 200]]), 100)
    assert out.tolist() == [[False, True]]


def test_binarize_rejects_nan():
    with pytest.raises(ValueError):
        binarize(gray([[1]]), float("nan"))


@pytest.mark.parametrize("threshold", [
    pytest.param(10**400, id="int-beyond-float"),  # was an OverflowError
    pytest.param(float("-inf"), id="-inf"),
    pytest.param("128", id="string"),
])
def test_binarize_rejects_a_threshold_that_is_not_a_finite_number(threshold):
    with pytest.raises(ValueError, match="threshold must be finite"):
        binarize(gray([[1]]), threshold)


# --- check_finite ---------------------------------------------------------------

@pytest.mark.parametrize("value", [
    0, -3, 1.5, -0.0, sys.float_info.max, -sys.float_info.max, 10**308,
    np.float64(2.5), np.int64(-7), np.uint8(200), Fraction(1, 3), [], [1, 2.5, -0.0],
])
def test_check_finite_returns_a_finite_number_or_list_itself(value):
    assert check_finite(value, "v") is value


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), float("-inf"), np.float64("nan"), 10**400, -(10**400),
    Fraction(10**400, 3), True, np.True_, None, "1.5", b"1", (1.0, 2.0), np.array([1.0]),
    {"x": 1.0}, [1.0, float("nan")], [1, "2"], [[1.0]], [False, 1.0],
])
def test_check_finite_raises_value_error_naming_the_field(value):
    with pytest.raises(ValueError) as info:
        check_finite(value, "x_g")
    assert str(info.value) == f"x_g must be finite, got {value!r}"


_JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                       st.integers(10**300, 10**310), st.fractions())


@settings(max_examples=200, deadline=None)
@given(value=st.one_of(_JSON_LEAF, st.lists(st.one_of(_JSON_LEAF, st.lists(_JSON_LEAF)),
                                            max_size=3)))
def test_check_finite_passes_finite_numbers_and_raises_only_value_error(value):
    items = value if isinstance(value, list) else [value]
    finite = all(type(v) in (int, float, Fraction) and abs(v) <= sys.float_info.max
                 for v in items)
    if finite:
        assert check_finite(value, "v") is value
    else:
        with pytest.raises(ValueError, match="^v must be finite, got "):
            check_finite(value, "v")


# --- check_type ---------------------------------------------------------------

@pytest.mark.parametrize("value, kind", [
    ({}, dict), ({"a": [1]}, dict), ([], list), ([1, "x"], list), ("", str), ("f", str),
    (0, int), (-7, int), (10**400, int), (True, bool), (False, bool),
])
def test_check_type_returns_a_value_of_the_kind_itself(value, kind):
    assert check_type(value, kind, "v") is value
    assert check_type(value, kind, "v", null=True) is value


@pytest.mark.parametrize("value, kind, wanted", [
    (True, int, "an integer"), (False, int, "an integer"), (1.0, int, "an integer"),
    ("1", int, "an integer"), (1, bool, "true or false"), (0, bool, "true or false"),
    ("no", bool, "true or false"), ([], dict, "an object"), ({}, list, "an array"),
    ("ab", list, "an array"), (5, str, "a string"), (b"f", str, "a string"),
    *((None, kind, wanted) for kind, wanted in ((dict, "an object"), (list, "an array"),
                                                 (str, "a string"), (int, "an integer"),
                                                 (bool, "true or false"))),
])
def test_check_type_raises_type_error_naming_the_field(value, kind, wanted):
    """A bool is no integer, and null passes only when the field allows it."""
    with pytest.raises(TypeError) as info:
        check_type(value, kind, "frames.3")
    assert str(info.value) == f"frames.3 must be {wanted}, got {value!r}"


@pytest.mark.parametrize("kind, wanted", [(dict, "an object or null"),
                                          (bool, "true, false or null")])
def test_check_type_null_passes_only_when_allowed(kind, wanted):
    assert check_type(None, kind, "v", null=True) is None
    with pytest.raises(TypeError) as info:
        check_type(5, kind, "pupils.left", null=True)
    assert str(info.value) == f"pupils.left must be {wanted}, got 5"


@pytest.mark.parametrize("value, shown", [
    pytest.param(list(range(10_000)), "[0, 1, 2, 3, 4, 5, ...]", id="array"),
    pytest.param("x" * 10_000, "'" + "x" * 12 + "..." + "x" * 13 + "'", id="string"),
    pytest.param([{"frames": [{"file": "a.pgm"}] * 1000, "screen": {"Lx": 60.0}}],
                 "[{'frames': [...], 'screen': {...}}]", id="document"),
])
def test_check_type_shortens_a_long_value(value, shown):
    """A long array or string, or a whole document in the wrong place, is
    not printed whole."""
    with pytest.raises(TypeError) as info:
        check_type(value, dict, "row")
    assert str(info.value) == f"row must be an object, got {shown}"


# --- morphology ---------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    np.zeros((3, 3), dtype=np.uint8),
    np.zeros(4, dtype=bool),
    np.zeros((0, 3), dtype=bool),
    [[True, False]],
    np.zeros((2, 3, 3, 3), dtype=bool),
    np.zeros((0, 3, 3), dtype=bool),
    np.zeros((2, 0, 3), dtype=bool),
], ids=["uint8", "1-D", "empty", "list", "4-D", "no-planes", "empty-planes"])
def test_masks_must_be_non_empty_2d_bool_arrays(bad):
    with pytest.raises(ValueError, match="non-empty 2-D bool mask"):
        morphology(bad, "open", 1)
    with pytest.raises(ValueError, match="non-empty 2-D bool mask"):
        connected_components(bad)


def test_masks_come_back_read_only():
    mask = binary([[1, 0], [0, 1]])
    for out in (binarize(gray([[0, 9]]), 5), morphology(mask, "dilate", 1),
                morphology(mask, "erode", 0)):
        assert out.dtype == bool and out.ndim == 2
        assert not out.flags.writeable
    assert mask.flags.writeable  # the input is not frozen in place


_MARKERS = MarkerTriple(right=Point(14.0, 14.0), middle=Point(9.0, 4.0), left=Point(3.0, 14.0))
_IMAGE_ENTRY_POINTS = {
    "binarize": lambda img: binarize(img, 1),
    "histogram_equalize": histogram_equalize,
    "encode_pgm": encode_pgm,
    "marker_mask": lambda img: marker_mask(img, 3),
    "detect_markers": lambda img: detect_markers(img, DetectConfig()),
    "observe_face": lambda img: observe_face(img, DetectConfig()),
    "extract_eye_roi": lambda img: extract_eye_roi(img, _MARKERS, "right"),
    "pupil_threshold": lambda img: pupil_threshold(img, 2.0),
}


@pytest.mark.parametrize("bad", [
    np.zeros((3, 3)),
    np.zeros((3, 3), dtype=np.int64),
    np.zeros((3, 3), dtype=bool),
    np.zeros(4, dtype=np.uint8),
    np.zeros((3, 3, 3), dtype=np.uint8),
    np.zeros((0, 3), dtype=np.uint8),
    [[1, 2], [3, 4]],
], ids=["float64", "int64", "bool", "1-D", "3-D", "empty", "list"])
@pytest.mark.parametrize("entry", sorted(_IMAGE_ENTRY_POINTS))
def test_images_must_be_non_empty_2d_uint8_arrays(entry, bad):
    """In-range arrays of another dtype are rejected, not converted."""
    with pytest.raises(ValueError, match="non-empty 2-D uint8 image"):
        _IMAGE_ENTRY_POINTS[entry](bad)


def test_images_come_back_read_only():
    frame = np.arange(18 * 20, dtype=np.uint8).reshape(18, 20)
    data = bytearray(encode_pgm(frame))
    decoded = decode_pgm(data)
    data[-frame.size :] = bytes(frame.size)  # the image keeps its own samples
    assert_same_image(decoded, frame)
    pose = HeadPose(320, 240)
    truth = GroundTruth(feature_model(pose, (0.5, 0.5)), Point(0.0, 0.0), pose, seed=5)
    outputs = [decoded, render_scene(truth), histogram_equalize(frame),
               extract_eye_roi(frame, _MARKERS, "left").image]
    for out in outputs:
        assert out.dtype == np.uint8 and out.ndim == 2
        assert not out.flags.writeable
    assert frame.flags.writeable  # the input is not frozen in place


def test_open_removes_isolated_pixel():
    img = binary([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert morphology(img, "open", 1).sum() == 0


def test_close_restores_block_with_hole():
    canvas = np.zeros((7, 7), dtype=bool)
    canvas[1:6, 1:6] = True
    canvas[3, 3] = False
    closed = morphology(canvas, "close", 1)
    expected = np.zeros((7, 7), dtype=bool)
    expected[1:6, 1:6] = True
    assert closed.tolist() == expected.tolist()


def test_radius_zero_is_identity():
    img = binary([[1, 0], [0, 1]])
    for op in ("erode", "dilate", "open", "close"):
        assert np.array_equal(morphology(img, op, 0), img)


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        morphology(binary([[1]]), "median", 1)


@pytest.mark.parametrize("radius, message", [
    pytest.param(-1, "radius must be >= 0", id="negative"),
    pytest.param(float("inf"), "radius must be finite", id="inf"),  # was an OverflowError
    pytest.param(float("nan"), "radius must be finite", id="nan"),  # was int(nan)'s error
    pytest.param(10**400, "radius must be finite", id="int-beyond-float"),
])
def test_morphology_radius_must_be_a_finite_number_at_least_0(radius, message):
    with pytest.raises(ValueError, match=message):
        morphology(binary([[1]]), "open", radius)


@pytest.mark.parametrize("radius", [0, 1, 1.5, 2, 3])
@pytest.mark.parametrize("op", ["erode", "dilate", "open", "close"])
def test_morphology_matches_the_per_pixel_oracle(op, radius):
    """Every pixel, the border rows and columns included, against a
    brute-force disk sweep on the infinite plane; 1xN and Nx1 masks are
    all border."""
    rng = np.random.default_rng(2024)
    for h, w in [(1, 1), (1, 17), (17, 1), (2, 9), (9, 12), (16, 5)]:
        for density in (0.2, 0.5, 0.8, 1.0):
            mask = rng.random((h, w)) < density
            out = morphology(mask, op, radius)
            assert np.array_equal(out, reference_morphology(mask, op, radius)), (h, w, density)


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
@pytest.mark.parametrize("op", ["erode", "dilate", "open", "close"])
def test_morphology_treats_each_plane_of_a_stack_alone(op, radius):
    """Each plane of a (k, h, w) stack comes out as that plane alone would,
    and as the per-pixel oracle says: foreground on one plane's last row or
    a full plane must not bleed into the empty planes beside it."""
    rng = np.random.default_rng(31)
    stack = np.zeros((6, 9, 11), dtype=bool)
    stack[0] = rng.random((9, 11)) < 0.5
    stack[1, -1, :] = True
    stack[3] = True
    stack[4, 0, 2:] = True
    stack[4, 1:] = rng.random((8, 11)) < 0.7
    out = morphology(stack, op, radius)
    assert out.shape == stack.shape and out.dtype == bool and not out.flags.writeable
    for p, plane in enumerate(stack):
        assert np.array_equal(out[p], morphology(plane, op, radius)), p
        assert np.array_equal(out[p], reference_morphology(plane, op, radius)), p


@settings(max_examples=60, deadline=None)
@given(img=random_binary(), radius=st.sampled_from([1, 1.5, 2, 3]))
def test_open_is_idempotent(img, radius):
    once = morphology(img, "open", radius)
    assert np.array_equal(morphology(once, "open", radius), once)


@settings(max_examples=60, deadline=None)
@given(img=random_binary(), radius=st.sampled_from([1, 2]))
def test_erode_shrinks_dilate_grows(img, radius):
    assert (morphology(img, "erode", radius) <= img).all()
    assert (img <= morphology(img, "dilate", radius)).all()
    assert (morphology(img, "open", radius) <= img).all()
    assert (img <= morphology(img, "close", radius)).all()


@settings(max_examples=60, deadline=None)
@given(img=random_binary(), extra=random_binary(), radius=st.sampled_from([1, 2]))
def test_morphology_is_monotone(img, extra, radius):
    h = min(img.shape[0], extra.shape[0])
    w = min(img.shape[1], extra.shape[1])
    small = img[:h, :w]
    big = small | extra[:h, :w]
    for op in ("erode", "dilate", "open", "close"):
        out_small = morphology(small, op, radius)
        out_big = morphology(big, op, radius)
        assert (out_small <= out_big).all()
