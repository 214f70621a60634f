import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_morphology
from irgaze.imaging import (
    GrayImage,
    binarize,
    connected_components,
    histogram_equalize,
    morphology,
)


def gray(rows) -> GrayImage:
    return GrayImage(np.array(rows, dtype=np.uint8))


def binary(rows) -> np.ndarray:
    return np.array(rows, dtype=bool)


@st.composite
def random_gray(draw, max_side=16):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    seed = draw(st.integers(0, 2**32 - 1))
    return GrayImage(np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8))


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
    assert out.pixels.tolist() == [[0, 0], [0, 0]]


def test_equalize_two_level_half_half():
    out = histogram_equalize(gray([[10, 10], [20, 20]]))
    assert out.pixels.tolist() == [[0, 0], [255, 255]]


def test_equalize_full_range_levels_are_fixed_points():
    out = histogram_equalize(gray([[0, 0], [255, 255]]))
    assert out.pixels.tolist() == [[0, 0], [255, 255]]


@settings(max_examples=60, deadline=None)
@given(img=random_gray())
def test_equalize_preserves_intensity_ordering(img):
    out = histogram_equalize(img)
    src = img.pixels.ravel().astype(int)
    dst = out.pixels.ravel().astype(int)
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


# --- morphology ---------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    np.zeros((3, 3), dtype=np.uint8),
    np.zeros(4, dtype=bool),
    np.zeros((0, 3), dtype=bool),
    [[True, False]],
], ids=["uint8", "1-D", "empty", "list"])
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
