import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (flood_fill_components, label_pixels, moment_eccentricity,
                     reference_components)
from irgaze.imaging import Regions, connected_components


def binary(mask) -> np.ndarray:
    return np.array(mask, dtype=bool)


def labeled_as_the_reference(mask: np.ndarray) -> Regions:
    """connected_components(mask), checked against the reference labeler:
    the rows equal in order and bit for bit, each region's pixels read off
    the label image equal the reference's in raster order, and the label
    image is background wherever the mask is."""
    regions = connected_components(mask)
    rows, pixels = reference_components(mask)
    assert list(regions) == rows
    ours = label_pixels(regions)
    assert len(ours) == len(pixels)
    assert all(np.array_equal(a, b) for a, b in zip(ours, pixels))
    assert regions.labels.dtype == np.int32
    assert np.count_nonzero(regions.labels) == np.count_nonzero(mask)
    return regions


def test_empty_image_yields_no_regions():
    regions = connected_components(binary(np.zeros((4, 4))))
    assert len(regions) == 0 and list(regions) == []
    assert regions.labels.size == 0


def test_single_pixel_region():
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 3] = True  # col 3, Cartesian y = 2
    (region,) = connected_components(binary(mask))
    assert region.area == 1
    assert region.eccentricity == 0.0
    assert region.centroid == (3.0, 2.0)
    assert region.bbox == (3, 2, 3, 2)
    assert not region.touches_border


def test_horizontal_run_has_eccentricity_one():
    mask = np.zeros((3, 9), dtype=bool)
    mask[1, 1:8] = True
    (region,) = connected_components(binary(mask))
    assert region.area == 7
    assert region.eccentricity == 1.0


def test_filled_two_to_one_ellipse_eccentricity():
    h, w = 21, 33
    ys, xs = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2, (w - 1) / 2
    mask = ((xs - cx) / 12.0) ** 2 + ((ys - cy) / 6.0) ** 2 <= 1.0
    (region,) = connected_components(binary(mask))
    expected = np.sqrt(1 - 1 / 4)
    assert abs(region.eccentricity - expected) < 0.03
    assert abs(region.eccentricity - moment_eccentricity(mask)) < 1e-12


def test_diagonal_pixels_are_one_region():
    (region,) = connected_components(binary([[1, 0], [0, 1]]))
    assert region.area == 2


def test_touches_border_flags():
    regions = connected_components(binary([
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
    ]))
    flags = {r.bbox[:2]: r.touches_border for r in regions}
    assert flags[(0, 0)] is True
    assert flags[(2, 1)] is False


def test_centroid_is_mean_of_cartesian_coordinates():
    mask = np.zeros((6, 7), dtype=bool)
    mask[1, 1] = mask[1, 2] = mask[2, 1] = mask[3, 4] = False
    mask[2, 2:5] = True
    mask[3, 3] = True
    regions = connected_components(binary(mask))
    (region,) = regions
    (pixels,) = label_pixels(regions)
    xs = pixels[:, 1].astype(float)
    ys = (6 - 1) - pixels[:, 0].astype(float)
    assert abs(region.centroid.x - xs.mean()) < 1e-9
    assert abs(region.centroid.y - ys.mean()) < 1e-9


@settings(max_examples=80, deadline=None)
@given(
    w=st.integers(1, 32),
    h=st.integers(1, 32),
    density=st.sampled_from([0.15, 0.4, 0.6, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_flood_fill_oracle(w, h, density, seed):
    mask = np.random.default_rng(seed).random((h, w)) < density
    ours = {frozenset(map(tuple, pixels.tolist()))
            for pixels in label_pixels(connected_components(mask))}
    oracle = set(flood_fill_components(mask))
    assert ours == oracle


@settings(max_examples=40, deadline=None)
@given(w=st.integers(1, 24), h=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_regions_partition_the_foreground(w, h, seed):
    mask = np.random.default_rng(seed).random((h, w)) < 0.5
    regions = connected_components(mask)
    seen: set[tuple[int, int]] = set()
    for region, pixels in zip(regions, label_pixels(regions), strict=True):
        pix = set(map(tuple, pixels.tolist()))
        assert len(pix) == region.area
        assert not (pix & seen), "regions overlap"
        seen |= pix
        min_col, min_row, max_col, max_row = region.bbox
        assert min_col <= region.centroid.x <= max_col
        assert (h - 1) - max_row <= region.centroid.y <= (h - 1) - min_row
        assert 0.0 <= region.eccentricity <= 1.0
    assert seen == set(zip(*map(np.ndarray.tolist, np.nonzero(mask))))


def _mask(kind: str, h: int, w: int, density: float, seed: int) -> np.ndarray:
    rows, cols = np.indices((h, w))
    if kind == "empty":
        return np.zeros((h, w), dtype=bool)
    if kind == "full":
        return np.ones((h, w), dtype=bool)
    if kind == "checker":
        return (rows + cols) % 2 == 0
    if kind == "diagonal":  # one staircase chain, joined only at corners
        return cols == rows + seed % 3
    return np.random.default_rng(seed).random((h, w)) < density


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["random", "empty", "full", "checker", "diagonal"]),
    w=st.integers(1, 40),
    h=st.integers(1, 40),
    density=st.sampled_from([0.1, 0.3, 0.5, 0.6, 0.8, 0.95]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="random", w=17, h=1, density=0.5, seed=3)
@example(kind="random", w=1, h=17, density=0.5, seed=3)
@example(kind="full", w=9, h=1, density=0.5, seed=0)
@example(kind="full", w=1, h=9, density=0.5, seed=0)
@example(kind="checker", w=9, h=8, density=0.5, seed=0)
@example(kind="diagonal", w=12, h=9, density=0.5, seed=1)
def test_matches_reference_labeler(kind, w, h, density, seed):
    """Region order, pixel order, centroid and eccentricity bits all equal
    the row-loop labeler's."""
    labeled_as_the_reference(_mask(kind, h, w, density, seed))


@pytest.mark.parametrize("bar_rows, ell_rows, bar_first", [(5, 7, True), (6, 8, False)])
def test_same_bbox_origin_orders_by_area_then_first_run(bar_rows, ell_rows, bar_first):
    """A 2-wide bar at cols 0-1 beside an L down col 3 and back along its
    last row to col 0: both have bbox origin (0, 0).  With areas 10 and 10
    the bar, whose run comes first in row 0, comes first; with areas 12 and
    11 the L does.  detect_markers breaks area ties by this order."""
    mask = np.zeros((ell_rows, 5), dtype=bool)
    mask[0:bar_rows, 0:2] = True
    mask[:, 3] = True
    mask[-1, 0:3] = True
    regions = labeled_as_the_reference(mask)
    bar, ell = (0, 0, 1, bar_rows - 1), (0, 0, 3, ell_rows - 1)
    assert [r.bbox for r in regions] == ([bar, ell] if bar_first else [ell, bar])


def test_region_columns_and_labels_are_read_only():
    """A result may be shared, so a write to any column or to the label
    image raises instead of corrupting it."""
    mask = np.zeros((4, 6), dtype=bool)
    mask[0, 0:2] = mask[2:4, 3:6] = True
    regions = connected_components(binary(mask))
    for name in ("area", "bbox", "touches_border", "x", "y", "eccentricity", "labels"):
        column = getattr(regions, name)
        assert not column.flags.writeable, name
        with pytest.raises(ValueError):
            column[0] = 5
    assert regions.origin == (0, 0)
    assert regions.labels.tolist() == [[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0],
                                       [0, 0, 0, 2, 2, 2], [0, 0, 0, 2, 2, 2]]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    w=st.integers(1, 40),
    h=st.integers(1, 40),
    density=st.sampled_from([0.2, 0.5, 0.7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_regions_moments_match_the_oracle(w, h, density, seed):
    """Centroid and eccentricity, computed for all regions of the mask in one
    pass, against a from-scratch eigen solve on each region alone."""
    mask = np.random.default_rng(seed).random((h, w)) < density
    regions = connected_components(mask)
    for region, pixels in zip(regions, label_pixels(regions), strict=True):
        alone = np.zeros_like(mask)
        alone[pixels[:, 0], pixels[:, 1]] = True
        rows, cols = np.nonzero(alone)
        assert abs(region.centroid.x - cols.mean()) < 1e-9
        assert abs(region.centroid.y - ((h - 1) - rows).mean()) < 1e-9
        # Squared, since sqrt(1 - l2/l1) amplifies rounding as l2 nears l1.
        assert abs(region.eccentricity ** 2 - moment_eccentricity(alone) ** 2) < 1e-9


def _stamp(rng: np.random.Generator) -> np.ndarray:
    """A speck of up to 3x3 px (a few tiny regions), or a rectangle of up to
    24x24 px with about a tenth of its inner pixels cleared: mostly one
    region of up to 576 px, with many runs per region."""
    if rng.random() < 0.3:
        speck = rng.random(tuple(rng.integers(1, 4, size=2))) < 0.6
        speck[0, 0] = True
        return speck
    h, w = rng.integers(1, 25, size=2)
    stamp = np.ones((h, w), dtype=bool)
    stamp[1:-1, 1:-1] = rng.random((max(h - 2, 0), max(w - 2, 0))) >= 0.1
    return stamp


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_stamps=st.integers(1, 4), copies=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_tiled_stamps_match_the_reference_moments_exactly(n_stamps, copies, seed):
    """Copies of a few stamps in shuffled grid cells: many regions share an
    area and a shape, and each must get the exactly rounded moments of its
    own pixels (rows compare centroid and eccentricity with ==)."""
    rng = np.random.default_rng(seed)
    stamps = [_stamp(rng) for _ in range(n_stamps)]
    tiles = [s for s in stamps for _ in range(copies)]
    rng.shuffle(tiles)
    cell = 1 + max(max(s.shape) for s in stamps)
    per_row = int(rng.integers(1, 6))
    top, left = rng.integers(0, 4, size=2)
    mask = np.zeros((top + cell * -(-len(tiles) // per_row), left + cell * per_row),
                    dtype=bool)
    for k, s in enumerate(tiles):
        r, c = top + cell * (k // per_row), left + cell * (k % per_row)
        mask[r : r + s.shape[0], c : c + s.shape[1]] = s
    regions = labeled_as_the_reference(mask)
    if copies > 1:
        assert len(set(regions.area.tolist())) < len(regions)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 6), (120, 90)])
def test_all_false_mask_has_no_regions(shape):
    mask = np.zeros(shape, dtype=bool)
    assert list(connected_components(mask)) == reference_components(mask)[0] == []


@pytest.mark.parametrize("row, col, border", [
    (0, 0, True), (0, 8, True), (6, 0, True), (6, 8, True), (3, 4, False)])
def test_single_pixel_at_a_corner_or_the_centre(row, col, border):
    mask = np.zeros((7, 9), dtype=bool)
    mask[row, col] = True
    (region,) = labeled_as_the_reference(mask)
    assert region.bbox == (col, row, col, row)
    assert region.touches_border is border
    assert region.centroid == (col, 6 - row)


@pytest.mark.parametrize("last", ["row", "col"])
def test_foreground_only_on_the_last_row_or_column_touches_the_border(last):
    """The foreground box is a single row or column at the far edge: the
    border is taken against the frame, not the box."""
    rng = np.random.default_rng(5)
    mask = np.zeros((30, 40), dtype=bool)
    if last == "row":
        mask[-1, 3:37] = rng.random(34) < 0.5
    else:
        mask[4:26, -1] = rng.random(22) < 0.5
    regions = labeled_as_the_reference(mask)
    assert len(regions) and regions.touches_border.all()


@pytest.mark.parametrize("vertical", [False, True])
def test_thin_foreground_box_inside_a_large_frame(vertical):
    mask = np.zeros((200, 300), dtype=bool)
    if vertical:
        mask[37:150:2, 211] = True
        mask[151:160, 211] = True
    else:
        mask[123, 45:250:3] = True
        mask[123, 251:270] = True
    regions = labeled_as_the_reference(mask)
    assert not regions.touches_border.any()
    assert regions.eccentricity[-1] == 1.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    w=st.integers(1, 200),
    h=st.integers(1, 200),
    density=st.sampled_from([0.002, 0.005, 0.01]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_masks_match_the_reference_labeler(w, h, density, seed):
    """A few specks in a large frame: the foreground box sits anywhere,
    mostly away from the origin."""
    labeled_as_the_reference(np.random.default_rng(seed).random((h, w)) < density)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 7),
    w=st.integers(1, 24),
    h=st.integers(1, 24),
    densities=st.lists(st.sampled_from([0.0, 0.1, 0.4, 0.7, 1.0]), min_size=7, max_size=7),
    seam=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=4, w=9, h=6, densities=[0.0] * 7, seam=False, seed=0)
@example(k=1, w=13, h=11, densities=[0.4] * 7, seam=True, seed=1)
@example(k=3, w=8, h=5, densities=[0.0, 0.4, 0.0, 1.0, 0.0, 0.0, 0.0], seam=True, seed=2)
@example(k=5, w=1, h=1, densities=[1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0], seam=False, seed=3)
def test_each_plane_of_a_stack_labels_as_that_plane_alone(k, w, h, densities, seam, seed):
    """Rows with plane == p equal the plane's own call column by column, bits
    included, and the stack's label image holds the plane's labels.  With
    ``seam``, foreground on each plane's last row sits right above foreground
    on the next plane's first row, and must stay apart."""
    rng = np.random.default_rng(seed)
    stack = rng.random((k, h, w)) < np.array(densities[:k])[:, None, None]
    if seam:
        stack[:-1, -1, :] = stack[1:, 0, :] = True
    regions = connected_components(stack)
    top, left = regions.origin
    bh, bw = regions.labels.shape[1:]
    assert regions.labels.shape[0] == k and regions.labels.dtype == np.int32
    assert (np.diff(regions.plane) >= 0).all()
    for p in range(k):
        alone = connected_components(stack[p])
        assert not alone.plane.any()
        rows = regions.plane == p
        for name in ("area", "bbox", "touches_border", "x", "y", "eccentricity"):
            column = getattr(regions, name)[rows]
            assert column.dtype == getattr(alone, name).dtype, name
            assert column.tolist() == getattr(alone, name).tolist(), name
        ours = np.zeros((h, w), dtype=np.int32)
        first = np.count_nonzero(regions.plane < p)
        ours[top : top + bh, left : left + bw] = np.where(
            regions.labels[p] > 0, regions.labels[p] - first, 0)
        theirs = np.zeros((h, w), dtype=np.int32)
        (r0, c0), (lh, lw) = alone.origin, alone.labels.shape
        theirs[r0 : r0 + lh, c0 : c0 + lw] = alone.labels
        assert np.array_equal(ours, theirs)


def _staircase(rows: int, step: int, run: int) -> np.ndarray:
    """One region of ``rows`` runs of ``run`` px, each ``step`` px right of
    the one above, overlapping it."""
    mask = np.zeros((rows, step * (rows - 1) + run), dtype=bool)
    for r in range(rows):
        mask[r, r * step : r * step + run] = True
    return mask


@pytest.mark.parametrize("mask", [
    np.ones((4, 4096), dtype=bool),  # area * extent = 2**26: int64
    np.ones((4, 4097), dtype=bool),  # just past it: Python ints
    _staircase(4, 7000, 9000),  # thin and slanted, far past it
    np.ones((2, 80000), dtype=bool),  # n * sum(x^2) overflows int64
], ids=["4x4096", "4x4097", "staircase", "2x80000"])
def test_moments_stay_exact_past_the_int64_bound(mask):
    """Regions whose area times box extent reaches or passes 2^26, where
    the moment products no longer fit under 2^53, still get the exactly
    rounded moments of the reference (rows compare with ==)."""
    regions = labeled_as_the_reference(mask)
    assert len(regions) == 1
    if mask.shape == (2, 80000):
        assert regions.eccentricity[0] == 0.9999999997656249
