"""Connected-component labeling and region properties.

8-connectivity throughout.  Labeling covers only the bounding box of the
mask's foreground, in one pass: numpy finds every run of foreground pixels
at once, and a vectorized union-find merges runs that touch across
adjacent rows, so the Python-level cost scales with the number of distinct
region areas, not the rows or the regions.  Pixels, bounding boxes and the
border flag are in frame coordinates, the border taken against the frame.
Area, bounding box, border flag and the centroid's exact coordinate sums
are integer reductions over each region's runs; all regions' pixels share
one read-only buffer.

Eccentricity comes from the second-order central moments of the pixel
coordinates: with covariance eigenvalues l1 >= l2,
ecc = sqrt(1 - l2/l1), and 0 when l1 = 0 (single pixel).  A filled disk
gives ~0, a 1-pixel-wide line gives exactly 1.  The moments are summed
over per-pixel deviations from the centroid, not derived from raw run
sums, whose cancellation would change the last bits.  Their bits depend
on the order of summation, and each must equal the region's own 1-D
``ndarray.sum()``: the buffer holds the regions smallest first, and the
products of all regions of one area are summed along the last axis of one
contiguous (regions, area) block, which numpy reduces row by row exactly
as it reduces each row alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import Point, check_mask, row_to_y

_EIG_EPS = 1e-12


@dataclass(frozen=True, eq=False, slots=True)
class Region:
    """One 8-connected foreground component.

    ``pixels`` is a read-only (area, 2) int32 array of (col, row) pairs in
    raster order; ``bbox`` is (min_col, min_row, max_col, max_row) in
    raster coordinates.  ``centroid`` is the mean pixel position in
    Cartesian coordinates of the frame.
    """

    pixels: np.ndarray
    area: int
    bbox: tuple[int, int, int, int]
    touches_border: bool
    centroid: Point
    eccentricity: float

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Region)
            and self.area == other.area
            and self.centroid == other.centroid
            and self.eccentricity == other.eccentricity
            and self.bbox == other.bbox
            and self.touches_border == other.touches_border
            and np.array_equal(self.pixels, other.pixels)
        )


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(first[i], first[i] + count[i])`` over i."""
    return np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)


def _moments(coords: np.ndarray, area: np.ndarray, offsets: np.ndarray,
             sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroids (2, regions) and eccentricities of regions whose Cartesian
    pixel coordinates lie back to back in the columns of ``coords``, region
    i in ``offsets[i]:offsets[i] + area[i]``, in ascending area; ``sums``
    holds each region's exact coordinate sums."""
    centroid = sums / area
    dev = coords - np.repeat(centroid, area, axis=1)
    prods = dev[[0, 1, 0]] * dev[[0, 1, 1]]  # dx*dx, dy*dy, dx*dy

    # One reduction per distinct area, over its regions' (k, area) blocks.
    second = np.empty((3, area.size))
    cuts = ((area[1:] != area[:-1]).nonzero()[0] + 1).tolist()
    for i, j in zip([0, *cuts], [*cuts, area.size]):
        n_px, start = int(area[i]), int(offsets[i])
        block = prods[:, start : start + (j - i) * n_px]
        second[:, i:j] = block.reshape(3, j - i, n_px).sum(axis=-1)

    mu20, mu02, mu11 = second / area
    mid = 0.5 * (mu20 + mu02)
    spread = np.hypot(0.5 * (mu20 - mu02), mu11)
    l1 = mid + spread
    l2 = np.maximum(mid - spread, 0.0)
    flat = l1 < _EIG_EPS
    ecc = np.where(flat, 0.0, np.sqrt(np.maximum(0.0, 1.0 - l2 / np.where(flat, 1.0, l1))))
    return centroid, ecc


def connected_components(mask: np.ndarray) -> list[Region]:
    """All 8-connected foreground regions of a bool mask, sorted by bounding-box origin.

    One pass over the foreground's bounding box finds every run; each run
    is joined to the runs it touches in the row above, and each set keeps
    its first run (in raster order) as root.  A region's pixels come in
    raster order, and regions with the same bbox origin and area keep
    first-run order.
    """
    h, w = check_mask(mask).shape
    on_rows = mask.any(axis=1).nonzero()[0]
    if on_rows.size == 0:
        return []
    top, bottom = int(on_rows[0]), int(on_rows[-1]) + 1
    on_cols = mask[top:bottom].any(axis=0).nonzero()[0]
    left, right = int(on_cols[0]), int(on_cols[-1]) + 1
    bw = right - left
    padded = np.zeros((bottom - top, bw + 2), dtype=bool)
    padded[:, 1:-1] = mask[top:bottom, left:right]
    # Value changes come in raster order and alternate within each row: a
    # run starts at an even one and ends, exclusively, at the next.
    rows, cols = (padded[:, 1:] != padded[:, :-1]).nonzero()
    rows, starts, ends = rows[0::2], cols[0::2], cols[1::2]
    n = rows.size

    # Row-major keys (row * (bw + 1) + column) are sorted for both starts
    # and ends.  The runs above run i that it touches, diagonally included,
    # are those in row - 1 ending at or after its start and starting at or
    # before its end: one contiguous slice [lo, hi).
    above = (rows - 1) * (bw + 1)
    lo = np.searchsorted(rows * (bw + 1) + ends, above + starts, side="left")
    hi = np.searchsorted(rows * (bw + 1) + starts, above + ends, side="right")
    touching = np.maximum(hi - lo, 0)
    upper = _ranges(lo, touching)
    lower = np.repeat(np.arange(n), touching)

    # Union-find over the touching pairs: hook the larger root onto the
    # smaller, then compress, until every pair shares a root.  The root of
    # each set is its first run.
    root = np.arange(n)
    while True:
        ru, rl = root[upper], root[lower]
        if (ru == rl).all():
            break
        np.minimum.at(root, np.maximum(ru, rl), np.minimum(ru, rl))
        while True:
            hop = root[root]
            if (hop == root).all():
                break
            root = hop

    # Group the runs by region, smallest first (so that the regions of one
    # area lie side by side for _moments) and, within one area, by root,
    # keeping raster order within each group: a group's first run is its
    # root.  Reduce each group's runs to its region's area, bbox and
    # coordinate sums, in frame coordinates.
    lengths = ends - starts
    order = np.lexsort((root, np.bincount(root, weights=lengths)[root]))
    heads = (root[order] == order).nonzero()[0]
    rows, lengths = rows[order] + top, lengths[order]
    starts, ends = starts[order] + left, ends[order] + left
    area = np.add.reduceat(lengths, heads)
    min_col = np.minimum.reduceat(starts, heads)
    max_col = np.maximum.reduceat(ends, heads) - 1
    min_row = np.minimum.reduceat(rows, heads)
    max_row = np.maximum.reduceat(rows, heads)
    border = (min_row == 0) | (max_row == h - 1) | (min_col == 0) | (max_col == w - 1)
    ys = row_to_y(rows, h)
    sums = np.add.reduceat([lengths * (starts + ends - 1) // 2, lengths * ys], heads, axis=1)

    pixels = np.empty((int(area.sum()), 2), dtype=np.int32)
    coords = np.empty((2, len(pixels)))
    coords[0] = pixels[:, 0] = _ranges(starts, lengths)
    coords[1] = np.repeat(ys, lengths)
    pixels[:, 1] = np.repeat(rows, lengths)
    pixels.setflags(write=False)
    offsets = np.cumsum(area) - area
    centroid, ecc = _moments(coords, area, offsets, sums)

    # A stable sort by (bbox origin, area) keeps first-run order for ties.
    ranked = np.lexsort((area, min_col, min_row))
    fields = zip(offsets[ranked].tolist(), area[ranked].tolist(),
                 min_col[ranked].tolist(), min_row[ranked].tolist(),
                 max_col[ranked].tolist(), max_row[ranked].tolist(),
                 border[ranked].tolist(), *centroid[:, ranked].tolist(),
                 ecc[ranked].tolist())
    return [
        Region(pixels=pixels[off : off + n_px], area=n_px, bbox=(c0, r0, c1, r1),
               touches_border=t, centroid=Point(x, y), eccentricity=e)
        for off, n_px, c0, r0, c1, r1, t, x, y, e in fields
    ]
