"""Connected-component labeling and region properties.

8-connectivity throughout.  Labeling is run-based and takes the whole
mask in one pass: numpy finds every run of foreground pixels at once, and
a vectorized union-find merges runs that touch across adjacent rows, so
the Python-level cost scales with the number of regions, not the rows.
Area, bounding box and the border flag of every region are integer
reductions over its runs; all regions' pixels share one read-only buffer.

Centroid and eccentricity are computed on first access, from the region's
own pixels, so a caller that only filters by area pays nothing for them.
Eccentricity comes from the second-order central moments of the pixel
coordinates: with covariance eigenvalues l1 >= l2,
ecc = sqrt(1 - l2/l1), and 0 when l1 = 0 (single pixel).  A filled disk
gives ~0, a 1-pixel-wide line gives exactly 1.  The moments are summed
over per-pixel deviations from the centroid, not derived from raw run
sums, whose cancellation would change the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .image import Point, check_mask, row_to_y

_EIG_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class Region:
    """One 8-connected foreground component.

    ``pixels`` is a read-only (area, 2) int32 array of (col, row) pairs in
    raster order; ``bbox`` is (min_col, min_row, max_col, max_row) in
    raster coordinates; ``height`` is the frame's, which maps rows to
    Cartesian y.  ``centroid`` is the mean pixel position in Cartesian
    coordinates.
    """

    pixels: np.ndarray
    area: int
    bbox: tuple[int, int, int, int]
    touches_border: bool
    height: int

    @cached_property
    def _moments(self) -> tuple[Point, float]:
        xs = self.pixels[:, 0].astype(np.float64)
        ys = row_to_y(self.pixels[:, 1].astype(np.float64), self.height)
        n = xs.size
        cx = float(xs.mean())
        cy = float(ys.mean())
        dx = xs - cx
        dy = ys - cy
        mu20 = float((dx * dx).sum()) / n
        mu02 = float((dy * dy).sum()) / n
        mu11 = float((dx * dy).sum()) / n
        mid = 0.5 * (mu20 + mu02)
        spread = np.hypot(0.5 * (mu20 - mu02), mu11)
        l1 = mid + spread
        l2 = max(mid - spread, 0.0)
        ecc = 0.0 if l1 < _EIG_EPS else float(np.sqrt(max(0.0, 1.0 - l2 / l1)))
        return Point(cx, cy), ecc

    @property
    def centroid(self) -> Point:
        return self._moments[0]

    @property
    def eccentricity(self) -> float:
        return self._moments[1]

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


def connected_components(mask: np.ndarray) -> list[Region]:
    """All 8-connected foreground regions of a bool mask, sorted by bounding-box origin.

    One pass over the whole mask finds every run; each run is joined to the
    runs it touches in the row above, and each set keeps its first run (in
    raster order) as root.  A region's pixels come in raster order, and
    regions with the same bbox origin and area keep first-run order.
    """
    h, w = check_mask(mask).shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask
    # Value changes come in raster order and alternate within each row: a
    # run starts at an even one and ends, exclusively, at the next.
    rows, cols = np.nonzero(np.diff(padded, axis=1))
    rows, starts, ends = rows[0::2], cols[0::2], cols[1::2]
    n = rows.size
    if n == 0:
        return []

    # Row-major keys (row * (w + 1) + column) are sorted for both starts and
    # ends.  The runs above run i that it touches, diagonally included, are
    # those in row - 1 ending at or after its start and starting at or
    # before its end: one contiguous slice [lo, hi).
    above = (rows - 1) * (w + 1)
    lo = np.searchsorted(rows * (w + 1) + ends, above + starts, side="left")
    hi = np.searchsorted(rows * (w + 1) + starts, above + ends, side="right")
    touching = np.maximum(hi - lo, 0)
    upper = _ranges(lo, touching)
    lower = np.repeat(np.arange(n), touching)

    # Union-find over the touching pairs: hook the larger root onto the
    # smaller, then compress, until every pair shares a root.  The root of
    # each set is its first run.
    root = np.arange(n)
    while True:
        ru, rl = root[upper], root[lower]
        if np.array_equal(ru, rl):
            break
        np.minimum.at(root, np.maximum(ru, rl), np.minimum(ru, rl))
        while not np.array_equal(root[root], root):
            root = root[root]

    # Group the runs by root, keeping raster order within each group, and
    # reduce each group's runs to its region's area and bbox.
    order = np.argsort(root, kind="stable")
    rows, starts, ends = rows[order], starts[order], ends[order]
    lengths = ends - starts
    heads = np.flatnonzero(np.diff(root[order], prepend=-1))
    area = np.add.reduceat(lengths, heads)
    min_col = np.minimum.reduceat(starts, heads)
    max_col = np.maximum.reduceat(ends, heads) - 1
    min_row = np.minimum.reduceat(rows, heads)
    max_row = np.maximum.reduceat(rows, heads)
    border = (min_row == 0) | (max_row == h - 1) | (min_col == 0) | (max_col == w - 1)

    pixels = np.empty((int(area.sum()), 2), dtype=np.int32)
    pixels[:, 0] = _ranges(starts, lengths)
    pixels[:, 1] = np.repeat(rows, lengths)
    pixels.setflags(write=False)
    offsets = np.cumsum(area) - area

    # A stable sort by (bbox origin, area) keeps first-run order for ties.
    ranked = np.lexsort((area, min_col, min_row))
    fields = zip(offsets[ranked].tolist(), area[ranked].tolist(),
                 min_col[ranked].tolist(), min_row[ranked].tolist(),
                 max_col[ranked].tolist(), max_row[ranked].tolist(),
                 border[ranked].tolist())
    return [
        Region(pixels=pixels[off : off + n_px], area=n_px, bbox=(c0, r0, c1, r1),
               touches_border=t, height=h)
        for off, n_px, c0, r0, c1, r1, t in fields
    ]
