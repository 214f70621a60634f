"""Connected-component labeling and region properties.

8-connectivity throughout.  Labeling is run-based and takes the whole
mask in one pass: numpy finds every run of foreground pixels at once, and
a vectorized union-find merges runs that touch across adjacent rows, so
the Python-level cost scales with the number of regions, not the rows.

Eccentricity comes from the second-order central moments of the pixel
coordinates: with covariance eigenvalues l1 >= l2,
ecc = sqrt(1 - l2/l1), and 0 when l1 = 0 (single pixel).  A filled disk
gives ~0, a 1-pixel-wide line gives exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import BinaryImage, Point, row_to_y

_EIG_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class Region:
    """One 8-connected foreground component.

    ``pixels`` is an (area, 2) int array of (col, row) pairs;
    ``bbox`` is (min_col, min_row, max_col, max_row) in raster coordinates;
    ``centroid`` is the mean pixel position in Cartesian coordinates.
    """

    pixels: np.ndarray
    area: int
    centroid: Point
    eccentricity: float
    bbox: tuple[int, int, int, int]
    touches_border: bool

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


def _region_from_pixels(cols: np.ndarray, rows: np.ndarray, width: int, height: int) -> Region:
    xs = cols.astype(np.float64)
    ys = row_to_y(rows.astype(np.float64), height)
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
    min_col, max_col = int(cols.min()), int(cols.max())
    min_row, max_row = int(rows.min()), int(rows.max())
    return Region(
        pixels=np.column_stack((cols, rows)).astype(np.int32),
        area=int(n),
        centroid=Point(cx, cy),
        eccentricity=ecc,
        bbox=(min_col, min_row, max_col, max_row),
        touches_border=(
            min_row == 0 or max_row == height - 1 or min_col == 0 or max_col == width - 1
        ),
    )


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(first[i], first[i] + count[i])`` over i."""
    return np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)


def connected_components(img: BinaryImage) -> list[Region]:
    """All 8-connected foreground regions, sorted by bounding-box origin.

    One pass over the whole mask finds every run; each run is joined to the
    runs it touches in the row above, and each set keeps its first run (in
    raster order) as root.  A region's pixels come in raster order, and
    regions with the same bbox origin and area keep first-run order.
    """
    a = img.pixels
    h, w = a.shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = a
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

    order = np.argsort(root, kind="stable")
    lengths = (ends - starts)[order]
    pixel_cols = _ranges(starts[order], lengths)
    pixel_rows = np.repeat(rows[order], lengths)
    cuts = np.cumsum(lengths)[np.flatnonzero(np.diff(root[order]))]
    regions = [
        _region_from_pixels(c, r, w, h)
        for c, r in zip(np.split(pixel_cols, cuts), np.split(pixel_rows, cuts))
    ]
    regions.sort(key=lambda reg: (reg.bbox[1], reg.bbox[0], reg.area))
    return regions
