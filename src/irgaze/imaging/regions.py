"""Connected-component labeling and region properties.

8-connectivity throughout.  A mask may be one 2-D plane or a (k, h, w)
stack of independent planes, such as one plane per threshold.  Labeling
covers only the bounding box of the foreground of all planes, in one pass:
one flat scan of the zero-padded box finds every run of foreground pixels
at once, and a vectorized union-find merges runs that touch across
adjacent rows of one plane, so the Python-level cost scales with the
number of distinct region areas, not the planes, rows or regions.  The
result is one table of read-only columns, with each region's plane, plus
the label image of the foreground box.  Area, bounding box, border flag
and the centroid's exact coordinate sums are integer reductions over each
region's runs, in its plane's frame coordinates, the border taken against
the frame.

Eccentricity comes from the second-order central moments of the pixel
coordinates: with covariance eigenvalues l1 >= l2,
ecc = sqrt(1 - l2/l1), and 0 when l1 = 0 (single pixel).  A filled disk
gives ~0, a 1-pixel-wide line gives exactly 1.  The moments are summed
over per-pixel deviations from the centroid, not derived from raw run
sums, whose cancellation would change the last bits.  Their bits depend
on the order of summation, and each must equal the region's own 1-D
``ndarray.sum()`` over its pixels in raster order: the pixels are laid out
region by region, smallest first, and the products of all regions of one
area are summed along the last axis of one contiguous (regions, area)
block, which numpy reduces row by row exactly as it reduces each row alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .image import Point, check_mask, row_to_y

_EIG_EPS = 1e-12


class Region(NamedTuple):
    """One row of a :class:`Regions` table, in plain Python scalars."""

    area: int
    bbox: tuple[int, int, int, int]
    touches_border: bool
    centroid: Point
    eccentricity: float


@dataclass(frozen=True, eq=False)
class Regions:
    """The 8-connected components of a mask as read-only columns, row i for
    region i: ``bbox`` is (min_col, min_row, max_col, max_row) in raster
    coordinates, (``x``, ``y``) the centroid in Cartesian coordinates, and
    ``plane`` the index of the region's plane in a stack (0 for a 2-D mask).
    ``labels`` is the int32 label image of the foreground's bounding box,
    (rows, cols) or, for a stack, (k, rows, cols), whose top-left pixel is
    at frame (row, col) ``origin``: 0 for background, i + 1 for region i.
    Iterating yields :class:`Region` rows, which leave out the plane."""

    area: np.ndarray
    bbox: np.ndarray
    touches_border: np.ndarray
    x: np.ndarray
    y: np.ndarray
    eccentricity: np.ndarray
    plane: np.ndarray
    labels: np.ndarray
    origin: tuple[int, int]

    def __post_init__(self):
        for name in ("area", "bbox", "touches_border", "x", "y", "eccentricity", "plane",
                     "labels"):
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return self.area.size

    def __iter__(self) -> Iterator[Region]:
        return map(Region, self.area.tolist(), map(tuple, self.bbox.tolist()),
                   self.touches_border.tolist(),
                   map(Point, self.x.tolist(), self.y.tolist()),
                   self.eccentricity.tolist())


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

    # One reduction per distinct area, over its regions' (k, area) blocks
    # (none when there are no regions).
    second = np.empty((3, area.size))
    cuts = ((area[1:] != area[:-1]).nonzero()[0] + 1).tolist()
    for i, j in zip([0, *cuts][: area.size], [*cuts, area.size]):
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


def connected_components(mask: np.ndarray) -> Regions:
    """All 8-connected foreground regions of a bool mask, sorted by bounding-box origin.

    ``mask`` may also be a (k, h, w) stack of independent planes: nothing
    connects across planes, each region is measured in its plane's frame,
    and rows sort by plane first.  One scan of the foreground's bounding box
    finds every run; each run is joined to the runs it touches in the row
    above, and each set keeps its first run (in raster order) as root.
    Regions with the same plane, bbox origin and area keep first-run order.
    """
    stack = check_mask(mask).reshape(-1, *mask.shape[-2:])
    k, h, w = stack.shape
    on_rows = stack.any(axis=(0, 2)).nonzero()[0]
    top, bottom = (int(on_rows[0]), int(on_rows[-1]) + 1) if on_rows.size else (0, 0)
    on_cols = stack[:, top:bottom].any(axis=(0, 1)).nonzero()[0]
    left, right = (int(on_cols[0]), int(on_cols[-1]) + 1) if on_cols.size else (0, 0)
    bh, bw = bottom - top, right - left
    # Every box row gets a zero in front and every plane a zero row below,
    # so that in the raveled box no run spans two rows or touches a run of
    # the next plane.  Value changes come in raster order and alternate: a
    # run starts at an even one and ends, exclusively, at the next.
    padded = np.zeros((k, bh + 1, bw + 1), dtype=bool)
    padded[:, :bh, 1:] = stack[:, top:bottom, left:right]
    flat = padded.ravel()
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    first, last = changes[0::2], changes[1::2]
    line, starts = divmod(first - 1, bw + 1)  # box column of the start
    plane, rows = divmod(line, bh + 1)
    lengths = last - first

    # Flat indices are sorted for both starts and ends.  The runs above run
    # i that it touches, diagonally included, are those one line up ending
    # at or after its start and starting at or before its end: one
    # contiguous slice [lo, hi).
    lo = np.searchsorted(last, first - (bw + 1), side="left")
    hi = np.searchsorted(first, last - (bw + 1), side="right")
    touching = np.maximum(hi - lo, 0)
    upper = _ranges(lo, touching)
    lower = np.repeat(np.arange(first.size), touching)

    # Union-find over the touching pairs: hook the larger root onto the
    # smaller, then compress, until every pair shares a root.  The root of
    # each set is its first run.
    root = np.arange(first.size)
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
    # coordinate sums, in its plane's frame.
    order = np.lexsort((root, np.bincount(root, weights=lengths)[root]))
    heads = (root[order] == order).nonzero()[0]
    plane, rows, lengths = plane[order], rows[order], lengths[order]
    flat_starts = (plane * bh + rows) * bw + starts[order]  # in the label image
    rows, starts = rows + top, starts[order] + left
    ends = starts + lengths
    area = np.add.reduceat(lengths, heads)
    min_col = np.minimum.reduceat(starts, heads)
    max_col = np.maximum.reduceat(ends, heads) - 1
    min_row = np.minimum.reduceat(rows, heads)
    max_row = np.maximum.reduceat(rows, heads)
    border = (min_row == 0) | (max_row == h - 1) | (min_col == 0) | (max_col == w - 1)
    ys = row_to_y(rows, h)
    sums = np.add.reduceat([lengths * (starts + ends - 1) // 2, lengths * ys], heads, axis=1)

    cols = _ranges(starts, lengths)
    coords = np.array((cols, np.repeat(ys, lengths)), dtype=np.float64)
    centroid, ecc = _moments(coords, area, np.cumsum(area) - area, sums)

    # A stable sort by (plane, bbox origin, area) keeps first-run order for
    # ties; each pixel of the box is labeled with its region's rank + 1.
    plane = plane[heads]
    ranked = np.lexsort((area, min_col, min_row, plane))
    labels = np.zeros(k * bh * bw, dtype=np.int32)
    labels[cols + np.repeat(flat_starts - starts, lengths)] = np.repeat(
        np.argsort(ranked) + 1, area)
    bbox = np.array((min_col, min_row, max_col, max_row)).T[ranked]
    return Regions(area=area[ranked], bbox=bbox, touches_border=border[ranked],
                   x=centroid[0, ranked], y=centroid[1, ranked], eccentricity=ecc[ranked],
                   plane=plane[ranked], labels=labels.reshape(*mask.shape[:-2], bh, bw),
                   origin=(top, left))
