"""Core raster types.

Images are stored as 2-D numpy arrays in raster order (row 0 is the top
scanline); a binary mask is a plain read-only 2-D bool array in the same
layout.  All geometry elsewhere in the package uses mathematical
Cartesian coordinates: x is the column index and y grows upward, so
``y = (height - 1) - row``.  The converters at the bottom of this module
are the only place that mapping is written out.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Point(NamedTuple):
    """Sub-pixel image location in Cartesian coordinates (y up)."""

    x: float
    y: float

    def shifted(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def distance_to(self, other: "Point") -> float:
        return float(np.hypot(self.x - other.x, self.y - other.y))


class GrayImage:
    """8-bit grayscale raster.

    ``pixels`` is a read-only (height, width) uint8 array.  Instances are
    immutable; operations return new images, so values can be shared
    freely across threads.
    """

    __slots__ = ("pixels",)

    def __init__(self, pixels: np.ndarray):
        arr = np.asarray(pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("expected a non-empty 2-D pixel array")
        if arr.dtype != np.uint8:
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("intensities must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        else:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GrayImage is immutable")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def flat(self) -> bytes:
        """Row-major samples as raw bytes."""
        return self.pixels.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, GrayImage) and np.array_equal(self.pixels, other.pixels)

    def __hash__(self):
        return hash((self.width, self.height, self.flat()))

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


def check_mask(mask) -> np.ndarray:
    """``mask`` itself, if it is a non-empty 2-D bool array (a binary mask:
    True is foreground); ValueError otherwise."""
    if not (isinstance(mask, np.ndarray) and mask.dtype == np.bool_
            and mask.ndim == 2 and mask.size):
        raise ValueError("expected a non-empty 2-D bool mask")
    return mask


def row_to_y(row, height: int):
    """Raster row index to Cartesian y (works elementwise on arrays)."""
    return (height - 1) - row


def y_to_row(y, height: int):
    """Cartesian y to raster row index (works elementwise on arrays)."""
    return (height - 1) - y
