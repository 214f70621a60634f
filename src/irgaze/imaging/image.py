"""Core raster types and input checks.

An image is a plain 2-D uint8 numpy array in raster order (row 0 is the
top scanline); a binary mask is a plain 2-D bool array in the same
layout.  Every function that returns either hands back a fresh read-only
array, so values can be shared freely across threads; other dtypes are
rejected, never converted.  ``check_finite`` is the package's one rule
for a number from outside (a config value, a file field, a threshold).
All geometry elsewhere in the package uses mathematical Cartesian
coordinates: x is the column index and y grows upward, so
``y = (height - 1) - row``.  The converters at the bottom of this module
are the only place that mapping is written out.
"""

from __future__ import annotations

import numbers
import sys
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


def check_image(img) -> np.ndarray:
    """``img`` itself, if it is a non-empty 2-D uint8 array (an 8-bit
    grayscale image); ValueError otherwise."""
    if not (isinstance(img, np.ndarray) and img.dtype == np.uint8
            and img.ndim == 2 and img.size):
        raise ValueError("expected a non-empty 2-D uint8 image")
    return img


def check_mask(mask) -> np.ndarray:
    """``mask`` itself, if it is a non-empty 2-D bool array (a binary mask:
    True is foreground) or (k, h, w) stack of them; ValueError otherwise."""
    if not (isinstance(mask, np.ndarray) and mask.dtype == np.bool_
            and mask.ndim in (2, 3) and mask.size):
        raise ValueError("expected a non-empty 2-D bool mask or a stack of them")
    return mask


def check_finite(value, name: str):
    """``value`` itself, if it is a finite real number (not a bool) or a list
    of them; else ValueError naming ``name``, and never another exception:
    NaN, an infinity, an int beyond float range and a non-number all fail."""
    for v in value if isinstance(value, list) else (value,):
        # float and int first: the numbers.Real test alone is several times slower.
        if not (isinstance(v, (float, int, numbers.Real)) and not isinstance(v, bool)
                and abs(v) <= sys.float_info.max):
            raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def row_to_y(row, height: int):
    """Raster row index to Cartesian y (works elementwise on arrays)."""
    return (height - 1) - row


def y_to_row(y, height: int):
    """Cartesian y to raster row index (works elementwise on arrays)."""
    return (height - 1) - y
