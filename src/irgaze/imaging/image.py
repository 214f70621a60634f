"""Core raster types and input checks.

An image is a plain 2-D uint8 numpy array in raster order (row 0 is the
top scanline); a binary mask is a plain 2-D bool array in the same
layout.  Every function that returns either hands back a fresh read-only
array, so values can be shared freely across threads; other dtypes are
rejected, never converted.  ``check_finite`` is the package's one rule
for a number from outside (a config value, a file field, a threshold),
and ``check_type`` its one rule for the JSON type of a file field.  All
other geometry uses mathematical Cartesian coordinates: x is the column
index and y grows upward, so ``y = (height - 1) - row``, a mapping written
out only by the converters at the bottom of this module.
"""

from __future__ import annotations

import numbers
import reprlib
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


# The name of each JSON type, keyed by the Python type json.loads reads it as.
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "true or false"}
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 2  # a whole document in a field's place shows its top level only


def check_type(value, kind: type, name: str, null: bool = False):
    """``value`` itself, if json.loads reads it as a ``kind`` (dict, list,
    str, int or bool, so a bool is no int), as an int or a float where
    ``kind`` is float (a JSON number), or if it is None and ``null`` is set;
    else TypeError naming ``name``, the value shortened."""
    if type(value) is kind or kind is float and type(value) is int or null and value is None:
        return value
    wanted = _JSON_TYPES[kind]
    if null:
        wanted = "true, false or null" if kind is bool else f"{wanted} or null"
    raise TypeError(f"{name} must be {wanted}, got {_SHORT.repr(value)}")


def row_to_y(row, height: int):
    """Raster row index to Cartesian y (works elementwise on arrays)."""
    return (height - 1) - row


def y_to_row(y, height: int):
    """Cartesian y to raster row index (works elementwise on arrays)."""
    return (height - 1) - y
