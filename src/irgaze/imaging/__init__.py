"""Self-contained 8-bit raster toolkit: PGM codec, equalization,
thresholding, binary morphology, and connected-component analysis."""

from .image import Point, check_image, row_to_y, y_to_row
from .ops import (MORPHOLOGY_OPS, binarize, disk_offsets, equalize_lut, histogram_equalize,
                  morphology)
from .pgm import decode_pgm, encode_pgm
from .regions import Region, connected_components

__all__ = [
    "Point",
    "Region",
    "MORPHOLOGY_OPS",
    "binarize",
    "check_image",
    "connected_components",
    "decode_pgm",
    "disk_offsets",
    "encode_pgm",
    "equalize_lut",
    "histogram_equalize",
    "morphology",
    "row_to_y",
    "y_to_row",
]
