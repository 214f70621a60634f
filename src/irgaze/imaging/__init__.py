"""Self-contained 8-bit raster toolkit: PGM codec, equalization,
thresholding, binary opening with a disk, and connected-component analysis;
the last two also take a (k, h, w) stack of masks and treat each plane alone."""

from .image import Point, check_finite, check_image, check_type, row_to_y, y_to_row
from .ops import binarize, equalize_lut, histogram_equalize, morphology
from .pgm import decode_pgm, encode_pgm
from .regions import Region, Regions, connected_components

__all__ = [
    "Point",
    "Region",
    "Regions",
    "binarize",
    "check_finite",
    "check_image",
    "check_type",
    "connected_components",
    "decode_pgm",
    "encode_pgm",
    "equalize_lut",
    "histogram_equalize",
    "morphology",
    "row_to_y",
    "y_to_row",
]
