"""Pointwise and neighborhood raster operations.

equalize_lut gives the classic CDF remap that histogram_equalize applies

    out(v) = round((cdf(v) - cdf_min) / (W*H - cdf_min) * 255)

where cdf counts pixels <= v and cdf_min is the cdf at the lowest
occurring intensity.  A constant image maps to all zeros (the denominator
vanishes).  Rounding is half-up so the mapping is bit-reproducible.

Morphology uses a discrete disk structuring element: all offsets whose
center distance is <= radius.  Pixels beyond the image border count as
background, which is the usual infinite-plane embedding: the mask is
padded with zeros once, and each erosion or dilation combines the disk's
offset slices of that plane, AND for erosion and OR for dilation.
"""

from __future__ import annotations

import math

import numpy as np

from .image import check_image, check_mask

_STEPS = {
    "erode": (np.logical_and,),
    "dilate": (np.logical_or,),
    "open": (np.logical_and, np.logical_or),
    "close": (np.logical_or, np.logical_and),
}
MORPHOLOGY_OPS = tuple(_STEPS)


def equalize_lut(counts: np.ndarray) -> np.ndarray:
    """The 256-entry uint8 remap that equalizes an image whose histogram is
    ``counts``.  It never decreases with the input level."""
    cdf = np.cumsum(counts)
    cdf_min = int(cdf[np.flatnonzero(counts)[0]])
    denom = int(cdf[-1]) - cdf_min
    if denom == 0:
        return np.zeros(256, dtype=np.uint8)
    lut = np.floor((cdf - cdf_min) / denom * 255.0 + 0.5)
    return np.clip(lut, 0, 255).astype(np.uint8)


def histogram_equalize(img: np.ndarray) -> np.ndarray:
    """The read-only equalized copy of ``img``."""
    out = equalize_lut(np.bincount(check_image(img).ravel(), minlength=256))[img]
    out.setflags(write=False)
    return out


def binarize(img: np.ndarray, threshold: float) -> np.ndarray:
    """The read-only mask of foreground = intensity >= threshold."""
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    mask = check_image(img) >= threshold
    mask.setflags(write=False)
    return mask


def disk_offsets(radius: float) -> list[tuple[int, int]]:
    """(drow, dcol) offsets of the disk structuring element."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    r = int(math.floor(radius))
    return [
        (dr, dc)
        for dr in range(-r, r + 1)
        for dc in range(-r, r + 1)
        if dr * dr + dc * dc <= radius * radius
    ]


def morphology(mask: np.ndarray, op: str, radius: float) -> np.ndarray:
    """The read-only result of eroding, dilating, opening or closing
    ``mask`` with the disk of ``radius``."""
    if op not in MORPHOLOGY_OPS:
        raise ValueError(f"unknown morphology op {op!r}")
    steps = _STEPS[op]
    offsets = disk_offsets(radius)
    r = int(math.floor(radius))
    # Each step combines the plane's slices at every offset for the pixels
    # at least r from its edge, so the plane starts padded with r zeros per
    # step.  Closing must run on the padded plane: clipping the intermediate
    # dilation at the raster edge would let the erosion eat foreground that
    # touches the border, breaking X <= close(X).
    h, w = check_mask(mask).shape
    pad = r * len(steps)
    plane = np.zeros((h + 2 * pad, w + 2 * pad), dtype=bool)
    plane[pad : pad + h, pad : pad + w] = mask
    for combine in steps:
        rows, cols = plane.shape[0] - 2 * r, plane.shape[1] - 2 * r
        out = plane[r : r + rows, r : r + cols].copy()
        for dr, dc in offsets:
            combine(out, plane[r + dr : r + dr + rows, r + dc : r + dc + cols], out=out)
        plane = out
    plane.setflags(write=False)
    return plane
