"""Pointwise and neighborhood raster operations.

equalize_lut gives the classic CDF remap that histogram_equalize applies

    out(v) = round((cdf(v) - cdf_min) / (W*H - cdf_min) * 255)

where cdf counts pixels <= v and cdf_min is the cdf at the lowest
occurring intensity.  A constant image maps to all zeros (the denominator
vanishes).  Rounding is half-up so the mapping is bit-reproducible.

Morphology uses a discrete disk structuring element: all offsets whose
center distance is <= radius.  Pixels beyond the image border count as
background, which is the usual infinite-plane embedding.
"""

from __future__ import annotations

import math

import numpy as np

from .image import BinaryImage, GrayImage

MORPHOLOGY_OPS = ("erode", "dilate", "open", "close")


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


def histogram_equalize(img: GrayImage) -> GrayImage:
    counts = np.bincount(img.pixels.ravel(), minlength=256)
    return GrayImage(equalize_lut(counts)[img.pixels])


def binarize(img: GrayImage, threshold: float) -> BinaryImage:
    """Foreground = intensity >= threshold."""
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    return BinaryImage(img.pixels >= threshold)


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


def _shifted(a: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """a translated by (dr, dc), zero-filled at the borders."""
    out = np.zeros_like(a)
    h, w = a.shape
    r0, r1 = max(dr, 0), h + min(dr, 0)
    c0, c1 = max(dc, 0), w + min(dc, 0)
    if r0 < r1 and c0 < c1:
        out[r0:r1, c0:c1] = a[r0 - dr : r1 - dr, c0 - dc : c1 - dc]
    return out


def _dilate(a: np.ndarray, offsets) -> np.ndarray:
    out = np.zeros_like(a)
    for dr, dc in offsets:
        out |= _shifted(a, dr, dc)
    return out


def _erode(a: np.ndarray, offsets) -> np.ndarray:
    out = np.ones_like(a)
    for dr, dc in offsets:
        out &= _shifted(a, -dr, -dc)
    return out


def morphology(img: BinaryImage, op: str, radius: float) -> BinaryImage:
    if op not in MORPHOLOGY_OPS:
        raise ValueError(f"unknown morphology op {op!r}")
    offsets = disk_offsets(radius)
    a = img.pixels
    if op == "erode":
        out = _erode(a, offsets)
    elif op == "dilate":
        out = _dilate(a, offsets)
    elif op == "open":
        out = _dilate(_erode(a, offsets), offsets)
    else:
        # Closing must run on the padded plane: clipping the intermediate
        # dilation at the raster edge would let the erosion eat foreground
        # that touches the border, breaking X <= close(X).
        pad = int(math.floor(radius))
        padded = np.pad(a, pad) if pad else a
        out = _erode(_dilate(padded, offsets), offsets)
        if pad:
            out = out[pad:-pad, pad:-pad]
    return BinaryImage(out)
