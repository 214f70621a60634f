"""Binary PGM (P5) codec, 8-bit only.

Header comments (``#`` to end of line) are tolerated anywhere whitespace
is allowed.  ``decode_pgm(encode_pgm(img))`` equals ``img`` byte-exactly
for every valid image; trailing bytes after the sample plane are ignored on
decode.
"""

from __future__ import annotations

import numpy as np

from ..errors import BadMagic, PgmError, TruncatedData, UnsupportedMaxval
from .image import check_image

_WHITESPACE = b" \t\r\n\x0b\x0c"


def decode_pgm(data: bytes) -> np.ndarray:
    """Parse a binary PGM stream into a read-only image over its own copy
    of the samples."""
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos : pos + 1]
            if c in _WHITESPACE:
                pos += 1
            elif c == b"#":
                while pos < len(data) and data[pos : pos + 1] not in b"\r\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos : pos + 1] not in _WHITESPACE:
            pos += 1
        if start == pos:
            raise TruncatedData("stream ended inside the PGM header")
        return data[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise BadMagic(f"expected magic 'P5', got {magic!r}")

    fields = []
    for name in ("width", "height", "maxval"):
        token = next_token()
        try:
            fields.append(int(token))
        except ValueError:
            raise PgmError(f"non-numeric {name} field: {token!r}") from None
    width, height, maxval = fields

    if width <= 0 or height <= 0:
        raise PgmError(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedMaxval(f"maxval {maxval}; only 8-bit (255) is supported")

    # Exactly one whitespace byte separates the header from the samples.
    pos += 1
    need = width * height
    raw = data[pos : pos + need]
    if len(raw) < need:
        raise TruncatedData(f"expected {need} samples, got {len(raw)}")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
    img.setflags(write=False)
    return img


def encode_pgm(img: np.ndarray) -> bytes:
    """Serialize to a canonical binary PGM stream."""
    height, width = check_image(img).shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + img.tobytes()
