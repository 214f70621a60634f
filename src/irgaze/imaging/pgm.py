"""Binary PGM (P5) codec, 8-bit only.

The header is four tokens (magic, width, height, maxval) split by
whitespace, which one regular expression reads a token at a time; header
comments (``#`` to end of line) are tolerated anywhere whitespace is
allowed.  ``decode_pgm(encode_pgm(img))`` equals ``img`` byte-exactly
for every valid image; trailing bytes after the sample plane are ignored on
decode.
"""

from __future__ import annotations

import re

import numpy as np

from ..errors import BadMagic, PgmError, TruncatedData, UnsupportedMaxval
from .image import check_image

# One header token: the whitespace and ``#`` comments before it, then the
# token itself.  A ``#`` inside a token is part of the token.
_HEADER_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]|#[^\r\n]*)*([^ \t\r\n\x0b\x0c]*)")


def decode_pgm(data: bytes) -> np.ndarray:
    """Parse a binary PGM stream into a read-only image that views the
    samples in ``data`` when it is ``bytes``, which cannot change, and
    otherwise (a ``bytearray``, say) in one copy of the whole stream."""
    data = data if isinstance(data, bytes) else memoryview(data).tobytes()
    pos = 0
    fields = []
    for name in ("magic", "width", "height", "maxval"):
        match = _HEADER_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise TruncatedData("stream ended inside the PGM header")
        if name == "magic":
            if token != b"P5":
                raise BadMagic(f"expected magic 'P5', got {token!r}")
            continue
        try:
            if not token.isdigit():  # ASCII digits only, unlike int()
                raise ValueError
            fields.append(int(token))  # raises past 4300 digits
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
    if len(data) - pos < need:
        raise TruncatedData(f"expected {need} samples, got {max(len(data) - pos, 0)}")
    img = np.frombuffer(data, np.uint8, count=need, offset=pos).reshape(height, width)
    img.setflags(write=False)
    return img


def encode_pgm(img: np.ndarray) -> bytes:
    """Serialize to a canonical binary PGM stream."""
    height, width = check_image(img).shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return b"".join((header, np.ascontiguousarray(img)))  # one copy of the samples
