import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_image
from irgaze.errors import BadMagic, PgmError, TruncatedData, UnsupportedMaxval
from irgaze.imaging import decode_pgm, encode_pgm


def test_decode_basic_2x2():
    img = decode_pgm(b"P5 2 2 255 " + bytes([0, 64, 128, 255]))
    assert_same_image(img, np.array([[0, 64], [128, 255]], dtype=np.uint8))


def test_decode_newline_separators_and_comment():
    data = b"P5\n# a comment line\n2 2\n# another\n255\n" + bytes([1, 2, 3, 4])
    img = decode_pgm(data)
    assert_same_image(img, np.array([[1, 2], [3, 4]], dtype=np.uint8))


def test_decode_bad_magic():
    with pytest.raises(BadMagic):
        decode_pgm(b"P7 2 2 255 " + bytes(4))


def test_decode_unsupported_maxval():
    with pytest.raises(UnsupportedMaxval):
        decode_pgm(b"P5 2 2 65535 " + bytes(8))


def test_decode_truncated_samples():
    with pytest.raises(TruncatedData):
        decode_pgm(b"P5 2 2 255 " + bytes([0, 64, 128]))


def test_decode_truncated_header():
    with pytest.raises(TruncatedData):
        decode_pgm(b"P5 2 2")


def test_decode_garbage_header():
    with pytest.raises(PgmError):
        decode_pgm(b"P5 two 2 255 " + bytes(4))


@pytest.mark.parametrize("header, samples", [
    pytest.param(b"P5 1_0 1 255 ", 10, id="underscore-width"),
    pytest.param(b"P5 +2 1 255 ", 2, id="signed-width"),
    pytest.param(b"P5 1 1 2_55 ", 1, id="underscore-maxval"),
    pytest.param(b"P5 " + b"9" * 5000 + b" 1 255 ", 0, id="overlong-width"),
])
def test_decode_header_number_grammar(header, samples):
    """int() would read the first three as 10, 2 and 255, and raises a
    plain ValueError on the last."""
    with pytest.raises(PgmError, match="non-numeric"):
        decode_pgm(header + bytes(samples))


def test_decode_ignores_trailing_bytes():
    img = decode_pgm(b"P5 1 1 255 \x2a extra")
    assert_same_image(img, np.array([[42]], dtype=np.uint8))


def test_encode_1x1():
    data = encode_pgm(np.array([[42]], dtype=np.uint8))
    assert data == b"P5\n1 1\n255\n\x2a"


def test_reencode_decoded_stream_is_stable():
    original = b"P5 2 2 255 " + bytes([0, 64, 128, 255])
    once = encode_pgm(decode_pgm(original))
    assert encode_pgm(decode_pgm(once)) == once


@settings(max_examples=50, deadline=None)
@given(
    w=st.integers(1, 12),
    h=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_is_lossless(w, h, seed):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    assert_same_image(decode_pgm(encode_pgm(img)), img)
