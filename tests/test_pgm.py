import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import assert_same_image, reference_decode_pgm
from irgaze.errors import BadMagic, PgmError, TruncatedData, UnsupportedMaxval
from irgaze.imaging import decode_pgm, encode_pgm


def test_decode_basic_2x2():
    img = decode_pgm(b"P5 2 2 255 " + bytes([0, 64, 128, 255]))
    assert_same_image(img, np.array([[0, 64], [128, 255]], dtype=np.uint8))


def test_decode_newline_separators_and_comment():
    data = b"P5\n# a comment line\n2 2\n# another\n255\n" + bytes([1, 2, 3, 4])
    img = decode_pgm(data)
    assert_same_image(img, np.array([[1, 2], [3, 4]], dtype=np.uint8))


@pytest.mark.parametrize("view", ["strided", "read-only"])
def test_encode_takes_a_strided_or_read_only_frame(view):
    frame = np.arange(6 * 8, dtype=np.uint8).reshape(6, 8)
    if view == "strided":
        img = frame[:, ::2]
        assert not img.flags.c_contiguous
    else:
        img = frame
        img.setflags(write=False)
    data = encode_pgm(img)
    assert data == f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode() + img.tobytes()
    assert_same_image(decode_pgm(data), img)


def test_decode_of_bytes_does_not_copy_the_samples():
    """A 1280x1024 frame's 1.25 MB of samples stay in the caller's bytes."""
    data = encode_pgm(np.arange(1280 * 1024, dtype=np.uint8).reshape(1024, 1280))
    tracemalloc.start()
    try:
        img = decode_pgm(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert img.base is not None and not img.flags.writeable


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


# --- the header grammar against the byte-by-byte reference scanner ------------

def _mostly(usual, unusual):
    """``usual`` three times as often as all of ``unusual`` together."""
    return st.sampled_from([usual] * 3 * len(unusual) + unusual)


_SPACES = [bytes([b]) for b in b" \t\r\n\x0b\x0c"]
# A comment runs to a line end; one cut short by the end of the stream is
# among the truncated prefixes.
_COMMENT = st.builds(lambda text, end: b"#" + text + end,
                     st.binary(max_size=4).map(lambda b: b.translate(None, b"\r\n")),
                     st.sampled_from([b"\n", b"\r"]))
_GAP_PIECE = st.one_of(st.sampled_from(_SPACES), _COMMENT)
# A "#" right after a token is part of the token, so a gap between two
# tokens opens with whitespace.
_GAP = st.builds(lambda space, rest: space + b"".join(rest),
                 st.sampled_from(_SPACES), st.lists(_GAP_PIECE, max_size=2))
_MAGIC = _mostly(b"P5", [b"P6", b"p5", b"P5#x", b"P55", b"P"])
# What int() or str.isdigit() would also take around the digits: a sign,
# "_", leading zeros, non-ASCII digits, and a "#" that is part of the token.
_ODD = [b"+", b"-", b"_", b"0", b"00", b"#", b"#0",
        *(c.encode() for c in "\u0663\uff15\u00b2")]


def _number(usual, unusual):
    """A decimal number, now and then with one odd part before or after it."""
    return st.builds(lambda n, odd, before: odd + n if before else n + odd,
                     _mostly(usual, unusual).map(lambda n: str(n).encode()),
                     _mostly(b"", _ODD), st.booleans())


def _outcome(decode, data):
    try:
        img = decode(data)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return img.shape, img.tobytes(), img.flags.writeable


@settings(max_examples=300, deadline=None)
@given(
    lead=st.lists(_GAP_PIECE, max_size=3),
    gaps=st.lists(_GAP, min_size=3, max_size=3),
    magic=_MAGIC,
    width=_number(2, [0, 1, 3]),
    height=_number(1, [0, 2]),
    maxval=_number(255, [0, 254, 65535]),
    separator=st.sampled_from(_SPACES),
    samples=st.binary(min_size=6, max_size=8),  # enough for 3x2; prefixes run short
)
@example(lead=[], gaps=[b" ", b" ", b" "], magic=b"P5", width=b"2", height=b"2",
         maxval=b"255", separator=b" ", samples=bytes([0, 64, 128, 255]))
@example(lead=[b"#c\r"], gaps=[b"\x0b#\n", b"\x0c", b"\t"], magic=b"P5",
         width=b"01", height=b"1", maxval=b"0255", separator=b"\r", samples=b"\x2a!")
def test_decode_matches_the_reference_scanner_on_every_prefix(
        lead, gaps, magic, width, height, maxval, separator, samples):
    """Every prefix of the stream is decoded too, so the header ends short
    at every byte, inside a token and inside a comment."""
    header = b"".join(lead) + magic + b"".join(
        gap + token for gap, token in zip(gaps, (width, height, maxval)))
    data = header + separator + samples
    for end in range(len(data) + 1):
        assert _outcome(decode_pgm, data[:end]) == _outcome(reference_decode_pgm, data[:end])
