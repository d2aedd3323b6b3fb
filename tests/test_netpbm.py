import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from pipefollow.imgproc import GrayImage, rgb_to_gray
from pipefollow.netpbm import NetpbmError, read_gray, read_pgm, write_pgm


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    img = GrayImage.from_array(rng.integers(0, 256, (9, 13), dtype=np.uint8))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert path.read_bytes().startswith(b"P5\n13 9\n255\n")
    assert np.array_equal(back.pixels, img.pixels)


def test_comments_and_whitespace_tolerated(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n  2\t2\n255\n" + bytes([1, 2, 3, 4]))
    img = read_pgm(path)
    assert np.array_equal(img.pixels, np.array([[1, 2], [3, 4]], dtype=np.uint8))


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
    with pytest.raises(NetpbmError):
        read_pgm(path)


def test_unsupported_maxval_rejected(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(NetpbmError):
        read_pgm(path)


def test_truncated_raster_rejected(tmp_path):
    path = tmp_path / "trunc.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(NetpbmError, match=r"^trunc\.pgm: truncated raster data$"):
        read_pgm(path)


def test_read_gray_takes_either_format(tmp_path):
    rng = np.random.default_rng(7)
    rgb = rng.integers(0, 256, (6, 5, 3), dtype=np.uint8)
    gray = GrayImage.from_array(rng.integers(0, 256, (6, 5), dtype=np.uint8))
    (tmp_path / "img.ppm").write_bytes(oracles.p6_bytes(rgb))
    write_pgm(tmp_path / "img.pgm", gray)
    assert np.array_equal(read_gray(tmp_path / "img.ppm").pixels, rgb_to_gray(rgb).pixels)
    assert np.array_equal(read_gray(tmp_path / "img.pgm").pixels, gray.pixels)
    (tmp_path / "plain.ppm").write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(NetpbmError, match=r"^plain\.ppm: expected P5 or P6 file, got b'P3'$"):
        read_gray(tmp_path / "plain.ppm")


netpbm_bytes = st.one_of(
    st.binary(),
    st.builds(bytes.__add__, st.sampled_from([b"P5", b"P6", b"P5\n2 2\n255\n",
                                              b"P6 1 1 255 ", b"P5\n#c\n3"]), st.binary()))


@settings(deadline=None)
@given(netpbm_bytes)
def test_readers_raise_only_netpbm_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.pnm"
    path.write_bytes(data)
    for reader in (read_pgm, read_gray):
        try:
            reader(path)
        except NetpbmError:
            pass


def reference_read(data: bytes, magics: tuple):
    """The pixel array the oracle tokenizer's header gives, or the error message."""
    try:
        tokens, offset = oracles.pnm_header_tokens(data)
    except ValueError as exc:
        return str(exc)
    if tokens[0] not in magics:
        return f"expected {' or '.join(m.decode() for m in magics)} file, got {tokens[0][:2]!r}"
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        return f"non-numeric header field: {exc}"
    if width < 1 or height < 1:
        return "non-positive image dimensions"
    if maxval != 255:
        return f"only maxval 255 is supported, got {maxval}"
    channels = 1 if tokens[0] == b"P5" else 3
    raster = data[offset:offset + width * height * channels]
    if len(raster) != width * height * channels:
        return "truncated raster data"
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)
    return pixels[..., 0] if channels == 1 else pixels


def spelled(n: int, prefix: bytes, underscore):
    """n in decimal after prefix, with a '_' before digit index underscore."""
    digits = str(n).encode()
    if underscore is not None:
        digits = digits[:underscore] + b"_" + digits[underscore:]
    return prefix + digits


def numeral(values):
    return st.builds(spelled, values, st.sampled_from([b"", b"+", b"0", b"+00"]),
                     st.none() | st.integers(0, 3))


whitespace = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
comment = st.builds(lambda body, end: b"#" + body + end,
                    st.binary(max_size=4).map(lambda b: b.replace(b"\n", b"")) |
                    st.lists(st.sampled_from([b"#", b"+", b"4", b" ", b"\x0c", b"\r"]),
                             max_size=4).map(b"".join),
                    st.sampled_from([b"\n", b""]))
separator = st.lists(whitespace | comment, max_size=3).map(b"".join)
structured_header = st.builds(
    lambda parts, raster: b"".join(parts) + raster,
    st.tuples(separator, st.sampled_from([b"P5", b"P6", b"P2", b"P55", b"p5"]),
              separator, numeral(st.integers(-1, 3)), separator, numeral(st.integers(-1, 3)),
              separator, numeral(st.sampled_from([255, 255, 255, 0, 256, 65535])),
              st.sampled_from([b" ", b"\n", b"\r", b"\x0b", b"#", b"#x\n", b""])),
    st.binary(max_size=40))


@settings(deadline=None, max_examples=400)
@given(structured_header)
@example(b"P5##\n\x0b#+4\x0c\r\n4 25_5 " + bytes(16))   # no comment may end mid-line
@example(b"P5#c\n2 2 255\n" + bytes([1, 2, 3, 4]))          # a comment glued to the magic
@example(b"\x0cP6\x0b1\x0c1\x0b255\x0c" + bytes([10, 20, 30]))
def test_readers_match_the_header_oracle(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "oracle.pnm"
    path.write_bytes(data)
    for reader, magics in ((read_pgm, (b"P5",)), (read_gray, (b"P5", b"P6"))):
        expected = reference_read(data, magics)
        try:
            pixels = reader(path).pixels
        except NetpbmError as exc:
            assert str(exc) == f"oracle.pnm: {expected}"
            continue
        assert not isinstance(expected, str), f"accepted what the oracle rejects: {expected}"
        if reader is read_gray and expected.ndim == 3:
            expected = rgb_to_gray(expected).pixels
        assert np.array_equal(pixels, expected)
