import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipefollow.imgproc import GrayImage, RgbImage
from pipefollow.netpbm import (NetpbmError, read_pgm, read_ppm, write_pgm,
                               write_ppm)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    img = GrayImage.from_array(rng.integers(0, 256, (9, 13), dtype=np.uint8))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert (back.width, back.height) == (13, 9)
    assert np.array_equal(back.pixels, img.pixels)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    img = RgbImage.from_array(rng.integers(0, 256, (5, 4, 3), dtype=np.uint8))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
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
    with pytest.raises(NetpbmError):
        read_pgm(path)


netpbm_bytes = st.one_of(
    st.binary(),
    st.builds(bytes.__add__, st.sampled_from([b"P5", b"P6", b"P5\n2 2\n255\n",
                                              b"P6 1 1 255 ", b"P5\n#c\n3"]), st.binary()))


@settings(deadline=None)
@given(netpbm_bytes)
def test_readers_raise_only_netpbm_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.pnm"
    path.write_bytes(data)
    for reader in (read_pgm, read_ppm):
        try:
            reader(path)
        except NetpbmError:
            pass
