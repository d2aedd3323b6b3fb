"""Binary netpbm I/O: P5 (PGM) for gray rasters, P6 (PPM) for RGB."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .imgproc import GrayImage, RgbImage


class NetpbmError(Exception):
    pass


def _read_tokens(data: bytes, count: int):
    """Pull whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset of the raster (one whitespace byte
    after the last token).
    """
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise NetpbmError("truncated header")
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    if i >= len(data) or not data[i:i + 1].isspace():
        raise NetpbmError("missing whitespace before raster data")
    return tokens, i + 1


def _parse_header(data: bytes, magic: bytes):
    tokens, offset = _read_tokens(data, 4)
    if tokens[0] != magic:
        raise NetpbmError(f"expected {magic.decode()} file, got {tokens[0][:2]!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise NetpbmError(f"non-numeric header field: {exc}") from exc
    if width < 1 or height < 1:
        raise NetpbmError("non-positive image dimensions")
    if maxval != 255:
        raise NetpbmError(f"only maxval 255 is supported, got {maxval}")
    return width, height, offset


def read_pgm(path) -> GrayImage:
    data = Path(path).read_bytes()
    width, height, offset = _parse_header(data, b"P5")
    raster = data[offset:offset + width * height]
    if len(raster) != width * height:
        raise NetpbmError("truncated raster data")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return GrayImage(width, height, pixels.copy())


def write_pgm(path, img: GrayImage) -> None:
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.width, img.height))
        fh.write(np.ascontiguousarray(img.pixels, dtype=np.uint8).tobytes())


def read_ppm(path) -> RgbImage:
    data = Path(path).read_bytes()
    width, height, offset = _parse_header(data, b"P6")
    raster = data[offset:offset + width * height * 3]
    if len(raster) != width * height * 3:
        raise NetpbmError("truncated raster data")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    return RgbImage(width, height, pixels.copy())


def write_ppm(path, img: RgbImage) -> None:
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (img.width, img.height))
        fh.write(np.ascontiguousarray(img.pixels, dtype=np.uint8).tobytes())
