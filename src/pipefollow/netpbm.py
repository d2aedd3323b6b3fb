"""Binary netpbm I/O: P5 (PGM) for gray rasters, P6 (PPM) for RGB; read_gray takes either.

A header is the magic, width, height and maxval (only 255), each after whitespace or
'#' comments that run to the end of their line, then one whitespace byte.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .imgproc import GrayImage, RgbImage, rgb_to_gray


class NetpbmError(Exception):
    pass


_SKIP = rb"(?:\s|#[^\n]*(?![^\n]))"   # the lookahead ends a comment only at its newline
# the last group is the whitespace byte before the raster, empty when it is missing
_HEADER = re.compile(_SKIP + rb"*([^\s#]+)" + (_SKIP + rb"+([^\s#]+)") * 3 + rb"(\s?)")


def _read(path, magics: tuple):
    """The image of a P5 or P6 file whose magic is one of magics; errors name the file."""
    path = Path(path)
    data = path.read_bytes()
    header = _HEADER.match(data)
    if header is None:
        raise NetpbmError(f"{path.name}: truncated header")
    magic, *fields, space = header.groups()
    if not space:
        raise NetpbmError(f"{path.name}: missing whitespace before raster data")
    if magic not in magics:
        raise NetpbmError(f"{path.name}: expected {b' or '.join(magics).decode()} file, "
                          f"got {magic[:2]!r}")
    try:
        width, height, maxval = (int(t) for t in fields)
    except ValueError as exc:
        raise NetpbmError(f"{path.name}: non-numeric header field: {exc}") from exc
    if width < 1 or height < 1:
        raise NetpbmError(f"{path.name}: non-positive image dimensions")
    if maxval != 255:
        raise NetpbmError(f"{path.name}: only maxval 255 is supported, got {maxval}")
    shape = (height, width) if magic == b"P5" else (height, width, 3)
    size = math.prod(shape)
    if len(data) - header.end() < size:
        raise NetpbmError(f"{path.name}: truncated raster data")
    pixels = np.frombuffer(data, np.uint8, size, header.end()).reshape(shape).copy()
    return (GrayImage if magic == b"P5" else RgbImage)(width, height, pixels)


def _write(path, magic: bytes, img) -> None:
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, img.width, img.height))
        fh.write(np.ascontiguousarray(img.pixels, dtype=np.uint8).tobytes())


def read_pgm(path) -> GrayImage:
    return _read(path, (b"P5",))


def read_ppm(path) -> RgbImage:
    return _read(path, (b"P6",))


def read_gray(path) -> GrayImage:
    """A P5 file's image as it is, or a P6 file's converted with rgb_to_gray."""
    img = _read(path, (b"P5", b"P6"))
    return img if isinstance(img, GrayImage) else rgb_to_gray(img)


def write_pgm(path, img: GrayImage) -> None:
    _write(path, b"P5", img)


def write_ppm(path, img: RgbImage) -> None:
    _write(path, b"P6", img)
