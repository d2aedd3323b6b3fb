"""Binary netpbm I/O: P5 (PGM) gray rasters read and written; P6 (PPM) read only, as gray.

A header is the magic, width, height and maxval (only 255), each after whitespace or
'#' comments that run to the end of their line, then one whitespace byte.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .imgproc import GrayImage, rgb_to_gray


class NetpbmError(Exception):
    pass


_SKIP = rb"(?:\s|#[^\n]*(?![^\n]))"   # the lookahead ends a comment only at its newline
# the last group is the whitespace byte before the raster, empty when it is missing
_HEADER = re.compile(_SKIP + rb"*([^\s#]+)" + (_SKIP + rb"+([^\s#]+)") * 3 + rb"(\s?)")


def _read(path, magics: tuple) -> np.ndarray:
    """The (h, w) P5 or (h, w, 3) P6 uint8 raster of a file whose magic is in magics."""
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
    return np.frombuffer(data, np.uint8, size, header.end()).reshape(shape).copy()


def read_pgm(path) -> GrayImage:
    return GrayImage(_read(path, (b"P5",)))


def read_gray(path) -> GrayImage:
    """A P5 file's image as it is, or a P6 file's converted with rgb_to_gray."""
    pixels = _read(path, (b"P5", b"P6"))
    return GrayImage(pixels) if pixels.ndim == 2 else rgb_to_gray(pixels)


def write_pgm(path, img: GrayImage) -> None:
    height, width = img.pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(np.ascontiguousarray(img.pixels, dtype=np.uint8).tobytes())
