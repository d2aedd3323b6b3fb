"""Binary netpbm I/O: one reader takes a P5 (PGM) or P6 (PPM) file and returns a gray
image, converting P6 with rgb_to_gray; the writer writes P5.

A header is the magic, width, height and maxval (only 255), each after whitespace or
'#' comments that run to the end of their line, then one whitespace byte.  A malformed
file raises a ValueError that names no file: sim.read_file names it."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .imgproc import GrayImage, rgb_to_gray


_SKIP = rb"(?:\s|#[^\n]*(?![^\n]))"   # the lookahead ends a comment only at its newline
# the last group is the whitespace byte before the raster, empty when it is missing
_HEADER = re.compile(_SKIP + rb"*([^\s#]+)" + (_SKIP + rb"+([^\s#]+)") * 3 + rb"(\s?)")


def read_pgm(path) -> GrayImage:
    """A P5 file's image as it is, or a P6 file's converted with rgb_to_gray; a malformed
    file raises ValueError."""
    data = Path(path).read_bytes()
    header = _HEADER.match(data)
    if header is None:
        raise ValueError("truncated header")
    magic, *fields, space = header.groups()
    if not space:
        raise ValueError("missing whitespace before raster data")
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"expected P5 or P6 file, got {magic[:2]!r}")
    try:
        width, height, maxval = (int(t) for t in fields)
    except ValueError as exc:
        raise ValueError(f"non-numeric header field: {exc}") from exc
    if width < 1 or height < 1:
        raise ValueError("non-positive image dimensions")
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    shape = (height, width) if magic == b"P5" else (height, width, 3)
    size = math.prod(shape)
    if len(data) - header.end() < size:
        raise ValueError("truncated raster data")
    pixels = np.frombuffer(data, np.uint8, size, header.end()).reshape(shape)
    return GrayImage(pixels.copy() if magic == b"P5" else rgb_to_gray(pixels))


def write_pgm(path, img: GrayImage) -> None:
    height, width = img.pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(np.ascontiguousarray(img.pixels, dtype=np.uint8).tobytes())
