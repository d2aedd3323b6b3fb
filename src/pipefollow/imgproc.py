"""Image chain: gray conversion, band thresholding to a bool mask, region labeling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


class NoObjectError(Exception):
    """Raised when no foreground region survives to act as object of interest."""


class InvariantError(ValueError):
    """A dataclass value that breaks an invariant; fields names the fields it involves."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True, eq=False)   # == on the array field would be ambiguous
class GrayImage:
    """Row-major (height, width) uint8 raster; a wrapper because the benchmark reads .pixels."""

    pixels: np.ndarray


@dataclass(frozen=True)
class ThresholdBand:
    """Open-closed intensity window (t1, t2]; pixels inside become foreground."""

    t1: int
    t2: int

    def __post_init__(self):
        if not (0 <= self.t1 <= 255 and 0 <= self.t2 <= 255):
            raise InvariantError("thresholds must lie in 0-255", "t1", "t2")
        if self.t1 >= self.t2:
            raise InvariantError(f"invalid threshold band: t1={self.t1} must be < t2={self.t2}",
                                 "t1", "t2")


class LabelMap(NamedTuple):
    """Per-pixel region labels; 0 is background, regions are 1..region_count."""

    labels: np.ndarray  # (height, width) int32
    region_count: int


def rgb_to_gray(rgb: np.ndarray) -> np.ndarray:
    """Convert an (h, w, 3) uint8 array to an (h, w) one with BT.601 luma weights.

    gray = (299*r + 587*g + 114*b + 500) // 1000, i.e. the weighted sum
    rounded to the nearest integer with halves rounding up.  Exact integer
    arithmetic keeps the result platform-independent.  Any other array raises ValueError.
    """
    if not (rgb.dtype == np.uint8 and rgb.ndim == 3 and rgb.shape[2] == 3):
        raise ValueError(f"rgb_to_gray needs an (h, w, 3) uint8 array, got a {rgb.dtype} "
                         f"array of shape {rgb.shape}")
    p = rgb.astype(np.int64)
    gray = (299 * p[:, :, 0] + 587 * p[:, :, 1] + 114 * p[:, :, 2] + 500) // 1000
    return gray.astype(np.uint8)


def threshold_band(pixels: np.ndarray, band: ThresholdBand) -> np.ndarray:
    """Bool mask of the pixels of a 2-D uint8 array with band.t1 < intensity <= band.t2."""
    return (pixels > band.t1) & (pixels <= band.t2)


def label_regions(mask: np.ndarray) -> LabelMap:
    """Partition the nonzero pixels of a 2-D mask into maximal 8-connected regions.

    Labels are 1..N in raster order of each region's first pixel.  That order
    is scipy's own: ndimage.label numbers regions as its raster scan first
    meets them, and tests/oracles.py::flood_fill_labels pins it.
    """
    from scipy import ndimage   # here, so a command that never labels never loads scipy
    return LabelMap(*ndimage.label(mask, structure=EIGHT_CONNECTED))


def area(mask: np.ndarray) -> int:
    """Foreground pixel count of a 0/1 or bool mask."""
    return int(np.count_nonzero(mask))
