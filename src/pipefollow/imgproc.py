"""Image chain: gray conversion, band thresholding to a bool mask, region labeling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage

EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


class NoObjectError(Exception):
    """Raised when no foreground region survives to act as object of interest."""


@dataclass(frozen=True)
class GrayImage:
    """Row-major (height, width) uint8 raster; a wrapper because the benchmark reads .pixels."""

    pixels: np.ndarray

    @classmethod
    def from_array(cls, arr) -> "GrayImage":
        """The image of an outside array; raises ValueError unless it is 2-D and non-empty."""
        a = np.asarray(arr, dtype=np.uint8)
        if a.ndim != 2 or a.size == 0:
            raise ValueError(f"a gray image needs a non-empty 2-D array, got shape {a.shape}")
        return cls(a)


@dataclass(frozen=True)
class ThresholdBand:
    """Open-closed intensity window (t1, t2]; pixels inside become foreground."""

    t1: int
    t2: int

    def __post_init__(self):
        if not (0 <= self.t1 <= 255 and 0 <= self.t2 <= 255):
            raise ValueError("thresholds must lie in 0-255")
        if self.t1 >= self.t2:
            raise ValueError(f"invalid threshold band: t1={self.t1} must be < t2={self.t2}")


class LabelMap(NamedTuple):
    """Per-pixel region labels; 0 is background, regions are 1..region_count."""

    labels: np.ndarray  # (height, width) int32
    region_count: int


def rgb_to_gray(rgb: np.ndarray) -> GrayImage:
    """Convert an (h, w, 3) uint8 array to grayscale with BT.601 luma weights.

    gray = (299*r + 587*g + 114*b + 500) // 1000, i.e. the weighted sum
    rounded to the nearest integer with halves rounding up.  Exact integer
    arithmetic keeps the result platform-independent.
    """
    p = rgb.astype(np.int64)
    gray = (299 * p[:, :, 0] + 587 * p[:, :, 1] + 114 * p[:, :, 2] + 500) // 1000
    return GrayImage(gray.astype(np.uint8))


def threshold_band(img: GrayImage, band: ThresholdBand) -> np.ndarray:
    """Bool mask of the pixels with band.t1 < intensity <= band.t2."""
    return (img.pixels > band.t1) & (img.pixels <= band.t2)


def label_regions(mask: np.ndarray) -> LabelMap:
    """Partition the nonzero pixels of a 2-D mask into maximal 8-connected regions.

    Labels are 1..N in raster order of each region's first pixel.  That order
    is scipy's own: ndimage.label numbers regions as its raster scan first
    meets them, and tests/oracles.py::flood_fill_labels pins it.
    """
    return LabelMap(*ndimage.label(mask, structure=EIGHT_CONNECTED))


def area(mask: np.ndarray) -> int:
    """Foreground pixel count of a 0/1 or bool mask."""
    return int(np.count_nonzero(mask))
