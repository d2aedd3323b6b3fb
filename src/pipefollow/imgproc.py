"""Binary image chain: gray conversion, band thresholding, region labeling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


class NoObjectError(Exception):
    """Raised when no foreground region survives to act as object of interest."""


@dataclass(frozen=True)
class RgbImage:
    """Row-major RGB raster, channel values 0-255."""

    width: int
    height: int
    pixels: np.ndarray  # (height, width, 3) uint8

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        if self.pixels.shape != (self.height, self.width, 3):
            raise ValueError(f"pixel buffer shape {self.pixels.shape} does not match "
                             f"{self.height}x{self.width}x3")

    @classmethod
    def from_array(cls, arr) -> "RgbImage":
        a = np.asarray(arr, dtype=np.uint8)
        return cls(width=a.shape[1], height=a.shape[0], pixels=a)


@dataclass(frozen=True)
class GrayImage:
    """Row-major grayscale raster, intensities 0-255."""

    width: int
    height: int
    pixels: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        if self.pixels.shape != (self.height, self.width):
            raise ValueError(f"pixel buffer shape {self.pixels.shape} does not match "
                             f"{self.height}x{self.width}")

    @classmethod
    def from_array(cls, arr) -> "GrayImage":
        a = np.asarray(arr, dtype=np.uint8)
        return cls(width=a.shape[1], height=a.shape[0], pixels=a)


@dataclass(frozen=True)
class BinaryImage:
    """Raster whose pixels are exactly 0 or 1.

    Internal constructions build the pixels from a boolean comparison, so only
    from_array, the entry point for outside data, checks the values.
    """

    width: int
    height: int
    pixels: np.ndarray  # (height, width) uint8, values in {0, 1}

    def __post_init__(self):
        if self.pixels.shape != (self.height, self.width):
            raise ValueError(f"pixel buffer shape {self.pixels.shape} does not match "
                             f"{self.height}x{self.width}")

    @classmethod
    def from_array(cls, arr) -> "BinaryImage":
        a = np.asarray(arr, dtype=np.uint8)
        if (a > 1).any():
            raise ValueError("binary image may contain only 0 and 1")
        return cls(width=a.shape[1], height=a.shape[0], pixels=a)


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


@dataclass(frozen=True)
class LabelMap:
    """Per-pixel region labels; 0 is background, regions are 1..region_count."""

    width: int
    height: int
    labels: np.ndarray  # (height, width) int32
    region_count: int


def rgb_to_gray(img: RgbImage) -> GrayImage:
    """Convert to grayscale with BT.601 luma weights.

    gray = (299*r + 587*g + 114*b + 500) // 1000, i.e. the weighted sum
    rounded to the nearest integer with halves rounding up.  Exact integer
    arithmetic keeps the result platform-independent.
    """
    p = img.pixels.astype(np.int64)
    gray = (299 * p[:, :, 0] + 587 * p[:, :, 1] + 114 * p[:, :, 2] + 500) // 1000
    return GrayImage(img.width, img.height, gray.astype(np.uint8))


def threshold_band(img: GrayImage, band: ThresholdBand) -> BinaryImage:
    """Mark pixels with band.t1 < intensity <= band.t2 as foreground."""
    fg = (img.pixels > band.t1) & (img.pixels <= band.t2)
    return BinaryImage(img.width, img.height, fg.astype(np.uint8))


def label_regions(b: BinaryImage) -> LabelMap:
    """Partition foreground into maximal 8-connected regions.

    Labels are 1..N in raster order of each region's first pixel.  That order
    is scipy's own: ndimage.label numbers regions as its raster scan first
    meets them, and tests/oracles.py::flood_fill_labels pins it.
    """
    labels, count = ndimage.label(b.pixels, structure=EIGHT_CONNECTED)
    return LabelMap(b.width, b.height, labels, count)


def area(b: BinaryImage) -> int:
    """Total foreground pixel count."""
    return int(b.pixels.sum())
