"""Band/sub-segment decomposition and fuzzy input vector assembly.

An image is cut into 5 equal horizontal bands, ordered bottom to top so that
band 1 covers the terrain acted on first.  Each band carries 6 sub-segments:
quadrants 1-4 (upper-left, upper-right, lower-left, lower-right), 5 the upper
half and 6 the lower half.  Per band the features are

  x1..x4  normalized object coverage of the quadrants,
  x5      normalized horizontal location of object pixels in the upper half
          (the far end of a forward-viewed pipeline),
  x6      the same for the lower half (the near end),

all affinely mapped onto [0.1, 1.0] with 0.55 the neutral center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imgproc import (BinaryImage, GrayImage, NoObjectError, ThresholdBand,
                      label_regions, threshold_band)

NUM_BANDS = 5
UNIVERSE_LO = 0.1
UNIVERSE_HI = 1.0
UNIVERSE_MID = 0.55
_SPAN = UNIVERSE_HI - UNIVERSE_LO


@dataclass(frozen=True)
class Rect:
    """Inclusive pixel rectangle."""

    row0: int
    col0: int
    row1: int
    col1: int

    @property
    def pixel_count(self) -> int:
        return (self.row1 - self.row0 + 1) * (self.col1 - self.col0 + 1)

    def slice(self) -> tuple:
        return (slice(self.row0, self.row1 + 1), slice(self.col0, self.col1 + 1))


@dataclass(frozen=True)
class BandLayout:
    band_index: int          # 1..5, 1 = bottom of the image
    row_range: tuple         # (first_row, last_row) inclusive
    sub_segments: dict       # 1..6 -> Rect


@dataclass(frozen=True)
class FeatureVector:
    x1: float
    x2: float
    x3: float
    x4: float
    x5: float
    x6: float
    band_index: int

    def as_dict(self) -> dict:
        return {"x1": self.x1, "x2": self.x2, "x3": self.x3,
                "x4": self.x4, "x5": self.x5, "x6": self.x6}

    def as_tuple(self) -> tuple:
        return (self.x1, self.x2, self.x3, self.x4, self.x5, self.x6)

    @property
    def delta_x(self) -> float:
        """Signed offset of the far end from the view center (positive = right)."""
        return self.x5 - UNIVERSE_MID


def split_bands(width: int, height: int) -> list:
    """Lay out 5 equal-height bands, bottom first; remainder rows go to the top band.

    Quadrant boundaries sit at floor(size/2) within each band, so every
    quadrant holds at least one pixel only when a band has 2 rows or more.
    """
    if height < 2 * NUM_BANDS or width < 2:
        raise ValueError(f"image too small to band: {width}x{height} (needs at least "
                         f"2 columns and {2 * NUM_BANDS} rows)")
    base = height // NUM_BANDS
    layouts = []
    for k in range(1, NUM_BANDS + 1):
        # band k occupies the k-th block of rows counted from the bottom
        last = height - (k - 1) * base - 1
        first = 0 if k == NUM_BANDS else height - k * base
        mid_row = first + (last - first + 1) // 2
        mid_col = width // 2
        subs = {
            1: Rect(first, 0, mid_row - 1, mid_col - 1),
            2: Rect(first, mid_col, mid_row - 1, width - 1),
            3: Rect(mid_row, 0, last, mid_col - 1),
            4: Rect(mid_row, mid_col, last, width - 1),
            5: Rect(first, 0, mid_row - 1, width - 1),
            6: Rect(mid_row, 0, last, width - 1),
        }
        layouts.append(BandLayout(band_index=k, row_range=(first, last), sub_segments=subs))
    return layouts


def _to_universe(fraction: float) -> float:
    return UNIVERSE_LO + _SPAN * fraction


def coverage_fractions(obj: BinaryImage, band: BandLayout) -> tuple:
    """Normalized object coverage of the band's four quadrants."""
    out = []
    for q in (1, 2, 3, 4):
        rect = band.sub_segments[q]
        covered = int(obj.pixels[rect.slice()].sum())
        out.append(_to_universe(covered / rect.pixel_count))
    return tuple(out)


def line_locations(obj: BinaryImage, band: BandLayout) -> tuple:
    """Normalized column centroids of object pixels in sub-segments 5 and 6.

    The centroid is normalized by width-1 so columns 0 and width-1 map to
    exactly 0.1 and 1.0; this keeps a horizontally mirrored mask mapping to
    exactly 1.1-x.  An empty sub-segment yields the neutral center 0.55 so a
    partially visible object still produces usable inputs.
    """
    out = []
    for s in (5, 6):
        rect = band.sub_segments[s]
        patch = obj.pixels[rect.slice()]
        count = int(patch.sum())
        if count == 0:
            out.append(UNIVERSE_MID)
            continue
        cols = np.nonzero(patch)[1] + rect.col0
        centroid = float(cols.sum()) / count
        out.append(_to_universe(centroid / (obj.width - 1)))
    return tuple(out)


def band_features(obj: BinaryImage, band: BandLayout) -> FeatureVector:
    u1, u2, u3, u4 = coverage_fractions(obj, band)
    x5, x6 = line_locations(obj, band)
    return FeatureVector(u1, u2, u3, u4, x5, x6, band.band_index)


def object_mask(img: GrayImage, band: ThresholdBand, min_area: int) -> BinaryImage:
    """Mask of the largest 8-connected region of the thresholded image.

    Ties go to the smallest label, the first region in raster order.  Raises
    NoObjectError unless that region holds at least min_area pixels, which is
    also the outcome of first dropping every region below min_area.
    """
    if min_area < 0:
        raise ValueError("min_area must be >= 0")
    lm = label_regions(threshold_band(img, band))
    sizes = np.bincount(lm.labels.ravel())[1:]   # region k holds sizes[k - 1] pixels
    if sizes.size == 0 or sizes.max() < min_area:
        raise NoObjectError("label map contains no regions")
    label = int(np.argmax(sizes)) + 1   # argmax returns the first maximum
    return BinaryImage(img.width, img.height, (lm.labels == label).astype(np.uint8))


def extract_features(img: GrayImage, band: ThresholdBand, min_area: int) -> list:
    """Feature vectors of all 5 bands, bottom to top.

    Raises ValueError for an image too small to band and NoObjectError when
    no region holds at least min_area pixels.
    """
    layouts = split_bands(img.width, img.height)
    mask = object_mask(img, band, min_area)
    return [band_features(mask, layout) for layout in layouts]


__all__ = [
    "BandLayout", "FeatureVector", "NoObjectError", "Rect",
    "band_features", "coverage_fractions", "extract_features",
    "line_locations", "object_mask", "split_bands",
    "NUM_BANDS", "UNIVERSE_LO", "UNIVERSE_HI", "UNIVERSE_MID",
]
