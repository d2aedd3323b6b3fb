"""Object mask and the 5 band feature vectors the fuzzy controller reads.

An image is cut into 5 equal horizontal bands, ordered bottom to top so that
band 1 covers the terrain acted on first.  Each band carries 6 sub-segments:
quadrants 1-4 (upper-left, upper-right, lower-left, lower-right), 5 the upper
half and 6 the lower half; the upper half holds a band's first rows // 2
rows and the left quadrants the first width // 2 columns.  Per band the
features are

  x1..x4  normalized object coverage of the quadrants,
  x5      normalized horizontal location of object pixels in the upper half
          (the far end of a forward-viewed pipeline),
  x6      the same for the lower half (the near end),

all affinely mapped onto [0.1, 1.0] with 0.55 the neutral center.

band_vectors takes no sub-segment apart: one pass over the mask gives, per
row, the object pixels left of the middle column, the object pixels and the
sum of their column indices, and one np.add.reduceat adds those up over the
10 half-bands.  All 30 features follow from these integer sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fis
from .imgproc import GrayImage, NoObjectError, ThresholdBand, label_regions, threshold_band

NUM_BANDS = 5
UNIVERSE_LO, UNIVERSE_HI = fis.INPUT_UNIVERSE
UNIVERSE_MID = 0.55
_SPAN = UNIVERSE_HI - UNIVERSE_LO


@dataclass(frozen=True)
class BandLayout:
    band_index: int          # 1..5, 1 = bottom of the image
    row_range: tuple         # (first_row, last_row) inclusive


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


def split_bands(width: int, height: int) -> list:
    """Lay out 5 equal-height bands, bottom first; remainder rows go to the top band.

    Sub-segments split a band at floor(size/2), so every one holds at least
    one pixel only when a band has 2 rows or more.
    """
    if height < 2 * NUM_BANDS or width < 2:
        raise ValueError(f"image too small to band: {width}x{height} (needs at least "
                         f"2 columns and {2 * NUM_BANDS} rows)")
    base = height // NUM_BANDS
    # band k occupies the k-th block of rows counted from the bottom
    return [BandLayout(k, (0 if k == NUM_BANDS else height - k * base,
                           height - (k - 1) * base - 1))
            for k in range(1, NUM_BANDS + 1)]


def _to_universe(fraction: float) -> float:
    return UNIVERSE_LO + _SPAN * fraction


def band_vectors(pixels) -> list:
    """Feature vectors of the 5 bands of a 2-D 0/1 (or bool) object mask, bottom first.

    A quadrant's coverage is covered / pixel count.  A half's line location
    is its mean object column over width-1, so columns 0 and width-1 map to
    exactly 0.1 and 1.0 and a mirrored mask maps to exactly 1.1-x; an empty
    half yields the neutral 0.55, so a partially visible object still
    produces usable inputs.  Every value is a Python float.
    """
    height, width = pixels.shape
    layouts = split_bands(width, height)[::-1]    # top band first: half-band rows ascend
    mid_col = width // 2
    starts = []
    for layout in layouts:
        first, last = layout.row_range
        starts += [first, first + (last - first + 1) // 2]
    per_row = np.stack([np.count_nonzero(pixels[:, :mid_col], axis=1),
                        np.count_nonzero(pixels, axis=1),
                        pixels @ np.arange(width)], axis=1)
    sums = np.add.reduceat(per_row, starts, axis=0).tolist()
    halves = []                                   # (left cover, right cover, location)
    for (left, count, colsum), rows in zip(sums, np.diff(starts + [height]).tolist()):
        location = (UNIVERSE_MID if count == 0
                    else _to_universe(float(colsum) / count / (width - 1)))
        halves.append((_to_universe(left / (rows * mid_col)),
                       _to_universe((count - left) / (rows * (width - mid_col))), location))
    pairs = zip(halves[0::2], halves[1::2])       # (upper, lower) half of each band
    return [FeatureVector(u1, u2, u3, u4, x5, x6, layout.band_index)
            for layout, ((u1, u2, x5), (u3, u4, x6)) in zip(layouts, pairs)][::-1]


def object_mask(img: GrayImage, band: ThresholdBand, min_area: int) -> np.ndarray:
    """Bool mask of the largest 8-connected region of the thresholded image.

    Ties go to the smallest label, the first region in raster order.  Raises
    NoObjectError unless that region holds at least min_area pixels, which is
    also the outcome of first dropping every region below min_area.
    """
    if min_area < 0:
        raise ValueError("min_area must be >= 0")
    fg = threshold_band(img, band)
    labels, count = label_regions(fg)
    # background pixels are left out of the count: each label 1..count has a
    # foreground pixel, so the sizes are the same
    sizes = np.bincount(labels[fg])[1:]           # region k holds sizes[k - 1] pixels
    largest = int(sizes.max(initial=0))
    if count == 0 or largest < min_area:
        raise NoObjectError(f"label map contains no regions of at least {min_area} pixels "
                            f"({count} regions, largest {largest})")
    return labels == int(np.argmax(sizes)) + 1    # argmax returns the first maximum


def extract_features(img: GrayImage, band: ThresholdBand, min_area: int) -> list:
    """Feature vectors of all 5 bands, bottom to top.

    Raises ValueError for an image too small to band and NoObjectError when
    no region holds at least min_area pixels.
    """
    height, width = img.pixels.shape
    split_bands(width, height)                    # rejects a too-small image before labelling
    return band_vectors(object_mask(img, band, min_area))


__all__ = [
    "BandLayout", "FeatureVector", "NoObjectError", "band_vectors",
    "extract_features", "object_mask", "split_bands",
    "NUM_BANDS", "UNIVERSE_LO", "UNIVERSE_HI", "UNIVERSE_MID",
]
