"""Object mask and the 5 band feature vectors the fuzzy controller reads.

An image is cut into 5 equal horizontal bands, each an inclusive
(first_row, last_row) tuple of rows, ordered bottom to top so that band 1
covers the terrain acted on first.  Each band carries 6 sub-segments:
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

import math
from dataclasses import dataclass

import numpy as np

from . import fis
from .imgproc import GrayImage, NoObjectError, ThresholdBand, label_regions, threshold_band

NUM_BANDS = 5
UNIVERSE_LO, UNIVERSE_HI = fis.INPUT_UNIVERSE
UNIVERSE_MID = 0.55
_SPAN = UNIVERSE_HI - UNIVERSE_LO


@dataclass(frozen=True)
class FeatureVector:
    x1: float
    x2: float
    x3: float
    x4: float
    x5: float
    x6: float
    band_index: int

    def __post_init__(self):
        # one chain: the 6 components each strictly between -inf and inf (nan fails)
        if not (-math.inf < self.x1 < math.inf > self.x2 > -math.inf < self.x3 < math.inf
                > self.x4 > -math.inf < self.x5 < math.inf > self.x6 > -math.inf):
            name = next(name for name in ("x1", "x2", "x3", "x4", "x5", "x6")
                        if not -math.inf < getattr(self, name) < math.inf)
            raise ValueError(f"feature {name} must be finite, got {getattr(self, name)}")

    def as_dict(self) -> dict:
        return {"x1": self.x1, "x2": self.x2, "x3": self.x3,
                "x4": self.x4, "x5": self.x5, "x6": self.x6}

    def as_tuple(self) -> tuple:
        return (self.x1, self.x2, self.x3, self.x4, self.x5, self.x6)


def split_bands(width: int, height: int) -> list:
    """The 5 equal-height bands as inclusive (first_row, last_row) tuples, bottom first.

    Remainder rows go to the top band.  Sub-segments split a band at
    floor(size/2), so every one holds at least one pixel only when a band
    has 2 rows or more.
    """
    if not (height >= 2 * NUM_BANDS and width >= 2):
        raise ValueError(f"image too small to band: {width}x{height} (needs at least "
                         f"2 columns and {2 * NUM_BANDS} rows)")
    if not (width < math.inf and height < math.inf):
        raise ValueError(f"image sides must be finite to band, got {width}x{height}")
    base = height // NUM_BANDS
    # band k occupies the k-th block of rows counted from the bottom
    return [(0 if k == NUM_BANDS else height - k * base, height - (k - 1) * base - 1)
            for k in range(1, NUM_BANDS + 1)]


def _to_universe(fraction: float) -> float:
    return UNIVERSE_LO + _SPAN * fraction


def band_vectors(pixels) -> list:
    """Feature vectors of the 5 bands of a 2-D 0/1 (or bool) object mask, bottom first.

    A quadrant's coverage is covered / pixel count.  A half's line location
    is its mean object column over width-1, so columns 0 and width-1 map to
    exactly 0.1 and 1.0 and a mirrored mask maps to exactly 1.1-x; an empty
    half yields the neutral 0.55, so a partially visible object still
    produces usable inputs.  Every value is a Python float.  Raises
    ValueError for a non-bool mask holding anything but 0 and 1, naming the
    first such value in raster order.
    """
    if pixels.dtype != bool:
        bad = pixels[(pixels != 0) & (pixels != 1)]   # nan too
        if bad.size:
            raise ValueError(f"object mask must hold only 0 and 1, got {bad[0].item()}")
    height, width = pixels.shape
    mid_col = width // 2
    # top band first, so that the half-band starts ascend
    starts = [row for first, last in split_bands(width, height)[::-1]
              for row in (first, (first + last + 1) // 2)]
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
    pairs = list(zip(halves[0::2], halves[1::2]))[::-1]   # (upper, lower) halves, bottom first
    return [FeatureVector(u1, u2, u3, u4, x5, x6, k)
            for k, ((u1, u2, x5), (u3, u4, x6)) in enumerate(pairs, start=1)]


def object_mask(pixels: np.ndarray, band: ThresholdBand, min_area: int) -> np.ndarray:
    """Bool mask of the largest 8-connected region of a thresholded 2-D uint8 array.

    Ties go to the smallest label, the first region in raster order.  Raises
    NoObjectError unless that region holds at least min_area pixels, which is
    also the outcome of first dropping every region below min_area.
    """
    if not min_area >= 0:
        raise ValueError("min_area must be >= 0")
    fg = threshold_band(pixels, band)
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
    return band_vectors(object_mask(img.pixels, band, min_area))
