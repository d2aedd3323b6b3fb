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

band_vectors takes no sub-segment apart.  It reads the mask as row runs:
a run is a maximal stretch of object pixels within one row, found where a
zero-padded copy of the mask changes between horizontal neighbours.  Each
run gives three integers (its pixels left of the middle column, its pixels
and the sum of their column indices), and exact int64 sums of these over
the 10 half-bands give all 30 features.  A pipe's mask is a few hundred
runs, so the only arrays as large as the frame are the bool copy and the
bool mask of where it changes.
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


def _raster_shape(pixels) -> tuple:
    """(height, width) of a 2-D array; an array of any other rank raises ValueError."""
    if pixels.ndim != 2:
        raise ValueError(f"expected a 2-D (height, width) array, got shape {pixels.shape}")
    return pixels.shape


def band_vectors(pixels) -> list:
    """Feature vectors of the 5 bands of a 2-D 0/1 (or bool) object mask, bottom first.

    A quadrant's coverage is covered / pixel count.  A half's line location
    is its mean object column over width-1, so columns 0 and width-1 map to
    exactly 0.1 and 1.0 and a mirrored mask maps to exactly 1.1-x; an empty
    half yields the neutral 0.55, so a partially visible object still
    produces usable inputs.  Every value is a Python float.  Raises
    ValueError for an array that is not 2-D, naming its shape, and for a
    non-bool mask holding anything but 0 and 1, naming the first such value
    in raster order.

    The sums come from the mask's row runs in raster order: a run of count
    pixels from column start holds max(min(count, mid_col - start), 0) of
    them left of the middle column and column sum (2*start + count - 1) *
    count // 2.  Cumulative sums of these, differenced where the half-bands
    start, give each half-band's exact totals, 0 for a half-band with no run.
    """
    height, width = _raster_shape(pixels)
    if pixels.dtype != bool:
        bad = pixels[(pixels != 0) & (pixels != 1)]   # nan too
        if bad.size:
            raise ValueError(f"object mask must hold only 0 and 1, got {bad[0].item()}")
    mid_col = width // 2
    # top band first, so that the half-band starts ascend
    starts = [row for first, last in split_bands(width, height)[::-1]
              for row in (first, (first + last + 1) // 2)]
    # rows laid end to end, each after one zero and the last followed by one:
    # pixel (row, col) sits at row * stride + col + 1, so a run from column
    # start to exclusive end changes the copy at row * stride + start and at
    # row * stride + end
    stride = width + 1
    padded = np.zeros(height * stride + 1, dtype=bool)
    padded[:-1].reshape(height, stride)[:, 1:] = pixels
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    if padded.size <= np.iinfo(np.int32).max:
        edges = edges.astype(np.int32)            # halves the largest array of a busy mask
    begin, end = edges[0::2], edges[1::2]
    bounds = np.searchsorted(begin, np.array(starts + [height]) * stride)
    runs = np.zeros((3, begin.size + 1), dtype=np.int64)   # (left, count, colsum) after a 0
    lefts, counts, colsums = runs[:, 1:]
    np.subtract(end, begin, out=counts)
    col = begin % stride
    np.maximum(np.minimum(counts, mid_col - col), 0, out=lefts)
    colsums[:] = (2 * col + counts - 1) * counts // 2
    np.cumsum(runs, axis=1, out=runs)
    sums = np.diff(runs[:, bounds], axis=1).T.tolist()
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
    ValueError for an array that is not 2-D, naming its shape, and
    NoObjectError unless that region holds at least min_area pixels, which is
    also the outcome of first dropping every region below min_area.
    """
    _raster_shape(pixels)
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

    Raises ValueError for pixels that are not 2-D or too small to band and
    NoObjectError when no region holds at least min_area pixels.
    """
    height, width = _raster_shape(img.pixels)
    split_bands(width, height)                    # rejects a too-small image before labelling
    return band_vectors(object_mask(img.pixels, band, min_area))
