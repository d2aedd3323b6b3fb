import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from pipefollow.features import (UNIVERSE_HI, UNIVERSE_LO, FeatureVector, band_vectors,
                                 extract_features, object_mask, split_bands)
from pipefollow.imgproc import GrayImage, NoObjectError, ThresholdBand

mask_16x20 = arrays(np.uint8, (20, 16), elements=st.integers(0, 1))


def halves(band):
    """(upper, lower) inclusive row ranges of a band; the upper half has rows // 2 rows."""
    first, last = band
    split = first + (last - first + 1) // 2
    return (first, split - 1), (split, last)


MASK_DTYPES = st.sampled_from([np.uint8, np.bool_, np.float64])


@st.composite
def masks(draw):
    """0/1 masks 10-60 rows by 2-40 columns, as uint8, bool or float64."""
    h = draw(st.integers(10, 60))
    w = draw(st.integers(2, 40))
    dtype = draw(MASK_DTYPES)
    return draw(arrays(dtype, (h, w), elements=st.integers(0, 1).map(dtype)))


@st.composite
def rectangle_masks(draw):
    """Masks of 0-4 filled rectangles, as uint8, bool or float64.

    Rectangle sides fall on columns 0, w // 2 - 1, w // 2 and w - 1 half the
    time, so row runs that touch an image side or straddle the middle column
    come up often, and so do half-bands that no rectangle reaches.
    """
    h = draw(st.integers(10, 60))
    w = draw(st.integers(2, 40))
    mask = np.zeros((h, w), dtype=draw(MASK_DTYPES))
    cols = st.one_of(st.sampled_from([0, max(w // 2 - 1, 0), w // 2, w - 1]),
                     st.integers(0, w - 1))
    for _ in range(draw(st.integers(0, 4))):
        r0, r1 = sorted(draw(st.lists(st.integers(0, h - 1), min_size=2, max_size=2)))
        c0, c1 = sorted(draw(st.lists(cols, min_size=2, max_size=2)))
        mask[r0:r1 + 1, c0:c1 + 1] = 1
    return mask


class TestSplitBands:
    def test_320x240(self):
        bands = split_bands(320, 240)
        assert bands == [
            (192, 239), (144, 191), (96, 143), (48, 95), (0, 47)]

    def test_exact_division(self):
        bands = split_bands(10, 100)
        assert all(last - first + 1 == 20 for first, last in bands)

    def test_remainder_goes_to_top_band(self):
        bands = split_bands(10, 103)
        heights = [last - first + 1 for first, last in bands]
        assert heights == [20, 20, 20, 20, 23]
        assert bands[4] == (0, 22)

    def test_bands_tile_image(self):
        bands = split_bands(17, 97)
        rows = sorted(r for first, last in bands for r in range(first, last + 1))
        assert rows == list(range(97))

    def test_sub_segment_unions(self):
        # a full mask covers all four quadrants of every band
        for v in band_vectors(np.ones((50, 21), dtype=np.uint8)):
            assert (v.x1, v.x2, v.x3, v.x4) == (1.0, 1.0, 1.0, 1.0)
            assert v.x5 == v.x6 == pytest.approx(0.55, abs=1e-12)
        # the quadrants split at column 21 // 2 = 10 and at each band's upper half
        for col, left in ((9, True), (10, False)):
            obj = np.zeros((50, 21), dtype=np.uint8)
            obj[:, col] = 1
            for v in band_vectors(obj):
                assert (v.x1 > 0.1, v.x3 > 0.1) == (left, left)
                assert (v.x2 > 0.1, v.x4 > 0.1) == (not left, not left)
        for k, band in enumerate(split_bands(21, 50)):
            (r0, r1), _ = halves(band)
            obj = np.zeros((50, 21), dtype=np.uint8)
            obj[r0:r1 + 1] = 1
            fv = band_vectors(obj)[k]
            assert (fv.x1, fv.x2, fv.x3, fv.x4) == (1.0, 1.0, 0.1, 0.1)
            assert fv.x6 == 0.55

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            split_bands(10, 4)
        with pytest.raises(ValueError):   # bands 1 row high leave quadrants empty
            split_bands(10, 9)
        with pytest.raises(ValueError):
            split_bands(1, 100)
        with pytest.raises(ValueError):
            band_vectors(np.ones((9, 10), dtype=np.uint8))


@pytest.mark.parametrize("call", [
    lambda: split_bands(math.nan, 240),
    lambda: split_bands(320, math.nan),
    lambda: object_mask(np.ones((4, 4), dtype=np.uint8), ThresholdBand(0, 255), math.nan),
], ids=["split-bands-width", "split-bands-height", "object-mask-min-area"])
def test_function_call_with_nan_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("mask, bad", [
    (np.full((20, 20), np.nan), "nan"),
    (np.full((20, 20), np.inf), "inf"),
    (np.full((20, 20), 2, dtype=np.uint8), "2"),
    (np.pad([[0.5, 0.0], [0.0, -1.0]], ((3, 15), (18, 0))), "0.5"),   # first in raster order
], ids=["nan", "inf", "two", "first-of-several"])
def test_mask_of_other_values_rejected(mask, bad):
    with pytest.raises(ValueError, match=rf"^object mask must hold only 0 and 1, got {bad}$"):
        band_vectors(mask)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["x1", "x2", "x3", "x4", "x5", "x6"])
def test_feature_vector_rejects_a_non_finite_component(field, value):
    components = dict.fromkeys(("x1", "x2", "x3", "x4", "x5", "x6"), 0.55)
    with pytest.raises(ValueError, match=rf"^feature {field} must be finite, got {value}$"):
        FeatureVector(**{**components, field: value}, band_index=1)


@pytest.mark.parametrize("width, height", [(320, math.inf), (math.inf, 240)])
def test_infinite_side_rejected(width, height):
    with pytest.raises(ValueError, match=rf"^image sides must be finite to band, "
                                         rf"got {width}x{height}$"):
        split_bands(width, height)


class TestCoverageFractions:
    def test_full_quadrant(self):
        (r0, r1), _ = halves(split_bands(8, 10)[0])
        obj = np.zeros((10, 8), dtype=np.uint8)
        obj[r0:r1 + 1, :4] = 1   # the upper-left quadrant
        v = band_vectors(obj)[0]
        assert v.x1 == pytest.approx(1.0)
        assert v.x2 == v.x3 == v.x4 == pytest.approx(0.1)

    def test_empty_quadrant_is_floor(self):
        v = band_vectors(np.zeros((10, 8)))[2]
        assert (v.x1, v.x2, v.x3, v.x4) == (0.1, 0.1, 0.1, 0.1)

    def test_half_covered_is_midpoint(self):
        _, (r0, r1) = halves(split_bands(8, 10)[0])
        obj = np.zeros((10, 8), dtype=np.uint8)
        obj[r0:r1 + 1, 0:2] = 1  # 2 of the lower-left quadrant's 4 columns
        assert band_vectors(obj)[0].x3 == pytest.approx(0.55)


class TestLineLocations:
    def test_centered_stripe(self):
        obj = np.zeros((20, 20), dtype=np.uint8)
        obj[:, 9:11] = 1   # columns 9, 10 -> centroid 9.5 = (w-1)/2
        v = band_vectors(obj)[1]
        assert v.x5 == pytest.approx(0.55, abs=1e-12)
        assert v.x6 == pytest.approx(0.55, abs=1e-12)

    def test_left_edge_stripe(self):
        obj = np.zeros((20, 20), dtype=np.uint8)
        obj[:, 0] = 1
        v = band_vectors(obj)[0]
        assert v.x5 == pytest.approx(0.1) and v.x6 == pytest.approx(0.1)

    def test_empty_sub_segment_is_neutral(self):
        v = band_vectors(np.zeros((20, 20)))[0]
        assert (v.x5, v.x6) == (0.55, 0.55)

    def test_delta_x_sign(self):
        obj = np.zeros((20, 20), dtype=np.uint8)
        obj[:, 15:18] = 1
        assert band_vectors(obj)[0].x5 > 0.55  # far end right of center
        obj2 = np.zeros((20, 20), dtype=np.uint8)
        obj2[:, 2:5] = 1
        assert band_vectors(obj2)[0].x5 < 0.55

    def test_diagonal_matches_centroid_oracle(self):
        w, h = 30, 30
        obj = np.zeros((h, w), dtype=np.uint8)
        for r in range(h):
            c = int(round(25 - r * 20 / (h - 1)))  # top end right, bottom end left
            obj[r, max(c - 1, 0):c + 2] = 1
        v = band_vectors(obj)[0]
        assert v.x5 > v.x6
        for (r0, r1), got in zip(halves(split_bands(w, h)[0]), (v.x5, v.x6)):
            c = oracles.column_centroid(obj, r0, 0, r1, w - 1)
            assert got == pytest.approx(0.1 + 0.9 * c / (w - 1), abs=1e-12)


class TestProperties:
    @given(mask_16x20)
    def test_components_within_universe(self, mask):
        for fv in band_vectors(mask):
            for value in fv.as_tuple():
                assert UNIVERSE_LO <= value <= UNIVERSE_HI

    @given(mask_16x20)
    def test_mirror_symmetry_even_width(self, mask):
        flipped = mask[:, ::-1].copy()
        for a, b in zip(band_vectors(mask), band_vectors(flipped)):
            assert b.x1 == pytest.approx(a.x2, abs=1e-9)
            assert b.x2 == pytest.approx(a.x1, abs=1e-9)
            assert b.x3 == pytest.approx(a.x4, abs=1e-9)
            assert b.x4 == pytest.approx(a.x3, abs=1e-9)
            assert b.x5 == pytest.approx(1.1 - a.x5, abs=1e-9)
            assert b.x6 == pytest.approx(1.1 - a.x6, abs=1e-9)

    @given(arrays(np.uint8, (21, 15), elements=st.integers(0, 1)))
    def test_mirror_symmetry_odd_width_quantized(self, mask):
        flipped = mask[:, ::-1].copy()
        # odd width: quadrants are 7 vs 8 columns wide, so coverage can move
        # by up to one column of the narrower quadrant
        quantum = 0.9 / 7
        for a, b in zip(band_vectors(mask), band_vectors(flipped)):
            assert b.x1 == pytest.approx(a.x2, abs=quantum)
            assert b.x5 == pytest.approx(1.1 - a.x5, abs=1e-9)

    @given(mask_16x20)
    def test_area_conserved_across_quadrants(self, mask):
        for band, fv in zip(split_bands(16, 20), band_vectors(mask)):
            total = 0
            (u0, u1), (l0, l1) = halves(band)
            for rows, uq in zip((u1 - u0 + 1, u1 - u0 + 1, l1 - l0 + 1, l1 - l0 + 1),
                                (fv.x1, fv.x2, fv.x3, fv.x4)):
                count = (uq - 0.1) / 0.9 * rows * 8
                assert count == pytest.approx(round(count), abs=1e-6)
                total += round(count)
            r0, r1 = band
            assert total == int(mask[r0:r1 + 1].sum())

    @settings(deadline=None)
    @given(st.one_of(masks(), rectangle_masks()))
    def test_band_vectors_match_oracle(self, mask):
        got = band_vectors(mask)
        assert [v.band_index for v in got] == [1, 2, 3, 4, 5]
        assert [v.as_tuple() for v in got] == oracles.band_feature_rows(mask.astype(np.uint8))
        assert all(type(x) is float for v in got for x in v.as_tuple())

    @given(st.one_of(masks(), rectangle_masks()))
    def test_mask_dtype_does_not_change_the_vectors(self, mask):
        want = band_vectors(mask.astype(np.bool_))
        for dtype in (np.uint8, np.float64):
            assert band_vectors(mask.astype(dtype)) == want


def traced_peak_per_pixel(mask) -> float:
    """Peak bytes that band_vectors allocates beyond its input, per mask pixel."""
    band_vectors(mask)                            # warm up numpy's lazy set-up
    tracemalloc.start()
    try:
        band_vectors(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / mask.size


def test_band_vectors_of_a_stripe_allocate_no_int_raster():
    """A solid stripe is one run a row, so only the bool padded copy and its
    change mask are as large as the frame (about 2 bytes per pixel); an
    int64 copy of the mask alone would take 8."""
    mask = np.zeros((240, 320), dtype=bool)
    mask[:, 120:200] = True
    assert traced_peak_per_pixel(mask) <= 3


def test_band_vectors_of_a_checkerboard_stay_bounded():
    """A checkerboard has the most runs a mask can have, one per two pixels;
    its edge positions and the three int64 sums per run stay under 40
    bytes per pixel."""
    mask = np.indices((512, 512)).sum(axis=0) % 2 == 1
    assert traced_peak_per_pixel(mask) <= 40


SHAPE_CALLS = {
    "band-vectors": band_vectors,
    "object-mask": lambda pixels: object_mask(pixels, ThresholdBand(100, 255), 1),
    "extract-features": lambda pixels: extract_features(GrayImage(pixels),
                                                        ThresholdBand(100, 255), 1),
}


@pytest.mark.parametrize("shape", [(), (40,), (20, 20, 1), (20, 20, 3)],
                         ids=["0-d", "1-d", "3-d-one-channel", "3-d-three-channels"])
@pytest.mark.parametrize("call", SHAPE_CALLS.values(), ids=SHAPE_CALLS.keys())
def test_array_that_is_not_2d_rejected_naming_its_shape(call, shape):
    pixels = np.full(shape, 200, dtype=np.uint8)
    with pytest.raises(ValueError, match=rf"^expected a 2-D \(height, width\) array, "
                                         rf"got shape {re.escape(str(shape))}$"):
        call(pixels)


class TestExtractFeatures:
    def _stripe_image(self, col0, col1):
        pixels = np.full((40, 40), 60, dtype=np.uint8)
        pixels[:, col0:col1] = 220
        return GrayImage(pixels)

    def test_centered_stripe(self):
        vectors = extract_features(self._stripe_image(16, 24), ThresholdBand(180, 255), 4)
        assert len(vectors) == 5
        assert [v.band_index for v in vectors] == [1, 2, 3, 4, 5]
        for v in vectors:
            assert v.x5 == pytest.approx(0.55, abs=0.02)
            assert v.x6 == pytest.approx(0.55, abs=0.02)
            assert v.x1 == pytest.approx(v.x2, abs=1e-9)
            assert v.x3 == pytest.approx(v.x4, abs=1e-9)

    def test_left_half_stripe(self):
        vectors = extract_features(self._stripe_image(2, 12), ThresholdBand(180, 255), 4)
        for v in vectors:
            assert v.x1 > v.x2 and v.x3 > v.x4

    def test_blank_image_raises(self):
        img = GrayImage(np.full((40, 40), 60, dtype=np.uint8))
        with pytest.raises(NoObjectError):
            extract_features(img, ThresholdBand(180, 255), 4)

    def test_everything_below_min_area_raises(self):
        pixels = np.full((40, 40), 60, dtype=np.uint8)
        pixels[3, 3] = 220
        pixels[20, 30] = 220
        img = GrayImage(pixels)
        with pytest.raises(NoObjectError):
            extract_features(img, ThresholdBand(180, 255), 4)
