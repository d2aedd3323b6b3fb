import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from pipefollow.features import (UNIVERSE_HI, UNIVERSE_LO, band_features,
                                 coverage_fractions, extract_features,
                                 line_locations, split_bands)
from pipefollow.imgproc import (BinaryImage, GrayImage, NoObjectError,
                                ThresholdBand)

mask_16x20 = arrays(np.uint8, (20, 16), elements=st.integers(0, 1))


def binary(arr):
    return BinaryImage.from_array(np.asarray(arr, dtype=np.uint8))


class TestSplitBands:
    def test_320x240(self):
        bands = split_bands(320, 240)
        assert [b.row_range for b in bands] == [
            (192, 239), (144, 191), (96, 143), (48, 95), (0, 47)]

    def test_exact_division(self):
        bands = split_bands(10, 100)
        assert all(b.row_range[1] - b.row_range[0] + 1 == 20 for b in bands)

    def test_remainder_goes_to_top_band(self):
        bands = split_bands(10, 103)
        heights = [b.row_range[1] - b.row_range[0] + 1 for b in bands]
        assert heights == [20, 20, 20, 20, 23]
        assert bands[4].row_range == (0, 22)

    def test_bands_tile_image(self):
        bands = split_bands(17, 97)
        rows = sorted(r for b in bands for r in range(b.row_range[0], b.row_range[1] + 1))
        assert rows == list(range(97))

    def test_sub_segment_unions(self):
        for b in split_bands(21, 50):
            subs = b.sub_segments
            # quadrants tile the band and compose the halves
            assert subs[5].pixel_count == subs[1].pixel_count + subs[2].pixel_count
            assert subs[6].pixel_count == subs[3].pixel_count + subs[4].pixel_count
            total = (b.row_range[1] - b.row_range[0] + 1) * 21
            assert subs[5].pixel_count + subs[6].pixel_count == total
            assert subs[1].row0 == subs[5].row0 == b.row_range[0]
            assert subs[4].row1 == subs[6].row1 == b.row_range[1]
            assert subs[1].col1 + 1 == subs[2].col0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            split_bands(10, 4)
        with pytest.raises(ValueError):   # bands 1 row high leave quadrants empty
            split_bands(10, 9)
        with pytest.raises(ValueError):
            split_bands(1, 100)


class TestCoverageFractions:
    def test_full_quadrant(self):
        band = split_bands(8, 10)[0]
        obj = np.zeros((10, 8), dtype=np.uint8)
        obj[band.sub_segments[1].slice()] = 1
        u = coverage_fractions(binary(obj), band)
        assert u[0] == pytest.approx(1.0)
        assert u[1] == u[2] == u[3] == pytest.approx(0.1)

    def test_empty_quadrant_is_floor(self):
        band = split_bands(8, 10)[2]
        u = coverage_fractions(binary(np.zeros((10, 8))), band)
        assert u == (0.1, 0.1, 0.1, 0.1)

    def test_half_covered_is_midpoint(self):
        band = split_bands(8, 10)[0]
        rect = band.sub_segments[3]
        obj = np.zeros((10, 8), dtype=np.uint8)
        obj[rect.row0:rect.row1 + 1, rect.col0:rect.col0 + 2] = 1  # 2 of 4 columns
        u = coverage_fractions(binary(obj), band)
        assert u[2] == pytest.approx(0.55)


class TestLineLocations:
    def test_centered_stripe(self):
        band = split_bands(20, 20)[1]
        obj = np.zeros((20, 20), dtype=np.uint8)
        obj[:, 9:11] = 1   # columns 9, 10 -> centroid 9.5 = (w-1)/2
        x5, x6 = line_locations(binary(obj), band)
        assert x5 == pytest.approx(0.55, abs=1e-12)
        assert x6 == pytest.approx(0.55, abs=1e-12)

    def test_left_edge_stripe(self):
        band = split_bands(20, 20)[0]
        obj = np.zeros((20, 20), dtype=np.uint8)
        obj[:, 0] = 1
        x5, x6 = line_locations(binary(obj), band)
        assert x5 == pytest.approx(0.1) and x6 == pytest.approx(0.1)

    def test_empty_sub_segment_is_neutral(self):
        band = split_bands(20, 20)[0]
        assert line_locations(binary(np.zeros((20, 20))), band) == (0.55, 0.55)

    def test_delta_x_sign(self):
        band = split_bands(20, 20)[0]
        obj = np.zeros((20, 20), dtype=np.uint8)
        obj[:, 15:18] = 1
        fv = band_features(binary(obj), band)
        assert fv.delta_x > 0  # far end right of center
        obj2 = np.zeros((20, 20), dtype=np.uint8)
        obj2[:, 2:5] = 1
        assert band_features(binary(obj2), band).delta_x < 0

    def test_diagonal_matches_centroid_oracle(self):
        w, h = 30, 30
        obj = np.zeros((h, w), dtype=np.uint8)
        for r in range(h):
            c = int(round(25 - r * 20 / (h - 1)))  # top end right, bottom end left
            obj[r, max(c - 1, 0):c + 2] = 1
        band = split_bands(w, h)[0]
        x5, x6 = line_locations(binary(obj), band)
        assert x5 > x6
        for sub, got in ((5, x5), (6, x6)):
            rect = band.sub_segments[sub]
            c = oracles.column_centroid(obj, rect.row0, rect.col0, rect.row1, rect.col1)
            assert got == pytest.approx(0.1 + 0.9 * c / (w - 1), abs=1e-12)


class TestProperties:
    @given(mask_16x20)
    def test_components_within_universe(self, mask):
        for band in split_bands(16, 20):
            fv = band_features(binary(mask), band)
            for value in fv.as_tuple():
                assert UNIVERSE_LO <= value <= UNIVERSE_HI

    @given(mask_16x20)
    def test_mirror_symmetry_even_width(self, mask):
        flipped = mask[:, ::-1].copy()
        for band in split_bands(16, 20):
            a = band_features(binary(mask), band)
            b = band_features(binary(flipped), band)
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
        for band in split_bands(15, 21):
            a = band_features(binary(mask), band)
            b = band_features(binary(flipped), band)
            assert b.x1 == pytest.approx(a.x2, abs=quantum)
            assert b.x5 == pytest.approx(1.1 - a.x5, abs=1e-9)

    @given(mask_16x20)
    def test_area_conserved_across_quadrants(self, mask):
        obj = binary(mask)
        for band in split_bands(16, 20):
            u = coverage_fractions(obj, band)
            total = 0
            for q, uq in zip((1, 2, 3, 4), u):
                rect = band.sub_segments[q]
                count = (uq - 0.1) / 0.9 * rect.pixel_count
                assert count == pytest.approx(round(count), abs=1e-6)
                total += round(count)
            r0, r1 = band.row_range
            assert total == int(mask[r0:r1 + 1].sum())


class TestExtractFeatures:
    def _stripe_image(self, col0, col1):
        pixels = np.full((40, 40), 60, dtype=np.uint8)
        pixels[:, col0:col1] = 220
        return GrayImage.from_array(pixels)

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
        img = GrayImage.from_array(np.full((40, 40), 60, dtype=np.uint8))
        with pytest.raises(NoObjectError):
            extract_features(img, ThresholdBand(180, 255), 4)

    def test_everything_below_min_area_raises(self):
        pixels = np.full((40, 40), 60, dtype=np.uint8)
        pixels[3, 3] = 220
        pixels[20, 30] = 220
        img = GrayImage.from_array(pixels)
        with pytest.raises(NoObjectError):
            extract_features(img, ThresholdBand(180, 255), 4)
