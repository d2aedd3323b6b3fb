import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from pipefollow import sim
from pipefollow.features import object_mask
from pipefollow.imgproc import (GrayImage, NoObjectError, ThresholdBand,
                                area, label_regions, rgb_to_gray,
                                threshold_band)

binary_8x8 = arrays(np.uint8, (8, 8), elements=st.integers(0, 1))
gray_8x8 = arrays(np.uint8, (8, 8), elements=st.integers(0, 255))


def binary(arr):
    return np.asarray(arr, dtype=np.uint8)


def survey_start():
    """The survey benchmark scenario and its 320x240 start frame."""
    sc = sim.load_scenario(Path(__file__).resolve().parent.parent
                           / "bench" / "data" / "survey.scenario")
    return sc, sim.render_view(sc.world, sc.start, sc.camera)


def mask_of(arr, min_area):
    """object_mask of a 0/1 raster: the band (0, 1] keeps exactly its 1 pixels."""
    return object_mask(GrayImage.from_array(arr), ThresholdBand(0, 1), min_area)


class TestRgbToGray:
    def test_achromatic_identity(self):
        ramp = np.arange(256, dtype=np.uint8)
        img = np.stack([ramp, ramp, ramp], axis=-1).reshape(16, 16, 3)
        assert np.array_equal(rgb_to_gray(img).pixels, ramp.reshape(16, 16))

    def test_black_is_zero(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        assert rgb_to_gray(img).pixels.max() == 0

    def test_pure_red(self):
        img = np.full((1, 1, 3), (255, 0, 0), dtype=np.uint8)
        assert rgb_to_gray(img).pixels[0, 0] == 76

    @given(arrays(np.uint8, (4, 4, 3), elements=st.integers(0, 255)))
    def test_matches_decimal_oracle(self, pixels):
        gray = rgb_to_gray(pixels)
        for i in range(4):
            for j in range(4):
                r, g, b = (int(v) for v in pixels[i, j])
                assert gray.pixels[i, j] == oracles.gray_value(r, g, b)

    def test_dimensions_preserved(self):
        gray = rgb_to_gray(np.zeros((3, 7, 3), dtype=np.uint8))
        assert gray.pixels.shape == (3, 7)


class TestThresholdBand:
    def test_lower_bound_strict(self):
        img = GrayImage.from_array(np.full((2, 2), 100, dtype=np.uint8))
        assert threshold_band(img, ThresholdBand(100, 200)).max() == 0

    def test_upper_bound_inclusive(self):
        img = GrayImage.from_array(np.full((2, 2), 200, dtype=np.uint8))
        assert threshold_band(img, ThresholdBand(100, 200)).min() == 1

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            ThresholdBand(200, 100)
        with pytest.raises(ValueError):
            ThresholdBand(150, 150)

    def test_threshold_and_object_mask_are_bool(self):
        img = GrayImage.from_array(np.array([[0, 150], [150, 250]], dtype=np.uint8))
        assert threshold_band(img, ThresholdBand(100, 200)).dtype == bool
        assert object_mask(img, ThresholdBand(100, 200), 1).dtype == bool

    @given(gray_8x8)
    def test_matches_per_pixel_oracle(self, pixels):
        got = threshold_band(GrayImage.from_array(pixels), ThresholdBand(100, 200))
        assert np.array_equal(got, oracles.threshold_pixels(pixels, 100, 200))

    @given(gray_8x8)
    def test_output_is_binary_and_idempotent(self, pixels):
        b = threshold_band(GrayImage.from_array(pixels), ThresholdBand(180, 255))
        assert set(np.unique(b)) <= {0, 1}
        again = threshold_band(GrayImage.from_array(b), ThresholdBand(0, 1))
        assert np.array_equal(again, b)

    @given(gray_8x8, st.integers(0, 253), st.integers(0, 253))
    def test_area_monotone_in_band(self, pixels, t1, t2):
        img = GrayImage.from_array(pixels)
        t1, t2 = sorted((t1, t2))
        t2 += 2  # keep t1 < t2 with headroom for widening
        base = area(threshold_band(img, ThresholdBand(t1, t2)))
        assert area(threshold_band(img, ThresholdBand(t1 + 1, t2))) <= base
        assert area(threshold_band(img, ThresholdBand(t1, min(t2 + 1, 255)))) >= base


class TestLabelRegions:
    def test_empty_image(self):
        lm = label_regions(binary(np.zeros((4, 4))))
        assert lm.region_count == 0
        assert lm.labels.max() == 0

    def test_diagonal_pixels_are_connected(self):
        lm = label_regions(binary([[1, 0], [0, 1]]))
        assert lm.region_count == 1

    def test_raster_label_order(self):
        lm = label_regions(binary([[0, 1, 0, 0],
                                   [0, 0, 0, 1],
                                   [1, 0, 0, 1]]))
        assert lm.region_count == 3
        assert lm.labels[0, 1] == 1
        assert lm.labels[1, 3] == 2 and lm.labels[2, 3] == 2
        assert lm.labels[2, 0] == 3

    @given(binary_8x8)
    def test_matches_flood_fill_oracle(self, pixels):
        lm = label_regions(binary(pixels))
        want, n = oracles.flood_fill_labels(pixels)
        assert lm.region_count == n
        assert np.array_equal(lm.labels, want)

    def test_exhaustive_3x3(self):
        for code in range(512):
            bits = [(code >> k) & 1 for k in range(9)]
            pixels = np.array(bits, dtype=np.uint8).reshape(3, 3)
            lm = label_regions(binary(pixels))
            want, n = oracles.flood_fill_labels(pixels)
            assert lm.region_count == n
            assert np.array_equal(lm.labels, want)

    def test_survey_frame_matches_flood_fill_oracle(self):
        sc, img = survey_start()
        pixels = threshold_band(img, sc.thresholds)
        lm = label_regions(binary(pixels))
        want, n = oracles.flood_fill_labels(pixels)
        assert n > 100  # speckle leaves hundreds of small regions
        assert lm.region_count == n
        assert np.array_equal(lm.labels, want)


# features.object_mask fuses the min_area filter and the largest-region choice
# into one labelling pass; these classes check both behaviours through it.
class TestRemoveSmallRegions:
    def test_zero_min_area_is_identity(self):
        pixels = [[1, 1, 0], [0, 0, 0], [1, 0, 0]]
        want = [[1, 1, 0], [0, 0, 0], [0, 0, 0]]
        assert np.array_equal(mask_of(pixels, 0), want)
        assert np.array_equal(mask_of(pixels, 1), want)

    def test_filters_by_size(self):
        pixels = np.zeros((10, 10), dtype=np.uint8)
        pixels[0, 0:3] = 1                 # 3-pixel region
        pixels[5:10, 0:10] = 1             # 50-pixel region
        big_only = pixels.copy()
        big_only[0] = 0
        assert np.array_equal(mask_of(pixels, 10), big_only)
        assert int(mask_of(pixels, 50).sum()) == 50
        with pytest.raises(NoObjectError, match="label map contains no regions"):
            mask_of(pixels, 51)

    def test_all_regions_too_small_named_in_error(self):
        pixels = np.zeros((6, 6), dtype=np.uint8)
        pixels[0, 0:3] = 1                 # 3 pixels
        pixels[3, 0:2] = 1                 # 2 pixels
        pixels[5, 5] = 1                   # 1 pixel
        want = "label map contains no regions of at least 4 pixels (3 regions, largest 3)"
        with pytest.raises(NoObjectError, match=f"^{re.escape(want)}$"):
            mask_of(pixels, 4)

    @given(binary_8x8, st.integers(0, 6))
    def test_matches_oracle_filter(self, pixels, min_area):
        want = oracles.largest_region_mask(pixels, min_area)
        if want is None:
            with pytest.raises(NoObjectError):
                mask_of(pixels, min_area)
        else:
            assert np.array_equal(mask_of(pixels, min_area), want)

    def test_negative_min_area_rejected(self):
        with pytest.raises(ValueError, match="min_area must be >= 0"):
            mask_of(np.ones((3, 3)), -1)


class TestLargestRegion:
    def test_picks_maximum(self):
        pixels = np.zeros((8, 8), dtype=np.uint8)
        pixels[0, 0:5] = 1
        pixels[4:7, 0:3] = 1
        want = np.zeros((8, 8), dtype=np.uint8)
        want[4:7, 0:3] = 1
        assert np.array_equal(mask_of(pixels, 0), want)

    def test_tie_goes_to_smallest_label(self):
        pixels = np.zeros((5, 8), dtype=np.uint8)
        pixels[3, 0:3] = 1   # label 2, size 3
        pixels[0, 5:8] = 1   # label 1, size 3: first in raster order
        assert np.array_equal(np.nonzero(mask_of(pixels, 3)), ([0, 0, 0], [5, 6, 7]))

    def test_empty_map_raises(self):
        with pytest.raises(NoObjectError, match="label map contains no regions"):
            mask_of(np.zeros((3, 3)), 0)

    @given(binary_8x8)
    def test_row_reversal_preserves_pixel_set(self, pixels):
        sizes = np.bincount(label_regions(binary(pixels)).labels.ravel())[1:]
        if sizes.size == 0 or len(set(sizes.tolist())) != len(sizes):
            return  # tie-break depends on raster order; only unique sizes compare
        flipped = pixels[::-1].copy()
        assert np.array_equal(mask_of(pixels, 0), mask_of(flipped, 0)[::-1])

    def test_survey_frame_allocates_no_full_raster_int64(self):
        """Peak traced memory of the object mask of one 320x240 survey frame.

        ndimage.label's int32 labels take 300 KiB.  np.bincount copies its
        input to int64, so counting every pixel rather than the foreground
        ones would add a further 600 KiB.
        """
        sc, img = survey_start()
        object_mask(img, sc.thresholds, sc.min_area)   # warm up lazy imports
        tracemalloc.start()
        try:
            object_mask(img, sc.thresholds, sc.min_area)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 640 * 1024


class TestArea:
    def test_full_coverage(self):
        assert area(binary(np.ones((4, 5)))) == 20

    def test_zero(self):
        assert area(binary(np.zeros((4, 5)))) == 0

    @given(binary_8x8)
    def test_matches_naive_count(self, pixels):
        assert area(binary(pixels)) == oracles.count_area(pixels)


class TestValidation:
    @pytest.mark.parametrize("shape", [(2, 2, 3), (4,), (0, 3)], ids=["rgb", "1-d", "empty"])
    def test_from_array_rejects_all_but_nonempty_2d(self, shape):
        with pytest.raises(ValueError, match=r"non-empty 2-D array"):
            GrayImage.from_array(np.zeros(shape, dtype=np.uint8))
