import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwdiff import images
from uwdiff.errors import EmptyImageError, ParameterError
from uwdiff.images import (
    ChannelStats,
    LabImage,
    RgbImage,
    channel_stats,
    lab_to_srgb,
    srgb_to_lab,
)

from oracles import lab_to_srgb_ref, srgb_to_lab_ref, two_pass_stats

# Frozen from skimage.color.rgb2lab (D65/2deg) before the build; our converter
# must agree within 1e-2 per the independent-oracle contract.
REFERENCE_LAB = {
    (1.0, 0.0, 0.0): (53.2406, 80.0923, 67.2028),
    (0.0, 1.0, 0.0): (87.7351, -86.1830, 83.1797),
    (0.0, 0.0, 1.0): (32.2957, 79.1856, -107.8573),
    (0.2, 0.5, 0.8): (52.2521, 2.7760, -46.2857),
}


def single_pixel(r, g, b):
    return RgbImage.from_array(np.array([[[r, g, b]]], dtype=float))


class TestSrgbToLab:
    def test_white_maps_to_l100(self):
        lab = srgb_to_lab(single_pixel(1, 1, 1)).data[0, 0]
        assert abs(lab[0] - 100.0) < 1e-3
        assert abs(lab[1]) < 1e-3 and abs(lab[2]) < 1e-3

    def test_black_maps_to_origin(self):
        lab = srgb_to_lab(single_pixel(0, 0, 0)).data[0, 0]
        assert np.allclose(lab, 0.0)

    @pytest.mark.parametrize("rgb,expected", sorted(REFERENCE_LAB.items()))
    def test_against_reference_oracle(self, rgb, expected):
        lab = srgb_to_lab(single_pixel(*rgb)).data[0, 0]
        assert np.allclose(lab, expected, atol=1e-2)

    def test_pixel_local(self, rng):
        img = RgbImage.from_array(rng.uniform(0, 1, (8, 8, 3)))
        lab = srgb_to_lab(img).data.reshape(-1, 3)
        perm = rng.permutation(64)
        shuffled = RgbImage.from_array(img.data.reshape(-1, 3)[perm].reshape(8, 8, 3))
        lab_shuffled = srgb_to_lab(shuffled).data.reshape(-1, 3)
        assert np.array_equal(lab_shuffled, lab[perm])

    def test_zero_sized_rejected(self):
        with pytest.raises(EmptyImageError):
            RgbImage.from_array(np.zeros((0, 4, 3)))


class TestLabToSrgb:
    def test_white_inverse(self):
        lab = LabImage.from_array(np.array([[[100.0, 0.0, 0.0]]]))
        rgb = lab_to_srgb(lab).data[0, 0]
        assert np.allclose(rgb, 1.0, atol=1e-3)

    def test_out_of_gamut_clamped(self):
        lab = LabImage.from_array(np.array([[[50.0, 120.0, -120.0]]]))
        rgb = lab_to_srgb(lab).data
        assert rgb.min() >= 0.0 and rgb.max() <= 1.0

    def test_round_trip_small(self, rng):
        img = RgbImage.from_array(rng.uniform(0, 1, (16, 16, 3)))
        back = lab_to_srgb(srgb_to_lab(img))
        assert np.max(np.abs(back.data - img.data)) < 1e-4

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, seed):
        gen = np.random.default_rng(seed)
        img = RgbImage.from_array(gen.uniform(0, 1, (6, 5, 3)))
        back = lab_to_srgb(srgb_to_lab(img))
        assert np.max(np.abs(back.data - img.data)) < 1e-4


class TestRowBands:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.integers(1, 300),
        st.sampled_from(["one", "band - 1", "band", "band + 1", "257"]),
        st.integers(0, 2**32 - 1),
    )
    def test_equal_the_whole_image_formulas(self, width, kind, seed):
        band = max(1, images._BAND_PIXELS // width)
        height = {"one": 1, "band - 1": max(1, band - 1), "band": band, "band + 1": band + 1, "257": 257}[kind]
        gen = np.random.default_rng(seed)
        # sRGB beyond [0, 1] and Lab beyond the gamut exercise both clamps
        rgb = gen.uniform(-0.5, 1.5, (height, width, 3))
        lab = gen.uniform(-200.0, 200.0, (height, width, 3))
        lab[..., 0] = gen.uniform(-30.0, 130.0, (height, width))
        assert srgb_to_lab(RgbImage.from_array(rgb)).data.tobytes() == srgb_to_lab_ref(rgb).tobytes()
        assert lab_to_srgb(LabImage.from_array(lab)).data.tobytes() == lab_to_srgb_ref(lab).tobytes()

    @pytest.mark.parametrize(
        "convert,raster,high",
        [(srgb_to_lab, RgbImage, 1.0), (lab_to_srgb, LabImage, 100.0)],
        ids=["srgb_to_lab", "lab_to_srgb"],
    )
    def test_working_set_is_bounded(self, convert, raster, high, rng):
        # the output alone is one image's bytes; whole-image intermediates peaked at 6-7 times it
        img = raster.from_array(rng.uniform(0.0, high, (512, 512, 3)))
        tracemalloc.start()
        try:
            convert(img)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * img.data.nbytes


class TestChannelStats:
    def test_constant_channel(self):
        img = LabImage.from_array(np.full((4, 4, 3), [50.0, 10.0, -10.0]))
        stats = channel_stats(img)
        assert stats.mean[0] == 50.0
        assert stats.std[0] == 0.0

    def test_two_pixel_hand_arithmetic(self):
        data = np.zeros((1, 2, 3))
        data[0, 0, 0], data[0, 1, 0] = 40.0, 60.0
        stats = channel_stats(LabImage.from_array(data))
        assert stats.mean[0] == pytest.approx(50.0)
        assert stats.std[0] == pytest.approx(10.0)

    def test_agrees_with_two_pass_oracle(self, rng):
        img = LabImage.from_array(rng.uniform(-50, 90, (13, 7, 3)))
        stats = channel_stats(img)
        for c in range(3):
            mean, std = two_pass_stats(img.data[..., c])
            assert stats.mean[c] == pytest.approx(mean, abs=1e-6)
            assert stats.std[c] == pytest.approx(std, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-10, 10).filter(lambda k: abs(k) > 1e-6), st.integers(0, 2**32 - 1))
    def test_scaling_linearity(self, k, seed):
        gen = np.random.default_rng(seed)
        data = gen.uniform(0, 100, (5, 5, 3))
        base = channel_stats(LabImage.from_array(data))
        scaled = channel_stats(LabImage.from_array(data * k))
        assert np.allclose(scaled.mean, base.mean * k, atol=1e-9 * max(1, abs(k)) * 100)
        assert np.allclose(scaled.std, base.std * abs(k), atol=1e-9 * max(1, abs(k)) * 100)

    def test_invalid_stats_rejected(self):
        with pytest.raises(ParameterError):
            ChannelStats(mean=np.array([0.0, 0.0, np.inf]), std=np.ones(3))
        with pytest.raises(ParameterError):
            ChannelStats(mean=np.zeros(3), std=np.array([1.0, -0.1, 1.0]))
