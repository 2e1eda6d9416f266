import math

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from uwdiff.errors import ParameterError, ShapeMismatchError
from uwdiff.images import RgbImage, luminance_bt601
from uwdiff.metrics import (
    ALL_METRICS,
    MIN_SIDE,
    _block_extrema,
    _edge_widths,
    _eme,
    _gradient_directions,
    _uiconm,
    cpbd,
    evaluate,
    psnr,
    sobel_gradients,
    ssim,
    uciqe,
    uiqm,
)

from oracles import cpbd_ref, edge_width_loop, eme_ref, psnr_loop, sobel_loop, uciqe_ref, uiconm_ref, uiqm_ref

# skimage.metrics.structural_similarity (win 11, sigma 1.5, no sample
# covariance, data_range 1) on the seeded chart below vs its inversion,
# recorded before the build.
SSIM_INVERTED_ORACLE = -0.726186407462

# evaluate(colorful_chart(seed=7, size=250), colorful_chart(seed=8, size=250)),
# recorded with the per-block loop metrics: 250 px leaves ragged 8 px blocks
# and a ragged CPBD block row, which the 16 px fingerprint images never reach.
RTOL = 1e-9
PINNED_250 = {
    "psnr": 27.453910565510334,
    "ssim": 0.9531884263005893,
    "uiqm": 3.004240558064677,
    "uciqe": 16.710861239874607,
    "cpbd": 0.5706521739130435,
    "uicm": 0.1056971106104962,
    "uism": 7.023888276895746,
    "uiconm": 0.25930850316844667,
}


def seeded_chart(seed=42, size=64):
    gen = np.random.default_rng(seed)
    ramp = 0.5 + 0.25 * np.sin(np.linspace(0, 12, size))[:, None] * np.ones((size, size))
    base = np.clip(ramp + 0.1 * gen.standard_normal((size, size)), 0.05, 0.95)
    return RgbImage.from_array(np.repeat(base[:, :, None], 3, axis=2))


def colorful_chart(seed=0, size=64):
    gen = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size]
    img = np.zeros((size, size, 3))
    img[..., 0] = ((x // 8 + y // 8) % 2) * 0.8 + 0.1
    img[..., 1] = ((x // 16) % 2) * 0.7 + 0.15
    img[..., 2] = ((y // 16) % 2) * 0.6 + 0.2
    img += 0.03 * gen.standard_normal((size, size, 3))
    return RgbImage.from_array(np.clip(img, 0, 1))


def step_chart(size=128):
    # noise-free checkerboard: every edge is an ideal step
    y, x = np.mgrid[0:size, 0:size]
    plane = ((x // 16 + y // 16) % 2) * 0.8 + 0.1
    return RgbImage.from_array(np.repeat(plane[:, :, None], 3, axis=2))


def blurred(img: RgbImage, sigma: float) -> RgbImage:
    if sigma == 0:
        return img
    data = np.stack(
        [gaussian_filter(img.data[..., c], sigma, mode="nearest") for c in range(3)], axis=-1
    )
    return RgbImage.from_array(np.clip(data, 0, 1))


def hflip(img: RgbImage) -> RgbImage:
    return RgbImage.from_array(np.ascontiguousarray(img.data[:, ::-1]))


class TestPsnr:
    def test_identical_images_inf(self, rng):
        img = RgbImage.from_array(rng.uniform(0, 1, (8, 8, 3)))
        assert psnr(img, img) == math.inf

    def test_constant_offset_exact_20db(self, rng):
        a = RgbImage.from_array(rng.uniform(0, 0.9, (16, 16, 3)))
        b = RgbImage.from_array(a.data + 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)

    def test_agrees_with_loop_oracle(self, rng):
        a = RgbImage.from_array(rng.uniform(0, 1, (9, 13, 3)))
        b = RgbImage.from_array(rng.uniform(0, 1, (9, 13, 3)))
        assert psnr(a, b) == pytest.approx(psnr_loop(a.data, b.data), abs=1e-9)

    def test_symmetric(self, rng):
        a = RgbImage.from_array(rng.uniform(0, 1, (8, 8, 3)))
        b = RgbImage.from_array(rng.uniform(0, 1, (8, 8, 3)))
        assert psnr(a, b) == psnr(b, a)

    def test_dimension_mismatch(self, rng):
        a = RgbImage.from_array(rng.uniform(0, 1, (8, 8, 3)))
        b = RgbImage.from_array(rng.uniform(0, 1, (8, 9, 3)))
        with pytest.raises(ShapeMismatchError):
            psnr(a, b)


class TestSsim:
    def test_self_similarity_is_one(self):
        img = seeded_chart()
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_identical_constants(self):
        img = RgbImage.from_array(np.full((16, 16, 3), 0.5))
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_inverted_image_matches_recorded_oracle(self):
        img = seeded_chart()
        inverted = RgbImage.from_array(1.0 - img.data)
        value = ssim(img, inverted)
        assert value == pytest.approx(SSIM_INVERTED_ORACLE, abs=1e-9)
        assert value < 0.2

    def test_symmetric(self, rng):
        a = RgbImage.from_array(rng.uniform(0, 1, (16, 16, 3)))
        b = RgbImage.from_array(rng.uniform(0, 1, (16, 16, 3)))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_window_minimum_enforced(self, rng):
        small = RgbImage.from_array(rng.uniform(0, 1, (10, 10, 3)))
        with pytest.raises(ParameterError):
            ssim(small, small)


class TestSobel:
    def test_matches_loop_oracle(self, rng):
        channel = rng.uniform(0, 1, (9, 7))
        gx, gy = sobel_gradients(channel)
        gx_ref, gy_ref = sobel_loop(channel)
        assert np.allclose(gx, gx_ref, atol=1e-12)
        assert np.allclose(gy, gy_ref, atol=1e-12)

    def test_matches_loop_oracle_at_250(self, rng):
        channel = rng.uniform(0, 1, (250, 250))
        gx, gy = sobel_gradients(channel)
        gx_ref, gy_ref = sobel_loop(channel)
        assert np.allclose(gx, gx_ref, atol=1e-12)
        assert np.allclose(gy, gy_ref, atol=1e-12)


def block_score_input(kind, shape):
    gen = np.random.default_rng(sum(shape))
    if kind == "zero":  # every PLIP sum is 0, so UICONM skips every block
        return np.zeros(shape)
    if kind == "dark":  # mostly under EME's 1.0 floor
        return gen.uniform(0, 2, shape)
    values = gen.uniform(0, 255, shape)
    if kind == "half-flat":  # flat blocks give UICONM terms m = 0
        values[:, : shape[1] // 2] = 100.0
    return values


class TestBlockScores:
    @pytest.mark.filterwarnings("error")  # a zero PLIP sum must be skipped, not divided by
    @pytest.mark.parametrize("shape", [(45, 50), (250, 250), (5, 7)], ids=["45x50", "250x250", "5x7"])
    @pytest.mark.parametrize("kind", ["uniform", "dark", "half-flat", "zero"])
    def test_eme_and_uiconm_match_block_loops(self, kind, shape):
        values = block_score_input(kind, shape)
        assert _eme(values) == pytest.approx(eme_ref(values), rel=1e-12)
        assert _uiconm(values) == pytest.approx(uiconm_ref(values), rel=1e-12)

    @pytest.mark.parametrize("shape", [(45, 50), (256, 256), (5, 7), (8, 17), (17, 8)])
    def test_block_extrema_equal_reduceat_over_the_whole_image(self, shape, rng):
        values = rng.uniform(0.0, 255.0, shape)
        rows, cols = np.arange(0, shape[0], 8), np.arange(0, shape[1], 8)
        bmax, bmin = _block_extrema(values, 8)
        assert np.array_equal(bmax, np.maximum.reduceat(np.maximum.reduceat(values, rows, axis=0), cols, axis=1))
        assert np.array_equal(bmin, np.minimum.reduceat(np.minimum.reduceat(values, rows, axis=0), cols, axis=1))


class TestUiqm:
    def test_flat_image_zero_colorfulness_and_sharpness(self):
        img = RgbImage.from_array(np.full((32, 32, 3), 0.5))
        _, uicm, uism, uiconm = uiqm(img)
        assert uicm == pytest.approx(0.0, abs=1e-12)
        assert uism == pytest.approx(0.0, abs=1e-12)
        assert uiconm == pytest.approx(0.0, abs=1e-12)

    def test_sharp_beats_blurred(self):
        chart = colorful_chart()
        _, _, uism_sharp, _ = uiqm(chart)
        _, _, uism_blur, _ = uiqm(blurred(chart, 2.0))
        assert uism_sharp > uism_blur

    def test_agrees_with_reference_oracle(self, rng):
        img = RgbImage.from_array(rng.uniform(0, 1, (48, 40, 3)))
        value, _, _, _ = uiqm(img)
        assert value == pytest.approx(uiqm_ref(img.data), abs=1e-3)

    def test_minimum_size(self, rng):
        with pytest.raises(ParameterError):
            uiqm(RgbImage.from_array(rng.uniform(0, 1, (8, 8, 3))))

    def test_hflip_invariant(self):
        img = colorful_chart(seed=3)
        a = uiqm(img)
        b = uiqm(hflip(img))
        assert a == pytest.approx(b, abs=1e-9)


class TestUciqe:
    def test_flat_gray_scores_zero(self):
        # zero up to the color-matrix rounding of gray onto the a*=b*=0 axis
        img = RgbImage.from_array(np.full((16, 16, 3), 0.42))
        assert uciqe(img) == pytest.approx(0.0, abs=1e-6)

    def test_chroma_spread_increases_score(self):
        from uwdiff.images import LabImage, lab_to_srgb

        flat = np.full((8, 8, 3), [60.0, 12.0, 0.0])
        spread = flat.copy()
        spread[:, ::2, 1] = 0.0
        spread[:, 1::2, 1] = 24.0
        img_flat = lab_to_srgb(LabImage.from_array(flat))
        img_spread = lab_to_srgb(LabImage.from_array(spread))
        assert uciqe(img_spread) > uciqe(img_flat)

    def test_agrees_with_reference_oracle(self, rng):
        img = RgbImage.from_array(rng.uniform(0, 1, (24, 18, 3)))
        assert uciqe(img) == pytest.approx(uciqe_ref(img.data), abs=1e-3)

    def test_hflip_invariant(self, rng):
        img = RgbImage.from_array(rng.uniform(0, 1, (15, 21, 3)))
        assert uciqe(img) == pytest.approx(uciqe(hflip(img)), abs=1e-12)


def scalar_direction(gy: float, gx: float) -> int:
    return round(math.degrees(math.atan2(gy, gx)) % 360.0 / 45.0) % 8


class TestCpbd:
    def test_sharp_chart_near_one_and_blur_lowers(self):
        chart = step_chart()
        sharp = cpbd(chart)
        soft = cpbd(blurred(chart, 4.0))
        assert sharp > 0.9
        assert soft < sharp

    def test_flat_image_scores_zero(self):
        img = RgbImage.from_array(np.full((64, 64, 3), 0.3))
        assert cpbd(img) == 0.0

    def test_agrees_with_reference_oracle(self):
        img = colorful_chart(seed=9, size=128)
        assert cpbd(img) == pytest.approx(cpbd_ref(img.data), abs=5e-3)

    def test_minimum_size(self, rng):
        with pytest.raises(ParameterError):
            cpbd(RgbImage.from_array(rng.uniform(0, 1, (32, 32, 3))))

    def test_hflip_invariant(self):
        img = colorful_chart(seed=5, size=128)
        assert cpbd(img) == pytest.approx(cpbd(hflip(img)), abs=1e-12)

    @pytest.mark.parametrize("chart", [seeded_chart, colorful_chart])
    @pytest.mark.parametrize("size", [64, 100, 250])
    def test_edge_walks_match_the_scalar_walk(self, chart, size):
        # every edge pixel of the image, scored block or not, so that some
        # walks leave the image
        lum = luminance_bt601(chart(seed=size, size=size)) * 255.0
        gx, gy = sobel_gradients(lum)
        mag2 = gx**2 + gy**2
        rows, cols = np.nonzero(mag2 > 4.0 * mag2.mean())
        widths = _edge_widths(lum, rows, cols, gx, gy)
        pixels = list(zip(rows.tolist(), cols.tolist()))
        expected = [edge_width_loop(lum, r, c, gx[r, c], gy[r, c]) for r, c in pixels]
        assert any(e is not None for e in expected)
        assert [None if np.isnan(w) else w for w in widths.tolist()] == expected
        directions = [scalar_direction(gy[r, c], gx[r, c]) for r, c in pixels]
        assert _gradient_directions(gy[rows, cols], gx[rows, cols]).tolist() == directions

    def test_directions_match_the_scalar_formula_within_one_ulp_of_each_sector_boundary(self):
        gy, gx = [], []
        for k in range(8):
            angle = (k + 0.5) * math.pi / 4.0
            for scale in (1e-3, 1.0, 255.0, 1e4):
                y, x = scale * math.sin(angle), scale * math.cos(angle)
                for ny in (-math.inf, None, math.inf):
                    for nx in (-math.inf, None, math.inf):
                        gy.append(y if ny is None else math.nextafter(y, ny))
                        gx.append(x if nx is None else math.nextafter(x, nx))
        gy, gx = np.array(gy), np.array(gx)
        expected = [scalar_direction(y, x) for y, x in zip(gy.tolist(), gx.tolist())]
        assert _gradient_directions(gy, gx).tolist() == expected


class TestBlurMonotonicity:
    def test_cpbd_and_uism_decrease_with_blur(self):
        sigmas = [0, 1, 2, 4]
        cpbd_vals = [cpbd(blurred(step_chart(), s)) for s in sigmas]
        uism_vals = [uiqm(blurred(colorful_chart(size=128), s))[2] for s in sigmas]
        assert all(a >= b for a, b in zip(cpbd_vals, cpbd_vals[1:])), cpbd_vals
        assert cpbd_vals[0] > cpbd_vals[-1]
        assert all(a >= b for a, b in zip(uism_vals, uism_vals[1:])), uism_vals


class TestEvaluate:
    def test_full_report_deterministic(self):
        img = colorful_chart(size=64)
        a = evaluate(img, img)
        b = evaluate(img, img)
        assert a == b
        assert a.psnr == math.inf
        assert a.ssim == pytest.approx(1.0, abs=1e-12)

    def test_no_reference_leaves_fields_none(self):
        img = colorful_chart(size=32)
        report = evaluate(img)
        assert report.psnr is None and report.ssim is None and report.cpbd is None
        assert report.uiqm is not None and report.uciqe is not None

    @pytest.mark.parametrize("size", [8, 10, 11, 15, 16, 63, 64])
    def test_image_size_decides_the_metric_set(self, size):
        img = colorful_chart(size=size)
        report = evaluate(img, img)
        computed = {name for name in ALL_METRICS if getattr(report, name) is not None}
        assert computed == {"psnr", "uciqe"} | {name for name, side in MIN_SIDE.items() if size >= side}

    @pytest.mark.parametrize("name, fn", [("ssim", lambda img: ssim(img, img)), ("uiqm", uiqm), ("cpbd", cpbd)])
    def test_metric_size_checks_read_the_table(self, name, fn):
        side = MIN_SIDE[name]
        fn(colorful_chart(size=side))
        with pytest.raises(ParameterError, match=f"{name} needs images of at least {side}x{side}"):
            fn(colorful_chart(size=side - 1))

    def test_pinned_row_on_ragged_scene(self):
        report = evaluate(colorful_chart(seed=7, size=250), colorful_chart(seed=8, size=250))
        for name, expected in PINNED_250.items():
            assert getattr(report, name) == pytest.approx(expected, rel=RTOL), name
