import math
import os

import numpy as np
import pytest

from uwdiff.diffusion import stream_rng
from uwdiff.errors import ParameterError
from uwdiff.images import ChannelStats, LabImage, RgbImage, channel_stats
from uwdiff.imageio import save_image
from uwdiff.synthesis import (
    DatasetManifest,
    DegradationParams,
    ScatterRanges,
    TemplatePool,
    color_transfer,
    scatter_degrade,
    synthesize_dataset,
)


class TestColorTransfer:
    def test_identity_transfer(self, rng):
        src = LabImage.from_array(rng.uniform(0, 100, (9, 9, 3)))
        out = color_transfer(src, channel_stats(src))
        assert np.max(np.abs(out.data - src.data)) < 1e-9

    def test_degenerate_sigma_maps_to_target_mean(self):
        src = LabImage.from_array(np.full((4, 4, 3), [30.0, 5.0, 5.0]))
        target = channel_stats(LabImage.from_array(np.full((2, 2, 3), [70.0, -3.0, 8.0])))
        out = color_transfer(src, target)
        assert np.allclose(out.data[..., 0], 70.0)

    def test_output_stats_match_target(self, rng):
        src = LabImage.from_array(rng.uniform(-20, 90, (12, 8, 3)))
        target = channel_stats(LabImage.from_array(rng.uniform(-40, 100, (6, 6, 3))))
        stats = channel_stats(color_transfer(src, target))
        assert np.allclose(stats.mean, target.mean, atol=1e-6)
        assert np.allclose(stats.std, target.std, atol=1e-6)

    def test_idempotent_under_same_target(self, rng):
        src = LabImage.from_array(rng.uniform(0, 100, (7, 7, 3)))
        target = channel_stats(LabImage.from_array(rng.uniform(0, 100, (5, 5, 3))))
        once = color_transfer(src, target)
        twice = color_transfer(once, target)
        assert np.max(np.abs(twice.data - once.data)) < 1e-6

    def test_nonfinite_target_rejected(self):
        with pytest.raises(ParameterError):
            ChannelStats(mean=np.array([np.nan, 0.0, 0.0]), std=np.ones(3))


class TestScatterDegrade:
    def test_zero_depth_is_identity(self, rng):
        clean = RgbImage.from_array(rng.uniform(0, 1, (6, 6, 3)))
        params = DegradationParams([0.5, 0.4, 0.3], [0.2, 0.2, 0.2], [0.1, 0.2, 0.3], 0.0)
        out = scatter_degrade(clean, params)
        assert np.array_equal(out.data, clean.data)

    def test_infinite_depth_reaches_veil(self, rng):
        clean = RgbImage.from_array(rng.uniform(0, 1, (4, 4, 3)))
        veil = np.array([0.1, 0.45, 0.8])
        params = DegradationParams([0.5] * 3, [0.4] * 3, veil, 1e6)
        out = scatter_degrade(clean, params)
        assert np.max(np.abs(out.data - veil)) < 1e-9

    def test_scalar_oracle(self):
        clean = RgbImage.from_array(np.full((2, 2, 3), 0.8))
        params = DegradationParams([0.5] * 3, [0.4] * 3, [0.3] * 3, 2.0)
        expected = 0.8 * math.exp(-1.0) + 0.3 * (1.0 - math.exp(-0.8))
        out = scatter_degrade(clean, params)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_monotone_approach_to_veil(self, rng):
        clean = RgbImage.from_array(rng.uniform(0, 1, (5, 5, 3)))
        veil = np.array([0.2, 0.5, 0.7])
        prev_gap = None
        for z in np.linspace(0.0, 10.0, 20):
            params = DegradationParams([0.8, 0.6, 0.4], [0.5, 0.4, 0.3], veil, float(z))
            out = scatter_degrade(clean, params)
            gap = np.abs(out.data - veil).max(axis=(0, 1))
            if prev_gap is not None:
                assert np.all(gap <= prev_gap + 1e-12)
            prev_gap = gap

    def test_per_pixel_depth_map(self, rng):
        clean = RgbImage.from_array(rng.uniform(0, 1, (3, 4, 3)))
        depth = rng.uniform(0, 5, (3, 4))
        params = DegradationParams([0.5] * 3, [0.4] * 3, [0.3] * 3, depth)
        out = scatter_degrade(clean, params)
        manual = clean.data * np.exp(-0.5 * depth[..., None]) + 0.3 * (
            1 - np.exp(-0.4 * depth[..., None])
        )
        assert np.allclose(out.data, np.clip(manual, 0, 1))

    def test_negative_depth_rejected(self):
        with pytest.raises(ParameterError):
            DegradationParams([0.5] * 3, [0.4] * 3, [0.3] * 3, -1.0)

    def test_wavelength_realistic_ordering(self):
        ranges = ScatterRanges()
        for i in range(50):
            params = ranges.draw(stream_rng(3, i))
            bd = params.beta_direct
            assert bd[0] >= bd[1] >= bd[2]


def _write_images(directory, count, rng, size=8, dark=False):
    os.makedirs(directory, exist_ok=True)
    for i in range(count):
        data = rng.uniform(0, 0.4 if dark else 1.0, (size, size, 3))
        save_image(RgbImage.from_array(data), os.path.join(directory, f"img{i:04d}.png"))


class TestSynthesizeDataset:
    def test_single_template_forces_index_zero(self, rng, tmp_path):
        _write_images(tmp_path / "clean", 3, rng)
        _write_images(tmp_path / "tpl", 1, rng, dark=True)
        manifest = synthesize_dataset(tmp_path / "clean", tmp_path / "tpl", tmp_path / "out", seed=1)
        assert len(manifest.entries) == 3
        assert all(e.template_index == 0 for e in manifest.entries)
        for e in manifest.entries:
            assert os.path.exists(tmp_path / "out" / e.degraded)

    def test_same_seed_identical_manifest_bytes(self, rng, tmp_path):
        _write_images(tmp_path / "clean", 4, rng)
        _write_images(tmp_path / "tpl", 2, rng, dark=True)
        synthesize_dataset(tmp_path / "clean", tmp_path / "tpl", tmp_path / "o1", seed=9)
        synthesize_dataset(tmp_path / "clean", tmp_path / "tpl", tmp_path / "o2", seed=9)
        a = (tmp_path / "o1" / "manifest.tsv").read_bytes()
        b = (tmp_path / "o2" / "manifest.tsv").read_bytes()
        # degraded paths are manifest-relative, so reruns in different dirs match
        assert a == b

    def test_template_usage_binomial(self, rng, tmp_path):
        _write_images(tmp_path / "clean", 1000, rng, size=4)
        _write_images(tmp_path / "tpl", 4, rng, size=4, dark=True)
        manifest = synthesize_dataset(
            tmp_path / "clean", tmp_path / "tpl", tmp_path / "out", seed=42, method="scatter"
        )
        counts = np.bincount([e.template_index for e in manifest.entries], minlength=4)
        expected = 1000 / 4
        sigma = math.sqrt(1000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - expected) <= 3 * sigma), counts

    def test_undecodable_image_skipped_and_recorded(self, rng, tmp_path):
        _write_images(tmp_path / "clean", 2, rng)
        (tmp_path / "clean" / "broken.png").write_bytes(b"\x89PNG\r\n\x1a\nnot really")
        _write_images(tmp_path / "tpl", 1, rng, dark=True)
        warnings = []
        manifest = synthesize_dataset(
            tmp_path / "clean", tmp_path / "tpl", tmp_path / "out", seed=0, warn=warnings.append
        )
        assert len(manifest.entries) == 2
        assert len(manifest.skipped) == 1 and "broken.png" in manifest.skipped[0][0]
        assert warnings

    def test_empty_directory_rejected(self, rng, tmp_path):
        os.makedirs(tmp_path / "empty")
        _write_images(tmp_path / "tpl", 1, rng)
        with pytest.raises(ParameterError):
            synthesize_dataset(tmp_path / "empty", tmp_path / "tpl", tmp_path / "out", seed=0)

    def test_manifest_read_round_trip(self, rng, tmp_path):
        _write_images(tmp_path / "clean", 3, rng)
        _write_images(tmp_path / "tpl", 2, rng, dark=True)
        manifest = synthesize_dataset(
            tmp_path / "clean", tmp_path / "tpl", tmp_path / "out", seed=5, method="scatter"
        )
        loaded = DatasetManifest.read(tmp_path / "out" / "manifest.tsv")
        assert loaded.seed == 5
        assert loaded.method == "scatter"
        assert loaded.version == 2
        assert loaded.entries == manifest.entries

    def test_unsupported_manifest_version_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("# uwdiff dataset manifest v3\n")
        with pytest.raises(ParameterError, match="unsupported manifest version"):
            DatasetManifest.read(path)

    def test_template_pool_needs_decodable_images(self, tmp_path):
        os.makedirs(tmp_path / "tpl")
        (tmp_path / "tpl" / "bad.png").write_bytes(b"nope")
        skipped = []
        with pytest.raises(ParameterError):
            TemplatePool.from_dir(tmp_path / "tpl", lambda path, exc: skipped.append(path))
        assert skipped == [os.path.join(tmp_path / "tpl", "bad.png")]
