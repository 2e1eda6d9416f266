import io
import os
import zlib

import numpy as np
import pytest

from uwdiff.checkpoint import write_checkpoint
from uwdiff.errors import DimensionLimitError, TruncatedFileError, UnsupportedFormatError
from uwdiff.imageio import (
    decode_png,
    decode_ppm,
    encode_png,
    encode_ppm,
    load_image,
    save_image,
)
from uwdiff.images import RgbImage


def random_image(rng, h=7, w=11):
    return RgbImage.from_array(rng.uniform(0, 1, (h, w, 3)))


def _paeth_predictor(left, up, upleft):
    p = left + up - upleft
    pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
    return left if pa <= pb and pa <= pc else (up if pb <= pc else upleft)


def filter_scanlines(rows: np.ndarray, bpp: int, filters) -> bytes:
    """PNG-filter row r of the uint8 array `rows` with type filters[r], per the spec."""
    raw = bytearray()
    prev = [0] * rows.shape[1]
    for line, ftype in zip(rows.tolist(), filters):
        raw.append(ftype)
        for i, value in enumerate(line):
            left = line[i - bpp] if i >= bpp else 0
            up = prev[i]
            upleft = prev[i - bpp] if i >= bpp else 0
            pred = (0, left, up, (left + up) // 2, _paeth_predictor(left, up, upleft))[ftype]
            raw.append((value - pred) & 0xFF)
        prev = line
    return bytes(raw)


def png_blob(width, height, bit_depth, color_type, raw, idat=None) -> bytes:
    """A PNG of the given header whose IDAT holds compressed `raw` (or `idat` as is)."""
    ihdr = width.to_bytes(4, "big") + height.to_bytes(4, "big")
    ihdr += bytes([bit_depth, color_type, 0, 0, 0])
    blob = bytearray(b"\x89PNG\r\n\x1a\n")
    idat = zlib.compress(raw) if idat is None else idat
    for ctype, data in ((b"IHDR", ihdr), (b"IDAT", idat), (b"IEND", b"")):
        blob += len(data).to_bytes(4, "big") + ctype + data
        blob += zlib.crc32(ctype + data).to_bytes(4, "big")
    return bytes(blob)


class TestPngRoundTrip:
    def test_known_2x2_quantization_bound(self):
        img = RgbImage.from_array(
            np.array([[[0.0, 0.5, 1.0], [0.1, 0.2, 0.3]], [[0.9, 0.8, 0.7], [1.0, 0.0, 0.5]]])
        )
        back = decode_png(encode_png(img, 8))
        assert np.max(np.abs(back.data - img.data)) <= 1 / 510 + 1e-12

    def test_16bit_round_trip(self, rng):
        img = random_image(rng)
        back = decode_png(encode_png(img, 16))
        assert np.max(np.abs(back.data - img.data)) <= 1 / 131070 + 1e-12

    def test_quantization_is_round_half_up(self):
        # 0.5/255 rounds up to sample 1
        img = RgbImage.from_array(np.full((1, 1, 3), 0.5 / 255))
        back = decode_png(encode_png(img, 8))
        assert back.data[0, 0, 0] == pytest.approx(1 / 255)

    def test_encode_deterministic(self, rng):
        img = random_image(rng)
        assert encode_png(img, 8) == encode_png(img, 8)


class TestPngForeignFiles:
    def test_decodes_pil_filtered_png(self, rng):
        PIL = pytest.importorskip("PIL.Image")
        quant = np.floor(rng.uniform(0, 1, (23, 17, 3)) * 255 + 0.5).astype(np.uint8)
        buf = io.BytesIO()
        PIL.fromarray(quant).save(buf, format="PNG", optimize=True)
        img = decode_png(buf.getvalue())
        assert np.array_equal(np.floor(img.data * 255 + 0.5).astype(np.uint8), quant)

    def test_rgba_alpha_dropped(self, rng):
        PIL = pytest.importorskip("PIL.Image")
        rgb = (rng.uniform(0, 1, (5, 6, 3)) * 255).astype(np.uint8)
        rgba = np.dstack([rgb, np.full((5, 6, 1), 77, np.uint8)])
        buf = io.BytesIO()
        PIL.fromarray(rgba, "RGBA").save(buf, format="PNG")
        img = decode_png(buf.getvalue())
        assert np.array_equal(np.floor(img.data * 255 + 0.5).astype(np.uint8), rgb)

    def test_hand_built_paeth_filtered_png(self):
        # one 3-pixel row per filter type, built chunk by chunk
        width, height = 3, 5
        rows = np.arange(width * height * 3, dtype=np.uint8).reshape(height, width * 3) * 3
        raw = filter_scanlines(rows, 3, [0, 1, 2, 3, 4])
        img = decode_png(png_blob(width, height, 8, 2, raw))
        assert np.array_equal(
            np.floor(img.data * 255 + 0.5).astype(np.uint8).reshape(height, width * 3), rows
        )

    @pytest.mark.parametrize(
        "bit_depth,color_type", [(8, 2), (8, 6), (16, 2), (16, 6)], ids=["bpp3", "bpp4", "bpp6", "bpp8"]
    )
    def test_every_filter_type_on_wide_rows(self, bit_depth, color_type):
        # seeded random samples, rows cycling all five filters; each start puts
        # a different filter on the first row, whose up neighbours are zero
        width, height = 37, 11
        channels = 3 if color_type == 2 else 4
        bpp = channels * bit_depth // 8
        gen = np.random.default_rng(bpp)
        samples = gen.integers(0, 1 << bit_depth, (height, width, channels))
        dtype = np.uint8 if bit_depth == 8 else np.dtype(">u2")
        rows = samples.astype(dtype).view(np.uint8).reshape(height, width * bpp)
        expected = samples[..., :3] / ((1 << bit_depth) - 1)
        for start in range(5):
            filters = [(start + r) % 5 for r in range(height)]
            raw = filter_scanlines(rows, bpp, filters)
            img = decode_png(png_blob(width, height, bit_depth, color_type, raw))
            assert np.array_equal(img.data, expected), filters

    def test_sub_up_paeth_scene(self):
        # 128 px scene with rows cycling Sub/Up/Paeth, as exported photographs often are
        size = 128
        gen = np.random.default_rng(128)
        yy, xx = np.mgrid[0:size, 0:size] / size
        scene = 0.5 + 0.4 * np.sin(7 * xx[..., None] + 5 * yy[..., None] + gen.uniform(0, 6, 3))
        scene[40:90, 30:70] = gen.uniform(0, 1, 3)
        quant = np.clip(np.round(scene * 255 + gen.normal(0, 4, scene.shape)), 0, 255)
        rows = quant.astype(np.uint8).reshape(size, size * 3)
        raw = filter_scanlines(rows, 3, [(1, 2, 4)[r % 3] for r in range(size)])
        img = decode_png(png_blob(size, size, 8, 2, raw))
        assert np.array_equal(img.data, quant / 255)


class TestPngErrors:
    def test_truncated_png_no_partial_image(self, rng):
        blob = encode_png(random_image(rng), 8)
        for cut in (4, 12, len(blob) // 2, len(blob) - 2):
            with pytest.raises(TruncatedFileError):
                decode_png(blob[:cut])

    def test_crc_corruption_detected(self, rng):
        blob = bytearray(encode_png(random_image(rng), 8))
        blob[40] ^= 0xFF
        with pytest.raises(TruncatedFileError):
            decode_png(bytes(blob))

    def test_unsupported_color_type(self):
        with pytest.raises(UnsupportedFormatError):
            decode_png(png_blob(1, 1, 8, 0, b"\x00\x00"))

    def test_dimension_overflow(self):
        with pytest.raises(DimensionLimitError):
            decode_png(png_blob(1 << 25, 1 << 25, 8, 2, b"", idat=b"x"))

    def test_invalid_filter_type_named(self):
        raw = bytearray(filter_scanlines(np.zeros((3, 6), np.uint8), 3, [0, 0, 0]))
        raw[7] = 5  # second row's filter byte
        with pytest.raises(UnsupportedFormatError, match="PNG filter type 5 is invalid"):
            decode_png(png_blob(2, 3, 8, 2, bytes(raw)))

    def test_wrong_data_length(self):
        raw = filter_scanlines(np.zeros((3, 6), np.uint8), 3, [0, 0, 0])
        with pytest.raises(TruncatedFileError, match="wrong length"):
            decode_png(png_blob(2, 3, 8, 2, raw[:-1]))

    def test_not_a_png(self):
        with pytest.raises(UnsupportedFormatError):
            decode_png(b"GIF89a such image")


class TestPpm:
    def test_8bit_round_trip(self, rng):
        img = random_image(rng)
        back = decode_ppm(encode_ppm(img, 8))
        assert np.max(np.abs(back.data - img.data)) <= 1 / 510 + 1e-12

    def test_16bit_round_trip(self, rng):
        img = random_image(rng)
        back = decode_ppm(encode_ppm(img, 16))
        assert np.max(np.abs(back.data - img.data)) <= 1 / 131070 + 1e-12

    def test_header_comments_allowed(self):
        body = bytes([10, 20, 30])
        blob = b"P6\n# comment line\n1 1\n# another\n255\n" + body
        img = decode_ppm(blob)
        assert img.data[0, 0, 0] == pytest.approx(10 / 255)

    def test_truncated_body(self):
        with pytest.raises(TruncatedFileError):
            decode_ppm(b"P6\n2 2\n255\n\x00\x01")

    def test_bad_maxval(self):
        with pytest.raises(UnsupportedFormatError):
            decode_ppm(b"P6\n1 1\n1023\n\x00\x00\x00")


class TestPathApi:
    def test_save_load_sniffs_format(self, rng, tmp_path):
        img = random_image(rng)
        png_path = tmp_path / "a.png"
        ppm_path = tmp_path / "b.ppm"
        save_image(img, png_path)
        save_image(img, ppm_path, bit_depth=16)
        assert np.max(np.abs(load_image(png_path).data - img.data)) <= 1 / 510 + 1e-12
        assert np.max(np.abs(load_image(ppm_path).data - img.data)) <= 1 / 131070 + 1e-12

    def test_unknown_extension(self, rng, tmp_path):
        with pytest.raises(UnsupportedFormatError):
            save_image(random_image(rng), tmp_path / "c.bmp")

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "f.png"
        path.write_bytes(b"not an image at all")
        with pytest.raises(UnsupportedFormatError):
            load_image(path)

    @pytest.mark.parametrize("writer", ["save_image", "write_checkpoint"])
    def test_failed_replace_keeps_old_target_and_leaves_no_temp(self, writer, tmp_path, monkeypatch):
        def write(path):
            if writer == "save_image":
                save_image(RgbImage.from_array(np.zeros((2, 2, 3))), path)
            else:
                write_checkpoint(path, {"w": np.zeros(2)})

        def refuse(src, dst):
            raise OSError("replace refused")

        existing = tmp_path / "old.png"
        existing.write_bytes(b"old bytes")
        monkeypatch.setattr(os, "replace", refuse)
        for target in (existing, tmp_path / "new.png"):
            with pytest.raises(OSError, match="replace refused"):
                write(target)
        assert existing.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["old.png"]
