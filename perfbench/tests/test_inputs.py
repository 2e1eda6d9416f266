"""The generated inputs: uwdiff reads them back exactly, and the seed decides them."""

import zlib

import numpy as np
import pytest

import inputs
import workloads
from uwdiff.imageio import decode_png as uwdiff_decode_png


def _generate(workload_cls, work, seed):
    written = {}
    real_write = inputs.write_png

    def recording_write(path, pixels):
        written[str(path)] = pixels
        real_write(path, pixels)

    inputs.write_png = recording_write
    try:
        workload_cls(work, seed).generate()
    finally:
        inputs.write_png = real_write
    return written


def _filters(blob):
    raw = zlib.decompress(blob[blob.index(b"IDAT") + 4 :])
    width = int.from_bytes(blob[16:20], "big")
    stride = width * 3 + 1
    return {raw[i] for i in range(0, len(raw), stride)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_uwdiff_decodes_every_generated_png_to_the_pixels_written(name, tmp_path):
    written = _generate(workloads.WORKLOADS[name], tmp_path, seed=3)
    assert written
    for path, pixels in written.items():
        with open(path, "rb") as fh:
            blob = fh.read()
        assert _filters(blob) == set(inputs.ROW_FILTERS) or pixels.shape[0] < len(inputs.ROW_FILTERS)
        decoded = uwdiff_decode_png(blob).data
        np.testing.assert_array_equal(np.round(decoded * 255).astype(np.uint8), pixels)
        np.testing.assert_array_equal(inputs.decode_png(blob), pixels)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_seed_decides_the_inputs(name, tmp_path):
    def files(seed, tag):
        written = _generate(workloads.WORKLOADS[name], tmp_path / tag, seed)
        return [open(p, "rb").read() for p in sorted(written)]

    first = files(1, "a")
    assert files(1, "b") == first
    assert files(2, "c") != first


def test_reader_undoes_every_filter_type():
    pixels = inputs.scene(np.random.default_rng(0), 24)
    for kind in (1, 2, 4):
        stride = pixels.shape[1] * 3
        raw = pixels.tobytes()
        rows, prev = bytearray(), bytes(stride)
        for r in range(pixels.shape[0]):
            line = raw[r * stride : (r + 1) * stride]
            rows += bytes([kind]) + inputs._filter_row(kind, line, prev, 3)
            prev = line
        ihdr = (24).to_bytes(4, "big") * 2 + bytes([8, 2, 0, 0, 0])
        blob = (
            inputs.PNG_SIGNATURE
            + inputs._chunk(b"IHDR", ihdr)
            + inputs._chunk(b"IDAT", zlib.compress(bytes(rows)))
            + inputs._chunk(b"IEND", b"")
        )
        np.testing.assert_array_equal(inputs.decode_png(blob), pixels)
