"""Seeded benchmark inputs: procedural scenes, scatter-degraded pairs, PNG files.

Scenes are a shaded background with flat-colored rectangles and discs, so
every image has hard edges for CPBD to walk. The PNG writer is stdlib-only
and cycles each row through the Sub, Up and Paeth filters, the way exported
photographs usually are, so that the program's byte-wise unfilter path runs.
The PNG reader here is independent of the program and is used only by the
output checks.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
ROW_FILTERS = (1, 2, 4)  # Sub, Up, Paeth

# Scattering ranges shared by the generator and the synth config of the
# training split, so the fine-tuned denoiser sees the degradation it is tested on.
SCATTER = {
    "beta_direct": (0.85, 0.95),
    "beta_backscatter": (0.55, 0.65),
    "veil": (0.25, 0.35),
    "depth": (1.6, 1.8),
}


def scene(rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, size, 3) uint8 scene: shaded background plus hard-edged shapes."""
    yy, xx = np.mgrid[0:size, 0:size] / size
    top, bottom = rng.uniform(0.15, 0.85, (2, 3))
    img = top + (bottom - top) * yy[..., None]
    img = img + 0.06 * np.sin(2 * np.pi * (rng.uniform(1, 3) * xx + rng.uniform()))[..., None]
    for k in range(6 + size // 32):
        color = rng.uniform(0.05, 0.95, 3)
        cy, cx = rng.uniform(0.1, 0.9, 2)
        half = rng.uniform(0.08, 0.16)
        if k % 2:
            mask = (np.abs(yy - cy) < half) & (np.abs(xx - cx) < half * rng.uniform(0.6, 1.4))
        else:
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 < half**2
        img[mask] = color
    return np.round(np.clip(img, 0.02, 0.98) * 255).astype(np.uint8)


def underwater(rng: np.random.Generator, size: int) -> np.ndarray:
    """A template scene: blue-green tint and veiling light over a procedural scene."""
    base = scene(rng, size) / 255.0
    tint = np.array([0.3, 0.65, 0.85]) * rng.uniform(0.9, 1.1, 3)
    veil = np.array([0.05, 0.25, 0.35])
    return np.round(np.clip(base * tint + veil, 0, 1) * 255).astype(np.uint8)


def scatter(rng: np.random.Generator, clean: np.ndarray) -> np.ndarray:
    """Scattering model out = in exp(-bd z) + veil (1 - exp(-bb z)), red attenuating fastest."""
    bd = np.sort(rng.uniform(*SCATTER["beta_direct"], 3))[::-1]
    bb = rng.uniform(*SCATTER["beta_backscatter"], 3)
    veil = rng.uniform(*SCATTER["veil"], 3)
    z = rng.uniform(*SCATTER["depth"])
    out = clean / 255.0 * np.exp(-bd * z) + veil * (1.0 - np.exp(-bb * z))
    return np.round(np.clip(out, 0, 1) * 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def _filter_row(kind: int, line: bytes, prev: bytes, bpp: int) -> bytes:
    n = len(line)
    if kind == 1:
        return bytes((line[i] - (line[i - bpp] if i >= bpp else 0)) & 0xFF for i in range(n))
    if kind == 2:
        return bytes((line[i] - prev[i]) & 0xFF for i in range(n))
    if kind == 4:
        return bytes(
            (line[i] - _paeth(line[i - bpp] if i >= bpp else 0, prev[i], prev[i - bpp] if i >= bpp else 0))
            & 0xFF
            for i in range(n)
        )
    raise ValueError(f"unsupported filter {kind}")


def _chunk(ctype: bytes, data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + ctype + data + struct.pack(">I", zlib.crc32(ctype + data))


def encode_png(pixels: np.ndarray) -> bytes:
    """8-bit RGB PNG whose rows cycle through the Sub, Up and Paeth filters."""
    height, width, _ = pixels.shape
    raw = np.ascontiguousarray(pixels, dtype=np.uint8).tobytes()
    stride = width * 3
    prev = bytes(stride)
    rows = bytearray()
    for r in range(height):
        line = raw[r * stride : (r + 1) * stride]
        kind = ROW_FILTERS[r % len(ROW_FILTERS)]
        rows.append(kind)
        rows += _filter_row(kind, line, prev, 3)
        prev = line
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return PNG_SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", zlib.compress(bytes(rows), 6)) + _chunk(b"IEND", b"")


def write_png(path, pixels: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_png(pixels))


def decode_png(blob: bytes) -> np.ndarray:
    """(H, W, 3) uint8 pixels of an 8-bit RGB/RGBA non-interlaced PNG."""
    if not blob.startswith(PNG_SIGNATURE):
        raise ValueError("not a PNG file")
    pos, idat, header = len(PNG_SIGNATURE), bytearray(), None
    while pos < len(blob):
        (length,) = struct.unpack(">I", blob[pos : pos + 4])
        ctype, data = blob[pos + 4 : pos + 8], blob[pos + 8 : pos + 8 + length]
        if zlib.crc32(ctype + data) != struct.unpack(">I", blob[pos + 8 + length : pos + 12 + length])[0]:
            raise ValueError(f"CRC mismatch in chunk {ctype!r}")
        if ctype == b"IHDR":
            header = struct.unpack(">IIBBBBB", data)
        elif ctype == b"IDAT":
            idat += data
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if header is None:
        raise ValueError("PNG has no IHDR")
    width, height, depth, color, _, _, interlace = header
    if depth != 8 or color not in (2, 6) or interlace:
        raise ValueError(f"unsupported PNG (depth {depth}, color type {color}, interlace {interlace})")
    bpp = 3 if color == 2 else 4
    raw = zlib.decompress(bytes(idat))
    stride = width * bpp
    if len(raw) != height * (stride + 1):
        raise ValueError("PNG image data has the wrong length")
    out = bytearray(height * stride)
    prev = bytes(stride)
    for r in range(height):
        kind = raw[r * (stride + 1)]
        if kind > 4:
            raise ValueError(f"invalid PNG filter type {kind}")
        line = raw[r * (stride + 1) + 1 : (r + 1) * (stride + 1)]
        cur = bytearray(line) if kind == 0 else bytearray(stride)
        if kind:
            for i in range(stride):
                a = cur[i - bpp] if i >= bpp else 0
                c = prev[i - bpp] if i >= bpp else 0
                pred = (0, a, prev[i], (a + prev[i]) // 2, _paeth(a, prev[i], c))[kind]
                cur[i] = (line[i] + pred) & 0xFF
        out[r * stride : (r + 1) * stride] = cur
        prev = bytes(cur)
    return np.frombuffer(bytes(out), dtype=np.uint8).reshape(height, width, bpp)[..., :3].copy()


def read_png(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode_png(fh.read())
