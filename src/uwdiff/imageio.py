"""Lossless image file I/O: PNG (8/16-bit RGB, RGBA with alpha dropped) and
binary PPM (P6, maxval 255 or 65535).

Both codecs are self-contained on top of zlib. Decoding validates chunk CRCs
and never returns a partial image; encoding quantizes with round-half-up and
always writes unfiltered scanlines, so output bytes are deterministic.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from .errors import (
    DimensionLimitError,
    ParameterError,
    TruncatedFileError,
    UnsupportedFormatError,
)
from .images import RgbImage

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_MAX_DIMENSION = 1 << 24
_IMAGE_EXTENSIONS = (".png", ".ppm")


def _check_dimensions(width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise DimensionLimitError(f"degenerate image dimensions {width}x{height}")
    if width > _MAX_DIMENSION or height > _MAX_DIMENSION or width * height > (1 << 28):
        raise DimensionLimitError(f"image dimensions {width}x{height} exceed supported range")


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------


def _png_chunks(blob: bytes):
    if not blob.startswith(_PNG_SIGNATURE):
        if blob and _PNG_SIGNATURE.startswith(blob[:4]) and len(blob) < len(_PNG_SIGNATURE):
            raise TruncatedFileError("PNG ends inside its signature")
        raise UnsupportedFormatError("not a PNG file (bad signature)")
    pos = len(_PNG_SIGNATURE)
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise TruncatedFileError("PNG ends inside a chunk header")
        length = int.from_bytes(blob[pos : pos + 4], "big")
        ctype = blob[pos + 4 : pos + 8]
        end = pos + 8 + length
        if end + 4 > len(blob):
            raise TruncatedFileError(f"PNG ends inside chunk {ctype!r}")
        data = blob[pos + 8 : end]
        crc = int.from_bytes(blob[end : end + 4], "big")
        if crc != zlib.crc32(ctype + data):
            raise TruncatedFileError(f"CRC mismatch in chunk {ctype!r}")
        yield ctype, data
        pos = end + 4
        if ctype == b"IEND":
            return
    raise TruncatedFileError("PNG has no IEND chunk")


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter_scanlines(raw: bytes, width: int, height: int, bpp: int) -> bytearray:
    """Reverse PNG per-row filtering. bpp = bytes per complete pixel."""
    stride = width * bpp
    if len(raw) != height * (stride + 1):
        raise TruncatedFileError("decompressed PNG data has the wrong length")
    out = bytearray(height * stride)
    prev_start = -1
    for row in range(height):
        fbyte = raw[row * (stride + 1)]
        line = raw[row * (stride + 1) + 1 : (row + 1) * (stride + 1)]
        start = row * stride
        if fbyte == 0:
            out[start : start + stride] = line
        elif fbyte == 1:  # Sub
            for i in range(stride):
                left = out[start + i - bpp] if i >= bpp else 0
                out[start + i] = (line[i] + left) & 0xFF
        elif fbyte == 2:  # Up
            for i in range(stride):
                up = out[prev_start + i] if row > 0 else 0
                out[start + i] = (line[i] + up) & 0xFF
        elif fbyte == 3:  # Average
            for i in range(stride):
                left = out[start + i - bpp] if i >= bpp else 0
                up = out[prev_start + i] if row > 0 else 0
                out[start + i] = (line[i] + (left + up) // 2) & 0xFF
        elif fbyte == 4:  # Paeth
            for i in range(stride):
                left = out[start + i - bpp] if i >= bpp else 0
                up = out[prev_start + i] if row > 0 else 0
                ul = out[prev_start + i - bpp] if (row > 0 and i >= bpp) else 0
                out[start + i] = (line[i] + _paeth(left, up, ul)) & 0xFF
        else:
            raise UnsupportedFormatError(f"PNG filter type {fbyte} is invalid")
        prev_start = start
    return out


def decode_png(blob: bytes) -> RgbImage:
    header = None
    idat = bytearray()
    for ctype, data in _png_chunks(blob):
        if ctype == b"IHDR":
            if len(data) != 13:
                raise TruncatedFileError("IHDR chunk has the wrong size")
            header = data
        elif ctype == b"IDAT":
            idat.extend(data)
    if header is None:
        raise TruncatedFileError("PNG has no IHDR chunk")
    width = int.from_bytes(header[0:4], "big")
    height = int.from_bytes(header[4:8], "big")
    bit_depth, color_type, compression, filter_method, interlace = header[8:13]
    _check_dimensions(width, height)
    if compression != 0 or filter_method != 0:
        raise UnsupportedFormatError("unsupported PNG compression/filter method")
    if interlace != 0:
        raise UnsupportedFormatError("interlaced PNG is not supported")
    if color_type not in (2, 6):
        raise UnsupportedFormatError(f"PNG color type {color_type} (need RGB or RGBA)")
    if bit_depth not in (8, 16):
        raise UnsupportedFormatError(f"PNG bit depth {bit_depth} (need 8 or 16)")
    channels = 3 if color_type == 2 else 4
    if not idat:
        raise TruncatedFileError("PNG has no IDAT data")
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise TruncatedFileError(f"PNG IDAT stream is corrupt: {exc}") from exc
    bpp = channels * bit_depth // 8
    flat = _unfilter_scanlines(raw, width, height, bpp)
    if bit_depth == 8:
        arr = np.frombuffer(bytes(flat), dtype=np.uint8).astype(np.float64) / 255.0
    else:
        arr = np.frombuffer(bytes(flat), dtype=">u2").astype(np.float64) / 65535.0
    arr = arr.reshape(height, width, channels)[..., :3]
    return RgbImage(width, height, np.ascontiguousarray(arr))


def encode_png(img: RgbImage, bit_depth: int = 8) -> bytes:
    if bit_depth not in (8, 16):
        raise UnsupportedFormatError(f"PNG bit depth {bit_depth} (need 8 or 16)")
    maxval = (1 << bit_depth) - 1
    quant = np.floor(np.clip(img.data, 0.0, 1.0) * maxval + 0.5)
    if bit_depth == 8:
        payload = quant.astype(np.uint8).tobytes()
        stride = img.width * 3
    else:
        payload = quant.astype(">u2").tobytes()
        stride = img.width * 6
    rows = bytearray()
    for r in range(img.height):
        rows.append(0)  # filter type None
        rows.extend(payload[r * stride : (r + 1) * stride])
    ihdr = (
        img.width.to_bytes(4, "big")
        + img.height.to_bytes(4, "big")
        + bytes([bit_depth, 2, 0, 0, 0])
    )
    out = bytearray(_PNG_SIGNATURE)
    for ctype, data in ((b"IHDR", ihdr), (b"IDAT", zlib.compress(bytes(rows), 6)), (b"IEND", b"")):
        out.extend(len(data).to_bytes(4, "big"))
        out.extend(ctype)
        out.extend(data)
        out.extend(zlib.crc32(ctype + data).to_bytes(4, "big"))
    return bytes(out)


# ---------------------------------------------------------------------------
# PPM (P6)
# ---------------------------------------------------------------------------


def _ppm_tokens(blob: bytes, count: int, start: int):
    """Read `count` whitespace/comment-delimited tokens starting at `start`."""
    tokens = []
    pos = start
    while len(tokens) < count:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos] == ord("#"):
            while pos < len(blob) and blob[pos] != ord("\n"):
                pos += 1
            continue
        tok = bytearray()
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            tok.extend(blob[pos : pos + 1])
            pos += 1
        if not tok:
            raise TruncatedFileError("PPM header ends before all fields are present")
        tokens.append(bytes(tok))
    return tokens, pos


def decode_ppm(blob: bytes) -> RgbImage:
    if len(blob) < 2 or blob[:2] != b"P6":
        raise UnsupportedFormatError("not a binary PPM (P6) file")
    try:
        (w_tok, h_tok, max_tok), pos = _ppm_tokens(blob, 3, 2)
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError as exc:
        raise UnsupportedFormatError(f"malformed PPM header: {exc}") from exc
    _check_dimensions(width, height)
    if maxval not in (255, 65535):
        raise UnsupportedFormatError(f"PPM maxval {maxval} (need 255 or 65535)")
    pos += 1  # single whitespace byte after maxval
    sample_bytes = 1 if maxval == 255 else 2
    need = width * height * 3 * sample_bytes
    data = blob[pos : pos + need]
    if len(data) != need:
        raise TruncatedFileError("PPM pixel data is shorter than the header declares")
    dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
    arr = np.frombuffer(data, dtype=dtype).astype(np.float64) / maxval
    return RgbImage(width, height, arr.reshape(height, width, 3))


def encode_ppm(img: RgbImage, bit_depth: int = 8) -> bytes:
    if bit_depth not in (8, 16):
        raise UnsupportedFormatError(f"PPM bit depth {bit_depth} (need 8 or 16)")
    maxval = (1 << bit_depth) - 1
    quant = np.floor(np.clip(img.data, 0.0, 1.0) * maxval + 0.5)
    body = quant.astype(np.uint8 if bit_depth == 8 else ">u2").tobytes()
    return f"P6\n{img.width} {img.height}\n{maxval}\n".encode("ascii") + body


# ---------------------------------------------------------------------------
# Path-level API
# ---------------------------------------------------------------------------


def load_image(path) -> RgbImage:
    """Load a PNG or PPM file, sniffing the format from its magic bytes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob.startswith(_PNG_SIGNATURE[:4]):
        return decode_png(blob)
    if blob.startswith(b"P6"):
        return decode_ppm(blob)
    raise UnsupportedFormatError(f"{os.fspath(path)!r}: unrecognized image format")


def list_images(directory) -> list[str]:
    """Sorted names of the .png/.ppm files in directory.

    A missing path, a non-directory and a directory without images each raise
    ParameterError naming the directory.
    """
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        reason = "not a directory" if os.path.exists(directory) else "no such directory"
        raise ParameterError(f"{reason}: {directory!r}")
    names = sorted(n for n in os.listdir(directory) if n.lower().endswith(_IMAGE_EXTENSIONS))
    if not names:
        raise ParameterError(f"no images (.png/.ppm) found in {directory!r}")
    return names


def require_unique_stems(directory, names) -> None:
    """Reject names that share a stem, since outputs are named by stem."""
    stems = [os.path.splitext(n)[0] for n in names]
    duplicates = sorted({s for s in stems if stems.count(s) > 1})
    if duplicates:
        raise ParameterError(f"duplicate image stems in {os.fspath(directory)!r}: {duplicates}")


def save_image(img: RgbImage, path, bit_depth: int = 8) -> None:
    """Save as PNG or PPM depending on the file extension (.png / .ppm)."""
    ext = os.path.splitext(os.fspath(path))[1].lower()
    if ext == ".png":
        blob = encode_png(img, bit_depth)
    elif ext == ".ppm":
        blob = encode_ppm(img, bit_depth)
    else:
        raise UnsupportedFormatError(f"cannot infer format from extension {ext!r}")
    with open(path, "wb") as fh:
        fh.write(blob)
