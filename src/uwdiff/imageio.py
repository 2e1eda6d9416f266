"""Lossless image file I/O: PNG (RGB, or RGBA with alpha dropped) and binary
PPM (P6).

Both codecs are self-contained on top of zlib. Decoding reads 8- and 16-bit
samples, validates chunk CRCs and never returns a partial image; encoding
writes 8-bit samples, quantizes with round-half-up and always writes
unfiltered scanlines, so output bytes are deterministic. Files are written
atomically (`write_atomic`), which the other writers share.
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


def _unfilter_scanlines(raw: bytes, width: int, height: int, bpp: int) -> np.ndarray:
    """Reverse PNG per-row filtering into a (height, width * bpp) uint8 array.

    bpp = bytes per complete pixel. Every filter byte is checked before any
    row is unfiltered. An image without Average or Paeth rows, which includes
    everything `encode_png` writes, is unfiltered row by row: None, Sub and Up
    are whole-row array operations, whose uint8 arithmetic wraps mod 256 as
    PNG requires. Average and Paeth depend on the byte just unfiltered to
    their left, so an image with such rows goes through `_unfilter_wavefront`.
    """
    stride = width * bpp
    if len(raw) != height * (stride + 1):
        raise TruncatedFileError("decompressed PNG data has the wrong length")
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    filters = lines[:, 0]
    invalid = filters[filters > 4]
    if invalid.size:
        raise UnsupportedFormatError(f"PNG filter type {invalid[0]} is invalid")
    if (filters > 2).any():
        return _unfilter_wavefront(lines, width, bpp)
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for fbyte, line, row in zip(filters.tolist(), lines[:, 1:], out):
        if fbyte == 0:
            row[:] = line
        elif fbyte == 1:  # Sub
            np.cumsum(line.reshape(width, bpp), axis=0, dtype=np.uint8, out=row.reshape(width, bpp))
        else:  # Up
            np.add(line, prev, out=row)
        prev = row
    return out


def _unfilter_wavefront(lines: np.ndarray, width: int, bpp: int) -> np.ndarray:
    """Unfilter rows of every filter type together, one pixel column per step.

    A row that ignores the row above (None, Sub, or the first row of a band)
    has level 0; an Up, Average or Paeth row has the level of the row above
    plus one. Pixel j of a row at level L is decoded at step j + L, after its
    left, up and up-left neighbours, so a band takes width + max-level steps.
    Bands are at most max(width, 32) rows tall, so however tall the image,
    a band's skewed buffer holds about twice the band's bytes (a few
    kilobytes below 32 px wide); for one band it would grow with height².
    """
    height = len(lines)
    out = np.empty((height, width * bpp), dtype=np.uint8)
    band = max(width, 32)
    for top in range(0, height, band):
        above = out[top - 1] if top else np.zeros(width * bpp, dtype=np.uint8)
        _unfilter_band(lines[top : top + band], above, out[top : top + band], width, bpp)
    return out


def _unfilter_band(lines: np.ndarray, above: np.ndarray, out: np.ndarray, width: int, bpp: int) -> None:
    """Unfilter a band of rows below the decoded row `above` into `out`.

    `skew[2 + j + L, r + 1]` holds pixel j of band row r, filtered until its
    step has run. Row 0 holds `above` one step early, where the band's first
    row reads it as up and up-left. Steps 0 and 1 are zero: they are the
    neighbours off the image's left edge, and the zero slots left of a row's
    first pixel decode to zero from them. Slots right of a row's last pixel
    fill with values that no pixel of the image reads.

    Each step works on one contiguous (rows x bpp) slab in int16 temporaries.
    None, Sub, Up and Average predict (wa * a + wb * b) >> 1 with per-row
    weights (0, 0), (2, 0), (0, 2) and (1, 1); Paeth rows take the Paeth
    predictor instead.
    """
    height = len(lines)
    filters = lines[:, 0]
    rows = np.arange(height)
    # each row's distance below the last None or Sub row at or above it, or below the band's first row
    levels = rows - np.maximum.accumulate(np.where(filters < 2, rows, 0))
    max_level = int(levels.max())
    skew = np.zeros((width + max_level + 2, height + 1, bpp), dtype=np.uint8)
    skew[1 : 1 + width, 0] = above.reshape(width, bpp)
    image = lines[:, 1:].reshape(height, width, bpp)
    at_level = [np.flatnonzero(levels == level) for level in range(max_level + 1)]
    for level, members in enumerate(at_level):
        skew[2 + level : 2 + level + width, members + 1] = image[members].transpose(1, 0, 2)
    wa = np.repeat(2 * (filters == 1) + (filters == 3), bpp).astype(np.int16)
    wb = np.repeat(2 * (filters == 2) + (filters == 3), bpp).astype(np.int16)
    paeth_rows = np.repeat(filters == 4, bpp)
    slabs = skew.reshape(len(skew), -1)
    for s in range(2, len(slabs)):
        a = slabs[s - 1, bpp:].astype(np.int16)  # left
        b = slabs[s - 1, :-bpp].astype(np.int16)  # up
        c = slabs[s - 2, :-bpp].astype(np.int16)  # up-left
        da, db = a - c, b - c
        pc = np.abs(da + db)
        pa, pb = np.abs(db), np.abs(da)
        paeth = np.where(pa <= np.minimum(pb, pc), a, np.where(pb <= pc, b, c))
        pred = np.where(paeth_rows, paeth, (a * wa + b * wb) >> 1)
        slabs[s, bpp:] += pred.astype(np.uint8)
    out = out.reshape(height, width, bpp)
    for level, members in enumerate(at_level):
        out[members] = skew[2 + level : 2 + level + width, members + 1].transpose(1, 0, 2)


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
    bpp = channels * bit_depth // 8
    expected = height * (width * bpp + 1)
    inflater = zlib.decompressobj()
    try:  # inflate one byte past the declared rows at most, so a stream cannot outgrow its header
        raw = inflater.decompress(idat, expected + 1)
    except zlib.error as exc:
        raise TruncatedFileError(f"PNG IDAT stream is corrupt: {exc}") from exc
    if not inflater.eof and len(raw) <= expected:
        raise TruncatedFileError("PNG IDAT stream is corrupt or truncated")
    rows = _unfilter_scanlines(raw, width, height, bpp)
    if bit_depth == 16:
        rows = rows.view(">u2")
    arr = rows.astype(np.float64)
    arr /= (1 << bit_depth) - 1.0  # in place: same bits as `/`, one float raster fewer
    arr = arr.reshape(height, width, channels)[..., :3]
    return RgbImage(width, height, np.ascontiguousarray(arr))


def _quantize_8bit(img: RgbImage) -> bytes:
    return np.floor(np.clip(img.data, 0.0, 1.0) * 255 + 0.5).astype(np.uint8).tobytes()


def encode_png(img: RgbImage) -> bytes:
    payload = _quantize_8bit(img)
    stride = img.width * 3
    rows = bytearray()
    for r in range(img.height):
        rows.append(0)  # filter type None
        rows.extend(payload[r * stride : (r + 1) * stride])
    ihdr = (
        img.width.to_bytes(4, "big")
        + img.height.to_bytes(4, "big")
        + bytes([8, 2, 0, 0, 0])  # 8-bit RGB, deflate, standard filters, no interlace
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


def encode_ppm(img: RgbImage) -> bytes:
    return f"P6\n{img.width} {img.height}\n255\n".encode("ascii") + _quantize_8bit(img)


# ---------------------------------------------------------------------------
# Path-level API
# ---------------------------------------------------------------------------


# what load_image raises for a file that does not decode
UNDECODABLE = (UnsupportedFormatError, TruncatedFileError, DimensionLimitError)


def load_image(path) -> RgbImage:
    """Load a PNG or PPM file, sniffing the format from its magic bytes.

    A file that does not decode raises the decoder's error type with the path
    before its message; the decoder's own error is the __cause__.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        if blob.startswith(_PNG_SIGNATURE[:4]):
            return decode_png(blob)
        if blob.startswith(b"P6"):
            return decode_ppm(blob)
        raise UnsupportedFormatError("unrecognized image format")
    except UNDECODABLE as exc:
        raise type(exc)(f"{os.fspath(path)!r}: {exc}") from exc


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


def read_text(path, error: type[Exception], what: str) -> str:
    """The UTF-8 text of the file at path; bytes that do not decode raise error, naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{what} {os.fspath(path)!r} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` through a temporary file in its directory, which is created here.

    os.replace swaps the finished file in, so a reader sees either the old
    file or the whole new one, never a partial write; on any error the
    temporary file is removed and an existing target keeps its bytes. There
    is no fsync: this guards against an interrupted writer, not power loss.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    os.makedirs(directory or os.curdir, exist_ok=True)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_image(img: RgbImage, path) -> None:
    """Save as 8-bit PNG or PPM depending on the file extension (.png / .ppm)."""
    ext = os.path.splitext(os.fspath(path))[1].lower()
    if ext == ".png":
        blob = encode_png(img)
    elif ext == ".ppm":
        blob = encode_ppm(img)
    else:
        raise UnsupportedFormatError(f"cannot infer format from extension {ext!r}")
    write_atomic(path, blob)
