"""Independent reference implementations used as test oracles.

Everything here is written as plain scalar loops straight from each
definition, deliberately sharing no code with the package: these implement
the *same specifications* along a different path, so agreement is evidence
of correctness rather than of shared bugs.
"""

from __future__ import annotations

import math
import zlib

import numpy as np


# ---------------------------------------------------------------------------
# Basic statistics
# ---------------------------------------------------------------------------


def psnr_loop(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    count = 0
    for x, y in zip(a.reshape(-1).tolist(), b.reshape(-1).tolist()):
        total += (x - y) ** 2
        count += 1
    mse = total / count
    return math.inf if mse == 0 else 10.0 * math.log10(1.0 / mse)


def two_pass_stats(values: np.ndarray) -> tuple[float, float]:
    flat = values.reshape(-1).tolist()
    mean = sum(flat) / len(flat)
    var = sum((v - mean) ** 2 for v in flat) / len(flat)
    return mean, math.sqrt(var)


def percentile_linear(values: list[float], q: float) -> float:
    """numpy-default 'linear' percentile re-derived by hand."""
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


# ---------------------------------------------------------------------------
# Scalar CIELAB (D65/2deg) for the no-reference metric oracles
# ---------------------------------------------------------------------------


def _srgb_decode_scalar(s: float) -> float:
    return s / 12.92 if s <= 0.04045 else ((s + 0.055) / 1.055) ** 2.4


def rgb_to_lab_scalar(r: float, g: float, b: float) -> tuple[float, float, float]:
    rl, gl, bl = (_srgb_decode_scalar(v) for v in (r, g, b))
    x = 0.4124564 * rl + 0.3575761 * gl + 0.1804375 * bl
    y = 0.2126729 * rl + 0.7151522 * gl + 0.0721750 * bl
    z = 0.0193339 * rl + 0.1191920 * gl + 0.9503041 * bl
    eps = 216.0 / 24389.0
    kappa = 24389.0 / 27.0

    def f(t: float) -> float:
        return t ** (1.0 / 3.0) if t > eps else (kappa * t + 16.0) / 116.0

    fx, fy, fz = f(x / 0.95047), f(y / 1.0), f(z / 1.08883)
    return 116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)


# ---------------------------------------------------------------------------
# Whole-image CIELAB (D65/2deg): every intermediate at full image size, as
# the package computed it before its conversions ran in row bands
# ---------------------------------------------------------------------------

_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_D65_WHITE = np.array([0.95047, 1.00000, 1.08883])
_LAB_EPS = 216.0 / 24389.0
_LAB_KAPPA = 24389.0 / 27.0


def srgb_to_lab_ref(rgb: np.ndarray) -> np.ndarray:
    s = np.clip(rgb, 0.0, 1.0)
    linear = np.where(s <= 0.04045, s / 12.92, ((s + 0.055) / 1.055) ** 2.4)
    t = (linear @ _RGB_TO_XYZ.T) / _D65_WHITE
    f = np.where(t > _LAB_EPS, np.cbrt(t), (_LAB_KAPPA * t + 16.0) / 116.0)
    return np.stack(
        [116.0 * f[..., 1] - 16.0, 500.0 * (f[..., 0] - f[..., 1]), 200.0 * (f[..., 1] - f[..., 2])], axis=-1
    )


def lab_to_srgb_ref(lab: np.ndarray) -> np.ndarray:
    def f_inv(f):
        f3 = f**3
        return np.where(f3 > _LAB_EPS, f3, (116.0 * f - 16.0) / _LAB_KAPPA)

    fy = (lab[..., 0] + 16.0) / 116.0
    fx = fy + lab[..., 1] / 500.0
    fz = fy - lab[..., 2] / 200.0
    xyz = np.stack([f_inv(fx), f_inv(fy), f_inv(fz)], axis=-1) * _D65_WHITE
    v = np.clip(xyz @ np.linalg.inv(_RGB_TO_XYZ).T, 0.0, None)
    rgb = np.where(v <= 0.0031308, 12.92 * v, 1.055 * v ** (1.0 / 2.4) - 0.055)
    return np.clip(rgb, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Sobel with edge-duplicating (symmetric) reflection, scalar loops
# ---------------------------------------------------------------------------

_SOBEL_X = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]


def _reflect(i: int, n: int) -> int:
    if i < 0:
        return -i - 1
    if i >= n:
        return 2 * n - i - 1
    return i


def sobel_loop(channel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h, w = channel.shape
    gx = np.zeros((h, w))
    gy = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            sx = sy = 0.0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    v = channel[_reflect(r + dr, h), _reflect(c + dc, w)]
                    sx += v * _SOBEL_X[dr + 1][dc + 1] / 8.0
                    sy += v * _SOBEL_X[dc + 1][dr + 1] / 8.0
            gx[r, c] = sx
            gy[r, c] = sy
    return gx, gy


# ---------------------------------------------------------------------------
# UIQM reference
# ---------------------------------------------------------------------------


def _trimmed_mean_ref(channel: np.ndarray) -> float:
    flat = sorted(channel.reshape(-1).tolist())
    n = len(flat)
    t_left = math.ceil(0.1 * n)
    t_right = math.floor(0.1 * n)
    core = flat[t_left : n - t_right]
    return sum(core) / len(core)


def uicm_ref(rgb: np.ndarray) -> float:
    rg = rgb[..., 0] - rgb[..., 1]
    yb = (rgb[..., 0] + rgb[..., 1]) / 2.0 - rgb[..., 2]
    mu_rg = _trimmed_mean_ref(rg)
    mu_yb = _trimmed_mean_ref(yb)
    s2_rg = float(np.mean((rg - mu_rg) ** 2))
    s2_yb = float(np.mean((yb - mu_yb) ** 2))
    return -0.0268 * math.hypot(mu_rg, mu_yb) + 0.1586 * math.sqrt(s2_rg + s2_yb)


def _blocks(h: int, w: int, size: int):
    for r0 in range(0, h, size):
        for c0 in range(0, w, size):
            yield r0, min(r0 + size, h), c0, min(c0 + size, w)


def eme_ref(channel255: np.ndarray, block: int = 8) -> float:
    h, w = channel255.shape
    nbx = math.ceil(h / block)
    nby = math.ceil(w / block)
    total = 0.0
    for r0, r1, c0, c1 in _blocks(h, w, block):
        vals = channel255[r0:r1, c0:c1]
        bmax = max(float(vals.max()), 1.0)
        bmin = max(float(vals.min()), 1.0)
        total += math.log(bmax / bmin)
    return 2.0 / (nbx * nby) * total


def uism_ref(rgb: np.ndarray) -> float:
    out = 0.0
    for c, weight in ((0, 0.299), (1, 0.587), (2, 0.114)):
        gx, gy = sobel_loop(rgb[..., c])
        edge = rgb[..., c] * np.sqrt(gx**2 + gy**2) * 255.0
        out += weight * eme_ref(edge)
    return out


def uiconm_ref(gray255: np.ndarray, block: int = 8) -> float:
    gamma = 1026.0
    h, w = gray255.shape
    nbx = math.ceil(h / block)
    nby = math.ceil(w / block)
    total = 0.0
    for r0, r1, c0, c1 in _blocks(h, w, block):
        vals = gray255[r0:r1, c0:c1]
        bmax, bmin = float(vals.max()), float(vals.min())
        plip_sum = bmax + bmin - bmax * bmin / gamma
        if plip_sum <= 0:
            continue
        m = (gamma * (bmax - bmin) / (gamma - bmin)) / plip_sum
        if m > 0:
            total += m * math.log(m)
    return -total / (nbx * nby)


def uiqm_ref(rgb01: np.ndarray) -> float:
    rgb = np.clip(rgb01, 0.0, 1.0)
    gray = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
    return 0.0282 * uicm_ref(rgb) + 0.2953 * uism_ref(rgb) + 3.5753 * uiconm_ref(gray * 255.0)


# ---------------------------------------------------------------------------
# UCIQE reference
# ---------------------------------------------------------------------------


def uciqe_ref(rgb01: np.ndarray) -> float:
    h, w = rgb01.shape[:2]
    lum, chroma, sat = [], [], []
    for r in range(h):
        for c in range(w):
            lab_l, lab_a, lab_b = rgb_to_lab_scalar(
                min(max(rgb01[r, c, 0], 0.0), 1.0),
                min(max(rgb01[r, c, 1], 0.0), 1.0),
                min(max(rgb01[r, c, 2], 0.0), 1.0),
            )
            ch = math.hypot(lab_a, lab_b)
            lum.append(lab_l)
            chroma.append(ch)
            hyp = math.sqrt(ch * ch + lab_l * lab_l)
            sat.append(ch / hyp if hyp > 0 else 0.0)
    mean_c = sum(chroma) / len(chroma)
    sigma_c = math.sqrt(sum((v - mean_c) ** 2 for v in chroma) / len(chroma))
    contrast = (percentile_linear(lum, 99) - percentile_linear(lum, 1)) / 100.0
    return 0.4680 * sigma_c + 0.2745 * contrast + 0.2576 * (sum(sat) / len(sat))


# ---------------------------------------------------------------------------
# CPBD reference
# ---------------------------------------------------------------------------


def edge_width_loop(lum: np.ndarray, row: int, col: int, gx: float, gy: float) -> float | None:
    """Marziliano edge width at one pixel: walk uphill along the gradient
    (quantized to 8 directions) and downhill against it to the nearest local
    extrema; None when either walk leaves the image first."""
    h, w = lum.shape
    angle = math.degrees(math.atan2(gy, gx)) % 360.0
    direction = int(round(angle / 45.0)) % 8 * 45
    dr, dc = {
        0: (0, 1), 45: (1, 1), 90: (1, 0), 135: (1, -1),
        180: (0, -1), 225: (-1, -1), 270: (-1, 0), 315: (-1, 1),
    }[direction]
    total = 0.0
    for sign in (1, -1):
        rr, cc = row, col
        val = lum[rr, cc]
        while True:
            nr, nc = rr + sign * dr, cc + sign * dc
            if not (0 <= nr < h and 0 <= nc < w):
                return None
            nxt = lum[nr, nc]
            if (sign > 0 and nxt <= val) or (sign < 0 and nxt >= val):
                break
            rr, cc, val = nr, nc, nxt
            total += 1.0
    return total


def cpbd_ref(rgb01: np.ndarray) -> float:
    lum = (0.299 * rgb01[..., 0] + 0.587 * rgb01[..., 1] + 0.114 * rgb01[..., 2]) * 255.0
    h, w = lum.shape
    gx, gy = sobel_loop(lum)
    mag2 = gx**2 + gy**2
    mean_mag2 = float(mag2.mean())
    if mean_mag2 == 0:
        return 0.0
    edges = mag2 > 4.0 * mean_mag2
    probs = []
    for br in range(h // 64):
        for bc in range(w // 64):
            rows = range(br * 64, (br + 1) * 64)
            cols = range(bc * 64, (bc + 1) * 64)
            edge_count = sum(1 for r in rows for c in cols if edges[r, c])
            if edge_count / (64 * 64) <= 0.002:
                continue
            block = lum[rows.start : rows.stop, cols.start : cols.stop]
            contrast = float(block.max() - block.min())
            w_jnb = 5.0 if contrast <= 50.0 else 3.0
            for r in rows:
                for c in cols:
                    if not edges[r, c]:
                        continue
                    width = edge_width_loop(lum, r, c, gx[r, c], gy[r, c])
                    if width is None:
                        continue
                    probs.append(1.0 - math.exp(-((width / w_jnb) ** 3.6)))
    if not probs:
        return 0.0
    return sum(1 for p in probs if p <= 0.63) / len(probs)


# ---------------------------------------------------------------------------
# PNG scanline unfiltering, byte by byte, and PNG blobs of any header
# ---------------------------------------------------------------------------


def unfilter_loop(raw: bytes, width: int, height: int, bpp: int) -> np.ndarray:
    """Reverse PNG filtering one byte at a time, straight from the spec: each
    filtered byte x becomes x + predictor mod 256, where the predictor reads the
    already unfiltered bytes a (left), b (up) and c (up-left), 0 off the image."""
    stride = width * bpp
    out = []
    prev = [0] * stride
    for r in range(height):
        line = raw[r * (stride + 1) : (r + 1) * (stride + 1)]
        ftype, x = line[0], line[1:]
        cur = []
        for i in range(stride):
            a = cur[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) >> 1
            else:
                pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - c - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
            cur.append((x[i] + pred) & 0xFF)
        out.append(cur)
        prev = cur
    return np.array(out, dtype=np.uint8).reshape(height, stride)


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


# ---------------------------------------------------------------------------
# Naive convolution (for autodiff / encoder oracles)
# ---------------------------------------------------------------------------


def conv2d_loop(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, stride: int, padding: int) -> np.ndarray:
    c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    xp = np.zeros((c_in, h + 2 * padding, w + 2 * padding))
    xp[:, padding : padding + h, padding : padding + w] = x
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                acc = bias[o] if bias is not None else 0.0
                for ci in range(c_in):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += weight[o, ci, di, dj] * xp[ci, i * stride + di, j * stride + dj]
                out[o, i, j] = acc
    return out


# ---------------------------------------------------------------------------
# Logistic regression (bias included) on frozen embeddings
# ---------------------------------------------------------------------------


def logistic_accuracy(features: np.ndarray, labels: np.ndarray, lr: float = 0.5, steps: int = 2000) -> float:
    w = np.zeros(features.shape[1])
    b = 0.0
    y = labels.astype(np.float64)
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(features @ w + b)))
        grad = p - y
        w -= lr * (features.T @ grad) / len(y)
        b -= lr * float(grad.mean())
    p = 1.0 / (1.0 + np.exp(-(features @ w + b)))
    return float(((p >= 0.5) == (y == 1.0)).mean())
