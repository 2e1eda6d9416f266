"""Full-reference (PSNR, SSIM) and no-reference (UIQM, UCIQE, CPBD) quality metrics.

Internal constants follow each metric's defining publication: SSIM uses an
11x11 Gaussian window (sigma 1.5) with K1=0.01/K2=0.03 on BT.601 luminance,
UIQM combines its colorfulness/sharpness/contrast sub-scores with the
published weights, UCIQE uses the 0.4680/0.2745/0.2576 coefficients, and CPBD
uses beta=3.6 with contrast-dependent just-noticeable-blur widths. All images
are float rasters in [0, 1]; PSNR's peak value is fixed at 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, ShapeMismatchError
from .images import RgbImage, luminance_bt601, srgb_to_lab

# SSIM
_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03

# UIQM combination weights and UICM coefficients
_UIQM_C1 = 0.0282
_UIQM_C2 = 0.2953
_UIQM_C3 = 3.5753
_UICM_W_MU = -0.0268
_UICM_W_SIGMA = 0.1586
_UISM_LUMA = (0.299, 0.587, 0.114)
_EME_BLOCK = 8
_LOGAMEE_BLOCK = 8
_PLIP_GAMMA = 1026.0

# UCIQE coefficients
_UCIQE_C1 = 0.4680
_UCIQE_C2 = 0.2745
_UCIQE_C3 = 0.2576

# CPBD
_CPBD_BLOCK = 64
_CPBD_EDGE_RATIO = 0.002
_CPBD_BETA = 3.6
_CPBD_PBLUR_THRESHOLD = 0.63
_CPBD_CONTRAST_SPLIT = 50.0  # on the [0, 255] luminance scale
_JNB_WIDTH_LOW_CONTRAST = 5.0
_JNB_WIDTH_HIGH_CONTRAST = 3.0


ALL_METRICS = ("psnr", "ssim", "uiqm", "uciqe", "cpbd")

# shortest image side each size-limited metric needs; PSNR and UCIQE have none
MIN_SIDE = {"ssim": _SSIM_WINDOW, "uiqm": 16, "cpbd": _CPBD_BLOCK}


@dataclass(frozen=True)
class MetricReport:
    """One image's scores; a field is None when its metric was not computed
    (no reference supplied, or the image is below the metric's MIN_SIDE)."""

    psnr: float | None
    ssim: float | None
    uiqm: float | None
    uciqe: float | None
    cpbd: float | None
    uicm: float | None
    uism: float | None
    uiconm: float | None


def _admits(metric: str, img: RgbImage) -> bool:
    return min(img.height, img.width) >= MIN_SIDE[metric]


def _require_min_side(metric: str, img: RgbImage) -> None:
    if not _admits(metric, img):
        side = MIN_SIDE[metric]
        raise ParameterError(f"{metric} needs images of at least {side}x{side}")


def _require_same_shape(a: RgbImage, b: RgbImage) -> None:
    if (a.height, a.width) != (b.height, b.width):
        raise ShapeMismatchError(
            f"image dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def psnr(a: RgbImage, b: RgbImage) -> float:
    """Peak signal-to-noise ratio in dB with peak 1.0; identical images give +inf."""
    _require_same_shape(a, b)
    mse = float(np.mean((a.data - b.data) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    k = np.exp(-(r**2) / (2.0 * sigma**2))
    return k / k.sum()


def _window_means(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable Gaussian-weighted means over all fully interior windows."""
    w = sliding_window_view(x, len(kernel), axis=1) @ kernel
    w = sliding_window_view(w, len(kernel), axis=0)
    return w @ kernel


def ssim(a: RgbImage, b: RgbImage) -> float:
    """Mean structural similarity on BT.601 luminance over valid window positions."""
    _require_same_shape(a, b)
    _require_min_side("ssim", a)
    x = luminance_bt601(a)
    y = luminance_bt601(b)
    k = _gaussian_kernel(_SSIM_WINDOW, _SSIM_SIGMA)
    mu_x = _window_means(x, k)
    mu_y = _window_means(y, k)
    var_x = _window_means(x * x, k) - mu_x**2
    var_y = _window_means(y * y, k) - mu_y**2
    cov = _window_means(x * y, k) - mu_x * mu_y
    c1 = _SSIM_K1**2
    c2 = _SSIM_K2**2
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def sobel_gradients(channel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal/vertical Sobel derivatives with edge-replicating padding."""
    padded = np.pad(channel, 1, mode="symmetric")
    across = padded[:, 2:] - padded[:, :-2]  # right minus left neighbour
    down = padded[2:] - padded[:-2]  # lower minus upper neighbour
    gx = across[:-2] + 2.0 * across[1:-1] + across[2:]
    gy = down[:, :-2] + 2.0 * down[:, 1:-1] + down[:, 2:]
    gx /= 8.0
    gy /= 8.0
    return gx, gy


def _block_extrema(x: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of each block x block tile, ragged last tiles included.

    Full groups of `block` rows reduce through a reshape, which is much faster
    than reduceat over the whole image; reduceat then takes the columns of the
    small result. Max and min are exact, so either order gives the same bits.
    """
    full = x.shape[0] - x.shape[0] % block
    groups = x[:full].reshape(-1, block, x.shape[1])
    tail = x[full:]
    cols = np.arange(0, x.shape[1], block)

    def reduce(op):
        rows = op.reduce(groups, axis=1)
        if len(tail):
            rows = np.concatenate([rows, op.reduce(tail, axis=0, keepdims=True)])
        return op.reduceat(rows, cols, axis=1)

    return reduce(np.maximum), reduce(np.minimum)


def _eme(channel_255: np.ndarray, block: int = _EME_BLOCK) -> float:
    """Block log-contrast score; values are floored at 1.0 (8-bit quantization floor)."""
    bmax, bmin = _block_extrema(channel_255, block)
    ratios = np.maximum(bmax, 1.0) / np.maximum(bmin, 1.0)
    total = 0.0
    # math.log summed in block order gives the bits of a per-block loop; np.log
    # can differ from it in the last bit
    for ratio in ratios.ravel().tolist():
        total += math.log(ratio)
    return 2.0 / ratios.size * total


def _uicm(rgb: np.ndarray) -> float:
    red, green, blue = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    opponents = (red - green, (red + green) / 2.0 - blue)
    mus, sigmas = [], []
    for channel in opponents:
        flat = np.sort(channel, axis=None)
        n = flat.size
        t_left = math.ceil(0.1 * n)
        t_right = math.floor(0.1 * n)
        mu = float(flat[t_left : n - t_right].mean())
        mus.append(mu)
        sigmas.append(float(((channel - mu) ** 2).mean()))
    return _UICM_W_MU * math.hypot(*mus) + _UICM_W_SIGMA * math.sqrt(sum(sigmas))


def _uism(rgb: np.ndarray) -> float:
    score = 0.0
    for c, weight in enumerate(_UISM_LUMA):
        channel = rgb[..., c]
        gx, gy = sobel_gradients(channel)
        edge_map = channel * np.hypot(gx, gy) * 255.0
        score += weight * _eme(edge_map)
    return score


def _uiconm(gray_255: np.ndarray, block: int = _LOGAMEE_BLOCK) -> float:
    """Entropy-style block contrast via PLIP-ratio Michelson terms (positive form).

    Per block, the PLIP difference g(max - min) / (g - min) is divided by the
    PLIP sum max + min - max min / g, with g = _PLIP_GAMMA.
    """
    bmax, bmin = _block_extrema(gray_255, block)
    denom = bmax + bmin - bmax * bmin / _PLIP_GAMMA
    keep = denom > 0.0
    m = _PLIP_GAMMA * (bmax[keep] - bmin[keep]) / (_PLIP_GAMMA - bmin[keep]) / denom[keep]
    total = 0.0
    for value in m[m > 0.0].tolist():  # math.log in block order, as in _eme
        total += value * math.log(value)
    return -total / bmax.size


def uiqm(img: RgbImage) -> tuple[float, float, float, float]:
    """Underwater image quality measure; returns (uiqm, uicm, uism, uiconm)."""
    _require_min_side("uiqm", img)
    rgb = np.clip(img.data, 0.0, 1.0)
    uicm = _uicm(rgb)
    uism = _uism(rgb)
    uiconm = _uiconm(luminance_bt601(img) * 255.0)
    return (
        _UIQM_C1 * uicm + _UIQM_C2 * uism + _UIQM_C3 * uiconm,
        uicm,
        uism,
        uiconm,
    )


def uciqe(img: RgbImage) -> float:
    """Chroma spread + normalized luminance contrast + mean saturation in CIELAB."""
    lab = srgb_to_lab(img).data
    lum = lab[..., 0]
    chroma = np.hypot(lab[..., 1], lab[..., 2])
    sigma_chroma = float(chroma.std())
    low, high = np.percentile(lum, (1, 99))
    contrast = float(high - low) / 100.0
    hyp = np.sqrt(chroma**2 + lum**2)
    saturation = np.divide(chroma, hyp, out=np.zeros_like(chroma), where=hyp > 0)
    return _UCIQE_C1 * sigma_chroma + _UCIQE_C2 * contrast + _UCIQE_C3 * float(saturation.mean())


# An angle in 45-degree units this close to a half-integer is rounded from math.atan2
_SECTOR_TOLERANCE = 1e-9
# (row, column) step per gradient direction k * 45 degrees, measured from +column towards +row
_TRACE_STEPS = np.array([(0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1)])


def _gradient_directions(gy: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """Each gradient's direction index, round(degrees(atan2(gy, gx)) % 360 / 45) % 8.

    np.arctan2 may differ from math.atan2 in the last bit, which moves a
    gradient that lies on a sector boundary (a half-integer multiple of 45
    degrees); the angles within _SECTOR_TOLERANCE of one are recomputed with
    math.atan2.
    """
    scaled = np.degrees(np.arctan2(gy, gx)) % 360.0 / 45.0
    directions = np.rint(scaled).astype(np.intp) % 8
    near = np.flatnonzero(np.abs(scaled % 1.0 - 0.5) < _SECTOR_TOLERANCE)
    directions[near] = [
        round(math.degrees(math.atan2(y, x)) % 360.0 / 45.0) % 8 for y, x in zip(gy[near].tolist(), gx[near].tolist())
    ]
    return directions


def _edge_widths(
    lum: np.ndarray, rows: np.ndarray, cols: np.ndarray, gx: np.ndarray, gy: np.ndarray
) -> np.ndarray:
    """Edge widths at the pixels (rows, cols) along the quantized gradient, Marziliano-style.

    Each gradient vector is quantized to one of 8 directions. One walk goes
    uphill along it and one downhill against it, each to the nearest local
    extremum; the width counts the steps of both. All pixels walk together,
    one step per pass. A pixel whose walk leaves the image gets NaN.
    """
    dr, dc = _TRACE_STEPS[_gradient_directions(gy[rows, cols], gx[rows, cols])].T
    height, width = lum.shape
    widths = np.zeros(len(rows))
    for sign in (1, -1):
        walking = np.flatnonzero(~np.isnan(widths))
        r, c = rows[walking], cols[walking]
        value = lum[r, c]
        while walking.size:
            r, c = r + sign * dr[walking], c + sign * dc[walking]
            inside = (0 <= r) & (r < height) & (0 <= c) & (c < width)
            widths[walking[~inside]] = np.nan
            walking, r, c, value = walking[inside], r[inside], c[inside], value[inside]
            nxt = lum[r, c]
            on = nxt > value if sign > 0 else nxt < value
            walking, r, c, value = walking[on], r[on], c[on], nxt[on]
            widths[walking] += 1.0
    return widths


def cpbd(img: RgbImage) -> float:
    """Cumulative probability of blur detection on BT.601 luminance.

    64x64 blocks with an edge-pixel ratio above 0.2% contribute each of their
    measurable edge widths; a width w in a block of contrast C maps to the blur
    probability 1 - exp(-(w / w_jnb(C))**3.6) and the score is the fraction of
    probabilities at or below 0.63. Images without edge blocks score 0.
    """
    _require_min_side("cpbd", img)
    lum = luminance_bt601(img) * 255.0
    gx, gy = sobel_gradients(lum)
    mag2 = gx**2 + gy**2
    mean_mag2 = float(mag2.mean())
    if mean_mag2 == 0.0:
        return 0.0
    # full blocks only; a trailing remainder thinner than one block is ignored
    height = img.height - img.height % _CPBD_BLOCK
    width = img.width - img.width % _CPBD_BLOCK
    edges = mag2[:height, :width] > 4.0 * mean_mag2
    edge_blocks = edges.reshape(height // _CPBD_BLOCK, _CPBD_BLOCK, width // _CPBD_BLOCK, _CPBD_BLOCK)
    scored = edge_blocks.sum(axis=(1, 3)) / _CPBD_BLOCK**2 > _CPBD_EDGE_RATIO
    block_max, block_min = _block_extrema(lum[:height, :width], _CPBD_BLOCK)
    w_jnb = np.where(
        block_max - block_min <= _CPBD_CONTRAST_SPLIT, _JNB_WIDTH_LOW_CONTRAST, _JNB_WIDTH_HIGH_CONTRAST
    )
    rows, cols = np.nonzero((edge_blocks & scored[:, None, :, None]).reshape(height, width))
    widths = _edge_widths(lum, rows, cols, gx, gy)
    measured = ~np.isnan(widths)
    if not measured.any():
        return 0.0
    w_jnb = w_jnb[rows // _CPBD_BLOCK, cols // _CPBD_BLOCK][measured]
    # widths are whole numbers, so every probability is below 0.37 or above
    # 0.632: no rounding of np.exp against math.exp can move one across 0.63
    probs = 1.0 - np.exp(-((widths[measured] / w_jnb) ** _CPBD_BETA))
    return float(np.mean(probs <= _CPBD_PBLUR_THRESHOLD))


def evaluate(img: RgbImage, reference: RgbImage | None = None) -> MetricReport:
    """Assemble the metric report for one image.

    Scores every metric the image's size admits (see MIN_SIDE); PSNR and SSIM
    also need `reference`.
    """
    q = uicm = uism = uiconm = None
    if _admits("uiqm", img):
        q, uicm, uism, uiconm = uiqm(img)
    with_reference = reference is not None
    return MetricReport(
        psnr=psnr(img, reference) if with_reference else None,
        ssim=ssim(img, reference) if with_reference and _admits("ssim", img) else None,
        uiqm=q,
        uciqe=uciqe(img),
        cpbd=cpbd(img) if _admits("cpbd", img) else None,
        uicm=uicm,
        uism=uism,
        uiconm=uiconm,
    )
