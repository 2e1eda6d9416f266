"""Image containers, sRGB <-> CIELAB conversion, and per-channel statistics.

All pixel data is float64 end to end. sRGB samples are nominally in [0, 1]
(out-of-range values are tolerated as transient state and clamped only on
serialization); CIELAB uses the D65 white point with the 2-degree observer.

The sRGB <-> CIELAB conversions run over bands of whole rows, up to
_BAND_PIXELS pixels (one row when a row is wider), each written into one
preallocated output. A conversion's working set is its input, its output
and one band of temporaries, whatever the image size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyImageError, ParameterError, ShapeMismatchError

# sRGB primaries -> XYZ, D65 white point (Bruce Lindbloom's matrices).
_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_XYZ_TO_RGB = np.linalg.inv(_RGB_TO_XYZ)
_D65_WHITE = np.array([0.95047, 1.00000, 1.08883])

# CIE f(t) breakpoints: (6/29)^3 and the linear-segment slope constant.
_LAB_EPS = 216.0 / 24389.0
_LAB_KAPPA = 24389.0 / 27.0

# Most pixels an sRGB <-> Lab conversion transforms at once
_BAND_PIXELS = 8192


def _as_pixels(data, width: int, height: int) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.shape != (height, width, 3):
        raise ShapeMismatchError(
            f"expected data of shape {(height, width, 3)}, got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ParameterError("image samples must be finite")
    return arr


@dataclass(frozen=True)
class _Raster:
    """H x W x 3 float64 raster; the subclasses say which color space it holds."""

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise EmptyImageError(f"image size {self.width}x{self.height}")
        object.__setattr__(self, "data", _as_pixels(self.data, self.width, self.height))

    @classmethod
    def from_array(cls, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise EmptyImageError(f"expected a nonempty HxWx3 array, got shape {arr.shape}")
        return cls(width=arr.shape[1], height=arr.shape[0], data=arr)


class RgbImage(_Raster):
    """H x W x 3 sRGB raster, float64, nominal range [0, 1]."""


class LabImage(_Raster):
    """H x W x 3 CIELAB raster (L*, a*, b*), float64."""


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and population standard deviation of a LabImage."""

    mean: np.ndarray  # shape (3,), order (L*, a*, b*)
    std: np.ndarray  # shape (3,), population convention, >= 0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(3)
        std = np.asarray(self.std, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise ParameterError("channel statistics must be finite")
        if np.any(std < 0):
            raise ParameterError("standard deviations must be >= 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def srgb_decode(samples: np.ndarray) -> np.ndarray:
    """sRGB electro-optical transfer: encoded [0,1] -> linear light."""
    s = np.asarray(samples, dtype=np.float64)
    return np.where(s <= 0.04045, s / 12.92, ((s + 0.055) / 1.055) ** 2.4)


def srgb_encode(linear: np.ndarray) -> np.ndarray:
    """Inverse of srgb_decode on [0,1]."""
    v = np.asarray(linear, dtype=np.float64)
    v = np.clip(v, 0.0, None)
    return np.where(v <= 0.0031308, 12.92 * v, 1.055 * v ** (1.0 / 2.4) - 0.055)


def _lab_f(t: np.ndarray) -> np.ndarray:
    return np.where(t > _LAB_EPS, np.cbrt(t), (_LAB_KAPPA * t + 16.0) / 116.0)


def _lab_f_inv(f: np.ndarray) -> np.ndarray:
    f3 = f**3
    return np.where(f3 > _LAB_EPS, f3, (116.0 * f - 16.0) / _LAB_KAPPA)


def _in_row_bands(convert, data: np.ndarray) -> np.ndarray:
    """Apply the pixelwise `convert` to bands of whole rows of `data`.

    Every step of a conversion is elementwise except the 3x3 color matrix
    product, and numpy runs (H, W, 3) @ (3, 3) as one (W, 3) @ (3, 3) product
    per row, so splitting at row boundaries leaves every output's bits as
    one whole-image call gives them.
    """
    out = np.empty_like(data)
    rows = max(1, _BAND_PIXELS // data.shape[1])
    for top in range(0, data.shape[0], rows):
        out[top : top + rows] = convert(data[top : top + rows])
    return out


def _srgb_rows_to_lab(rgb: np.ndarray) -> np.ndarray:
    xyz = srgb_decode(np.clip(rgb, 0.0, 1.0)) @ _RGB_TO_XYZ.T
    f = _lab_f(xyz / _D65_WHITE)
    lightness = 116.0 * f[..., 1] - 16.0
    a = 500.0 * (f[..., 0] - f[..., 1])
    b = 200.0 * (f[..., 1] - f[..., 2])
    return np.stack([lightness, a, b], axis=-1)


def _lab_rows_to_srgb(lab: np.ndarray) -> np.ndarray:
    fy = (lab[..., 0] + 16.0) / 116.0
    fx = fy + lab[..., 1] / 500.0
    fz = fy - lab[..., 2] / 200.0
    xyz = np.stack([_lab_f_inv(fx), _lab_f_inv(fy), _lab_f_inv(fz)], axis=-1) * _D65_WHITE
    return np.clip(srgb_encode(xyz @ _XYZ_TO_RGB.T), 0.0, 1.0)


def srgb_to_lab(img: RgbImage) -> LabImage:
    """Convert sRGB to CIELAB (D65/2deg). Samples are clamped to [0,1] first."""
    return LabImage(img.width, img.height, _in_row_bands(_srgb_rows_to_lab, img.data))


def lab_to_srgb(img: LabImage) -> RgbImage:
    """Convert CIELAB back to sRGB; outputs are clamped to [0,1]."""
    return RgbImage(img.width, img.height, _in_row_bands(_lab_rows_to_srgb, img.data))


def channel_stats(img: LabImage) -> ChannelStats:
    """Arithmetic mean and population std per Lab channel."""
    flat = img.data.reshape(-1, 3)
    mean = flat.mean(axis=0)
    std = np.sqrt(np.maximum(((flat - mean) ** 2).mean(axis=0), 0.0))
    return ChannelStats(mean=mean, std=std)


def luminance_bt601(img: RgbImage) -> np.ndarray:
    """BT.601 luma of an sRGB image, shape (H, W)."""
    d = img.data
    return 0.299 * d[..., 0] + 0.587 * d[..., 1] + 0.114 * d[..., 2]
