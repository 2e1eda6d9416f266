"""A trainable noise predictor for desk-scale experiments.

ConditionalDenoiser is a two-layer convolutional model over the concatenation
of the noisy state, the conditioning image, and two timestep channels. It is
parameterized to predict the clean signal and converts that prediction to
noise analytically, which keeps toy-scale training well conditioned.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .diffusion import NoiseSchedule, stream_rng
from .errors import ParameterError


def check_width(width: int) -> None:
    if width < 1:
        raise ParameterError(f"width must be >= 1, got {width}")


class ConditionalDenoiser:
    """eps_hat(x_t, y, t) for (3, H, W) images conditioned on a degraded image."""

    def __init__(self, width: int = 16, seed: int = 0):
        check_width(width)
        # plain leaves: sampling records no graph; fine_tune marks them trainable
        self.tensors = ad.init_layers(
            stream_rng(seed, 77),
            {
                "denoiser.w1": (width, 8, 3, 3),  # x_t (3) + condition (3) + timestep features (2)
                "denoiser.b1": (width,),
                "denoiser.w2": (3, width, 3, 3),
                "denoiser.b2": (3,),
            },
        )

    def parameters(self) -> list[Tensor]:
        return list(self.tensors.values())

    def clean_graph(self, x_t: Tensor, condition: np.ndarray, t: int, sched: NoiseSchedule) -> Tensor:
        """Predicted clean signal x0_hat as an autodiff graph."""
        _, height, width = x_t.data.shape
        t_feat = np.empty((2, height, width))
        t_feat[0] = t / sched.steps
        t_feat[1] = sched.alpha_bar_at(t)
        stacked = ad.concat([x_t, Tensor(np.asarray(condition, dtype=np.float64)), Tensor(t_feat)], axis=0)
        p = self.tensors
        hidden = ad.tanh(ad.conv2d(stacked, p["denoiser.w1"], p["denoiser.b1"], stride=1, padding=1))
        return ad.conv2d(hidden, p["denoiser.w2"], p["denoiser.b2"], stride=1, padding=1)

    def noise_graph(self, x_t: Tensor, condition: np.ndarray, t: int, sched: NoiseSchedule) -> Tensor:
        """eps_hat = (x_t - sqrt(alpha_bar) x0_hat) / sqrt(1 - alpha_bar)."""
        ab = sched.alpha_bar_at(t)
        x0_hat = self.clean_graph(x_t, condition, t, sched)
        return (x_t - math.sqrt(ab) * x0_hat) * (1.0 / math.sqrt(1.0 - ab))

    def __call__(self, x_t: np.ndarray, condition: np.ndarray, t: int, sched: NoiseSchedule) -> np.ndarray:
        return self.noise_graph(Tensor(np.asarray(x_t, dtype=np.float64)), condition, t, sched).data
