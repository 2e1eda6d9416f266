"""A trainable noise predictor for desk-scale experiments.

ConditionalDenoiser is a two-layer convolutional model over the concatenation
of the noisy state, the conditioning image, and two timestep channels. It is
parameterized to predict the clean signal and converts that prediction to
noise analytically, which keeps toy-scale training well conditioned. Its
weights follow one (name, shape) table, layer_shapes(width): a new model draws
them from its seed, and a checkpoint load hands in the checked tensors and
draws nothing.

A model's weights are float64, and training and every gradient use them.
Calling a model, the graph-free path that sampling takes, runs in its weights'
dtype; `enhance` samples with a float32 copy made once by `astype`
(mixed-precision practice: Micikevicius et al. 2018, "Mixed precision
training").
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .diffusion import NoiseSchedule, stream_rng
from .errors import ParameterError


def layer_shapes(width: int) -> dict[str, tuple[int, ...]]:
    """Every weight's (name, shape) at this width, in checkpoint order."""
    if width < 1:
        raise ParameterError(f"width must be >= 1, got {width}")
    return {
        "denoiser.w1": (width, 8, 3, 3),  # x_t (3) + condition (3) + timestep features (2)
        "denoiser.b1": (width,),
        "denoiser.w2": (3, width, 3, 3),
        "denoiser.b2": (3,),
    }


class ConditionalDenoiser:
    """eps_hat(x_t, y, t) for (N, 3, H, W) batches, each image conditioned on its degraded image."""

    def __init__(self, width: int = 16, seed: int = 0, tensors: dict[str, Tensor] | None = None):
        # drawn from seed, or a checkpoint's tensors as given; plain leaves: sampling
        # records no graph, fine_tune marks them trainable
        self.tensors = ad.init_layers(stream_rng(seed, 77), layer_shapes(width)) if tensors is None else tensors

    def parameters(self) -> list[Tensor]:
        return list(self.tensors.values())

    def astype(self, dtype) -> ConditionalDenoiser:
        """A new model whose weights are dtype (float32 or float64) copies of these; it shares no array."""
        return ConditionalDenoiser(tensors={name: Tensor(t.data.astype(dtype)) for name, t in self.tensors.items()})

    def clean_graph(self, x_t: Tensor, condition: np.ndarray, t: int, sched: NoiseSchedule) -> Tensor:
        """Predicted clean signal x0_hat as an autodiff graph, in x_t's dtype."""
        n, _, height, width = x_t.data.shape
        dtype = x_t.data.dtype
        t_feat = np.empty((n, 2, height, width), dtype=dtype)
        t_feat[:, 0] = sched.time_at(t)
        t_feat[:, 1] = sched.alpha_bar_at(t)
        stacked = ad.concat([x_t, Tensor(np.asarray(condition, dtype=dtype)), Tensor(t_feat)], axis=1)
        p = self.tensors
        hidden = ad.conv2d(stacked, p["denoiser.w1"], p["denoiser.b1"], stride=1, padding=1)
        if hidden.requires_grad:
            hidden = ad.tanh(hidden)
        else:  # graph-free: no backward reads the pre-activation, so overwrite it
            np.tanh(hidden.data, out=hidden.data)
        return ad.conv2d(hidden, p["denoiser.w2"], p["denoiser.b2"], stride=1, padding=1)

    def noise_graph(self, x_t: Tensor, condition: np.ndarray, t: int, sched: NoiseSchedule) -> Tensor:
        """eps_hat = (x_t - sqrt(alpha_bar) x0_hat) / sqrt(1 - alpha_bar), in x_t's dtype."""
        ab = sched.alpha_bar_at(t)
        scalar = x_t.data.dtype.type
        x0_hat = self.clean_graph(x_t, condition, t, sched)
        return (x_t - x0_hat * scalar(math.sqrt(ab))) * scalar(1.0 / math.sqrt(1.0 - ab))

    def __call__(self, x_t: np.ndarray, condition: np.ndarray, t: int, sched: NoiseSchedule) -> np.ndarray:
        """eps_hat in the weights' dtype, of x_t cast to it; records no graph."""
        dtype = self.tensors["denoiser.w1"].data.dtype
        return self.noise_graph(Tensor(np.asarray(x_t, dtype=dtype)), condition, t, sched).data
