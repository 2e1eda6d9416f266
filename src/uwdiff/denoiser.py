"""A trainable noise predictor for desk-scale experiments.

ConditionalDenoiser is a two-layer convolutional model over the concatenation
of the noisy state, the conditioning image, and two timestep channels. It is
parameterized to predict the clean signal and converts that prediction to
noise analytically, which keeps toy-scale training well conditioned. Its
weights follow one (name, shape) table, layer_shapes(width): a new model draws
them from its seed, and a checkpoint load hands in the checked tensors and
draws nothing.

The weights are float64, and training and every gradient use them. Calling
the model, the graph-free path that sampling takes, runs in float32 on a
float32 copy of the weights (mixed-precision practice: Micikevicius et al.
2018, "Mixed precision training").
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
        self._single = ((), {})  # (the float64 arrays copied, their float32 copies by name)

    def parameters(self) -> list[Tensor]:
        return list(self.tensors.values())

    def _weights(self, dtype) -> dict[str, Tensor]:
        """The weights as tensors of dtype: the float64 tensors themselves, or
        float32 copies. The copies are remade whenever Adam, the only code
        that replaces a weight's array, has replaced one since they were made.
        They are kept with the arrays they copy, so no new array can reuse a
        copied one's identity. Threads that race to remake them each make the
        same bytes."""
        if dtype != np.float32:
            return self.tensors
        sources, copies = self._single
        current = tuple(tensor.data for tensor in self.tensors.values())
        if len(sources) != len(current) or any(a is not b for a, b in zip(sources, current)):
            copies = {name: Tensor(data.astype(np.float32)) for name, data in zip(self.tensors, current)}
            self._single = (current, copies)
        return copies

    def clean_graph(self, x_t: Tensor, condition: np.ndarray, t: int, sched: NoiseSchedule) -> Tensor:
        """Predicted clean signal x0_hat as an autodiff graph, in x_t's dtype."""
        n, _, height, width = x_t.data.shape
        dtype = x_t.data.dtype
        t_feat = np.empty((n, 2, height, width), dtype=dtype)
        t_feat[:, 0] = t / sched.steps
        t_feat[:, 1] = sched.alpha_bar_at(t)
        stacked = ad.concat([x_t, Tensor(np.asarray(condition, dtype=dtype)), Tensor(t_feat)], axis=1)
        p = self._weights(dtype)
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
        """The float32 eps_hat of float32 copies of x_t and the weights; records no graph."""
        return self.noise_graph(Tensor(np.asarray(x_t, dtype=np.float32)), condition, t, sched).data
