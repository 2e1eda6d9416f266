"""Joint-embedding image/prompt classifier with spatial attention.

A small strided convolutional encoder produces a feature map; a learned
1x1-convolution attention mask reweights it spatially; attention pooling plus
a linear projection yields an L2-normalized image embedding. On the text
side, two learnable prompt tensors are mapped through a frozen linear token
mixer into the same space. Class probabilities are the two-way softmax over
exp(cosine) scores, and the underwater-side probability doubles as the
alignment score whose pixel gradient drives diffusion guidance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .diffusion import stream_rng
from .errors import ParameterError, ShapeMismatchError, TrainingDivergedError
from .images import RgbImage

_NORM_GUARD = 1e-12
_PROB_EPS = 1e-7
_MIN_INPUT = 8
_TREND_WINDOW = 25  # epochs averaged at each end of the loss curve for the trend check
_PROMPT_LEARNING_RATE = 0.01  # Adam step size for the two prompt tensors
_HOLDOUT_FRACTION = 0.2  # share of the dataset held out to score the trained prompts
_DIVERGENCE_FACTOR = 10.0  # an epoch loss above this multiple of the first aborts training


@dataclass(frozen=True)
class PromptTensor:
    """Learnable token matrix standing in for tokenized text."""

    tokens: np.ndarray  # (token_count, token_width)

    def __post_init__(self):
        arr = np.asarray(self.tokens, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError(f"prompt tokens must be a 2-D matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("prompt tokens must be finite")
        object.__setattr__(self, "tokens", arr)


@dataclass(frozen=True)
class JointNetConfig:
    """Desk-scale dimensions; width is the final conv channel count."""

    width: int = 64
    embed_dim: int = 16
    token_count: int = 77
    token_width: int = 16
    text_hidden: int = 32

    def __post_init__(self):
        for name, size in vars(self).items():
            if size < 1:
                raise ParameterError(f"{name} must be >= 1, got {size}")


@dataclass
class JointNetParams:
    """Frozen encoder/text parameters by checkpoint name; only prompt tensors are ever trained."""

    config: JointNetConfig
    tensors: dict[str, Tensor]


def init_params(config: JointNetConfig, seed: int) -> JointNetParams:
    """Deterministic random initialization of every layer from one (name, shape) table."""
    c1, c2, c3 = max(config.width // 4, 1), max(config.width // 2, 1), config.width
    shapes = {
        "conv1.weight": (c1, 3, 3, 3),
        "conv1.bias": (c1,),
        "conv2.weight": (c2, c1, 3, 3),
        "conv2.bias": (c2,),
        "conv3.weight": (c3, c2, 3, 3),
        "conv3.bias": (c3,),
        "attn.weight": (1, c3, 1, 1),
        "attn.bias": (1,),
        "proj.weight": (config.embed_dim, c3),
        "proj.bias": (config.embed_dim,),
        "token.weight": (config.text_hidden, config.token_width),
        "token.bias": (config.text_hidden,),
        "text.weight": (config.embed_dim, config.text_hidden),
        "text.bias": (config.embed_dim,),
    }
    return JointNetParams(config, ad.init_layers(stream_rng(seed, 74), shapes))


def init_prompts(config: JointNetConfig, seed: int) -> tuple[PromptTensor, PromptTensor]:
    """Prompt pair initialized with small uniform noise from the run seed."""
    rng = stream_rng(seed, 75)
    shape = (config.token_count, config.token_width)
    return (
        PromptTensor(rng.uniform(-0.01, 0.01, shape)),
        PromptTensor(rng.uniform(-0.01, 0.01, shape)),
    )


# ---------------------------------------------------------------------------
# Graph builders (autodiff); the entry points below return plain unit vectors
# ---------------------------------------------------------------------------


def normalize_graph(vec: Tensor) -> Tensor:
    """L2 normalization; near-zero vectors map to the first basis vector."""
    norm_sq = ad.tsum(vec * vec)
    if float(np.sqrt(norm_sq.data)) < _NORM_GUARD:
        basis = np.zeros(vec.data.shape)
        basis[0] = 1.0
        return Tensor(basis)
    return vec * ad.power(norm_sq, -0.5)


def encode_graph(x: Tensor, params: JointNetParams) -> Tensor:
    h, p = x, params.tensors
    for i in (1, 2, 3):
        h = ad.tanh(ad.conv2d(h, p[f"conv{i}.weight"], p[f"conv{i}.bias"], stride=2, padding=1))
    return h


def attention_graph(features: Tensor, params: JointNetParams) -> Tensor:
    return ad.sigmoid(ad.conv2d(features, params.tensors["attn.weight"], params.tensors["attn.bias"]))


def pool_graph(attended: Tensor, params: JointNetParams) -> Tensor:
    pooled = ad.tmean(attended, axis=(1, 2))
    projected = ad.matmul(params.tensors["proj.weight"], pooled) + params.tensors["proj.bias"]
    return normalize_graph(projected)


def embed_image_graph(x: Tensor, params: JointNetParams) -> Tensor:
    """Full encoder -> attention -> pooling chain to a normalized embedding."""
    features = encode_graph(x, params)
    mask = attention_graph(features, params)
    return pool_graph(features * mask, params)


def prompt_graph(tokens: Tensor, params: JointNetParams) -> Tensor:
    """Token-wise linear map, mean over positions, projection, normalization."""
    p = params.tensors
    mixed = ad.tanh(ad.matmul(tokens, Tensor(p["token.weight"].data.T)) + p["token.bias"])
    pooled = ad.tmean(mixed, axis=0)
    projected = ad.matmul(p["text.weight"], pooled) + p["text.bias"]
    return normalize_graph(projected)


def _chw(img: RgbImage) -> np.ndarray:
    return np.ascontiguousarray(img.data.transpose(2, 0, 1))


def _require_min_size(height: int, width: int) -> None:
    if min(height, width) < _MIN_INPUT:
        raise ParameterError(f"encoder input must be at least {_MIN_INPUT}x{_MIN_INPUT}")


# ---------------------------------------------------------------------------
# Validated entry points: inputs from outside the program, unit vectors out
# ---------------------------------------------------------------------------


def encode_prompt(prompt: PromptTensor, params: JointNetParams) -> np.ndarray:
    """Unit text embedding of a prompt whose token width must match the classifier."""
    if prompt.tokens.shape[1] != params.config.token_width:
        raise ShapeMismatchError(
            f"prompt width {prompt.tokens.shape[1]} != configured {params.config.token_width}"
        )
    return prompt_graph(Tensor(prompt.tokens), params).data


def embed_image(img: RgbImage, params: JointNetParams) -> np.ndarray:
    """Unit image embedding; the strided encoder needs at least 8x8 pixels."""
    _require_min_size(img.height, img.width)
    return embed_image_graph(Tensor(_chw(img)), params).data


# ---------------------------------------------------------------------------
# Classifier scores and the prompt loss
# ---------------------------------------------------------------------------


def prompt_logits(phis: Tensor, theta_n: Tensor, theta_u: Tensor) -> Tensor:
    """Natural-vs-underwater logit per embedding row: cos(phi, theta_n) - cos(phi, theta_u).

    Its sigmoid is P_natural, the two-way softmax over exp(cosine) scores.
    """
    return ad.matmul(phis, theta_n) - ad.matmul(phis, theta_u)


def prompt_bce_graph(p_natural: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy against label 1 = in-air natural, 0 = underwater.

    Probabilities are clamped to [1e-7, 1 - 1e-7] so the loss stays finite.
    """
    p_n = ad.clip(p_natural, _PROB_EPS, 1.0 - _PROB_EPS)
    q = np.asarray(labels, dtype=np.float64)
    return -ad.tmean(Tensor(q) * ad.log(p_n) + Tensor(1.0 - q) * ad.log(1.0 - p_n))


def alignment_graph(x: Tensor, params: JointNetParams, theta_n: np.ndarray, theta_u: np.ndarray) -> Tensor:
    """Alignment scalar as a graph over pixels, for input-gradient guidance."""
    emb = embed_image_graph(x, params)
    logit = ad.dot(emb, Tensor(theta_u)) - ad.dot(emb, Tensor(theta_n))
    return ad.sigmoid(logit)


def alignment_pixel_grad(
    image_chw: np.ndarray, params: JointNetParams, theta_n: np.ndarray, theta_u: np.ndarray
) -> np.ndarray:
    """Gradient of the alignment scalar with respect to the input pixels."""
    x = Tensor(np.asarray(image_chw, dtype=np.float64), requires_grad=True)
    alignment_graph(x, params, theta_n, theta_u).backward()
    return x.grad if x.grad is not None else np.zeros_like(x.data)


# ---------------------------------------------------------------------------
# Prompt training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromptTrainConfig:
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class PromptTrainResult:
    prompt_natural: PromptTensor
    prompt_underwater: PromptTensor
    losses: list[float]
    holdout_accuracy: float
    trend_monotone: bool
    train_count: int
    holdout_count: int


def train_prompts(
    dataset, params: JointNetParams, config: PromptTrainConfig
) -> PromptTrainResult:
    """Optimize the two prompt tensors by BCE over frozen image embeddings.

    dataset is a sequence of (RgbImage, label) with label 1 for in-air natural
    and 0 for underwater. Image embeddings are computed once (the encoder is
    frozen); each epoch runs one full-batch update of both prompt tensors.
    """
    labels = np.array([int(lbl) for _, lbl in dataset])
    if labels.size < 2 or len(set(labels.tolist())) < 2:
        raise ParameterError("prompt training needs samples from both classes")
    rng = stream_rng(config.seed, 76)
    order = rng.permutation(labels.size)
    n_holdout = max(1, int(round(_HOLDOUT_FRACTION * labels.size)))
    holdout_idx, train_idx = order[:n_holdout], order[n_holdout:]
    train_classes = set(labels[train_idx].tolist())
    if len(train_classes) < 2:
        missing = "underwater (label 0)" if 1 in train_classes else "natural (label 1)"
        raise ParameterError(f"training split has no {missing} images once {n_holdout} are held out")

    phis = np.stack([embed_image(img, params) for img, _ in dataset])
    train_phi = Tensor(phis[train_idx])
    train_q = labels[train_idx].astype(np.float64)

    init_n, init_u = init_prompts(params.config, config.seed)
    t_n = Tensor(init_n.tokens.copy(), requires_grad=True)
    t_u = Tensor(init_u.tokens.copy(), requires_grad=True)
    adam = ad.Adam([t_n, t_u])

    losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        logits = prompt_logits(train_phi, prompt_graph(t_n, params), prompt_graph(t_u, params))
        loss = prompt_bce_graph(ad.sigmoid(logits), train_q)
        value = loss.item()
        if not np.isfinite(value) or (losses and value > _DIVERGENCE_FACTOR * losses[0]):
            raise TrainingDivergedError(f"prompt training diverged at epoch {epoch}: loss {value}")
        losses.append(value)
        loss.backward()
        adam.step(_PROMPT_LEARNING_RATE)

    prompt_n = PromptTensor(t_n.data)
    prompt_u = PromptTensor(t_u.data)
    theta_n, theta_u = (Tensor(encode_prompt(p, params)) for p in (prompt_n, prompt_u))
    p_natural = ad.sigmoid(prompt_logits(Tensor(phis[holdout_idx]), theta_n, theta_u)).data
    correct = int(np.sum((p_natural >= 0.5) == labels[holdout_idx].astype(bool)))
    accuracy = correct / len(holdout_idx)

    window = min(_TREND_WINDOW, max(len(losses) // 2, 1))
    head = float(np.mean(losses[:window]))
    tail = float(np.mean(losses[-window:]))
    return PromptTrainResult(
        prompt_natural=prompt_n,
        prompt_underwater=prompt_u,
        losses=losses,
        holdout_accuracy=accuracy,
        trend_monotone=tail <= head + 1e-12,
        train_count=len(train_idx),
        holdout_count=len(holdout_idx),
    )
