"""Composite training loss, the fine-tuning loop, augmentation, and gradient checks.

The composite loss blends an L1 noise-reconstruction term with a semantic
term, the cosine distance between the joint-space embeddings of the
generated reconstruction and of the reference image. Fine-tuning draws
(timestep, noise, sample) from one counter-based stream, folds optional
classifier guidance into the predicted noise, and updates parameters with
Adam under a linear learning-rate decay, so a (dataset, config, seed) tuple
fully determines the resulting checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tensor
from .diffusion import GuidanceConfig, NoiseSchedule, forward_sample, stream_rng
from .errors import ParameterError, ShapeMismatchError, TrainingDivergedError
from .jointnet import JointNetParams, alignment_pixel_grad, embed_image_graph


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 0.6
    lambda2: float = 0.4

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ParameterError(f"loss weights must be >= 0, got ({self.lambda1}, {self.lambda2})")
        if self.lambda1 == 0 and self.lambda2 == 0:
            raise ParameterError("at least one loss weight must be positive")


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-3
    total_steps: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ParameterError("learning rate must be >= 0")
        if self.total_steps < 1:
            raise ParameterError("total_steps must be >= 1")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


def applied_lr(base: float, step: int, total_steps: int) -> float:
    """Linearly decayed learning rate used at update `step` (1-based)."""
    return base * (1.0 - (step - 1) / total_steps)


def composite_loss(
    eps: np.ndarray,
    eps_prime: Tensor,
    emb_gen: Tensor | None,
    emb_target: np.ndarray | None,
    weights: LossWeights,
) -> tuple[Tensor, Tensor, Tensor]:
    """(total, l1_term, semantic_term) graphs, total = lambda1*l1 + lambda2*semantic.

    l1 is the mean absolute noise error and semantic the cosine distance
    1 - <emb_gen, emb_target> between unit embeddings. With lambda2 = 0 the
    embeddings are not needed (pass None) and the semantic term is 0.
    """
    if np.shape(eps) != eps_prime.shape:
        raise ShapeMismatchError(f"noise shapes differ: {np.shape(eps)} vs {eps_prime.shape}")
    l1 = ad.tmean(ad.absolute(Tensor(eps) - eps_prime))
    if weights.lambda2 > 0:
        semantic = 1.0 - ad.dot(emb_gen, Tensor(emb_target))
    else:
        semantic = Tensor(np.array(0.0))
    total = weights.lambda1 * l1 + weights.lambda2 * semantic
    return total, l1, semantic


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


_AUGMENT_PROBABILITY = 0.5  # chance of the flip, and separately of a rotation


def _draw_transform(rng: np.random.Generator) -> tuple[bool, int]:
    """Independent coin flips; rotation count is uniform over {1, 2, 3} quarter turns."""
    flip = bool(rng.random() < _AUGMENT_PROBABILITY)
    quarters = 0
    if rng.random() < _AUGMENT_PROBABILITY:
        quarters = int(rng.integers(1, 4))
    return flip, quarters


def _apply_transform(data: np.ndarray, flip: bool, quarters: int) -> np.ndarray:
    out = data
    if flip:
        out = out[:, ::-1]
    if quarters:
        out = np.rot90(out, quarters, axes=(0, 1))
    return np.ascontiguousarray(out)


def _augmented_batch(chw: np.ndarray, flip: bool, quarters: int) -> np.ndarray:
    """A (3, H, W) image flipped and rotated, as a (1, 3, H', W') batch of one."""
    return _apply_transform(chw.transpose(1, 2, 0), flip, quarters).transpose(2, 0, 1)[None]


# ---------------------------------------------------------------------------
# Fine-tuning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointContext:
    """Frozen classifier pieces used for the semantic term and, when
    guidance.gamma2 > 0, for classifier guidance (off by default)."""

    params: JointNetParams
    theta_natural: np.ndarray
    theta_underwater: np.ndarray
    guidance: GuidanceConfig = GuidanceConfig()


@dataclass(frozen=True)
class LogRecord:
    step: int
    t: int
    l1_term: float
    semantic_term: float
    total: float
    lr: float

    def line(self) -> str:
        return (
            f"{self.step}\t{self.t}\t{self.l1_term:.12e}\t{self.semantic_term:.12e}"
            f"\t{self.total:.12e}\t{self.lr:.12e}"
        )


@dataclass
class FineTuneResult:
    log: list[LogRecord] = field(default_factory=list)

    def log_text(self) -> str:
        header = "step\tt\tl1\tsemantic\ttotal\tlr"
        return "\n".join([header] + [r.line() for r in self.log]) + "\n"


def _to_image_space(model_space: np.ndarray) -> np.ndarray:
    return (model_space + 1.0) * 0.5


def guidance_pixel_grad(x_t: np.ndarray, context: JointContext) -> np.ndarray:
    """Alignment gradient with respect to the model-space state x_t.

    The classifier consumes images in [0, 1]; x_t lives in the [-1, 1] model
    space, so the chain rule contributes the 0.5 rescaling factor.
    """
    grad = alignment_pixel_grad(
        _to_image_space(x_t),
        context.params,
        context.theta_natural,
        context.theta_underwater,
    )
    return 0.5 * grad


def check_t_range(t_range: tuple[int, int], steps: int) -> tuple[int, int]:
    """t_range, the (lowest, highest) timestep fine-tuning draws, once it lies within 1..steps."""
    if not (1 <= t_range[0] <= t_range[1] <= steps):
        raise ParameterError(f"t_range {t_range} outside 1..{steps}")
    return t_range


def fine_tune(
    model,
    pairs,
    sched: NoiseSchedule,
    weights: LossWeights,
    optimizer: OptimizerConfig,
    context: JointContext | None = None,
    t_range: tuple[int, int] | None = None,
) -> FineTuneResult:
    """Guided fine-tuning of a noise predictor on (clean, degraded) pairs.

    pairs is a sequence of (x0, condition) arrays in model space ([-1, 1] for
    images, any shape for scalar worlds). Each step samples one pair, a random
    flip/rotation of it when it is a (3, H, W) image (which the model then
    sees as a batch of one), a timestep, and a noise
    draw; a context whose guidance.gamma2 > 0 folds the classifier alignment
    gradient into the prediction before the loss. The frozen classifier's
    embedding of a reference depends only on (pair, flip, quarters), so each
    is computed once per call. The model's parameters require gradients only
    while this runs, so a model records graphs only as it trains.
    """
    if not pairs:
        raise ParameterError("fine_tune needs a nonempty dataset")
    if weights.lambda2 > 0 and context is None:
        raise ParameterError("semantic loss weight > 0 requires a JointContext")
    t_lo, t_hi = check_t_range(t_range or (1, sched.steps), sched.steps)

    guided = context is not None and context.guidance.gamma2 > 0
    rng = stream_rng(optimizer.seed, 78)
    params = model.parameters()
    adam = Adam(params)
    result = FineTuneResult()
    targets: dict[tuple[int, bool, int], np.ndarray] = {}
    for param in params:
        param.requires_grad = True
    try:
        for step in range(1, optimizer.total_steps + 1):
            index = int(rng.integers(0, len(pairs)))
            x0, condition = pairs[index]
            x0 = np.asarray(x0, dtype=np.float64)
            condition = None if condition is None else np.asarray(condition, dtype=np.float64)
            flip, quarters = False, 0
            if x0.ndim == 3:
                flip, quarters = _draw_transform(rng)
                x0 = _augmented_batch(x0, flip, quarters)
                if condition is not None:
                    condition = _augmented_batch(condition, flip, quarters)
            t = int(rng.integers(t_lo, t_hi + 1))
            eps = rng.standard_normal(x0.shape)
            x_t = forward_sample(x0, t, eps, sched)
            ab = sched.alpha_bar_at(t)
            root = math.sqrt(1.0 - ab)

            x_t_tensor = Tensor(x_t)
            eps_prime = model.noise_graph(x_t_tensor, condition, t, sched)
            if guided:
                eps_prime = eps_prime - Tensor(context.guidance.gamma2 * root * guidance_pixel_grad(x_t, context))
            emb_gen = emb_target = None
            if weights.lambda2 > 0:
                x0_hat = (x_t_tensor - root * eps_prime) * (1.0 / math.sqrt(ab))
                emb_gen = embed_image_graph((x0_hat + 1.0) * 0.5, context.params)
                key = (index, flip, quarters)
                if key not in targets:
                    targets[key] = embed_image_graph(Tensor(_to_image_space(x0)), context.params).data
                emb_target = targets[key]
            total, l1, semantic = composite_loss(eps, eps_prime, emb_gen, emb_target, weights)

            value = total.item()
            if not math.isfinite(value):
                raise TrainingDivergedError(f"non-finite loss at step {step}")
            total.backward()
            lr = applied_lr(optimizer.learning_rate, step, optimizer.total_steps)
            adam.step(lr)
            result.log.append(
                LogRecord(step, t, float(l1.item()), float(semantic.item()), value, lr)
            )
        return result
    finally:  # plain leaves again, so later sampling records no graph
        for param in params:
            param.requires_grad = False
            param.grad = None


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    tolerance: float
    max_rel_error: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and all(v < self.tolerance for v in self.max_rel_error.values())


def grad_check(
    fn,
    params: dict[str, Tensor],
    tolerance: float = 1e-4,
    step: float = 1e-5,
    samples_per_group: int = 20,
    seed: int = 0,
) -> GradCheckReport:
    """Compare reverse-mode gradients of the scalar fn() against central differences.

    Every checked tensor requires a gradient while fn() is differentiated, and
    gets its own flag back afterwards. Checks up to samples_per_group
    coordinates per parameter group (chosen by a seeded draw). Relative error
    uses a 1e-4 denominator floor, so tiny gradients are held to an absolute
    1e-8-scale agreement instead.
    """
    report = GradCheckReport(tolerance=tolerance)
    flags = [(tensor, tensor.requires_grad) for tensor in params.values()]
    for tensor, _ in flags:
        tensor.requires_grad = True
    try:
        fn().backward()
        analytic = {name: tensor.grad for name, tensor in params.items()}
    finally:
        for tensor, flag in flags:
            tensor.requires_grad = flag
            if not flag:
                tensor.grad = None
    grads: dict[str, np.ndarray] = {}
    for name, tensor in params.items():
        grad = analytic[name] if analytic[name] is not None else np.zeros_like(tensor.data)
        if not np.all(np.isfinite(grad)):
            report.failures.append(f"non-finite gradient in group {name!r}")
            continue
        grads[name] = grad.copy()

    rng = stream_rng(seed, 79)
    for name, tensor in params.items():
        if name not in grads:
            continue
        size = tensor.data.size
        count = min(samples_per_group, size)
        indices = rng.choice(size, size=count, replace=False)
        worst = 0.0
        flat = tensor.data.reshape(-1)
        for idx in indices:
            original = flat[idx]
            flat[idx] = original + step
            f_plus = fn().item()
            flat[idx] = original - step
            f_minus = fn().item()
            flat[idx] = original
            fd = (f_plus - f_minus) / (2.0 * step)
            analytic = grads[name].reshape(-1)[idx]
            rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-4)
            worst = max(worst, rel)
        report.max_rel_error[name] = worst
        if worst >= tolerance:
            report.failures.append(f"group {name!r} rel error {worst:.3e} >= {tolerance:.1e}")
    return report
