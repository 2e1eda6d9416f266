"""Noise schedules and their respacing, forward diffusion, guided noise prediction, and the ancestral reverse step.

The multi-condition guidance algebra lives here in two interchangeable
spaces: scores combine as base + gamma1*g1 + gamma2*g2 (a lambda blend is the
pair (lam, 1 - lam)), and the equivalent noise-space form subtracts
sqrt(1 - alpha_bar_t)-scaled gradients from the predicted noise. An analytic
Gaussian world provides closed-form scores, noise predictions, and
posteriors. The one sampling loop is `pipeline.reverse_chain`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeMismatchError


@dataclass(frozen=True)
class NoiseSchedule:
    """beta_t, alpha_t = 1 - beta_t, and alpha_bar_t = prod(alpha_s) for t = 1..steps.

    Step t is step timestep[t - 1] of the training schedule, whose length is
    timestep[-1]: t itself, unless respace() skipped steps.
    """

    steps: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    timestep: np.ndarray

    def _index(self, t: int) -> int:
        if not 1 <= t <= self.steps:
            raise ParameterError(f"step t={t} outside 1..{self.steps}")
        return t - 1

    def beta_at(self, t: int) -> float:
        return float(self.beta[self._index(t)])

    def alpha_at(self, t: int) -> float:
        return float(self.alpha[self._index(t)])

    def alpha_bar_at(self, t: int) -> float:
        return float(self.alpha_bar[self._index(t)])

    def timestep_at(self, t: int) -> int:
        return int(self.timestep[self._index(t)])

    def time_at(self, t: int) -> float:
        """Step t's training step over the training schedule's length: the denoiser's time feature."""
        return self.timestep_at(t) / int(self.timestep[-1])


def make_linear_schedule(steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linear beta ramp inclusive of both endpoints."""
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ParameterError(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")
    beta = np.linspace(beta_start, beta_end, steps, dtype=np.float64)
    alpha = 1.0 - beta
    return NoiseSchedule(steps, beta, alpha, alpha_bar=np.cumprod(alpha), timestep=np.arange(1, steps + 1))


# reverse steps that `enhance` and `verify` take on the schedule.steps-step training schedule
SAMPLER_STEPS = 100


def respace(sched: NoiseSchedule, k: int) -> NoiseSchedule:
    """sched sampled at k of its T = sched.steps steps; sched itself when k >= T.

    The kept steps are T, step 1 (when k >= 2), and the k - 2 between that give the least
    sum of variance gaps. The exact added variance of a reverse step from t down to s is
    beta~ + c^2 Var(x0 | x_t), c the x0 coefficient of its mean: beta~ for one-point data,
    beta (what reverse_step adds) for unit-variance data. So the gap beta - beta~ =
    alpha_bar_s beta^2 / (1 - alpha_bar_t) bounds the step's variance error for data of any
    variance up to 1. Dynamic programming finds the steps of least gap sum: long jumps where
    alpha_bar is near 0, single steps where the gap peaks. Step 1 is kept because the last
    reverse step adds no noise: from step 1 it drops beta_1, as the full chain does, where
    from a later step it would drop that step's whole beta'. A kept step at training step t, the one below at s, gets
    alpha_bar_t from sched, alpha' = alpha_bar_t / alpha_bar_s (alpha_bar_0 = 1) and
    beta' = 1 - alpha' (Nichol & Dhariwal 2021, "Improved denoising diffusion probabilistic
    models", section 4), and timestep t, so the denoiser sees step t's training features.
    Time and memory grow as k T and T^2.
    """
    if k < 1:
        raise ParameterError(f"sampler steps must be >= 1, got {k}")
    if k >= sched.steps:
        return sched
    kept = [sched.steps]
    if k >= 2:
        ab = np.concatenate(([1.0], sched.alpha_bar))  # alpha_bar_t for t = 0..T
        t, s = np.ogrid[: len(ab), : len(ab)]
        with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 has no step down to it
            gap = np.where(s < t, (ab[s] - ab[t]) ** 2 / (ab[s] * (1.0 - ab[t])), np.inf)  # step t -> s
        cost, below, total = gap[:, 1], [], np.empty_like(gap)  # cost[t]: least gap sum from t down to step 1
        for _ in range(k - 2):
            np.add(gap, cost, out=total)
            below.append(total.argmin(axis=1))
            cost = total[t[:, 0], below[-1]]
        for step in reversed(below):
            kept.append(int(step[kept[-1]]))
        kept.append(1)
    timestep = np.array(kept[::-1])
    alpha_bar = sched.alpha_bar[timestep - 1]
    alpha = alpha_bar / np.concatenate(([1.0], alpha_bar[:-1]))
    return NoiseSchedule(len(timestep), 1.0 - alpha, alpha, alpha_bar, timestep)


@dataclass(frozen=True)
class GuidanceConfig:
    """Weights gamma1 / gamma2 of the two condition gradients in guidance."""

    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ParameterError("gamma weights must be >= 0")


def _check_same_shape(*arrays: np.ndarray) -> None:
    first = arrays[0].shape
    for arr in arrays[1:]:
        if arr.shape != first:
            raise ShapeMismatchError(f"shape mismatch: {first} vs {arr.shape}")


def forward_sample(x0: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """x_t = sqrt(alpha_bar_t) x0 + sqrt(1 - alpha_bar_t) eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    _check_same_shape(x0, eps)
    ab = sched.alpha_bar_at(t)
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps


def score_from_noise(eps_hat: np.ndarray, t: int, sched: NoiseSchedule) -> np.ndarray:
    """Score = -eps_hat / sqrt(1 - alpha_bar_t)."""
    ab = sched.alpha_bar_at(t)
    return -np.asarray(eps_hat, dtype=np.float64) / math.sqrt(1.0 - ab)


def combine_scores_lambda(
    base: np.ndarray, grad_y1: np.ndarray, grad_y2: np.ndarray, lam: float
) -> np.ndarray:
    """base + lam * grad_y1 + (1 - lam) * grad_y2."""
    base = np.asarray(base, dtype=np.float64)
    grad_y1 = np.asarray(grad_y1, dtype=np.float64)
    grad_y2 = np.asarray(grad_y2, dtype=np.float64)
    _check_same_shape(base, grad_y1, grad_y2)
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must lie in [0, 1], got {lam}")
    return base + lam * grad_y1 + (1.0 - lam) * grad_y2


def guided_noise_prediction(
    eps_theta: np.ndarray,
    grad_y1: np.ndarray | None,
    grad_y2: np.ndarray | None,
    t: int,
    sched: NoiseSchedule,
    cfg: GuidanceConfig,
) -> np.ndarray:
    """Fold condition gradients into the predicted noise.

    eps' = eps_theta - gamma1 sqrt(1 - alpha_bar_t) grad_y1
                     - gamma2 sqrt(1 - alpha_bar_t) grad_y2

    A gradient passed as None is absent and its term is skipped.
    """
    eps = np.asarray(eps_theta, dtype=np.float64)
    root = math.sqrt(1.0 - sched.alpha_bar_at(t))
    for gamma, grad in ((cfg.gamma1, grad_y1), (cfg.gamma2, grad_y2)):
        if grad is not None:
            grad = np.asarray(grad, dtype=np.float64)
            _check_same_shape(eps, grad)
            eps = eps - gamma * root * grad
    return eps


def draw_normal(rng, shape: tuple[int, ...]) -> np.ndarray:
    """Unit normal draws of `shape` from one generator, or from a sequence of
    generators that each draw one row of the leading axis, as they would alone."""
    if isinstance(rng, np.random.Generator):
        return rng.standard_normal(shape)
    if len(rng) != shape[0]:
        raise ShapeMismatchError(f"{len(rng)} generators for a batch of {shape[0]}")
    return np.stack([r.standard_normal(shape[1:]) for r in rng])


def reverse_step(
    x_t: np.ndarray,
    eps_prime: np.ndarray,
    t: int,
    sched: NoiseSchedule,
    rng,
) -> np.ndarray:
    """One ancestral step x_t -> x_{t-1}; deterministic at t = 1.

    The added noise has variance beta_t, which is exact for unit-Gaussian
    data; the analytic-world acceptance checks need its accuracy at
    desk-scale step counts. rng is a generator, or one generator per row of
    a batch (see draw_normal).
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_prime = np.asarray(eps_prime, dtype=np.float64)
    _check_same_shape(x_t, eps_prime)
    beta = sched.beta_at(t)
    ab = sched.alpha_bar_at(t)
    mean = (x_t - beta / math.sqrt(1.0 - ab) * eps_prime) / math.sqrt(sched.alpha_at(t))
    if t == 1:
        return mean
    return mean + math.sqrt(beta) * draw_normal(rng, x_t.shape)


def stream_rng(seed: int, key: int) -> np.random.Generator:
    """Counter-based Philox generator for stream `key` of run `seed`.

    The (seed, key) pair alone fixes every draw, so results do not depend on
    the order in which images, trajectories or models are processed.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), int(key)])))


# ---------------------------------------------------------------------------
# Analytic Gaussian world: exact scores and posteriors for verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticGaussianWorld:
    """World with prior x0 ~ N(mu0, var0) and observations y = x0 + N(0, var_y).

    Parameters may be scalars or (for diagonal worlds) arrays that broadcast
    against the state. Everything about its diffusion is Gaussian, so the
    marginal score, the exact noise predictor, the observation score
    grad log p(y | x_t), and the Bayesian posterior all have closed forms.
    """

    mu0: float = 0.0
    var0: float = 1.0
    var_y: float = 1.0

    def __post_init__(self):
        if np.any(np.asarray(self.var0) <= 0) or np.any(np.asarray(self.var_y) <= 0):
            raise ParameterError("variances must be positive")

    def marginal(self, t: int, sched: NoiseSchedule):
        """Mean and variance of x_t = sqrt(ab) x0 + sqrt(1-ab) eps."""
        ab = sched.alpha_bar_at(t)
        return np.sqrt(ab) * self.mu0, ab * self.var0 + 1.0 - ab

    def exact_score(self, x_t: np.ndarray, t: int, sched: NoiseSchedule) -> np.ndarray:
        mean, var = self.marginal(t, sched)
        return -(np.asarray(x_t, dtype=np.float64) - mean) / var

    def exact_noise_prediction(self, x_t: np.ndarray, t: int, sched: NoiseSchedule) -> np.ndarray:
        ab = sched.alpha_bar_at(t)
        return -math.sqrt(1.0 - ab) * self.exact_score(x_t, t, sched)

    def observation_score(self, x_t: np.ndarray, y, t: int, sched: NoiseSchedule) -> np.ndarray:
        """grad_x log p(y | x_t), exact for the jointly Gaussian model."""
        ab = sched.alpha_bar_at(t)
        _, var_t = self.marginal(t, sched)
        gain = np.sqrt(ab) * self.var0 / var_t
        offset = (1.0 - ab) * self.mu0 / var_t
        resid_var = self.var0 * (1.0 - ab) / var_t + self.var_y
        x_t = np.asarray(x_t, dtype=np.float64)
        return gain * (y - gain * x_t - offset) / resid_var

    def posterior(self, y):
        """Mean and variance of x0 | y."""
        var = self.var0 * self.var_y / (self.var0 + self.var_y)
        mean = (self.var_y * self.mu0 + self.var0 * y) / (self.var0 + self.var_y)
        return mean, var

