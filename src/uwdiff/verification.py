"""Analytic-oracle self checks for the guidance and sampling machinery.

Every check compares a tested code path against a closed-form answer in the
scalar Gaussian world (or an exact algebraic identity) with a fixed seed, so
a correct build passes deterministically. The sampling checks run the loop
that `enhance` runs, `pipeline.reverse_chain`. `run_all` powers `uwdiff verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import pipeline
from .autodiff import Tensor
from .diffusion import (
    AnalyticGaussianWorld,
    GuidanceConfig,
    NoiseSchedule,
    combine_scores_lambda,
    forward_sample,
    guided_noise_prediction,
    reverse_step,
    score_from_noise,
    stream_rng,
)
from .errors import ParameterError
from .jointnet import JointNetConfig, embed_image_graph, init_params
from .training import LossWeights, composite_loss, grad_check


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_schedule_shape(sched: NoiseSchedule) -> CheckResult:
    ok = (
        bool(np.all(sched.beta > 0))
        and bool(np.all(sched.beta < 1))
        and bool(np.all(np.diff(sched.beta) >= 0))
        and bool(np.all(np.diff(sched.alpha_bar) < 0))
        and 0.0 < sched.alpha_bar[-1] < sched.alpha_bar[0] < 1.0
    )
    return CheckResult(
        "schedule_shape",
        ok,
        f"beta in [{sched.beta[0]:.2e}, {sched.beta[-1]:.2e}], alpha_bar_T={sched.alpha_bar[-1]:.3e}",
    )


def check_forward_marginal(sched: NoiseSchedule, seed: int) -> CheckResult:
    rng = stream_rng(seed, 1)
    n = 100_000
    x0 = 0.7
    t = sched.steps // 2
    eps = rng.standard_normal(n)
    x_t = forward_sample(np.full(n, x0), t, eps, sched)
    ab = sched.alpha_bar_at(t)
    want_mean, want_var = math.sqrt(ab) * x0, 1.0 - ab
    se_mean = math.sqrt(want_var / n)
    se_var = want_var * math.sqrt(2.0 / (n - 1))
    mean_err = abs(float(x_t.mean()) - want_mean)
    var_err = abs(float(x_t.var()) - want_var)
    ok = mean_err < 3 * se_mean and var_err < 3 * se_var
    return CheckResult(
        "forward_marginal",
        ok,
        f"mean err {mean_err:.2e} (3se {3*se_mean:.2e}), var err {var_err:.2e} (3se {3*se_var:.2e})",
    )


def check_score_identity(sched: NoiseSchedule, seed: int) -> CheckResult:
    world = AnalyticGaussianWorld(mu0=0.3, var0=1.7, var_y=0.5)
    rng = stream_rng(seed, 2)
    worst = 0.0
    for t in (1, sched.steps // 3, sched.steps):
        x = rng.standard_normal(64) * 2.0
        eps_hat = world.exact_noise_prediction(x, t, sched)
        got = score_from_noise(eps_hat, t, sched)
        want = world.exact_score(x, t, sched)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return CheckResult("score_identity", worst < 1e-9, f"max |score err| {worst:.2e}")


def check_guidance_algebra(sched: NoiseSchedule, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(1, sched.steps + 1))
        lam = float(rng.uniform())
        eps_theta, g1, g2 = rng.standard_normal((3, 8))
        cfg = GuidanceConfig(gamma1=lam, gamma2=1.0 - lam)
        eps_prime = guided_noise_prediction(eps_theta, g1, g2, t, sched, cfg)
        via_noise = score_from_noise(eps_prime, t, sched)
        direct = combine_scores_lambda(score_from_noise(eps_theta, t, sched), g1, g2, lam)
        worst = max(worst, float(np.max(np.abs(via_noise - direct))))
    return CheckResult("guidance_algebra", worst < 1e-12, f"max elementwise gap {worst:.2e}")


def check_guidance_linearity(sched: NoiseSchedule, seed: int) -> CheckResult:
    rng = stream_rng(seed, 4)
    t = max(sched.steps // 2, 1)
    cfg = GuidanceConfig(gamma1=0.7, gamma2=1.3)
    eps_theta = rng.standard_normal(8)
    g1a, g1b, g2a, g2b = rng.standard_normal((4, 8))
    lhs = guided_noise_prediction(eps_theta, g1a + g1b, g2a + g2b, t, sched, cfg)
    rhs = (
        guided_noise_prediction(eps_theta, g1a, g2a, t, sched, cfg)
        + guided_noise_prediction(eps_theta, g1b, g2b, t, sched, cfg)
        - eps_theta
    )
    gap = float(np.max(np.abs(lhs - rhs)))
    return CheckResult("guidance_linearity", gap < 1e-12, f"affine gap {gap:.2e}")


def sample_terminal(
    world: AnalyticGaussianWorld, sched: NoiseSchedule, n_trajectories: int, rng, observations=(), cfg=None
) -> np.ndarray:
    """x_0 draws of pipeline.reverse_chain on the world's exact noise predictor: the prior with no
    observations, else guided by cfg with their observation scores as the y1 and y2 gradients."""
    if len(observations) > 2 or (observations and cfg is None):
        raise ParameterError("guided sampling takes one or two observations and a GuidanceConfig")

    def predict(x, t):
        return world.exact_noise_prediction(x, t, sched)

    def guide(x, t):
        return ([world.observation_score(x, y, t, sched) for y in observations] + [None])[:2]  # y2 may be absent

    x = rng.standard_normal(n_trajectories)
    return pipeline.reverse_chain(x, predict, guide if observations else None, sched, cfg, rng)


def check_posterior_recovery(sched: NoiseSchedule, rng: np.random.Generator) -> CheckResult:
    world = AnalyticGaussianWorld(mu0=0.0, var0=1.0, var_y=0.5)
    n = 10_000
    y = 2.0
    samples = sample_terminal(world, sched, n, rng, observations=(y,), cfg=GuidanceConfig(gamma1=1.0))
    want_mean, want_var = world.posterior(y)
    se_mean = math.sqrt(want_var / n)
    se_var = want_var * math.sqrt(2.0 / (n - 1))
    mean_err = abs(float(samples.mean()) - want_mean)
    var_err = abs(float(samples.var()) - want_var)
    ok = mean_err < 3 * se_mean and var_err < 3 * se_var
    return CheckResult(
        "posterior_recovery_guided",
        ok,
        f"mean {samples.mean():.4f} vs {want_mean:.4f} (3se {3*se_mean:.1e}), "
        f"var {samples.var():.4f} vs {want_var:.4f} (3se {3*se_var:.1e})",
    )


def check_prior_recovery(sched: NoiseSchedule, rng: np.random.Generator) -> CheckResult:
    world = AnalyticGaussianWorld(mu0=0.0, var0=1.0, var_y=0.5)
    n = 10_000
    samples = sample_terminal(world, sched, n, rng)
    se_mean = math.sqrt(1.0 / n)
    se_var = math.sqrt(2.0 / (n - 1))
    mean_err = abs(float(samples.mean()))
    var_err = abs(float(samples.var()) - 1.0)
    ok = mean_err < 3 * se_mean and var_err < 3 * se_var
    return CheckResult(
        "prior_recovery_unguided",
        ok,
        f"mean err {mean_err:.2e} (3se {3*se_mean:.1e}), var err {var_err:.2e} (3se {3*se_var:.1e})",
    )


def check_lambda_preference(sched: NoiseSchedule, rngs: list[np.random.Generator]) -> CheckResult:
    """Terminal means approach y2's posterior as lambda falls; `rngs` holds one stream per lambda."""
    world = AnalyticGaussianWorld(mu0=0.0, var0=1.0, var_y=0.5)
    y1, y2 = 2.0, -2.0
    n = 10_000
    means = []
    for lam, rng in zip((0.9, 0.7, 0.5, 0.3, 0.1), rngs, strict=True):
        cfg = GuidanceConfig(gamma1=lam, gamma2=1.0 - lam)
        samples = sample_terminal(world, sched, n, rng, observations=(y1, y2), cfg=cfg)
        means.append(float(samples.mean()))
    target = world.posterior(y2)[0]
    gaps = [abs(m - target) for m in means]
    ok = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    return CheckResult(
        "lambda_preference",
        ok,
        "terminal means " + ", ".join(f"{m:+.3f}" for m in means) + f" -> y2 posterior {target:+.3f}",
    )


def check_terminal_step_deterministic(sched: NoiseSchedule, seed: int) -> CheckResult:
    rng = stream_rng(seed, 12)
    x = rng.standard_normal(16)
    eps = rng.standard_normal(16)
    a = reverse_step(x, eps, 1, sched, stream_rng(seed, 13))
    b = reverse_step(x, eps, 1, sched, stream_rng(seed, 14))
    ok = bool(np.array_equal(a, b))
    return CheckResult("terminal_step_deterministic", ok, "t=1 adds no noise")


def check_loss_decomposition(rng: np.random.Generator) -> CheckResult:
    """total = lambda1*l1 + lambda2*semantic, with both terms on and with each alone."""
    worst = 0.0
    for _ in range(300):
        eps = rng.standard_normal(12)
        eps_hat = rng.standard_normal(12)
        va, vb = rng.standard_normal((2, 6))
        emb_a = Tensor(va / np.linalg.norm(va))
        emb_b = vb / np.linalg.norm(vb)
        for w in (LossWeights(0.6, 0.4), LossWeights(0.7, 0.0), LossWeights(0.0, 0.9)):
            total, l1, semantic = (term.item() for term in composite_loss(eps, Tensor(eps_hat), emb_a, emb_b, w))
            worst = max(worst, abs(total - (w.lambda1 * l1 + w.lambda2 * semantic)))
    return CheckResult("loss_decomposition", worst < 1e-12, f"max decomposition gap {worst:.2e}")


def check_gradients(seed: int) -> CheckResult:
    config = JointNetConfig(width=8, embed_dim=4, token_count=5, token_width=4, text_hidden=6)
    params = init_params(config, seed)
    rng = stream_rng(seed, 16)
    x = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)), requires_grad=True)
    target = rng.standard_normal(4)
    target /= np.linalg.norm(target)

    def loss() -> Tensor:
        emb = embed_image_graph(x, params)
        return 1.0 - ad.dot(emb, Tensor(target))

    report = grad_check(loss, {"pixels": x, "conv1": params.tensors["conv1.weight"]}, seed=seed)
    detail = ", ".join(f"{k}={v:.2e}" for k, v in report.max_rel_error.items())
    return CheckResult("gradient_checks", report.passed, detail or "; ".join(report.failures))


def chain_checks(seed: int, sampling: NoiseSchedule) -> list[CheckResult]:
    """The checks that sample reverse chains, on `sampling`, the schedule `enhance` samples."""
    return [
        check_posterior_recovery(sampling, stream_rng(seed, 5)),
        check_prior_recovery(sampling, stream_rng(seed, 6)),
        check_lambda_preference(sampling, [stream_rng(seed, 7 + i) for i in range(5)]),
    ]


def run_all(seed: int, sched: NoiseSchedule, sampling: NoiseSchedule) -> list[CheckResult]:
    """Every check: chain_checks on `sampling`, the rest on `sched`, the training schedule."""
    return [
        check_schedule_shape(sched),
        check_forward_marginal(sched, seed),
        check_score_identity(sched, seed),
        check_guidance_algebra(sched, stream_rng(seed, 3)),
        check_guidance_linearity(sched, seed),
        *chain_checks(seed, sampling),
        check_terminal_step_deterministic(sched, seed),
        check_loss_decomposition(stream_rng(seed, 15)),
        check_gradients(seed),
    ]
