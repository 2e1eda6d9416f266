"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test records a PASS/FAIL line (printed in the terminal summary) and
asserts both the numeric condition and its runtime budget.
"""

import functools
import math
import time

import numpy as np
import pytest

from uwdiff import autodiff as ad
from uwdiff.autodiff import Tensor
from uwdiff.config import RunConfig
from uwdiff.denoiser import ConditionalDenoiser
from uwdiff.diffusion import AnalyticGaussianWorld, GuidanceConfig, NoiseSchedule, respace, stream_rng
from uwdiff.images import LabImage, RgbImage, channel_stats, lab_to_srgb, srgb_to_lab
from uwdiff.imageio import _quantize_8bit
from uwdiff.jointnet import (
    JointNetConfig,
    PromptTrainConfig,
    embed_image,
    embed_image_graph,
    init_params,
    prompt_bce_graph,
    prompt_graph,
    prompt_logits,
    train_prompts,
)
from uwdiff.metrics import cpbd, psnr, ssim, uciqe, uiqm
from uwdiff.synthesis import DegradationParams, scatter_degrade
from uwdiff.training import LossWeights, composite_loss, grad_check
from uwdiff.verification import (
    chain_checks,
    check_guidance_algebra,
    check_lambda_preference,
    check_loss_decomposition,
    check_posterior_recovery,
    check_prior_recovery,
    sample_terminal,
)

from criteria import record_criterion
from oracles import cpbd_ref, logistic_accuracy, uciqe_ref, uiqm_ref
from toy_world import RTOL, c12_pairs, enhance_held_out, run_cli, separable_images, train_sampler, write_toy_inputs


def test_c01_color_round_trip():
    start = time.time()
    gen = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        img = RgbImage.from_array(gen.uniform(0, 1, (64, 64, 3)))
        back = lab_to_srgb(srgb_to_lab(img))
        worst = max(worst, float(np.max(np.abs(back.data - img.data))))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 5.0
    record_criterion(
        "C1 color round trip", ok, f"max |err| {worst:.2e} over 100 images, {elapsed:.2f}s"
    )
    assert worst < 1e-4
    assert elapsed < 5.0


def test_c02_color_transfer_stats_matching():
    from uwdiff.synthesis import color_transfer

    start = time.time()
    gen = np.random.default_rng(102)
    worst_mean = worst_std = 0.0
    for _ in range(50):
        src = LabImage.from_array(
            np.stack(
                [
                    gen.uniform(5, 95, (24, 24)),
                    gen.uniform(-60, 60, (24, 24)),
                    gen.uniform(-60, 60, (24, 24)),
                ],
                axis=-1,
            )
        )
        target = channel_stats(
            LabImage.from_array(
                np.stack(
                    [
                        gen.uniform(5, 95, (12, 12)),
                        gen.uniform(-60, 60, (12, 12)),
                        gen.uniform(-60, 60, (12, 12)),
                    ],
                    axis=-1,
                )
            )
        )
        stats = channel_stats(color_transfer(src, target))
        worst_mean = max(worst_mean, float(np.max(np.abs(stats.mean - target.mean))))
        worst_std = max(worst_std, float(np.max(np.abs(stats.std - target.std))))
    elapsed = time.time() - start
    ok = worst_mean < 1e-6 and worst_std < 1e-6 and elapsed < 5.0
    record_criterion(
        "C2 stats matching",
        ok,
        f"mean err {worst_mean:.2e}, std err {worst_std:.2e} over 50 pairs, {elapsed:.2f}s",
    )
    assert worst_mean < 1e-6 and worst_std < 1e-6
    assert elapsed < 5.0


def test_c03_scattering_limits():
    start = time.time()
    gen = np.random.default_rng(103)
    clean = RgbImage.from_array(gen.uniform(0, 1, (16, 16, 3)))
    veil = np.array([0.15, 0.5, 0.85])
    identity = scatter_degrade(
        clean, DegradationParams([0.8, 0.6, 0.4], [0.5, 0.4, 0.3], veil, 0.0)
    )
    exact_identity = np.array_equal(identity.data, clean.data)
    deep = scatter_degrade(clean, DegradationParams([0.8, 0.6, 0.4], [0.5, 0.4, 0.3], veil, 1e6))
    deep_err = float(np.max(np.abs(deep.data - veil)))
    monotone = True
    prev = None
    for z in np.linspace(0.0, 12.0, 20):
        out = scatter_degrade(
            clean, DegradationParams([0.8, 0.6, 0.4], [0.5, 0.4, 0.3], veil, float(z))
        )
        gap = np.abs(out.data - veil).max()
        if prev is not None and gap > prev + 1e-12:
            monotone = False
        prev = gap
    elapsed = time.time() - start
    ok = exact_identity and deep_err < 1e-9 and monotone and elapsed < 1.0
    record_criterion(
        "C3 scattering limits",
        ok,
        f"z=0 exact: {exact_identity}, deep err {deep_err:.1e}, monotone: {monotone}, {elapsed:.2f}s",
    )
    assert exact_identity and deep_err < 1e-9 and monotone
    assert elapsed < 1.0


def test_c04_posterior_recovery():
    start = time.time()
    sched = RunConfig().sampling_schedule()
    guided = check_posterior_recovery(sched, stream_rng(104, 0))
    prior = check_prior_recovery(sched, stream_rng(104, 1))
    elapsed = time.time() - start
    ok = guided.passed and prior.passed and elapsed < 60.0
    record_criterion("C4 posterior recovery", ok, f"guided {guided.detail}; prior {prior.detail}; {elapsed:.1f}s")
    assert guided.passed, guided.detail
    assert prior.passed, prior.detail
    assert elapsed < 60.0


def evenly_strided(sched: NoiseSchedule, stride: int) -> NoiseSchedule:
    """Every stride-th step of sched: plain respacing, without respace's choice of steps."""
    timestep = np.arange(stride, sched.steps + 1, stride)
    alpha_bar = sched.alpha_bar[timestep - 1]
    alpha = alpha_bar / np.concatenate(([1.0], alpha_bar[:-1]))
    return NoiseSchedule(len(timestep), 1.0 - alpha, alpha, alpha_bar, timestep)


class ImpulseDraws(list):
    """One stand-in generator per chain: chain j draws 0 everywhere except 1 at its draw j
    (draw 0 is x_T, draw i the noise of the i-th reverse step); the last chain draws only 0."""

    class Row:
        def __init__(self, at: int):
            self.at, self.draws = at, 0

        def standard_normal(self, shape):
            self.draws += 1
            return np.full(shape, float(self.draws - 1 == self.at))

    def __init__(self, draws: int):
        super().__init__([self.Row(j) for j in range(draws)] + [self.Row(-1)])

    def standard_normal(self, n: int) -> np.ndarray:
        return np.array([row.standard_normal(()) for row in self])


def exact_terminal_moments(sched: NoiseSchedule, observations=(), cfg=None) -> tuple[float, float]:
    """Mean and variance of x_0 of verify's analytic chains on sched, without sampling error:
    sample_terminal is affine in x_T and the noise draws, all N(0, 1), so one chain per draw
    with that draw alone 1 gives its weight, and the all-0 chain the mean."""
    world = AnalyticGaussianWorld(mu0=0.0, var0=1.0, var_y=0.5)
    draws = sched.steps  # x_T, then t = T..2; t = 1 adds no noise
    x0 = sample_terminal(world, sched, draws + 1, ImpulseDraws(draws), observations, cfg)
    return float(x0[-1]), float(np.sum((x0[:-1] - x0[-1]) ** 2))


def test_sampling_schedule_bias_is_within_one_se_of_verify_chain_checks():
    """C4's chains have a terminal mean and variance within one standard error of the checks'
    10,000-chain estimates of the exact answer, whatever the seed, as on every step; 100 evenly
    strided steps, or 50 respaced ones, do not."""
    n = 10_000
    full = RunConfig().schedule()
    want = {"posterior": AnalyticGaussianWorld(mu0=0.0, var0=1.0, var_y=0.5).posterior(2.0), "prior": (0.0, 1.0)}
    chains = {"posterior": ((2.0,), GuidanceConfig(gamma1=1.0)), "prior": ((), None)}

    def within_one_se(sched):
        bias = {}
        for name, (observations, cfg) in chains.items():
            (mean, var), (want_mean, want_var) = exact_terminal_moments(sched, observations, cfg), want[name]
            se_mean, se_var = math.sqrt(want_var / n), want_var * math.sqrt(2 / (n - 1))
            bias[name] = (abs(mean - want_mean) / se_mean, abs(var - want_var) / se_var)
        return all(b < 1.0 for pair in bias.values() for b in pair), bias

    ok, bias = within_one_se(RunConfig().sampling_schedule())
    detail = ", ".join(f"{name} mean {m:.3f} se, var {v:.3f} se" for name, (m, v) in bias.items())
    record_criterion("C4 bias at the sampling schedule", ok, f"exact, off by: {detail}")
    assert ok, bias
    assert within_one_se(full)[0]
    assert not within_one_se(evenly_strided(full, 2))[0]
    assert not within_one_se(respace(full, 50))[0]


def test_verify_chain_checks_fail_too_few_steps():
    """20 steps put the guided posterior's variance 4.9 se high: seed 0's check fails it."""
    short = respace(RunConfig().schedule(), 20)
    assert [r.name for r in chain_checks(0, short) if not r.passed] == ["posterior_recovery_guided"]


def test_c05_guidance_algebra_consistency():
    start = time.time()
    result = check_guidance_algebra(RunConfig().sampling_schedule(), np.random.default_rng(105))
    elapsed = time.time() - start
    ok = result.passed and elapsed < 1.0
    record_criterion("C5 guidance algebra", ok, f"{result.detail} over 1000 instances, {elapsed:.2f}s")
    assert result.passed, result.detail
    assert elapsed < 1.0


def test_c06_lambda_preference_direction():
    start = time.time()
    result = check_lambda_preference(RunConfig().sampling_schedule(), [stream_rng(106, i) for i in range(5)])
    elapsed = time.time() - start
    ok = result.passed and elapsed < 120.0
    record_criterion("C6 lambda preference", ok, f"{result.detail}, {elapsed:.1f}s")
    assert result.passed, result.detail
    assert elapsed < 120.0


def test_c07_prompt_learning():
    start = time.time()
    dataset = separable_images(200, 16, 107)
    config = JointNetConfig(width=16, embed_dim=8, token_count=77, token_width=16, text_hidden=32)
    params = init_params(config, 0)
    result = train_prompts(dataset, params, PromptTrainConfig(epochs=200, seed=0))

    phis = np.stack([embed_image(img, params) for img, _ in dataset])
    labels = np.array([lbl for _, lbl in dataset])
    oracle_acc = logistic_accuracy(phis, labels)
    elapsed = time.time() - start
    ok = result.holdout_accuracy >= 0.95 and oracle_acc >= 0.95 and elapsed < 120.0
    record_criterion(
        "C7 prompt learning",
        ok,
        f"held-out acc {result.holdout_accuracy:.3f}, logistic oracle {oracle_acc:.3f}, {elapsed:.1f}s",
    )
    assert result.holdout_accuracy >= 0.95
    assert oracle_acc >= 0.95
    assert elapsed < 120.0


def test_c08_gradient_checks_every_path():
    start = time.time()
    gen = np.random.default_rng(108)
    config = JointNetConfig(width=8, embed_dim=4, token_count=5, token_width=4, text_hidden=6)
    params = init_params(config, 0)
    worst: dict[str, float] = {}
    all_ok = True

    # encoder + attention + pooling + input pixels, through the embedding chain
    x_img = Tensor(gen.uniform(0.1, 0.9, (1, 3, 16, 16)), requires_grad=True)
    target = gen.standard_normal(4)
    target /= np.linalg.norm(target)

    def embed_loss():
        return 1.0 - ad.dot(embed_image_graph(x_img, params), Tensor(target))

    groups = {"pixels": x_img}
    groups.update({k: v for k, v in params.tensors.items() if "token" not in k and "text" not in k})
    for tensor in groups.values():
        tensor.requires_grad = True
    report = grad_check(embed_loss, groups, tolerance=1e-4, samples_per_group=12, seed=1)
    worst.update(report.max_rel_error)
    all_ok &= report.passed

    # prompt softmax + BCE over both prompt tensors
    t_n = Tensor(gen.uniform(-0.5, 0.5, (5, 4)), requires_grad=True)
    t_u = Tensor(gen.uniform(-0.5, 0.5, (5, 4)), requires_grad=True)
    phi_const = Tensor(target[None, :])

    def bce_loss():
        logits = prompt_logits(phi_const, prompt_graph(t_n, params), prompt_graph(t_u, params))
        return prompt_bce_graph(ad.sigmoid(logits), np.array([1.0]))

    report = grad_check(
        bce_loss, {"prompt_n": t_n, "prompt_u": t_u}, tolerance=1e-4, samples_per_group=12, seed=2
    )
    worst.update(report.max_rel_error)
    all_ok &= report.passed

    # L1 term, semantic term, and the full composite chain through the denoiser
    sched = RunConfig().schedule()
    model = ConditionalDenoiser(width=6, seed=3)
    condition = gen.uniform(-1, 1, (1, 3, 16, 16))
    x_t_leaf = Tensor(gen.uniform(-1, 1, (1, 3, 16, 16)), requires_grad=True)
    eps_const = gen.standard_normal((1, 3, 16, 16))
    t_step = 120
    ab = sched.alpha_bar_at(t_step)
    emb_target = gen.standard_normal(4)
    emb_target /= np.linalg.norm(emb_target)

    def chain_loss(lambda1: float, lambda2: float):
        def loss():
            eps_prime = model.noise_graph(x_t_leaf, condition, t_step, sched)
            emb_gen = None
            if lambda2 > 0:
                x0_hat = (x_t_leaf - math.sqrt(1 - ab) * eps_prime) * (1 / math.sqrt(ab))
                emb_gen = embed_image_graph((x0_hat + 1.0) * 0.5, params)
            return composite_loss(eps_const, eps_prime, emb_gen, emb_target, LossWeights(lambda1, lambda2))[0]

        return loss

    denoiser_groups = {**model.tensors, "x_t": x_t_leaf}
    for name, fn in (
        ("l1_only", chain_loss(1.0, 0.0)),
        ("semantic_only", chain_loss(0.0, 1.0)),
        ("full_chain", chain_loss(0.6, 0.4)),
    ):
        report = grad_check(fn, denoiser_groups, tolerance=1e-4, samples_per_group=10, seed=4)
        for key, value in report.max_rel_error.items():
            worst[f"{name}.{key}"] = value
        all_ok &= report.passed

    elapsed = time.time() - start
    peak = max(worst.values())
    ok = all_ok and peak < 1e-4 and elapsed < 120.0
    record_criterion(
        "C8 gradient checks",
        ok,
        f"{len(worst)} groups, max rel err {peak:.2e}, {elapsed:.1f}s",
    )
    assert all_ok and peak < 1e-4
    assert elapsed < 120.0


def test_c09_composite_loss_decomposition():
    result = check_loss_decomposition(np.random.default_rng(109))
    record_criterion("C9 loss decomposition", result.passed, f"{result.detail} (weights 0.6/0.4, 0.7/0, 0/0.9)")
    assert result.passed, result.detail


def test_c10_metric_oracles():
    from scipy.ndimage import gaussian_filter

    start = time.time()
    gen = np.random.default_rng(110)

    a = RgbImage.from_array(gen.uniform(0, 0.9, (32, 32, 3)))
    b = RgbImage.from_array(a.data + 0.1)
    psnr_exact = abs(psnr(a, b) - 20.0) < 1e-12
    ssim_self = abs(ssim(a, a) - 1.0) < 1e-12

    uiqm_err = uciqe_err = cpbd_err = 0.0
    for i in range(5):
        img = RgbImage.from_array(gen.uniform(0, 1, (40, 48, 3)))
        uiqm_err = max(uiqm_err, abs(uiqm(img)[0] - uiqm_ref(img.data)))
        uciqe_err = max(uciqe_err, abs(uciqe(img) - uciqe_ref(img.data)))
        yy, xx = np.mgrid[0:128, 0:128]
        plane = ((xx // 16 + yy // 16) % 2) * gen.uniform(0.5, 0.8) + 0.1
        chart = np.repeat(plane[:, :, None], 3, axis=2)
        chart += 0.02 * gen.standard_normal(chart.shape)
        chart_img = RgbImage.from_array(np.clip(chart, 0, 1))
        cpbd_err = max(cpbd_err, abs(cpbd(chart_img) - cpbd_ref(chart_img.data)))

    def blur(img: RgbImage, sigma: float) -> RgbImage:
        if sigma == 0:
            return img
        data = np.stack(
            [gaussian_filter(img.data[..., c], sigma, mode="nearest") for c in range(3)], axis=-1
        )
        return RgbImage.from_array(np.clip(data, 0, 1))

    yy, xx = np.mgrid[0:128, 0:128]
    clean_chart = RgbImage.from_array(
        np.repeat((((xx // 16 + yy // 16) % 2) * 0.8 + 0.1)[:, :, None], 3, axis=2)
    )
    textured = np.zeros((128, 128, 3))
    textured[..., 0] = ((xx // 8 + yy // 8) % 2) * 0.8 + 0.1
    textured[..., 1] = ((xx // 16) % 2) * 0.7 + 0.15
    textured[..., 2] = ((yy // 16) % 2) * 0.6 + 0.2
    textured += 0.03 * np.random.default_rng(0).standard_normal((128, 128, 3))
    textured_img = RgbImage.from_array(np.clip(textured, 0, 1))

    sigmas = (0, 1, 2, 4)
    cpbd_vals = [cpbd(blur(clean_chart, s)) for s in sigmas]
    uism_vals = [uiqm(blur(textured_img, s))[2] for s in sigmas]
    cpbd_monotone = all(x >= y for x, y in zip(cpbd_vals, cpbd_vals[1:])) and cpbd_vals[0] > cpbd_vals[-1]
    uism_monotone = all(x >= y for x, y in zip(uism_vals, uism_vals[1:]))

    elapsed = time.time() - start
    ok = (
        psnr_exact
        and ssim_self
        and uiqm_err < 1e-3
        and uciqe_err < 1e-3
        and cpbd_err < 5e-3
        and cpbd_monotone
        and uism_monotone
        and elapsed < 30.0
    )
    record_criterion(
        "C10 metric oracles",
        ok,
        f"uiqm err {uiqm_err:.1e}, uciqe err {uciqe_err:.1e}, cpbd err {cpbd_err:.1e}, "
        f"monotone cpbd/uism: {cpbd_monotone}/{uism_monotone}, {elapsed:.1f}s",
    )
    assert psnr_exact and ssim_self
    assert uiqm_err < 1e-3 and uciqe_err < 1e-3 and cpbd_err < 5e-3
    assert cpbd_monotone and uism_monotone
    assert elapsed < 30.0


def test_c11_end_to_end_determinism(tmp_path):
    start = time.time()
    inputs = write_toy_inputs(tmp_path)

    def run(tag: str) -> dict[str, bytes]:
        base = tmp_path / tag
        run_cli(inputs, base)
        return {str(path.relative_to(base)): path.read_bytes() for path in sorted(base.rglob("*")) if path.is_file()}

    first = run("run1")
    second = run("run2")
    mismatched = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    elapsed = time.time() - start
    ok = not mismatched and len(first) >= 8 and elapsed < 300.0
    record_criterion(
        "C11 end-to-end determinism",
        ok,
        f"{len(first)} artifacts byte-identical, {elapsed:.1f}s"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
    assert not mismatched, mismatched
    assert elapsed < 300.0


@pytest.fixture(scope="module")
def c12_toy():
    """C12's held-out (clean, degraded) pairs, and trained(seed): toy_world's sampler of that seed,
    trained once per module, and its training seconds."""
    train_pairs, test_pairs = c12_pairs()

    @functools.cache
    def trained(seed: int):
        start = time.time()
        return train_sampler(train_pairs, seed), time.time() - start

    return test_pairs, trained


def test_c12_enhancement_improves_quality(c12_toy):
    test_pairs, trained = c12_toy
    sampler, train_s = trained(0)
    start = time.time()
    enhanced = enhance_held_out(test_pairs, sampler, RunConfig().sampling_schedule())
    psnr_degraded = [psnr(d, c) for c, d in test_pairs]
    psnr_enhanced = [psnr(e, c) for e, (c, _) in zip(enhanced, test_pairs)]
    uciqe_degraded = [uciqe(d) for _, d in test_pairs]
    uciqe_enhanced = [uciqe(e) for e in enhanced]

    mean_psnr_before = float(np.mean(psnr_degraded))
    mean_psnr_after = float(np.mean(psnr_enhanced))
    mean_uciqe_before = float(np.mean(uciqe_degraded))
    mean_uciqe_after = float(np.mean(uciqe_enhanced))
    elapsed = train_s + time.time() - start
    ok = mean_psnr_after > mean_psnr_before and mean_uciqe_after > mean_uciqe_before and elapsed < 600.0
    record_criterion(
        "C12 enhancement improves quality",
        ok,
        f"PSNR {mean_psnr_before:.1f} -> {mean_psnr_after:.1f} dB, "
        f"UCIQE {mean_uciqe_before:.2f} -> {mean_uciqe_after:.2f}, {elapsed:.0f}s",
    )
    assert mean_psnr_after > mean_psnr_before
    assert mean_uciqe_after > mean_uciqe_before
    assert elapsed < 600.0


# mean and std of the 8-bit pixels `enhance` writes for C12's held-out images, sampled by
# trained(0) on RunConfig().sampling_schedule(). TOY_CONFIG's 60-step schedule is never
# respaced, so only this pin covers a trained denoiser's time feature at the kept steps.
C12_RESPACED_PIXELS = (0.5266933702493343, 0.2680050203708387)


def test_c12_respaced_enhancement_matches_pinned_pixels(c12_toy):
    test_pairs, trained = c12_toy
    enhanced = enhance_held_out(test_pairs, trained(0)[0], RunConfig().sampling_schedule())
    pixels = np.concatenate([np.frombuffer(_quantize_8bit(img), dtype=np.uint8) for img in enhanced]) / 255
    found = (float(pixels.mean()), float(pixels.std()))
    assert all(math.isclose(g, w, rel_tol=RTOL) for g, w in zip(found, C12_RESPACED_PIXELS)), found


def test_respaced_sampling_keeps_quality_of_every_step(c12_toy):
    """Sampling RunConfig.sampling_schedule() stays within 0.3 dB mean PSNR and 0.1 UCIQE gap to
    clean of sampling every schedule step, for C12's model seeds 0-2."""
    test_pairs, trained = c12_toy
    clean_uciqe = float(np.mean([uciqe(c) for c, _ in test_pairs]))
    full, respaced = RunConfig().schedule(), RunConfig().sampling_schedule()
    assert respaced.steps < full.steps
    rows = []
    for seed in range(3):
        sampler, _ = trained(seed)
        row = []
        for sched in (full, respaced):
            enhanced = enhance_held_out(test_pairs, sampler, sched)
            mean_psnr = float(np.mean([psnr(e, c) for e, (c, _) in zip(enhanced, test_pairs)]))
            row.append((mean_psnr, abs(float(np.mean([uciqe(e) for e in enhanced])) - clean_uciqe)))
        rows.append(row)
    detail = "; ".join(
        f"seed {seed}: PSNR {a[0]:.2f} -> {b[0]:.2f} dB, UCIQE gap {a[1]:.3f} -> {b[1]:.3f}"
        for seed, (a, b) in enumerate(rows)
    )
    ok = all(b[0] > a[0] - 0.3 and b[1] < a[1] + 0.1 for a, b in rows)
    record_criterion(f"C12 quality at {respaced.steps} of {full.steps} steps", ok, detail)
    assert ok, detail
