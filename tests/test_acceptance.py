"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test records a PASS/FAIL line (printed in the terminal summary) and
asserts both the numeric condition and its runtime budget.
"""

import math
import os
import time

import numpy as np

from uwdiff import autodiff as ad
from uwdiff.autodiff import Tensor
from uwdiff.cli import main as cli_main
from uwdiff.denoiser import ConditionalDenoiser
from uwdiff.diffusion import default_schedule, stream_rng
from uwdiff.images import LabImage, RgbImage, channel_stats, lab_to_srgb, srgb_to_lab
from uwdiff.imageio import save_image
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
from uwdiff.pipeline import enhance_image, to_model_space
from uwdiff.synthesis import DegradationParams, ScatterRanges, scatter_degrade
from uwdiff.training import LossWeights, OptimizerConfig, composite_loss, fine_tune, grad_check
from uwdiff.verification import (
    check_guidance_algebra,
    check_lambda_preference,
    check_loss_decomposition,
    check_posterior_recovery,
    check_prior_recovery,
)

from criteria import record_criterion
from oracles import cpbd_ref, logistic_accuracy, uciqe_ref, uiqm_ref


def toy_scene(gen, size=24):
    base = gen.uniform(0.2, 0.9, (3,))
    yy, xx = np.mgrid[0:size, 0:size] / size
    img = np.zeros((size, size, 3))
    for c in range(3):
        img[..., c] = base[c] + 0.35 * np.sin(
            2 * np.pi * (gen.uniform(0.5, 1.5) * xx + gen.uniform())
        ) * np.cos(2 * np.pi * (gen.uniform(0.5, 1.5) * yy + gen.uniform()))
    return RgbImage.from_array(np.clip(img, 0.02, 0.98))


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
    sched = default_schedule(200)
    guided = check_posterior_recovery(sched, stream_rng(104, 0))
    prior = check_prior_recovery(sched, stream_rng(104, 1))
    elapsed = time.time() - start
    ok = guided.passed and prior.passed and elapsed < 60.0
    record_criterion("C4 posterior recovery", ok, f"guided {guided.detail}; prior {prior.detail}; {elapsed:.1f}s")
    assert guided.passed, guided.detail
    assert prior.passed, prior.detail
    assert elapsed < 60.0


def test_c05_guidance_algebra_consistency():
    start = time.time()
    result = check_guidance_algebra(default_schedule(200), np.random.default_rng(105))
    elapsed = time.time() - start
    ok = result.passed and elapsed < 1.0
    record_criterion("C5 guidance algebra", ok, f"{result.detail} over 1000 instances, {elapsed:.2f}s")
    assert result.passed, result.detail
    assert elapsed < 1.0


def test_c06_lambda_preference_direction():
    start = time.time()
    result = check_lambda_preference(default_schedule(200), [stream_rng(106, i) for i in range(5)])
    elapsed = time.time() - start
    ok = result.passed and elapsed < 120.0
    record_criterion("C6 lambda preference", ok, f"{result.detail}, {elapsed:.1f}s")
    assert result.passed, result.detail
    assert elapsed < 120.0


def _separable_images(count, size, seed):
    gen = np.random.default_rng(seed)
    data = []
    ramp = np.linspace(0.15, 0.85, size)
    for label in (1, 0):
        base = np.tile(ramp[None, :], (size, 1)) if label else np.tile(ramp[:, None], (1, size))
        for _ in range(count // 2):
            arr = np.clip(base[:, :, None] + 0.05 * gen.standard_normal((size, size, 3)), 0, 1)
            data.append((RgbImage.from_array(arr), label))
    return data


def test_c07_prompt_learning():
    start = time.time()
    dataset = _separable_images(200, 16, 107)
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
    x_img = Tensor(gen.uniform(0.1, 0.9, (3, 16, 16)), requires_grad=True)
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
    sched = default_schedule(200)
    model = ConditionalDenoiser(width=6, seed=3)
    condition = gen.uniform(-1, 1, (3, 16, 16))
    x_t_leaf = Tensor(gen.uniform(-1, 1, (3, 16, 16)), requires_grad=True)
    eps_const = gen.standard_normal((3, 16, 16))
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


TOY_CONFIG = """
[run]
seed = 11
[schedule]
steps = 60
beta_start = 3.333e-5
beta_end = 0.3333
[optimizer]
steps = 50
t_min = 5
[classifier]
width = 16
embed_dim = 8
epochs = 40
[denoiser]
width = 8
[guidance]
gamma2 = 0.05
"""


def test_c11_end_to_end_determinism(tmp_path):
    start = time.time()
    gen = np.random.default_rng(111)
    clean_dir = tmp_path / "clean"
    tpl_dir = tmp_path / "tpl"
    os.makedirs(clean_dir)
    os.makedirs(tpl_dir)
    for i in range(4):
        save_image(toy_scene(gen, 16), clean_dir / f"c{i}.png")
    for i in range(2):
        img = toy_scene(gen, 16)
        save_image(RgbImage.from_array(np.clip(img.data * [0.3, 0.6, 0.9], 0, 1)), tpl_dir / f"t{i}.png")
    cfg_path = tmp_path / "toy.cfg"
    cfg_path.write_text(TOY_CONFIG)

    def run(tag: str) -> dict[str, bytes]:
        base = tmp_path / tag
        assert cli_main(
            ["synth", "--config", str(cfg_path), "--clean", str(clean_dir),
             "--templates", str(tpl_dir), "--out", str(base / "synth")]
        ) == 0
        assert cli_main(
            ["train-prompts", "--config", str(cfg_path), "--natural", str(clean_dir),
             "--underwater", str(base / "synth" / "degraded"), "--out", str(base / "prompts")]
        ) == 0
        assert cli_main(
            ["finetune", "--config", str(cfg_path), "--manifest", str(base / "synth" / "manifest.tsv"),
             "--prompts", str(base / "prompts" / "prompts.ckpt"), "--out", str(base / "model")]
        ) == 0
        assert cli_main(
            ["enhance", "--config", str(cfg_path), "--input", str(base / "synth" / "degraded"),
             "--model", str(base / "model" / "model.ckpt"),
             "--prompts", str(base / "prompts" / "prompts.ckpt"), "--out", str(base / "enhanced")]
        ) == 0
        artifacts = {
            "manifest": (base / "synth" / "manifest.tsv").read_bytes(),
            "prompts.ckpt": (base / "prompts" / "prompts.ckpt").read_bytes(),
            "model.ckpt": (base / "model" / "model.ckpt").read_bytes(),
            "training.log": (base / "model" / "training.log").read_bytes(),
        }
        for name in sorted(os.listdir(base / "enhanced")):
            artifacts[f"enhanced/{name}"] = (base / "enhanced" / name).read_bytes()
        return artifacts

    first = run("run1")
    second = run("run2")
    mismatched = [k for k in first if first[k] != second.get(k)]
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


def test_c12_enhancement_improves_quality():
    start = time.time()
    gen = np.random.default_rng(112)
    ranges = ScatterRanges(
        beta_direct=(0.85, 0.95), beta_backscatter=(0.55, 0.65), veil=(0.25, 0.35), depth=(1.6, 1.8)
    )
    train_pairs, test_pairs = [], []
    for i in range(22):
        clean = toy_scene(gen)
        degraded = scatter_degrade(clean, ranges.draw(np.random.default_rng([112, i])))
        (train_pairs if i < 16 else test_pairs).append((clean, degraded))

    sched = default_schedule(200)
    model = ConditionalDenoiser(width=32, seed=0)
    fine_tune(
        model,
        [(to_model_space(c), to_model_space(d)) for c, d in train_pairs],
        sched,
        weights=LossWeights(1.0, 0.0),
        optimizer=OptimizerConfig(learning_rate=2e-3, total_steps=2500, seed=0),
        t_range=(20, 200),
    )

    psnr_degraded, psnr_enhanced, uciqe_degraded, uciqe_enhanced = [], [], [], []
    for i, (clean, degraded) in enumerate(test_pairs):
        enhanced = enhance_image(degraded, model, sched, None, None, stream_rng(112, i))
        psnr_degraded.append(psnr(degraded, clean))
        psnr_enhanced.append(psnr(enhanced, clean))
        uciqe_degraded.append(uciqe(degraded))
        uciqe_enhanced.append(uciqe(enhanced))

    mean_psnr_before = float(np.mean(psnr_degraded))
    mean_psnr_after = float(np.mean(psnr_enhanced))
    mean_uciqe_before = float(np.mean(uciqe_degraded))
    mean_uciqe_after = float(np.mean(uciqe_enhanced))
    elapsed = time.time() - start
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
