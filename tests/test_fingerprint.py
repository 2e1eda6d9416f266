"""Pinned behaviour fingerprint of the seeded toy pipeline and the verify sampler.

Runs C11's toy configuration once through synth -> train-prompts ->
finetune --prompts -> enhance --prompts -> eval and compares summary numbers
against committed constants. The terminal moments of the analytic-world
chains that `uwdiff verify --seed 0` samples are pinned the same way. C11
only checks that two reruns agree, so a refactor that shifts every number
consistently would pass it; these tests do not. Only a change that alters
outputs on purpose re-pins these constants, and says so with the old and new
values.
"""

import math
import os

import numpy as np
import pytest

from uwdiff import verification
from uwdiff.checkpoint import read_checkpoint
from uwdiff.cli import main as cli_main
from uwdiff.config import RunConfig
from uwdiff.diffusion import sample_terminal
from uwdiff.imageio import load_image, save_image
from uwdiff.images import RgbImage
from uwdiff.synthesis import DatasetManifest

from test_acceptance import TOY_CONFIG, toy_scene

# loose enough for last-bit float differences, tight enough to catch a change
# as small as Adam's eps going from 1e-8 to 1e-9 (a ~5e-7 relative shift in
# the trained prompt norms)
RTOL = 1e-9

EXPECTED = {
    "template_indices": [0, 1, 1, 1],
    "prompts.ckpt:attn.bias": 0.0,
    "prompts.ckpt:attn.weight": 1.1876661093193561,
    "prompts.ckpt:conv1.bias": 0.0,
    "prompts.ckpt:conv1.weight": 1.873711212091529,
    "prompts.ckpt:conv2.bias": 0.0,
    "prompts.ckpt:conv2.weight": 2.829907844893714,
    "prompts.ckpt:conv3.bias": 0.0,
    "prompts.ckpt:conv3.weight": 4.07413203166701,
    "prompts.ckpt:proj.bias": 0.0,
    "prompts.ckpt:proj.weight": 2.8348784281656982,
    "prompts.ckpt:prompt.natural": 2.81537257175181,
    "prompts.ckpt:prompt.underwater": 2.7955062187712545,
    "prompts.ckpt:text.bias": 0.0,
    "prompts.ckpt:text.weight": 2.7864837395681987,
    "prompts.ckpt:token.bias": 0.0,
    "prompts.ckpt:token.weight": 5.651190909711493,
    "model.ckpt:denoiser.b1": 0.029071497538975526,
    "model.ckpt:denoiser.b2": 0.015482849706903197,
    "model.ckpt:denoiser.w1": 2.858513888533689,
    "model.ckpt:denoiser.w2": 1.5390252361596994,
    "training.log:total": 0.2610718095719,
    "enhanced:mean": 0.5240681168300654,
    "enhanced:std": 0.08777498937300449,
    "eval:PSNR": 12.119,
    "eval:SSIM": 0.2173,
    "eval:UIQM": 2.5945,
    "eval:UCIQE": 4.9228,
}

# each checkpoint's tensor names in file order: a checkpoint's bytes follow
# this order, which the norms above, compared by name, do not see
CHECKPOINT_NAMES = {
    "prompts.ckpt": [
        "conv1.weight", "conv1.bias", "conv2.weight", "conv2.bias", "conv3.weight", "conv3.bias",
        "attn.weight", "attn.bias", "proj.weight", "proj.bias",
        "token.weight", "token.bias", "text.weight", "text.bias",
        "prompt.natural", "prompt.underwater",
    ],
    "model.ckpt": ["denoiser.w1", "denoiser.b1", "denoiser.w2", "denoiser.b2"],
}


def run_pipeline(tmp_path) -> tuple[dict, dict]:
    """The fingerprint's numbers, and each checkpoint's tensor names in file order."""
    gen = np.random.default_rng(111)
    clean_dir, tpl_dir = tmp_path / "clean", tmp_path / "tpl"
    os.makedirs(clean_dir)
    os.makedirs(tpl_dir)
    for i in range(4):
        save_image(toy_scene(gen, 16), clean_dir / f"c{i}.png")
    for i in range(2):
        img = toy_scene(gen, 16)
        save_image(RgbImage.from_array(np.clip(img.data * [0.3, 0.6, 0.9], 0, 1)), tpl_dir / f"t{i}.png")
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CONFIG)
    synth, prompts, model, enhanced, scores = (
        tmp_path / name for name in ("synth", "prompts", "model", "enhanced", "eval")
    )
    for argv in (
        ["synth", "--clean", clean_dir, "--templates", tpl_dir, "--out", synth],
        ["train-prompts", "--natural", clean_dir, "--underwater", synth / "degraded", "--out", prompts],
        ["finetune", "--manifest", synth / "manifest.tsv", "--prompts", prompts / "prompts.ckpt", "--out", model],
        ["enhance", "--input", synth / "degraded", "--model", model / "model.ckpt",
         "--prompts", prompts / "prompts.ckpt", "--out", enhanced],
        ["eval", "--enhanced", enhanced, "--reference", clean_dir, "--out", scores],
    ):
        assert cli_main([str(a) for a in argv] + ["--config", str(cfg)]) == 0, argv[0]

    found, names = {}, {}
    manifest = DatasetManifest.read(synth / "manifest.tsv")
    found["template_indices"] = [e.template_index for e in manifest.entries]
    for ckpt in (prompts / "prompts.ckpt", model / "model.ckpt"):
        tensors, _ = read_checkpoint(ckpt)
        names[ckpt.name] = list(tensors)
        for name, values in sorted(tensors.items()):
            found[f"{ckpt.name}:{name}"] = float(np.linalg.norm(values))
    last = (model / "training.log").read_text().splitlines()[-1].split("\t")
    found["training.log:total"] = float(last[4])
    pixels = np.stack([load_image(enhanced / n).data for n in sorted(os.listdir(enhanced))])
    found["enhanced:mean"] = float(pixels.mean())
    found["enhanced:std"] = float(pixels.std())
    header, *_, means = [row.split("\t") for row in (scores / "metrics.tsv").read_text().splitlines()]
    for column, value in zip(header[1:], means[1:]):
        found[f"eval:{column}"] = float(value)
    return found, names


def test_toy_pipeline_matches_pinned_fingerprint(tmp_path):
    found, names = run_pipeline(tmp_path)
    assert names == CHECKPOINT_NAMES
    assert found.keys() == EXPECTED.keys(), sorted(found.keys() ^ EXPECTED.keys())
    off = {}
    for key, want in EXPECTED.items():
        got = found[key]
        if isinstance(want, list):
            same = got == want
        else:
            same = math.isclose(got, want, rel_tol=RTOL)
        if not same:
            off[key] = (got, want)
    assert not off, f"fingerprint moved (got, pinned): {off}"


# (mean, variance) of the x_0 draws of each sample_terminal run that
# `uwdiff verify --seed 0` makes, in run_all's order
VERIFY_CHAINS = {
    "posterior": [(1.3384640424181016, 0.3374083319089938)],
    "prior": [(-0.010672428632351428, 0.9917109797044934)],
    "lambda_sweep": [
        (1.066028904964386, 0.34350017528285115),
        (0.5285340838897729, 0.33239731800080485),
        (-0.004762417316036358, 0.3326684945624499),
        (-0.5357533859556466, 0.3375730059703032),
        (-1.0608627983220849, 0.338234811018424),
    ],
}


@pytest.fixture(scope="module")
def verify_chains() -> dict:
    """Terminal moments of the chains run_all samples, grouped as in VERIFY_CHAINS."""
    moments = []

    def recording(*args, **kwargs):
        x = sample_terminal(*args, **kwargs)
        moments.append((float(x.mean()), float(x.var())))
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "sample_terminal", recording)
        verification.run_all(seed=0, sched=RunConfig().schedule())
    return {"posterior": moments[:1], "prior": moments[1:2], "lambda_sweep": moments[2:]}


@pytest.mark.parametrize("chain", VERIFY_CHAINS)
def test_verify_chains_match_pinned_terminal_moments(verify_chains, chain):
    found, expected = verify_chains[chain], VERIFY_CHAINS[chain]
    assert len(found) == len(expected), found
    for (mean, var), (want_mean, want_var) in zip(found, expected):
        assert math.isclose(mean, want_mean, rel_tol=RTOL), (found, expected)
        assert math.isclose(var, want_var, rel_tol=RTOL), (found, expected)
