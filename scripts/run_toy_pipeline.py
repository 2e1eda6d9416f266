"""End-to-end toy experiment: synthesize pairs, train, enhance, evaluate.

Generates procedural in-air scenes, degrades them with the scattering model,
fine-tunes the conditional denoiser on one split, enhances the held-out
split, and prints before/after metric tables. Everything is seeded; rerunning
reproduces the same numbers.

Usage: python scripts/run_toy_pipeline.py [workdir]
"""

import os
import sys

import numpy as np

from uwdiff.cli import main as cli
from uwdiff.images import RgbImage
from uwdiff.imageio import save_image

SEED = 11

CONFIG = """
[run]
seed = 11
[schedule]
steps = 200
[optimizer]
learning_rate = 2e-3
steps = 2500
t_min = 20
[synthesis]
method = scatter
beta_direct_min = 0.85
beta_direct_max = 0.95
beta_backscatter_min = 0.55
beta_backscatter_max = 0.65
veil_min = 0.25
veil_max = 0.35
depth_min = 1.6
depth_max = 1.8
[classifier]
width = 16
embed_dim = 8
epochs = 100
[denoiser]
width = 32
"""


def toy_scene(gen, size=24):
    base = gen.uniform(0.2, 0.9, (3,))
    yy, xx = np.mgrid[0:size, 0:size] / size
    img = np.zeros((size, size, 3))
    for c in range(3):
        img[..., c] = base[c] + 0.35 * np.sin(
            2 * np.pi * (gen.uniform(0.5, 1.5) * xx + gen.uniform())
        ) * np.cos(2 * np.pi * (gen.uniform(0.5, 1.5) * yy + gen.uniform()))
    return RgbImage.from_array(np.clip(img, 0.02, 0.98))


def must(code: int, step: str) -> None:
    if code != 0:
        sys.exit(f"{step} failed with exit code {code}")


def main() -> None:
    work = sys.argv[1] if len(sys.argv) > 1 else "toy_run"
    gen = np.random.default_rng(SEED)
    train_dir = os.path.join(work, "clean_train")
    test_dir = os.path.join(work, "clean_test")
    tpl_dir = os.path.join(work, "templates")
    for d in (train_dir, test_dir, tpl_dir):
        os.makedirs(d, exist_ok=True)
    for i in range(16):
        save_image(toy_scene(gen), os.path.join(train_dir, f"scene{i:02d}.png"))
    for i in range(6):
        save_image(toy_scene(gen), os.path.join(test_dir, f"scene{i:02d}.png"))
    for i in range(2):
        img = toy_scene(gen)
        tinted = RgbImage.from_array(np.clip(img.data * [0.3, 0.6, 0.9], 0, 1))
        save_image(tinted, os.path.join(tpl_dir, f"tpl{i}.png"))

    cfg = os.path.join(work, "toy.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CONFIG)

    synth_train = os.path.join(work, "synth_train")
    synth_test = os.path.join(work, "synth_test")
    must(cli(["synth", "--config", cfg, "--clean", train_dir, "--templates", tpl_dir, "--out", synth_train]), "synth(train)")
    must(cli(["synth", "--config", cfg, "--clean", test_dir, "--templates", tpl_dir, "--out", synth_test]), "synth(test)")

    prompts = os.path.join(work, "prompts")
    must(
        cli(["train-prompts", "--config", cfg, "--natural", train_dir,
             "--underwater", os.path.join(synth_train, "degraded"), "--out", prompts]),
        "train-prompts",
    )

    model = os.path.join(work, "model")
    must(
        cli(["finetune", "--config", cfg, "--manifest", os.path.join(synth_train, "manifest.tsv"),
             "--prompts", os.path.join(prompts, "prompts.ckpt"), "--out", model]),
        "finetune",
    )

    enhanced = os.path.join(work, "enhanced")
    must(
        cli(["enhance", "--config", cfg, "--input", os.path.join(synth_test, "degraded"),
             "--model", os.path.join(model, "model.ckpt"), "--out", enhanced]),
        "enhance",
    )

    print("\n=== degraded test images vs clean references ===")
    must(
        cli(["eval", "--config", cfg, "--enhanced", os.path.join(synth_test, "degraded"),
             "--reference", test_dir, "--out", os.path.join(work, "eval_degraded")]),
        "eval(degraded)",
    )
    print("\n=== enhanced test images vs clean references ===")
    must(
        cli(["eval", "--config", cfg, "--enhanced", enhanced,
             "--reference", test_dir, "--out", os.path.join(work, "eval_enhanced")]),
        "eval(enhanced)",
    )


if __name__ == "__main__":
    main()
