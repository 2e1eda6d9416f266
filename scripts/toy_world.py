"""The seeded toy world that the toy experiment and the tests share.

`toy_scene` draws a procedural in-air scene. Two worlds run every CLI stage:
- the toy run (`write_toy_inputs`, `TOY_CONFIG`: a 60-step schedule and a
  width-8 denoiser), which the end-to-end determinism check and the pinned
  fingerprint run in seconds;
- the toy experiment (`write_experiment_inputs`, `EXPERIMENT_CONFIG`), which
  `run_toy_pipeline.py` runs, and whose pairs and trained denoisers C12 builds
  in memory (`c12_pairs`, `train_sampler`, `enhance_held_out`).
`run_cli` runs the stages on either. `RTOL` is the tolerance at which the tests
compare a pinned toy-world number. `tiny_context` and `separable_images` are the
small classifier context and labelled dataset that several test modules share.
"""

import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from uwdiff.cli import main as cli
from uwdiff.config import parse_config_text
from uwdiff.diffusion import GuidanceConfig, stream_rng
from uwdiff.images import RgbImage
from uwdiff.imageio import save_image
from uwdiff.jointnet import JointNetConfig, init_params
from uwdiff.pipeline import enhance_image, to_model_space
from uwdiff.synthesis import scatter_degrade
from uwdiff.training import JointContext, fine_tune

# the relative tolerance of every pinned toy-world number: loose enough for
# last-bit float differences, tight enough to catch a change as small as Adam's
# eps going from 1e-8 to 1e-9 (a ~5e-7 relative shift in the trained prompt norms)
RTOL = 1e-9

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

EXPERIMENT_CONFIG = """
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

# the toy experiment's training and held-out scene counts
TRAIN_SCENES, HELD_OUT_SCENES = 16, 6


def toy_scene(gen, size=24):
    base = gen.uniform(0.2, 0.9, (3,))
    yy, xx = np.mgrid[0:size, 0:size] / size
    img = np.zeros((size, size, 3))
    for c in range(3):
        img[..., c] = base[c] + 0.35 * np.sin(
            2 * np.pi * (gen.uniform(0.5, 1.5) * xx + gen.uniform())
        ) * np.cos(2 * np.pi * (gen.uniform(0.5, 1.5) * yy + gen.uniform()))
    return RgbImage.from_array(np.clip(img, 0.02, 0.98))


class Inputs(NamedTuple):
    """Where a world's inputs lie: its config file and its directories of PNGs."""

    config: str
    train: str  # clean training scenes
    test: str  # clean held-out scenes; the training scenes again in the toy run
    templates: str


def _write_inputs(work, gen, splits: dict[str, int], size: int, config: str) -> Inputs:
    """Write config to work/toy.cfg, then draw from gen splits' scenes (directory -> count) in order and
    two scenes tinted blue-green as the synthesis templates, each a PNG in its directory of work."""
    os.makedirs(work, exist_ok=True)
    cfg = os.path.join(work, "toy.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(config)
    dirs = {}
    for name, count in [*splits.items(), ("templates", 2)]:
        dirs[name] = os.path.join(work, name)
        os.makedirs(dirs[name], exist_ok=True)
        for i in range(count):
            img = toy_scene(gen, size)
            if name != "templates":
                save_image(img, os.path.join(dirs[name], f"scene{i:02d}.png"))
            else:
                tinted = RgbImage.from_array(np.clip(img.data * [0.3, 0.6, 0.9], 0, 1))
                save_image(tinted, os.path.join(dirs[name], f"tpl{i}.png"))
    train = dirs["clean_train"]
    return Inputs(cfg, train, dirs.get("clean_test", train), dirs["templates"])


def write_toy_inputs(work) -> Inputs:
    """The toy run's inputs: four 16 px scenes, trained on and enhanced, under TOY_CONFIG."""
    return _write_inputs(work, np.random.default_rng(111), {"clean_train": 4}, 16, TOY_CONFIG)


def write_experiment_inputs(work) -> Inputs:
    """The toy experiment's inputs: 24 px training and held-out scenes under EXPERIMENT_CONFIG."""
    splits = {"clean_train": TRAIN_SCENES, "clean_test": HELD_OUT_SCENES}
    return _write_inputs(work, np.random.default_rng(11), splits, 24, EXPERIMENT_CONFIG)


def run_cli(inputs: Inputs, out) -> dict[str, Path]:
    """Run synth -> train-prompts -> finetune --prompts -> enhance --prompts -> eval on inputs, each stage
    into its directory of out, and return those directories by name. Held-out scenes are synthesized on
    their own; the held-out degraded images are enhanced, and eval scores them degraded and enhanced
    against their clean scenes. A stage that fails exits, naming itself and its exit code."""
    names = ("synth_train", "synth_test", "prompts", "model", "enhanced", "eval_degraded", "eval_enhanced")
    d = {name: Path(out) / name for name in names}
    held_out = inputs.test != inputs.train
    if not held_out:
        d["synth_test"] = d["synth_train"]
    prompts = d["prompts"] / "prompts.ckpt"

    def stage(step, command, *args):
        code = cli([command, "--config", inputs.config, *map(str, args)])
        if code != 0:
            sys.exit(f"{step} failed with exit code {code}")

    stage("synth(train)", "synth", "--clean", inputs.train, "--templates", inputs.templates, "--out", d["synth_train"])
    if held_out:
        stage("synth(test)", "synth", "--clean", inputs.test, "--templates", inputs.templates, "--out", d["synth_test"])
    stage("train-prompts", "train-prompts", "--natural", inputs.train,
          "--underwater", d["synth_train"] / "degraded", "--out", d["prompts"])
    stage("finetune", "finetune", "--manifest", d["synth_train"] / "manifest.tsv", "--prompts", prompts,
          "--out", d["model"])
    stage("enhance", "enhance", "--input", d["synth_test"] / "degraded", "--model", d["model"] / "model.ckpt",
          "--prompts", prompts, "--out", d["enhanced"])
    for name, images in (("degraded", d["synth_test"] / "degraded"), ("enhanced", d["enhanced"])):
        print(f"\n=== {name} test images vs clean references ===")
        stage(f"eval({name})", "eval", "--enhanced", images, "--reference", inputs.test, "--out", d[f"eval_{name}"])
    return d


def c12_config(seed: int):
    """EXPERIMENT_CONFIG at seed, as C12 trains it: on the L1 noise term alone."""
    return parse_config_text(EXPERIMENT_CONFIG + "[loss]\nlambda1 = 1.0\nlambda2 = 0\n", seed=str(seed))


def c12_pairs():
    """C12's (clean, degraded) training and held-out pairs: the toy experiment's scene counts and
    scattering ranges, drawn in memory."""
    gen, ranges = np.random.default_rng(112), c12_config(0).scatter_ranges()
    train_pairs, test_pairs = [], []
    for i in range(TRAIN_SCENES + HELD_OUT_SCENES):
        clean = toy_scene(gen)
        degraded = scatter_degrade(clean, ranges.draw(np.random.default_rng([112, i])))
        (train_pairs if i < TRAIN_SCENES else test_pairs).append((clean, degraded))
    return train_pairs, test_pairs


def train_sampler(train_pairs, seed: int):
    """The float32 sampler `enhance` would use of c12_config(seed)'s denoiser fine-tuned on
    train_pairs, on every schedule step."""
    config = c12_config(seed)
    model = config.denoiser()
    fine_tune(
        model,
        [(to_model_space(c), to_model_space(d)) for c, d in train_pairs],
        config.schedule(),
        weights=config.loss_weights(),
        optimizer=config.optimizer(),
        t_range=(config.train_t_min, config.schedule_steps),
    )
    return model.astype(np.float32)


def enhance_held_out(test_pairs, sampler, sched):
    """Each held-out degraded image enhanced with its own generator, as `enhance` would."""
    degraded = [d for _, d in test_pairs]
    return enhance_image(degraded, sampler, sched, None, None, [stream_rng(112, i) for i in range(len(degraded))])


def tiny_context(gamma2: float) -> JointContext:
    """An untrained 4-wide classifier with orthogonal prompt embeddings, guiding at weight gamma2."""
    params = init_params(JointNetConfig(width=4, embed_dim=4, token_count=3, token_width=4, text_hidden=4), 0)
    theta = np.eye(4)
    return JointContext(params, theta[0], theta[1], GuidanceConfig(gamma2=gamma2))


def separable_images(count=60, size=16, seed=11):
    """count (image, label) pairs: horizontal ramps (1), then vertical ones (0), with pixel noise."""
    gen = np.random.default_rng(seed)
    data = []
    ramp = np.linspace(0.15, 0.85, size)
    for label in (1, 0):
        base = np.tile(ramp[None, :], (size, 1)) if label else np.tile(ramp[:, None], (1, size))
        for _ in range(count // 2):
            arr = np.clip(base[:, :, None] + 0.05 * gen.standard_normal((size, size, 3)), 0, 1)
            data.append((RgbImage.from_array(arr), label))
    return data
