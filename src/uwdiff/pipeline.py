"""Glue between the CLI and the library: checkpoint bundles, manifest-backed
training pairs, and `reverse_chain`, the one sampler loop of `enhance` and `verify`.

Images enter the diffusion model in the [-1, 1] model space; enhanced outputs
are mapped back to [0, 1] and written as 8-bit PNG.
"""

from __future__ import annotations

import os

import numpy as np

from . import denoiser, jointnet
from .autodiff import Tensor
from .checkpoint import read_checkpoint, write_checkpoint
from .config import RunConfig, parse_config_text, resolve_text
from .denoiser import ConditionalDenoiser
from .diffusion import (
    GuidanceConfig,
    NoiseSchedule,
    draw_normal,
    guided_noise_prediction,
    reverse_step,
    stream_rng,
)
from .errors import ParameterError, SamplingDivergedError, ShapeMismatchError, UnsupportedFormatError
from .images import RgbImage
from .imageio import list_images, load_image, require_unique_stems, save_image
from .jointnet import JointNetParams, PromptTensor, encode_prompt
from .synthesis import DatasetManifest, load_pair
from .training import JointContext, guidance_pixel_grad


def to_model_space(img: RgbImage) -> np.ndarray:
    """(H, W, 3) in [0,1] -> (3, H, W) in [-1, 1]."""
    return np.ascontiguousarray(img.data.transpose(2, 0, 1) * 2.0 - 1.0)


def from_model_space(chw: np.ndarray) -> RgbImage:
    data = np.clip((chw + 1.0) * 0.5, 0.0, 1.0).transpose(1, 2, 0)
    return RgbImage(data.shape[1], data.shape[0], np.ascontiguousarray(data))


# ---------------------------------------------------------------------------
# Checkpoint bundles
# ---------------------------------------------------------------------------


def save_checkpoint(path, tensors: dict[str, Tensor], config: RunConfig) -> None:
    """Write the named tensors in order, with the run's resolved configuration as the echo."""
    arrays = {name: tensor.data for name, tensor in tensors.items()}
    write_checkpoint(path, arrays, config_echo=resolve_text(config))


def _load_tensors(path, tensors: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]) -> dict[str, Tensor]:
    """The checkpoint tensor of each name in shapes, as a new Tensor, once its shape is checked."""
    for name, shape in shapes.items():
        if name not in tensors:
            raise UnsupportedFormatError(f"checkpoint {os.fspath(path)!r} has no tensor {name!r}")
        if tensors[name].shape != shape:
            raise ShapeMismatchError(
                f"checkpoint {os.fspath(path)!r}: tensor {name!r} has shape {tensors[name].shape}, "
                f"expected {shape}"
            )
    return {name: Tensor(tensors[name]) for name in shapes}


def joint_context_from_checkpoint(path, guidance: GuidanceConfig) -> JointContext:
    """The frozen classifier and encoded prompts of a prompts checkpoint, guiding by `guidance`."""
    tensors, echo = read_checkpoint(path)
    config = parse_config_text(echo, source=f"{path}:echo").classifier()
    prompts = jointnet.prompt_shapes(config)
    loaded = _load_tensors(path, tensors, {**jointnet.layer_shapes(config), **prompts})
    natural, underwater = (PromptTensor(loaded.pop(name).data) for name in prompts)
    params = JointNetParams(config, loaded)
    return JointContext(
        params=params,
        theta_natural=encode_prompt(natural, params),
        theta_underwater=encode_prompt(underwater, params),
        guidance=guidance,
    )


def load_model_checkpoint(path) -> tuple[ConditionalDenoiser, RunConfig]:
    tensors, echo = read_checkpoint(path)
    config = parse_config_text(echo, source=f"{path}:echo")
    shapes = denoiser.layer_shapes(config.denoiser_width)
    return ConditionalDenoiser(tensors=_load_tensors(path, tensors, shapes)), config


# ---------------------------------------------------------------------------
# Manifest-backed training pairs
# ---------------------------------------------------------------------------


def pairs_from_manifest(manifest_path) -> list[tuple[np.ndarray, np.ndarray]]:
    """(clean, degraded) model-space pairs for every manifest entry."""
    manifest = DatasetManifest.read(manifest_path)
    if not manifest.entries:
        raise ParameterError(f"manifest {os.fspath(manifest_path)!r} has no entries")
    pairs = []
    shape = None
    for entry in manifest.entries:
        try:
            degraded, clean = load_pair(manifest_path, entry, manifest.version)
        except FileNotFoundError as exc:
            raise ParameterError(f"manifest {os.fspath(manifest_path)!r}, entry {entry.degraded!r}: {exc}") from exc
        if (clean.height, clean.width) != (degraded.height, degraded.width):
            raise ShapeMismatchError(f"pair {entry.degraded!r} has mismatched dimensions")
        if shape is None:
            shape = (clean.height, clean.width)
        elif (clean.height, clean.width) != shape:
            raise ShapeMismatchError(
                f"training pairs must share dimensions; {entry.clean!r} is {clean.width}x{clean.height}"
            )
        pairs.append((to_model_space(clean), to_model_space(degraded)))
    return pairs


# ---------------------------------------------------------------------------
# Enhancement
# ---------------------------------------------------------------------------


# Most pixels sampled as one batch: four 32 px images share each step's
# denoiser call and classifier pass, and a 64 px image runs alone, so a batched
# call is never larger than one 64 px call. Outputs do not depend on it.
_RUN_PIXELS = 4096


def reverse_chain(x, predict, guide, sched: NoiseSchedule, cfg: GuidanceConfig | None, rng) -> np.ndarray:
    """The one reverse diffusion loop, x_T -> x_0, for `enhance` and the analytic checks.

    At each t = T..1: eps = predict(x, t); unless guide is None, guide(x, t)'s (y1, y2) gradients fold
    into eps by guided_noise_prediction under cfg; reverse_step draws x_{t-1} from rng (a generator, or
    one per row of x). Raises SamplingDivergedError naming t's training step (and t, on a respaced
    schedule), with `image` the first row gone non-finite."""
    for t in range(sched.steps, 0, -1):
        eps = predict(x, t)
        if guide is not None:
            eps = guided_noise_prediction(eps, *guide(x, t), t, sched, cfg)
        x = reverse_step(x, eps, t, sched, rng)
        finite = np.isfinite(x)
        if not finite.all():
            first = int(np.argmin(finite.reshape(len(x), -1).all(axis=1)))
            where = f"step t={sched.timestep_at(t)} of {sched.timestep[-1]}"  # the training schedule's step
            if sched.steps < sched.timestep[-1]:
                where += f" (sampling step {t} of {sched.steps})"
            bad = f"{np.count_nonzero(~finite[first])} non-finite values in x_{sched.timestep_at(t - 1) if t > 1 else 0}"
            raise SamplingDivergedError(f"reverse chain diverged at {where}: {bad}", image=first)
    return x


def enhance_image(
    degraded,
    model: ConditionalDenoiser,
    sched: NoiseSchedule,
    guidance: GuidanceConfig | None,
    context: JointContext | None,
    rng,
):
    """Run reverse_chain for one degraded image and its generator, or for a
    list of same-size images with one generator each.

    A list is sampled as one (N, 3, H, W) chain: the denoiser call, the
    classifier guidance, the reverse step and the finiteness check run once
    per step for all of them. Each image draws only from its own generator and
    gets the convolution BLAS calls it would get alone, so it gets the bytes
    it would get alone. Returns the enhanced image, or the list of them. The
    denoiser runs in its weights' dtype. The chain is classifier-guided, in
    the y2 slot, when a context is given and gamma2 > 0 in guidance, or in
    context.guidance when guidance is None.
    """
    single = isinstance(degraded, RgbImage)
    images, rngs = ([degraded], [rng]) if single else (degraded, rng)
    condition = np.stack([to_model_space(img) for img in images])
    if guidance is None and context is not None:
        guidance = context.guidance
    guide = (lambda x, t: (None, guidance_pixel_grad(x, context))) if context and guidance.gamma2 > 0 else None
    x = reverse_chain(  # x_T is passed, not held here, so it is freed after the first step
        draw_normal(rngs, condition.shape), lambda x, t: model(x, condition, t, sched), guide, sched, guidance, rngs
    )
    enhanced = [from_model_space(chw) for chw in x]
    return enhanced[0] if single else enhanced


def _same_size_runs(input_dir, names: list[str]):
    """Lists of (index, name, image) for consecutive same-size images of at most
    _RUN_PIXELS pixels in all, decoding each image only as its run fills. A run
    that cannot take one more image is yielded before the next is decoded."""
    run = []
    for index, name in enumerate(names):
        img = load_image(os.path.join(os.fspath(input_dir), name))
        if run and (img.height, img.width) != (run[0][2].height, run[0][2].width):
            yield run
            run = []
        run.append((index, name, img))
        if (len(run) + 1) * img.height * img.width > _RUN_PIXELS:
            yield run
            run = []
    if run:
        yield run


def enhance_directory(
    input_dir,
    out_dir,
    model: ConditionalDenoiser,
    sched: NoiseSchedule,
    seed: int,
    context: JointContext | None = None,
    progress=None,
) -> list[str]:
    """Enhance every image in input_dir; per-image generators come from (seed, index).

    Consecutive same-size images in name order are sampled together, in runs
    of at most _RUN_PIXELS pixels, one run after another. Outputs and progress
    lines come in name order, and no output depends on the runs.
    """
    names = list_images(input_dir)
    require_unique_stems(input_dir, names)
    written = []
    for run in _same_size_runs(input_dir, names):
        rngs = [stream_rng(seed, index) for index, _, _ in run]
        try:
            enhanced = enhance_image([img for _, _, img in run], model, sched, None, context, rngs)
        except SamplingDivergedError as exc:
            raise SamplingDivergedError(f"{run[exc.image][1]}: {exc}") from exc
        for (index, name, _), image in zip(run, enhanced):
            out_path = os.path.join(os.fspath(out_dir), os.path.splitext(name)[0] + ".png")
            save_image(image, out_path)
            written.append(out_path)
            if progress is not None:
                progress(f"[{index + 1}/{len(names)}] {name}")
    return written
