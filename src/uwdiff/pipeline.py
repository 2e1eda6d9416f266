"""Glue between the CLI and the library: checkpoint bundles, manifest-backed
training pairs, and the guided enhancement loop over whole images.

Images enter the diffusion model in the [-1, 1] model space; enhanced outputs
are mapped back to [0, 1] and written as 8-bit PNG.
"""

from __future__ import annotations

import os

import numpy as np

from .autodiff import Tensor
from .checkpoint import read_checkpoint, write_checkpoint
from .config import RunConfig, parse_config_text, resolve_text
from .denoiser import ConditionalDenoiser
from .diffusion import (
    GuidanceConfig,
    NoiseSchedule,
    guided_noise_prediction,
    reverse_step,
    stream_rng,
)
from .errors import ParameterError, SamplingDivergedError, ShapeMismatchError, UnsupportedFormatError
from .images import RgbImage
from .imageio import list_images, load_image, require_unique_stems, save_image
from .jointnet import PromptTensor, encode_prompt, init_params
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


def _load_tensors(path, tensors: dict[str, np.ndarray], targets: dict[str, Tensor]) -> None:
    """Set each target's data to the checkpoint tensor of the same name and shape."""
    for name, target in targets.items():
        if name not in tensors:
            raise UnsupportedFormatError(f"checkpoint {os.fspath(path)!r} has no tensor {name!r}")
        if tensors[name].shape != target.data.shape:
            raise ShapeMismatchError(
                f"checkpoint {os.fspath(path)!r}: tensor {name!r} has shape {tensors[name].shape}, "
                f"expected {target.data.shape}"
            )
        target.data = tensors[name]


def joint_context_from_checkpoint(path, guidance: GuidanceConfig) -> JointContext:
    """The frozen classifier and encoded prompts of a prompts checkpoint, guiding by `guidance`."""
    tensors, echo = read_checkpoint(path)
    config = parse_config_text(echo, source=f"{path}:echo")
    params = init_params(config.classifier(), config.seed)
    prompt_shape = (params.config.token_count, params.config.token_width)
    prompts = {name: Tensor(np.empty(prompt_shape)) for name in ("prompt.natural", "prompt.underwater")}
    _load_tensors(path, tensors, {**params.tensors, **prompts})
    return JointContext(
        params=params,
        theta_natural=encode_prompt(PromptTensor(prompts["prompt.natural"].data), params),
        theta_underwater=encode_prompt(PromptTensor(prompts["prompt.underwater"].data), params),
        guidance=guidance,
    )


def load_model_checkpoint(path) -> tuple[ConditionalDenoiser, RunConfig]:
    tensors, echo = read_checkpoint(path)
    config = parse_config_text(echo, source=f"{path}:echo")
    model = config.denoiser()
    _load_tensors(path, tensors, model.tensors)
    return model, config


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


def enhance_image(
    degraded: RgbImage,
    model: ConditionalDenoiser,
    sched: NoiseSchedule,
    guidance: GuidanceConfig | None,
    context: JointContext | None,
    rng: np.random.Generator,
) -> RgbImage:
    """Run the full conditional reverse chain for one degraded image.

    The chain is classifier-guided when a context is given and
    guidance.gamma2 > 0, and guidance is read only then. Raises
    SamplingDivergedError, naming the step, when x_{t-1} goes non-finite.
    """
    condition = to_model_space(degraded)
    x = rng.standard_normal(condition.shape)
    guided = context is not None and guidance.gamma2 > 0
    for t in range(sched.steps, 0, -1):
        eps_hat = model(x, condition, t, sched)
        if guided:
            grad2 = guidance_pixel_grad(x, context)
            eps_hat = guided_noise_prediction(eps_hat, None, grad2, t, sched, guidance)
        x = reverse_step(x, eps_hat, t, sched, rng)
        if not np.isfinite(x).all():
            bad = int(np.count_nonzero(~np.isfinite(x)))
            raise SamplingDivergedError(
                f"reverse chain diverged at step t={t} of {sched.steps}: {bad} non-finite values in x_{t - 1}"
            )
    return from_model_space(x)


def enhance_directory(
    input_dir,
    out_dir,
    model: ConditionalDenoiser,
    sched: NoiseSchedule,
    seed: int,
    context: JointContext | None = None,
    progress=None,
) -> list[str]:
    """Enhance every image in input_dir; per-image generators come from (seed, index)."""
    guidance = None if context is None else context.guidance  # the context carries the run's weight
    names = list_images(input_dir)
    require_unique_stems(input_dir, names)
    written = []
    for index, name in enumerate(names):
        img = load_image(os.path.join(os.fspath(input_dir), name))
        try:
            enhanced = enhance_image(img, model, sched, guidance, context, stream_rng(seed, index))
        except SamplingDivergedError as exc:
            raise SamplingDivergedError(f"{name}: {exc}") from exc
        out_path = os.path.join(os.fspath(out_dir), os.path.splitext(name)[0] + ".png")
        save_image(enhanced, out_path)
        written.append(out_path)
        if progress is not None:
            progress(f"[{index + 1}/{len(names)}] {name}")
    return written
