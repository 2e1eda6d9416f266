"""Declarative run configuration: sectioned key = value files with strict parsing.

Every key has a documented default; unknown sections or keys are an error so
typos cannot silently fall back to defaults. `resolve_text` renders the fully
merged configuration, which every CLI subcommand prints before running.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .diffusion import GuidanceConfig, NoiseSchedule, make_linear_schedule
from .errors import ConfigError
from .jointnet import JointNetConfig, PromptTrainConfig
from .synthesis import METHODS, ScatterRanges
from .training import AugmentationConfig, LossWeights, OptimizerConfig


@dataclass
class RunConfig:
    # [run]
    seed: int = 0
    # [schedule] desk-scale default; endpoints follow the reference ramp scaled by 2000/steps
    schedule_steps: int = 200
    beta_start: float = 1e-5
    beta_end: float = 1e-1
    # [guidance] weight of the classifier's alignment gradient
    gamma2: float = 0.0
    # [loss]
    lambda1: float = 0.6
    lambda2: float = 0.4
    # [optimizer]
    learning_rate: float = 1e-3
    train_steps: int = 200
    train_t_min: int = 1  # smallest diffusion step sampled during fine-tuning
    # [augment]
    rotation: bool = True
    hflip: bool = True
    augment_probability: float = 0.5
    # [synthesis]
    synth_method: str = "color_transfer"
    beta_direct_min: float = 0.1
    beta_direct_max: float = 1.5
    beta_backscatter_min: float = 0.05
    beta_backscatter_max: float = 1.0
    veil_min: float = 0.05
    veil_max: float = 0.95
    depth_min: float = 0.5
    depth_max: float = 4.0
    # [classifier]
    classifier_width: int = 64
    embed_dim: int = 16
    token_count: int = 77
    token_width: int = 16
    text_hidden: int = 32
    prompt_epochs: int = 200
    prompt_learning_rate: float = 0.01
    holdout_fraction: float = 0.2
    # [denoiser]
    denoiser_width: int = 16
    # [metrics]
    metric_psnr: bool = True
    metric_ssim: bool = True
    metric_uiqm: bool = True
    metric_uciqe: bool = True
    metric_cpbd: bool = True

    # derived builders -----------------------------------------------------
    def schedule(self) -> NoiseSchedule:
        return make_linear_schedule(self.schedule_steps, self.beta_start, self.beta_end)

    def guidance(self) -> GuidanceConfig:
        return GuidanceConfig(gamma2=self.gamma2)

    def loss_weights(self) -> LossWeights:
        return LossWeights(lambda1=self.lambda1, lambda2=self.lambda2)

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(
            learning_rate=self.learning_rate,
            total_steps=self.train_steps,
            seed=self.seed,
        )

    def augmentation(self) -> AugmentationConfig:
        return AugmentationConfig(
            enable_rotation=self.rotation,
            enable_hflip=self.hflip,
            probability=self.augment_probability,
        )

    def scatter_ranges(self) -> ScatterRanges:
        return ScatterRanges(
            beta_direct=(self.beta_direct_min, self.beta_direct_max),
            beta_backscatter=(self.beta_backscatter_min, self.beta_backscatter_max),
            veil=(self.veil_min, self.veil_max),
            depth=(self.depth_min, self.depth_max),
        )

    def classifier(self) -> JointNetConfig:
        return JointNetConfig(
            width=self.classifier_width,
            embed_dim=self.embed_dim,
            token_count=self.token_count,
            token_width=self.token_width,
            text_hidden=self.text_hidden,
        )

    def prompt_training(self) -> PromptTrainConfig:
        return PromptTrainConfig(
            epochs=self.prompt_epochs,
            learning_rate=self.prompt_learning_rate,
            holdout_fraction=self.holdout_fraction,
            seed=self.seed,
        )


# (section, key) -> (attribute, parser)
def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _choice(options) -> callable:
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {tuple(options)}, got {text!r}")
        return text

    return parse


_SCHEMA: dict[str, dict[str, tuple[str, callable]]] = {
    "run": {"seed": ("seed", int)},
    "schedule": {
        "steps": ("schedule_steps", int),
        "beta_start": ("beta_start", _float),
        "beta_end": ("beta_end", _float),
    },
    "guidance": {"gamma2": ("gamma2", _float)},
    "loss": {
        "lambda1": ("lambda1", _float),
        "lambda2": ("lambda2", _float),
    },
    "optimizer": {
        "learning_rate": ("learning_rate", _float),
        "steps": ("train_steps", int),
        "t_min": ("train_t_min", int),
    },
    "augment": {
        "rotation": ("rotation", _bool),
        "hflip": ("hflip", _bool),
        "probability": ("augment_probability", _float),
    },
    "synthesis": {
        "method": ("synth_method", _choice(METHODS)),
        "beta_direct_min": ("beta_direct_min", _float),
        "beta_direct_max": ("beta_direct_max", _float),
        "beta_backscatter_min": ("beta_backscatter_min", _float),
        "beta_backscatter_max": ("beta_backscatter_max", _float),
        "veil_min": ("veil_min", _float),
        "veil_max": ("veil_max", _float),
        "depth_min": ("depth_min", _float),
        "depth_max": ("depth_max", _float),
    },
    "classifier": {
        "width": ("classifier_width", int),
        "embed_dim": ("embed_dim", int),
        "token_count": ("token_count", int),
        "token_width": ("token_width", int),
        "text_hidden": ("text_hidden", int),
        "epochs": ("prompt_epochs", int),
        "learning_rate": ("prompt_learning_rate", _float),
        "holdout_fraction": ("holdout_fraction", _float),
    },
    "denoiser": {"width": ("denoiser_width", int)},
    "metrics": {
        "psnr": ("metric_psnr", _bool),
        "ssim": ("metric_ssim", _bool),
        "uiqm": ("metric_uiqm", _bool),
        "uciqe": ("metric_uciqe", _bool),
        "cpbd": ("metric_cpbd", _bool),
    },
}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    config = RunConfig()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in section [{section}]")
        attribute, parser = _SCHEMA[section][key]
        try:
            setattr(config, attribute, parser(value))
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {section}.{key}: {exc}") from exc
    return config


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def resolve_text(config: RunConfig) -> str:
    """Render the merged configuration in file syntax (section by section)."""
    by_attr = {
        attr: (section, key)
        for section, keys in _SCHEMA.items()
        for key, (attr, _) in keys.items()
    }
    lines: dict[str, list[str]] = {section: [] for section in _SCHEMA}
    for f in fields(RunConfig):
        section, key = by_attr[f.name]
        value = getattr(config, f.name)
        text = str(value).lower() if isinstance(value, bool) else str(value)
        lines[section].append(f"{key} = {text}")
    chunks = []
    for section in _SCHEMA:
        chunks.append(f"[{section}]")
        chunks.extend(lines[section])
        chunks.append("")
    return "\n".join(chunks).rstrip() + "\n"
