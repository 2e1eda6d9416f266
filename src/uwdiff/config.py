"""Declarative run configuration: sectioned key = value files with strict parsing.

Each RunConfig field declares its key ("section.key"), its default and, where
the default's type is not enough, its parser; nothing else lists the keys.
Unknown sections or keys are an error so typos cannot silently fall back to
defaults. `resolve_text` renders the fully merged configuration, which every
CLI subcommand prints before running.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .diffusion import GuidanceConfig, NoiseSchedule, make_linear_schedule
from .errors import ConfigError
from .jointnet import JointNetConfig, PromptTrainConfig
from .synthesis import METHODS, ScatterRanges
from .training import LossWeights, OptimizerConfig


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _choice(options) -> callable:
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {tuple(options)}, got {text!r}")
        return text

    return parse


def _int_from(low: int) -> callable:
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value

    return parse


def _key(name: str, default, parse=None):
    """A RunConfig field read from key `name` ("section.key"), by `parse` or its default's type."""
    parse = parse or {int: int, float: _float}[type(default)]
    return field(default=default, metadata={"key": name, "parse": parse})


@dataclass
class RunConfig:
    seed: int = _key("run.seed", 0, _int_from(0))
    # desk-scale default; endpoints follow the reference ramp scaled by 2000/steps
    schedule_steps: int = _key("schedule.steps", 200)
    beta_start: float = _key("schedule.beta_start", 1e-5)
    beta_end: float = _key("schedule.beta_end", 1e-1)
    # weight of the classifier's alignment gradient
    gamma2: float = _key("guidance.gamma2", 0.0)
    lambda1: float = _key("loss.lambda1", 0.6)
    lambda2: float = _key("loss.lambda2", 0.4)
    learning_rate: float = _key("optimizer.learning_rate", 1e-3)
    train_steps: int = _key("optimizer.steps", 200)
    train_t_min: int = _key("optimizer.t_min", 1)  # smallest diffusion step sampled during fine-tuning
    synth_method: str = _key("synthesis.method", "color_transfer", _choice(METHODS))
    beta_direct_min: float = _key("synthesis.beta_direct_min", 0.1)
    beta_direct_max: float = _key("synthesis.beta_direct_max", 1.5)
    beta_backscatter_min: float = _key("synthesis.beta_backscatter_min", 0.05)
    beta_backscatter_max: float = _key("synthesis.beta_backscatter_max", 1.0)
    veil_min: float = _key("synthesis.veil_min", 0.05)
    veil_max: float = _key("synthesis.veil_max", 0.95)
    depth_min: float = _key("synthesis.depth_min", 0.5)
    depth_max: float = _key("synthesis.depth_max", 4.0)
    classifier_width: int = _key("classifier.width", 64, _int_from(1))
    embed_dim: int = _key("classifier.embed_dim", 16, _int_from(1))
    prompt_epochs: int = _key("classifier.epochs", 200, _int_from(1))
    denoiser_width: int = _key("denoiser.width", 16)

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

    def scatter_ranges(self) -> ScatterRanges:
        return ScatterRanges(
            beta_direct=(self.beta_direct_min, self.beta_direct_max),
            beta_backscatter=(self.beta_backscatter_min, self.beta_backscatter_max),
            veil=(self.veil_min, self.veil_max),
            depth=(self.depth_min, self.depth_max),
        )

    def classifier(self) -> JointNetConfig:
        return JointNetConfig(width=self.classifier_width, embed_dim=self.embed_dim)

    def prompt_training(self) -> PromptTrainConfig:
        return PromptTrainConfig(epochs=self.prompt_epochs, seed=self.seed)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    config = RunConfig()
    sections = {f.metadata["key"].partition(".")[0] for f in fields(RunConfig)}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in sections:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        set_key(config, f"{section}.{key.strip()}", value.strip(), f"{source}:{lineno}")
    return config


def set_key(config: RunConfig, name: str, text: str, where: str) -> None:
    """Parse text into the field declared as key `name`; errors name `where` and the key."""
    for f in fields(RunConfig):
        if f.metadata["key"] == name:
            try:
                setattr(config, f.name, f.metadata["parse"](text))
            except ValueError as exc:
                raise ConfigError(f"{where}: bad value for {name}: {exc}") from exc
            return
    section, _, key = name.partition(".")
    raise ConfigError(f"{where}: unknown key {key!r} in section [{section}]")


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def resolve_text(config: RunConfig) -> str:
    """Render the merged configuration in file syntax, one block per section."""
    lines = []
    section = None
    for f in fields(RunConfig):
        name, _, key = f.metadata["key"].partition(".")
        if name != section:
            lines += ["", f"[{name}]"]
            section = name
        lines.append(f"{key} = {getattr(config, f.name)}")
    return "\n".join(lines[1:]) + "\n"
