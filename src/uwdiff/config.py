"""Declarative run configuration: sectioned key = value files with strict parsing.

Each RunConfig field declares its key ("section.key") and its default, whose
type picks its parser; nothing else lists the keys. A field that a library
dataclass field owns takes that field's default, so each default lives once.
Unknown sections or keys are an error so typos cannot silently fall back to
defaults; making a RunConfig runs each library bound once. `resolve_text`
renders the fully merged configuration, which every stage prints first.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

from .denoiser import ConditionalDenoiser, layer_shapes
from .diffusion import SAMPLER_STEPS, GuidanceConfig, NoiseSchedule, make_linear_schedule, respace
from .errors import ConfigError, ParameterError
from .imageio import read_text
from .jointnet import JointNetConfig, PromptTrainConfig
from .synthesis import ScatterRanges, check_method
from .training import LossWeights, OptimizerConfig, check_t_range


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _key(name: str, default):
    """A RunConfig field read from key `name` ("section.key") by its default's type."""
    parse = {int: int, float: _float, str: str}[type(default)]
    return field(default=default, metadata={"key": name, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    seed: int = _key("run.seed", 0)
    # desk-scale default: the endpoints of a 2000-step 1e-6 -> 1e-2 reference ramp, times 2000/200
    schedule_steps: int = _key("schedule.steps", 200)
    beta_start: float = _key("schedule.beta_start", 1e-5)
    beta_end: float = _key("schedule.beta_end", 1e-1)
    # weight of the classifier's alignment gradient
    gamma2: float = _key("guidance.gamma2", GuidanceConfig.gamma2)
    lambda1: float = _key("loss.lambda1", LossWeights.lambda1)
    lambda2: float = _key("loss.lambda2", LossWeights.lambda2)
    learning_rate: float = _key("optimizer.learning_rate", OptimizerConfig.learning_rate)
    train_steps: int = _key("optimizer.steps", OptimizerConfig.total_steps)
    train_t_min: int = _key("optimizer.t_min", 1)  # smallest diffusion step sampled during fine-tuning
    synth_method: str = _key("synthesis.method", "color_transfer")
    beta_direct_min: float = _key("synthesis.beta_direct_min", ScatterRanges.beta_direct[0])
    beta_direct_max: float = _key("synthesis.beta_direct_max", ScatterRanges.beta_direct[1])
    beta_backscatter_min: float = _key("synthesis.beta_backscatter_min", ScatterRanges.beta_backscatter[0])
    beta_backscatter_max: float = _key("synthesis.beta_backscatter_max", ScatterRanges.beta_backscatter[1])
    veil_min: float = _key("synthesis.veil_min", ScatterRanges.veil[0])
    veil_max: float = _key("synthesis.veil_max", ScatterRanges.veil[1])
    depth_min: float = _key("synthesis.depth_min", ScatterRanges.depth[0])
    depth_max: float = _key("synthesis.depth_max", ScatterRanges.depth[1])
    classifier_width: int = _key("classifier.width", JointNetConfig.width)
    embed_dim: int = _key("classifier.embed_dim", JointNetConfig.embed_dim)
    prompt_epochs: int = _key("classifier.epochs", PromptTrainConfig.epochs)
    denoiser_width: int = _key("denoiser.width", 16)

    where = {}  # not a field: field name -> "<where parse_config_text read it>: section.key"

    def __post_init__(self):
        """Check every section once, so that no RunConfig holds an out-of-range value."""
        for check in (self.schedule, self.guidance, self.loss_weights, self.optimizer,
                      self.scatter_ranges, self.classifier, self.prompt_training):
            check()
        check_t_range((self.train_t_min, self.schedule_steps), self.schedule_steps)
        check_method(self.synth_method)
        layer_shapes(self.denoiser_width)  # not self.denoiser(), whose weight draw imports numpy.random

    # derived builders -----------------------------------------------------
    def schedule(self) -> NoiseSchedule:
        return make_linear_schedule(self.schedule_steps, self.beta_start, self.beta_end)

    def sampling_schedule(self) -> NoiseSchedule:
        """The schedule `enhance` and `verify` sample: schedule() respaced to at most SAMPLER_STEPS steps;
        `finetune` trains on every step of schedule()."""
        return respace(self.schedule(), SAMPLER_STEPS)

    def guidance(self) -> GuidanceConfig:
        return GuidanceConfig(gamma2=self.gamma2)

    def loss_weights(self) -> LossWeights:
        return LossWeights(lambda1=self.lambda1, lambda2=self.lambda2)

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(learning_rate=self.learning_rate, total_steps=self.train_steps, seed=self.seed)

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

    def denoiser(self) -> ConditionalDenoiser:
        return ConditionalDenoiser(width=self.denoiser_width, seed=self.seed)


def parse_config_text(text: str, source: str = "<config>", seed: str | None = None) -> RunConfig:
    """text's RunConfig with --seed's text `seed` over it; errors name `<source>:<line>` or `--seed`."""
    declared = {f.metadata["key"]: f for f in fields(RunConfig)}
    sections = {name.partition(".")[0] for name in declared}
    settings = []  # ("section.key", value text, where it was set)
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
        settings.append((f"{section}.{key.strip()}", value.strip(), f"{source}:{lineno}"))
    if seed is not None:
        settings.append(("run.seed", seed, "--seed"))
    values, where = {}, {}
    for name, value, at in settings:
        if name not in declared:
            section, _, key = name.partition(".")
            raise ConfigError(f"{at}: unknown key {key!r} in section [{section}]")
        f = declared[name]
        try:
            values[f.name] = f.metadata["parse"](value)
        except ValueError as exc:
            raise ConfigError(f"{at}: bad value for {name}: {exc}") from exc
        where[f.name] = f"{at}: {name}"
    config = _built(values)
    if isinstance(config, str):  # name each set key the message names, or whose reset to its default changes it
        named = {n for n in values if re.search(rf"\b{n}\b", config)}
        blamed = [n for n in values if n in named or _built({k: v for k, v in values.items() if k != n}) != config]
        raise ConfigError("; ".join(where[n] for n in blamed or values) + f": {config}")
    object.__setattr__(config, "where", where)
    return config


def _built(values: dict) -> RunConfig | str:
    """RunConfig(**values), or the message of the ParameterError that stops it."""
    try:
        return RunConfig(**values)
    except ParameterError as exc:
        return str(exc)


def load_config(path=None, seed: str | None = None) -> RunConfig:
    if path is None:
        return parse_config_text("", seed=seed)
    return parse_config_text(read_text(path, ConfigError, "config file"), str(path), seed)


def resolve_text(config: RunConfig) -> str:
    """Render the merged configuration in file syntax, one block per section."""
    lines, section = [], None
    for f in fields(RunConfig):
        name, _, key = f.metadata["key"].partition(".")
        if name != section:
            lines += ["", f"[{name}]"]
            section = name
        lines.append(f"{key} = {getattr(config, f.name)}")
    return "\n".join(lines[1:]) + "\n"
