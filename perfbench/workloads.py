"""The four benchmark workloads: their inputs, untimed preparation, timed stages and checks.

Every workload writes its inputs from the benchmark seed alone; uwdiff sees
only the files and a generated config whose run seed is fixed. One pass is
the workload's timed stages run back to back, each in a fresh process. A pass
writes into its own directory, which the checks read after the pass.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

import inputs

# Fine-tunes the denoiser that the enhance workloads sample with: 24 px
# training pairs keep preparation short, and the fully convolutional model
# runs at any image size.
PREP_FINETUNE_STEPS = 600
TIMED_FINETUNE_STEPS = 300

# Floors of the enhance checks, far below what the fine-tuned denoiser gives
# (over seeds 501-510 of both enhance workloads: mean PSNR gain >= -1.67 dB,
# every image changed by >= 31 grey levels and correlated >= 0.37 with its
# clean scene). The input returned unchanged, a flat image or noise fails.
# The gain may be negative: the small model does not improve every scene.
MIN_PSNR_GAIN_DB = -5.0
MIN_CHANGE = 8.0  # mean absolute change from the degraded input, in 8-bit grey levels
MIN_STRUCTURE = 0.2  # Pearson correlation of the enhanced and clean pixel values

BASE_CONFIG = f"""\
[run]
seed = 0
[optimizer]
learning_rate = 2e-3
t_min = 20
[classifier]
width = 16
embed_dim = 8
epochs = 100
[denoiser]
width = 32
[synthesis]
method = scatter
beta_direct_min = {inputs.SCATTER["beta_direct"][0]}
beta_direct_max = {inputs.SCATTER["beta_direct"][1]}
beta_backscatter_min = {inputs.SCATTER["beta_backscatter"][0]}
beta_backscatter_max = {inputs.SCATTER["beta_backscatter"][1]}
veil_min = {inputs.SCATTER["veil"][0]}
veil_max = {inputs.SCATTER["veil"][1]}
depth_min = {inputs.SCATTER["depth"][0]}
depth_max = {inputs.SCATTER["depth"][1]}
"""


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a / 255.0 - b / 255.0) ** 2))
    return math.inf if mse == 0 else 10.0 * math.log10(1.0 / mse)


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_set(directory: Path, images: list[np.ndarray]) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    names = [f"scene{i:02d}.png" for i in range(len(images))]
    for name, pixels in zip(names, images):
        inputs.write_png(directory / name, pixels)
    return names


class Workload:
    """Base: subclasses set the class attributes and fill in the four steps."""

    name = ""
    why = ""
    stage_names: tuple[str, ...] = ()
    config_extra = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.inputs = work / "inputs"
        self.prep = work / "prep"
        self.config = work / "uwdiff.cfg"
        self.rng = np.random.default_rng(seed)
        work.mkdir(parents=True, exist_ok=True)
        self.config.write_text(BASE_CONFIG + self.config_extra, encoding="utf-8")

    def cli(self, stage: str, *args) -> list[str]:
        return [stage, "--config", str(self.config), *map(str, args)]

    def generate(self) -> None:
        raise NotImplementedError

    def prepare(self, run) -> None:
        """Untimed uwdiff runs that make the models and checkpoints a pass needs."""

    def stages(self, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out: Path) -> tuple[dict, list[str], str]:
        """(quality values, problems found, digest of the outputs) for one pass."""
        raise NotImplementedError

    def throughput(self, walls: dict[str, float]) -> dict[str, float]:
        """Items per second of the stages that do the workload's items."""
        raise NotImplementedError


class _Enhance(Workload):
    size = 0
    images = 0
    guided = False
    stage_names = ("enhance",)
    config_extra = f"[optimizer]\nsteps = {PREP_FINETUNE_STEPS}\n"

    def generate(self) -> None:
        write_set(self.inputs / "train", [inputs.scene(self.rng, 24) for _ in range(12)])
        write_set(self.inputs / "templates", [inputs.underwater(self.rng, 32) for _ in range(2)])
        self.clean = [inputs.scene(self.rng, self.size) for _ in range(self.images)]
        self.degraded = [inputs.scatter(self.rng, c) for c in self.clean]
        self.names = write_set(self.inputs / "degraded", self.degraded)

    def prepare(self, run) -> None:
        synth = self.prep / "synth"
        run(self.cli("synth", "--clean", self.inputs / "train", "--templates", self.inputs / "templates", "--out", synth))
        if self.guided:
            run(self.cli("train-prompts", "--natural", self.inputs / "train", "--underwater", synth / "degraded",
                         "--out", self.prep / "prompts"))
        run(self.cli("finetune", "--manifest", synth / "manifest.tsv", "--out", self.prep / "model"))

    def stages(self, out: Path) -> list[list[str]]:
        argv = self.cli("enhance", "--input", self.inputs / "degraded", "--model", self.prep / "model" / "model.ckpt",
                        "--out", out / "enhanced")
        if self.guided:
            argv += ["--prompts", str(self.prep / "prompts" / "prompts.ckpt")]
        return [argv]

    def check(self, out: Path) -> tuple[dict, list[str], str]:
        problems, gains, paths = [], [], []
        for name, clean, degraded in zip(self.names, self.clean, self.degraded):
            path = out / "enhanced" / name
            if not path.is_file():
                problems.append(f"missing output {path.name}")
                continue
            enhanced = inputs.read_png(path)
            if enhanced.shape != clean.shape:
                problems.append(f"{path.name} has shape {enhanced.shape}, expected {clean.shape}")
                continue
            change = float(np.mean(np.abs(enhanced.astype(float) - degraded)))
            if not change >= MIN_CHANGE:
                problems.append(f"{path.name} differs from its input by {change:.2f} grey levels on average")
            with np.errstate(invalid="ignore", divide="ignore"):  # a flat image has no correlation: nan
                structure = float(np.corrcoef(enhanced.ravel().astype(float), clean.ravel().astype(float))[0, 1])
            if not structure >= MIN_STRUCTURE:
                problems.append(f"{path.name} correlates {structure:.3f} with the clean scene")
            gains.append(psnr(enhanced, clean) - psnr(degraded, clean))
            paths.append(path)
        gain = float(np.mean(gains)) if gains else math.nan
        if not problems and not gain > MIN_PSNR_GAIN_DB:
            problems.append(f"PSNR gain {gain:.2f} dB is not above {MIN_PSNR_GAIN_DB} dB")
        return {"psnr_gain_db": gain}, problems, digest(paths)

    def throughput(self, walls):
        return {"enhance_img_per_s": self.images / walls["enhance"]}


class Enhance64(_Enhance):
    name = "enhance-64"
    why = "unguided 200-step chains at 64 px: denoiser conv2d and reverse_step carry the load"
    size = 64
    images = 2


class Guided32(_Enhance):
    name = "guided-32"
    why = "classifier-guided chains at 32 px: alignment_pixel_grad is about half of each step"
    size = 32
    images = 4
    guided = True
    config_extra = _Enhance.config_extra + "[guidance]\ngamma2 = 0.5\n"


class Finetune24(Workload):
    name = "finetune-24"
    why = "train-prompts then finetune with the semantic term and augmentation: the backward and Adam path"
    stage_names = ("train-prompts", "finetune")
    config_extra = f"[optimizer]\nsteps = {TIMED_FINETUNE_STEPS}\n[loss]\nlambda2 = 0.4\n"

    def generate(self) -> None:
        write_set(self.inputs / "train", [inputs.scene(self.rng, 24) for _ in range(12)])
        write_set(self.inputs / "templates", [inputs.underwater(self.rng, 32) for _ in range(2)])

    def prepare(self, run) -> None:
        run(self.cli("synth", "--clean", self.inputs / "train", "--templates", self.inputs / "templates",
                     "--out", self.prep / "synth"))

    def stages(self, out: Path) -> list[list[str]]:
        synth = self.prep / "synth"
        return [
            self.cli("train-prompts", "--natural", self.inputs / "train", "--underwater", synth / "degraded",
                     "--out", out / "prompts"),
            self.cli("finetune", "--manifest", synth / "manifest.tsv", "--prompts", out / "prompts" / "prompts.ckpt",
                     "--out", out / "model"),
        ]

    def check(self, out: Path) -> tuple[dict, list[str], str]:
        paths = [out / "prompts" / "prompts.ckpt", out / "model" / "model.ckpt", out / "model" / "training.log"]
        problems = [f"missing output {p.relative_to(out)}" for p in paths if not p.is_file()]
        if problems:
            return {"final_loss": math.nan}, problems, ""
        rows = paths[2].read_text(encoding="utf-8").splitlines()[1:]
        totals = np.array([float(r.split("\t")[4]) for r in rows])
        if len(totals) != TIMED_FINETUNE_STEPS or not np.all(np.isfinite(totals)):
            problems.append(f"training.log has {len(totals)} rows or non-finite losses")
            return {"final_loss": math.nan}, problems, ""
        tail = TIMED_FINETUNE_STEPS // 5
        final = float(totals[-tail:].mean())
        if not final < float(totals[:tail].mean()):
            problems.append(f"fine-tuning did not lower the loss (tail mean {final:.4f})")
        return {"final_loss": final}, problems, digest(paths)

    def throughput(self, walls):
        return {"finetune_step_per_s": TIMED_FINETUNE_STEPS / walls["finetune"]}


class IngestEval256(Workload):
    name = "ingest-eval-256"
    why = "synth then eval of filtered 256 px PNGs: PNG codec, Lab conversions and the metric loops"
    stage_names = ("synth", "eval")
    config_extra = "[synthesis]\nmethod = color_transfer\n"
    images = 6
    size = 256

    def generate(self) -> None:
        self.clean = [inputs.scene(self.rng, self.size) for _ in range(self.images)]
        self.names = write_set(self.inputs / "clean", self.clean)
        write_set(self.inputs / "templates", [inputs.underwater(self.rng, 128) for _ in range(3)])

    def stages(self, out: Path) -> list[list[str]]:
        return [
            self.cli("synth", "--clean", self.inputs / "clean", "--templates", self.inputs / "templates",
                     "--out", out / "synth"),
            self.cli("eval", "--enhanced", out / "synth" / "degraded", "--reference", self.inputs / "clean",
                     "--out", out / "eval"),
        ]

    def check(self, out: Path) -> tuple[dict, list[str], str]:
        problems = []
        manifest = out / "synth" / "manifest.tsv"
        table = out / "eval" / "metrics.tsv"
        for path in (manifest, table):
            if not path.is_file():
                problems.append(f"missing output {path.relative_to(out)}")
        if problems:
            return {}, problems, ""
        lines = manifest.read_text(encoding="utf-8").splitlines()
        records = [line for line in lines if line and not line.startswith("#")]
        skipped = [line for line in lines if line.startswith("# skip")]
        if len(records) != self.images or skipped:
            problems.append(f"manifest lists {len(records)} pairs and {len(skipped)} skipped files")
        rows = [r.split("\t") for r in table.read_text(encoding="utf-8").splitlines()]
        header, body = rows[0], {r[0]: r[1:] for r in rows[1:]}
        if header[1:] != ["PSNR", "SSIM", "UIQM", "UCIQE", "CPBD"] or set(body) != set(self.names) | {"mean"}:
            problems.append(f"metrics.tsv has columns {header} and rows {sorted(body)}")
            return {}, problems, ""
        paths = [manifest, table]
        for name, clean in zip(self.names, self.clean):
            values = [float(v) for v in body[name]]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"non-finite metric for {name}: {values}")
            degraded_path = out / "synth" / "degraded" / name
            degraded = inputs.read_png(degraded_path)
            if degraded.shape != clean.shape:
                problems.append(f"{name} degraded to shape {degraded.shape}")
                continue
            expected = psnr(degraded, clean)
            if abs(values[0] - expected) > 1e-3:
                problems.append(f"PSNR of {name} is {values[0]}, recomputed {expected:.4f}")
            paths.append(degraded_path)
        return {}, problems, digest(paths)

    def throughput(self, walls):
        return {
            "synth_img_per_s": self.images / walls["synth"],
            "eval_img_per_s": self.images / walls["eval"],
        }


WORKLOADS = {w.name: w for w in (Enhance64, Guided32, Finetune24, IngestEval256)}
