"""Command-line entry point: synth, train-prompts, finetune, enhance, eval, verify.

Every subcommand prints its resolved configuration (defaults merged with the
config file and the --seed override) before doing any work, and obeys a fixed
exit-code contract: 0 success, 1 verification, training or sampling failure,
2 usage or input errors. The output directory comes from --out or the UWDIFF_OUT
environment variable, and is created only when the stage writes its first file.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .autodiff import Tensor
from .config import RunConfig, load_config, resolve_text
from .errors import ConfigError, SamplingDivergedError, ShapeMismatchError, TrainingDivergedError, UwdiffError
from .imageio import list_images, load_image, write_atomic
from .images import RgbImage
from .jointnet import init_params, prompt_shapes, train_prompts
from .metrics import ALL_METRICS, MIN_SIDE, MetricReport, evaluate
from .pipeline import (
    enhance_directory,
    joint_context_from_checkpoint,
    load_model_checkpoint,
    pairs_from_manifest,
    save_checkpoint,
)
from .synthesis import synthesize_dataset
from .training import fine_tune
from .verification import run_all

ENV_OUT_DIR = "UWDIFF_OUT"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _resolve_out(args) -> str:
    out = args.out or os.environ.get(ENV_OUT_DIR)
    if not out:
        raise UwdiffError(f"no output directory: pass --out or set {ENV_OUT_DIR}")
    if os.path.exists(out) and not os.path.isdir(out):
        raise UwdiffError(f"output directory {out!r} exists and is not a directory")
    return out


def _load_config(args) -> RunConfig:
    config = load_config(args.config, args.seed)
    print("# resolved configuration")
    print(resolve_text(config), end="")
    print(f"# seed in effect: {config.seed}")
    return config


def _labeled_dir(directory, label: int) -> list[tuple[RgbImage, int]]:
    names = list_images(directory)
    return [(load_image(os.path.join(os.fspath(directory), n)), label) for n in names]


def cmd_synth(args) -> int:
    config = _load_config(args)
    out = _resolve_out(args)
    manifest = synthesize_dataset(
        args.clean,
        args.templates,
        out,
        seed=config.seed,
        method=config.synth_method,
        ranges=config.scatter_ranges(),
        warn=lambda msg: print(f"warning: {msg}", file=sys.stderr),
    )
    print(f"wrote {len(manifest.entries)} pairs ({len(manifest.skipped)} skipped)")
    print(os.path.join(out, "manifest.tsv"))
    return EXIT_OK


def cmd_train_prompts(args) -> int:
    config = _load_config(args)
    out = _resolve_out(args)
    dataset = _labeled_dir(args.natural, 1) + _labeled_dir(args.underwater, 0)
    params = init_params(config.classifier(), config.seed)
    result = train_prompts(dataset, params, config.prompt_training())
    ckpt_path = os.path.join(out, "prompts.ckpt")
    prompts = zip(prompt_shapes(params.config), (result.prompt_natural, result.prompt_underwater))
    tensors = {**params.tensors, **{name: Tensor(prompt.tokens) for name, prompt in prompts}}
    save_checkpoint(ckpt_path, tensors, config)
    log_path = os.path.join(out, "prompts.log")
    lines = ["epoch\tloss"]
    lines += [f"{epoch}\t{loss:.12e}" for epoch, loss in enumerate(result.losses, start=1)]
    write_atomic(log_path, ("\n".join(lines) + "\n").encode("utf-8"))
    print(
        f"trained {len(result.losses)} epochs on {result.train_count} samples; "
        f"held-out accuracy {result.holdout_accuracy:.3f} on {result.holdout_count}; "
        f"loss trend monotone: {result.trend_monotone}"
    )
    print(ckpt_path)
    return EXIT_OK


def cmd_finetune(args) -> int:
    config = _load_config(args)
    weights = config.loss_weights()
    if weights.lambda2 > 0 and not args.prompts:
        if weights.lambda1 == 0:
            raise ConfigError(f"{config.where['lambda1']} = 0 leaves only the semantic term, which needs --prompts")
        print("note: no prompts checkpoint given; disabling the semantic loss term")
        weights = type(weights)(lambda1=weights.lambda1, lambda2=0.0)
    out = _resolve_out(args)
    pairs = pairs_from_manifest(args.manifest)
    model = config.denoiser()
    context = joint_context_from_checkpoint(args.prompts, config.guidance()) if args.prompts else None
    result = fine_tune(
        model,
        pairs,
        config.schedule(),
        weights=weights,
        optimizer=config.optimizer(),
        context=context,
        t_range=(config.train_t_min, config.schedule_steps),
    )
    ckpt_path = os.path.join(out, "model.ckpt")
    save_checkpoint(ckpt_path, model.tensors, config)
    log_path = os.path.join(out, "training.log")
    write_atomic(log_path, result.log_text().encode("utf-8"))
    print(f"fine-tuned {len(result.log)} steps on {len(pairs)} pairs")
    print(ckpt_path)
    return EXIT_OK


def _require_model_schedule(config: RunConfig, model_config: RunConfig, model_path) -> None:
    differ = [
        f"{f.metadata['key']} = {getattr(config, f.name)} (checkpoint: {getattr(model_config, f.name)})"
        for f in fields(RunConfig)
        if f.metadata["key"].startswith("schedule.") and getattr(config, f.name) != getattr(model_config, f.name)
    ]
    if differ:
        raise ConfigError(
            f"model checkpoint {os.fspath(model_path)!r} was trained on a different noise schedule: "
            + "; ".join(differ)
        )


def cmd_enhance(args) -> int:
    config = _load_config(args)
    out = _resolve_out(args)
    model, model_config = load_model_checkpoint(args.model)
    _require_model_schedule(config, model_config, args.model)
    context = joint_context_from_checkpoint(args.prompts, config.guidance()) if args.prompts else None
    sched = config.sampling_schedule()
    print(f"# sampling {sched.steps} of {config.schedule_steps} schedule steps")
    written = enhance_directory(
        args.input,
        out,
        model.astype(np.float32),  # made once, before the first image is sampled
        sched,
        seed=config.seed,
        context=context,
        progress=print,
    )
    print(f"enhanced {len(written)} images into {out}")
    return EXIT_OK


def _format_cell(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.4f}"


def cmd_eval(args) -> int:
    _load_config(args)
    out = _resolve_out(args)
    names = list_images(args.enhanced)
    references: dict[str, str] = {}
    if args.reference is not None:
        for ref_name in list_images(args.reference):  # sorted, so a.png wins over a.ppm
            references.setdefault(os.path.splitext(ref_name)[0], ref_name)
    rows: list[tuple[str, MetricReport]] = []
    for name in names:
        path = os.path.join(args.enhanced, name)
        img = load_image(path)
        reference = None
        if args.reference is not None:
            ref_name = references.get(os.path.splitext(name)[0])
            if ref_name is None:
                raise UwdiffError(f"no reference image for {name!r} in {os.fspath(args.reference)!r}")
            ref_path = os.path.join(args.reference, ref_name)
            reference = load_image(ref_path)
            if (img.height, img.width) != (reference.height, reference.width):
                raise ShapeMismatchError(
                    f"{path!r} is {img.width}x{img.height} "
                    f"but its reference {ref_path!r} is {reference.width}x{reference.height}"
                )
        rows.append((name, evaluate(img, reference)))

    # a column for each metric every image has; a size-limited metric that is
    # missing (and, for SSIM, had a reference) was ruled out by an image's size
    columns = [m for m in ALL_METRICS if all(getattr(report, m) is not None for _, report in rows)]
    for metric, side in MIN_SIDE.items():
        if metric not in columns and (metric != "ssim" or args.reference is not None):
            print(f"note: no {metric} column: {metric} needs images of at least {side}x{side}")
    header = ["image"] + [c.upper() for c in columns]
    table = [header]
    for name, report in rows:
        table.append([name] + [_format_cell(getattr(report, c)) for c in columns])
    means = []
    for c in columns:
        values = [getattr(report, c) for _, report in rows]
        means.append(sum(values) / len(values))
    table.append(["mean"] + [_format_cell(v) for v in means])

    text = "\n".join("\t".join(row) for row in table) + "\n"
    text_path = os.path.join(out, "metrics.tsv")
    write_atomic(text_path, text.encode("utf-8"))
    print(text, end="")
    md_lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for row in table[1:]:
        md_lines.append("| " + " | ".join(row) + " |")
    md_path = os.path.join(out, "metrics.md")
    write_atomic(md_path, ("\n".join(md_lines) + "\n").encode("utf-8"))
    print(md_path)
    print(text_path)
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _load_config(args)
    results = run_all(seed=config.seed, sched=config.schedule(), sampling=config.sampling_schedule())
    failed = 0
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    if failed:
        print(f"{failed}/{len(results)} checks failed")
        return EXIT_FAILURE
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwdiff",
        description="Underwater image enhancement toolkit (synthesis, guided diffusion, metrics).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_out: bool = True):
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--seed", default=None, help="override the config seed")
        if needs_out:
            p.add_argument("--out", default=None, help=f"output directory (or ${ENV_OUT_DIR})")

    p = sub.add_parser("synth", help="synthesize a paired degraded/clean dataset")
    common(p)
    p.add_argument("--clean", required=True, help="directory of clean in-air images")
    p.add_argument("--templates", required=True, help="directory of underwater template images")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-prompts", help="train the two prompt tensors")
    common(p)
    p.add_argument("--natural", required=True, help="directory of in-air natural images")
    p.add_argument("--underwater", required=True, help="directory of underwater images")
    p.set_defaults(func=cmd_train_prompts)

    p = sub.add_parser("finetune", help="fine-tune the conditional denoiser on a manifest")
    common(p)
    p.add_argument("--manifest", required=True, help="dataset manifest from `synth`")
    p.add_argument("--prompts", default=None, help="prompts checkpoint from `train-prompts`")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("enhance", help="run guided reverse sampling over degraded images")
    common(p)
    p.add_argument("--input", required=True, help="directory of degraded images")
    p.add_argument("--model", required=True, help="model checkpoint from `finetune`")
    p.add_argument("--prompts", default=None, help="prompts checkpoint enabling guidance")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("eval", help="compute the metric table for a directory of images")
    common(p)
    p.add_argument("--enhanced", required=True, help="directory of images to score")
    p.add_argument("--reference", default=None, help="directory of reference images")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the analytic-oracle verification suite")
    common(p, needs_out=False)
    p.set_defaults(func=cmd_verify)

    return parser


def _keep_freed_heap() -> None:
    """Let the process reuse freed heap instead of faulting fresh pages in.

    By default glibc serves blocks above a moving threshold (the largest block
    freed so far) with mmap and returns the heap top to the OS once more than
    twice that threshold is free. A sampler step allocates and frees a few MB
    of arrays, so under those defaults each step faults all of them in again
    (about 1,500 page faults and half the step time at 64 px, glibc 2.36).
    Fixed thresholds keep the pages. C libraries without mallopt are left as
    they are.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks up to 32 MB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MB of free heap top


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrainingDivergedError, SamplingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (UwdiffError, FileNotFoundError, NotADirectoryError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
