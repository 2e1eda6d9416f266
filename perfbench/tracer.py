"""Spans and counters around calls into uwdiff, installed from outside the program.

Each hook replaces one attribute with a wrapper that times the call as a
span. A hook sits on the name the caller looks up: `pipeline` imported
`reverse_step` into its own namespace, so the hook goes on
`uwdiff.pipeline.reverse_step`, while `denoiser` calls `ad.conv2d`, so that
hook goes on `uwdiff.autodiff.conv2d`. Spans nest through a stack; a span's
self time is its duration minus the durations of the spans it directly
encloses. Totals stay in memory and are written once, when the stage ends.
"""

from __future__ import annotations

import gc
import importlib
import os
import time
from collections import defaultdict
from math import prod


def _shape(value) -> tuple[int, ...]:
    return tuple(getattr(value, "data", value).shape)


def _count_conv2d(counts, args, kwargs, result) -> None:
    # work computed from shapes: multiply-adds of the im2col product plus the
    # bias add, and the float64 bytes of input, weights, bias and output
    x, weight = args[0], args[1]
    bias = args[2] if len(args) > 2 else kwargs.get("bias")
    _, c_in, kh, kw = _shape(weight)
    out = prod(_shape(result))
    counts["autodiff.conv2d.flops"] += 2 * out * c_in * kh * kw + (out if bias is not None else 0)
    sizes = prod(_shape(x)) + prod(_shape(weight)) + out + (prod(_shape(bias)) if bias is not None else 0)
    counts["autodiff.conv2d.bytes"] += 8 * sizes


def _count_graph_node(counts, args, kwargs, result) -> None:
    if result._backward is not None:
        counts["autodiff.graph_nodes"] += 1


def _count_finetune_embed(counts, args, kwargs, result) -> None:
    # fine_tune embeds the generated image through a graph with parents, and
    # the reference image as a fresh leaf; only the latter is a cache miss
    counts["jointnet.finetune_embed_calls"] += 1
    x = args[0]
    if not x.requires_grad and not x._parents:
        counts["jointnet.target_embed_misses"] += 1


def _count_decoded(counts, args, kwargs, result) -> None:
    counts["imageio.decode_png_bytes"] += len(args[0])


def _count_encoded(counts, args, kwargs, result) -> None:
    counts["imageio.encode_png_bytes"] += len(result)


def _count_read(counts, args, kwargs, result) -> None:
    counts["checkpoint.read_bytes"] += os.path.getsize(args[0])


def _count_written(counts, args, kwargs, result) -> None:
    counts["checkpoint.write_bytes"] += os.path.getsize(args[0])


def _count_skipped(counts, args, kwargs, result) -> None:
    counts["synthesis.skipped"] += len(result.skipped)


# (target "module:attribute.path", span name or None for a count-only hook, counter)
HOOKS = (
    ("uwdiff.autodiff:conv2d", "autodiff.conv2d", _count_conv2d),
    ("uwdiff.autodiff:Tensor.backward", "autodiff.backward", None),
    ("uwdiff.autodiff:_node", None, _count_graph_node),
    ("uwdiff.denoiser:ConditionalDenoiser.__call__", "denoiser.call", None),
    ("uwdiff.denoiser:ConditionalDenoiser.noise_graph", "denoiser.noise_graph", None),
    ("uwdiff.pipeline:reverse_step", "diffusion.reverse_step", None),
    ("uwdiff.pipeline:guided_noise_prediction", "diffusion.guided_noise_prediction", None),
    ("uwdiff.pipeline:enhance_image", "pipeline.enhance_image", None),
    ("uwdiff.pipeline:read_checkpoint", "checkpoint.read", _count_read),
    ("uwdiff.pipeline:write_checkpoint", "checkpoint.write", _count_written),
    ("uwdiff.training:alignment_pixel_grad", "jointnet.alignment_pixel_grad", None),
    ("uwdiff.training:embed_image_graph", "jointnet.embed_image_graph", _count_finetune_embed),
    ("uwdiff.jointnet:embed_image_graph", "jointnet.embed_image_graph", None),
    ("uwdiff.training:Adam.step", "training.adam_step", None),
    ("uwdiff.cli:load_config", "config.load", None),
    ("uwdiff.cli:joint_context_from_checkpoint", "pipeline.joint_context", None),
    ("uwdiff.cli:train_prompts", "jointnet.train_prompts", None),
    ("uwdiff.cli:synthesize_dataset", "synthesis.synthesize_dataset", _count_skipped),
    ("uwdiff.synthesis:TemplatePool.from_dir", "synthesis.template_pool", None),
    ("uwdiff.synthesis:color_transfer", "synthesis.color_transfer", None),
    ("uwdiff.synthesis:srgb_to_lab", "images.srgb_to_lab", None),
    ("uwdiff.metrics:srgb_to_lab", "images.srgb_to_lab", None),
    ("uwdiff.synthesis:lab_to_srgb", "images.lab_to_srgb", None),
    ("uwdiff.imageio:decode_png", "imageio.decode_png", _count_decoded),
    ("uwdiff.imageio:encode_png", "imageio.encode_png", _count_encoded),
    ("uwdiff.metrics:psnr", "metrics.psnr", None),
    ("uwdiff.metrics:ssim", "metrics.ssim", None),
    ("uwdiff.metrics:uiqm", "metrics.uiqm", None),
    ("uwdiff.metrics:uciqe", "metrics.uciqe", None),
    ("uwdiff.metrics:cpbd", "metrics.cpbd", None),
)

def resolve(target: str):
    """(owner, attribute name) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span totals and counters for one process; install() wraps, uninstall() restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.gc_s = 0.0
        self.gc_collections = 0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # [start, time covered by child spans]
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = None

    def wrap(self, fn, name: str | None, counter=None):
        """fn timed as span `name` (no span when None), then counter(counts, args, kwargs, result)."""
        keep = name == "pipeline.enhance_image"  # per-image durations, for their median

        def wrapper(*args, **kwargs):
            if name is not None:
                self._stack.append([self.clock(), 0.0])
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(name, keep)
            else:
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _close(self, name: str, keep: bool) -> None:
        end = self.clock()
        start, covered = self._stack.pop()
        duration = end - start
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration
        if keep:
            self.durations[name].append(duration)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.gc_s += self.clock() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def install(self) -> None:
        for target, name, counter in HOOKS:
            try:
                owner, attr = resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                self.missing.append(target)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self.wrap(raw.__func__, name, counter))
            else:
                replacement = self.wrap(raw, name, counter)
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, raw))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def snapshot(self) -> dict:
        return {
            "spans": self.spans,
            "durations": dict(self.durations),
            "counts": dict(self.counts),
            "gc": [self.gc_s, self.gc_collections],
            "missing": self.missing,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of the stage processes of one pass."""
    spans: dict[str, list] = {}
    durations: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, int] = defaultdict(int)
    gc_s, gc_n, missing = 0.0, 0, set()
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, values in snap["durations"].items():
            durations[name].extend(values)
        for name, value in snap["counts"].items():
            counts[name] += value
        gc_s += snap["gc"][0]
        gc_n += snap["gc"][1]
        missing.update(snap["missing"])
    return {"spans": spans, "durations": dict(durations), "counts": dict(counts), "gc": [gc_s, gc_n],
            "missing": sorted(missing)}


def unit(name: str) -> str:
    """Unit of a layer_metrics value, from its name."""
    if name.endswith("conv2d.flops"):
        return "flop_computed"
    if name.endswith("conv2d.bytes"):
        return "B_computed"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_s"):
        return "s"
    if "_per_" in name or name.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metrics(merged: dict) -> dict[str, float]:
    """Per-layer values of one pass. `X_s` is the time inside X, child spans
    included; `X.self_s` leaves out the time of the spans X encloses."""
    import statistics

    spans, counts = merged["spans"], merged["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    steps = calls("training.adam_step")
    per_image = merged["durations"].get("pipeline.enhance_image", [])
    return {
        "autodiff.conv2d.calls": calls("autodiff.conv2d"),
        "autodiff.conv2d.self_s": self_s("autodiff.conv2d"),
        "autodiff.conv2d.flops": counts.get("autodiff.conv2d.flops", 0),
        "autodiff.conv2d.bytes": counts.get("autodiff.conv2d.bytes", 0),
        "autodiff.backward.calls": calls("autodiff.backward"),
        "autodiff.backward.self_s": self_s("autodiff.backward"),
        "autodiff.graph_nodes": counts.get("autodiff.graph_nodes", 0),
        # with no backward call at all, every recorded node was wasted
        "autodiff.graph_nodes_per_backward": counts.get("autodiff.graph_nodes", 0) / max(calls("autodiff.backward"), 1),
        "py.gc_s": merged["gc"][0],
        "py.gc_collections": merged["gc"][1],
        "denoiser.call_s": total("denoiser.call"),
        "denoiser.noise_graph_s": total("denoiser.noise_graph"),
        "diffusion.reverse_step.calls": calls("diffusion.reverse_step"),
        "diffusion.reverse_step_s": total("diffusion.reverse_step"),
        "diffusion.guided_noise_prediction_s": total("diffusion.guided_noise_prediction"),
        "jointnet.alignment_pixel_grad.calls": calls("jointnet.alignment_pixel_grad"),
        "jointnet.alignment_pixel_grad_s": total("jointnet.alignment_pixel_grad"),
        "jointnet.embed_image_graph.calls": calls("jointnet.embed_image_graph"),
        "jointnet.embed_image_graph_s": total("jointnet.embed_image_graph"),
        "jointnet.embed_calls_per_finetune_step": (
            (counts.get("jointnet.finetune_embed_calls", 0) / steps) if steps else 0.0
        ),
        # fine_tune looks the reference embedding up once per step
        "jointnet.target_embed_miss_ratio": (
            (counts.get("jointnet.target_embed_misses", 0) / steps) if steps else 0.0
        ),
        "jointnet.train_prompts_s": total("jointnet.train_prompts"),
        "training.finetune_steps": steps,
        "training.adam_step_s": total("training.adam_step"),
        "pipeline.enhance_image_s": statistics.median(per_image) if per_image else 0.0,
        "config.load_s": total("config.load"),
        "checkpoint.read_s": total("checkpoint.read"),
        "checkpoint.read_bytes": counts.get("checkpoint.read_bytes", 0),
        "pipeline.joint_context_s": total("pipeline.joint_context"),
        "synthesis.template_pool_s": total("synthesis.template_pool"),
        "checkpoint.write_s": total("checkpoint.write"),
        "checkpoint.write_bytes": counts.get("checkpoint.write_bytes", 0),
        "imageio.decode_png_s": total("imageio.decode_png"),
        "imageio.decode_png_bytes": counts.get("imageio.decode_png_bytes", 0),
        "imageio.encode_png_s": total("imageio.encode_png"),
        "imageio.encode_png_bytes": counts.get("imageio.encode_png_bytes", 0),
        "images.srgb_to_lab_s": total("images.srgb_to_lab"),
        "images.lab_to_srgb_s": total("images.lab_to_srgb"),
        "synthesis.color_transfer_s": total("synthesis.color_transfer"),
        "metrics.calls": sum(calls(f"metrics.{m}") for m in ("psnr", "ssim", "uiqm", "uciqe", "cpbd")),
        "metrics.psnr_s": total("metrics.psnr"),
        "metrics.ssim_s": total("metrics.ssim"),
        "metrics.uiqm_s": total("metrics.uiqm"),
        "metrics.uciqe_s": total("metrics.uciqe"),
        "metrics.cpbd_s": total("metrics.cpbd"),
        "synthesis.skipped": counts.get("synthesis.skipped", 0),
    }
