"""Paired training-data synthesis.

Two degradation routes produce (degraded, clean) pairs from directories of
in-air images: statistical color transfer toward the channel statistics of a
template pool of real underwater images, and a physical scattering model with
per-channel attenuation, backscatter, and veiling light.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .diffusion import stream_rng
from .errors import ParameterError
from .images import ChannelStats, LabImage, RgbImage, channel_stats, lab_to_srgb, srgb_to_lab
from .imageio import UNDECODABLE, list_images, load_image, read_text, require_unique_stems, save_image, write_atomic

_SIGMA_FLOOR = 1e-8

METHODS = ("color_transfer", "scatter")

# v1 stored clean paths as typed to synth (relative to the working directory);
# v2 stores them relative to the manifest's directory
MANIFEST_VERSION = 2
_MANIFEST_HEADER = "# uwdiff dataset manifest v"


@dataclass(frozen=True)
class DegradationParams:
    """Scattering-model coefficients: attenuation, backscatter, veiling light, depth.

    beta_direct / beta_backscatter are per-RGB-channel rates in 1/m, veil is the
    per-channel veiling light in [0,1], and depth is either a scalar or an
    (H, W) per-pixel map in meters.
    """

    beta_direct: np.ndarray
    beta_backscatter: np.ndarray
    veil: np.ndarray
    depth: float | np.ndarray

    def __post_init__(self):
        bd = np.asarray(self.beta_direct, dtype=np.float64).reshape(3)
        bb = np.asarray(self.beta_backscatter, dtype=np.float64).reshape(3)
        veil = np.asarray(self.veil, dtype=np.float64).reshape(3)
        depth = np.asarray(self.depth, dtype=np.float64)
        for name, arr in (("beta_direct", bd), ("beta_backscatter", bb), ("veil", veil), ("depth", depth)):
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} must be finite")
            if np.any(arr < 0):
                raise ParameterError(f"{name} must be >= 0")
        if np.any(veil > 1):
            raise ParameterError("veil must lie in [0, 1] per channel")
        if depth.ndim not in (0, 2):
            raise ParameterError("depth must be a scalar or an (H, W) map")
        object.__setattr__(self, "beta_direct", bd)
        object.__setattr__(self, "beta_backscatter", bb)
        object.__setattr__(self, "veil", veil)
        object.__setattr__(self, "depth", depth if depth.ndim else float(depth))


@dataclass(frozen=True)
class ScatterRanges:
    """Sampling ranges for randomized scattering parameters.

    Toolkit defaults; the drawn direct attenuation is always sorted
    red >= green >= blue (red light dies first).
    """

    beta_direct: tuple[float, float] = (0.1, 1.5)
    beta_backscatter: tuple[float, float] = (0.05, 1.0)
    veil: tuple[float, float] = (0.05, 0.95)
    depth: tuple[float, float] = (0.5, 4.0)

    def __post_init__(self):
        for name, (lo, hi) in vars(self).items():
            if not (np.isfinite(lo) and np.isfinite(hi) and 0 <= lo <= hi):
                raise ParameterError(f"invalid range for {name}: ({lo}, {hi})")
        if self.veil[1] > 1:
            raise ParameterError("veil range must stay within [0, 1]")

    def draw(self, rng: np.random.Generator) -> DegradationParams:
        bd = np.sort(rng.uniform(*self.beta_direct, size=3))[::-1]  # red attenuates fastest
        return DegradationParams(
            beta_direct=bd,
            beta_backscatter=rng.uniform(*self.beta_backscatter, size=3),
            veil=rng.uniform(*self.veil, size=3),
            depth=float(rng.uniform(*self.depth)),
        )


@dataclass(frozen=True)
class TemplatePool:
    """Precomputed Lab channel statistics of the underwater template images."""

    stats: tuple[ChannelStats, ...]

    def __post_init__(self):
        if len(self.stats) < 1:
            raise ParameterError("template pool needs at least one template")

    def __len__(self) -> int:
        return len(self.stats)

    @classmethod
    def from_dir(cls, template_dir, skip) -> "TemplatePool":
        """Pool the decodable templates; skip(path, error) hears of each other one."""
        stats = []
        for name in list_images(template_dir):
            path = os.path.join(os.fspath(template_dir), name)
            try:
                img = load_image(path)
            except UNDECODABLE as exc:
                skip(path, exc)
                continue
            stats.append(channel_stats(srgb_to_lab(img)))
        if not stats:
            raise ParameterError(f"no decodable template images in {os.fspath(template_dir)!r}")
        return cls(stats=tuple(stats))


def color_transfer(source: LabImage, target_stats: ChannelStats) -> LabImage:
    """Shift the source's per-channel Lab mean/std onto the target statistics.

    A source channel with near-zero spread (std < 1e-8) maps to the constant
    target mean, the continuous limit of the scaling formula.
    """
    src_stats = channel_stats(source)
    out = np.empty_like(source.data)
    for c in range(3):
        if src_stats.std[c] < _SIGMA_FLOOR:
            out[..., c] = target_stats.mean[c]
        else:
            gain = target_stats.std[c] / src_stats.std[c]
            out[..., c] = gain * (source.data[..., c] - src_stats.mean[c]) + target_stats.mean[c]
    return LabImage(source.width, source.height, out)


def scatter_degrade(clean: RgbImage, params: DegradationParams) -> RgbImage:
    """Apply the scattering image-formation model and clamp to [0, 1].

    Per channel c: out = in * exp(-beta_direct_c * z) + veil_c * (1 - exp(-beta_backscatter_c * z)).
    """
    z = np.asarray(params.depth, dtype=np.float64)
    if z.ndim == 2:
        if z.shape != (clean.height, clean.width):
            raise ParameterError(f"depth map shape {z.shape} does not match image")
        z = z[..., None]
    direct = clean.data * np.exp(-params.beta_direct * z)
    backscatter = params.veil * (1.0 - np.exp(-params.beta_backscatter * z))
    return RgbImage(clean.width, clean.height, np.clip(direct + backscatter, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Dataset synthesis and its manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    degraded: str  # path relative to the manifest location
    clean: str  # v2: relative to the manifest location; v1: as passed to the synthesizer
    template_index: int
    seed: int
    method: str


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)
    seed: int = 0
    method: str = "color_transfer"
    params_note: str = ""
    version: int = MANIFEST_VERSION

    def write(self, path) -> None:
        base = os.path.dirname(os.path.abspath(os.fspath(path)))
        for entry in self.entries:
            target = os.path.join(base, entry.degraded)
            if not os.path.exists(target):
                raise ParameterError(f"manifest references missing file {target!r}")
        lines = [
            f"{_MANIFEST_HEADER}{self.version}",
            f"# seed {self.seed}",
            f"# method {self.method}",
        ]
        if self.params_note:
            lines.append(f"# params {self.params_note}")
        for path_, reason in self.skipped:
            reason_flat = " ".join(str(reason).split())
            lines.append(f"# skip {path_} {reason_flat}")
        for e in self.entries:
            lines.append(f"{e.degraded}\t{e.clean}\t{e.template_index}\t{e.seed}\t{e.method}")
        write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))

    @classmethod
    def read(cls, path) -> "DatasetManifest":
        manifest = cls(version=1)

        def integer(text: str, where: str, what: str) -> int:
            try:
                return int(text)
            except ValueError:
                raise ParameterError(f"{where}: {what} must be an integer, got {text!r}") from None

        text = read_text(path, ParameterError, "manifest")
        for lineno, line in enumerate(text.split("\n"), start=1):  # split as text mode reads lines
            where = f"{os.fspath(path)}:{lineno}"
            if not line:
                continue
            if line.startswith(_MANIFEST_HEADER):
                version = line[len(_MANIFEST_HEADER):]
                if version not in ("1", "2"):
                    raise ParameterError(f"unsupported manifest version {version!r} in {os.fspath(path)!r}")
                manifest.version = int(version)
                continue
            if line.startswith("#"):
                parts = line[1:].strip().split(" ", 1)
                if parts[0] == "seed" and len(parts) > 1:
                    manifest.seed = integer(parts[1], where, "seed")
                elif parts[0] == "method" and len(parts) > 1:
                    manifest.method = parts[1]
                elif parts[0] == "params" and len(parts) > 1:
                    manifest.params_note = parts[1]
                elif parts[0] == "skip" and len(parts) > 1:
                    skip_parts = parts[1].split(" ", 1)
                    manifest.skipped.append((skip_parts[0], skip_parts[1] if len(skip_parts) > 1 else ""))
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise ParameterError(f"{where}: malformed manifest record, {len(fields)} fields, want 5: {line!r}")
            template_index = integer(fields[2], where, "template index")
            seed = integer(fields[3], where, "seed")
            manifest.entries.append(ManifestEntry(fields[0], fields[1], template_index, seed, fields[4]))
        return manifest


def check_method(method: str) -> None:
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")


def synthesize_dataset(
    clean_dir,
    template_dir,
    out_dir,
    seed: int,
    method: str = "color_transfer",
    ranges: ScatterRanges | None = None,
    warn=None,
) -> DatasetManifest:
    """Degrade every image in clean_dir and write pairs plus a manifest.

    One template is drawn per clean image from a generator keyed by
    (seed, image index), so reruns reproduce the same assignments whatever
    order the images are processed in. Undecodable clean images and
    templates are skipped, passed to warn and recorded in the manifest.
    Returns the manifest, which is also written to out_dir/manifest.tsv.
    """
    check_method(method)
    ranges = ranges or ScatterRanges()
    manifest = DatasetManifest(seed=seed, method=method, params_note=_ranges_note(method, ranges))

    def skip(path: str, exc: Exception) -> None:
        reason = str(exc.__cause__)  # the decoder's words, without load_image's path
        if warn is not None:
            warn(f"skipping {path}: {reason}")
        manifest.skipped.append((path, reason))

    pool = TemplatePool.from_dir(template_dir, skip)
    clean_names = list_images(clean_dir)
    require_unique_stems(clean_dir, clean_names)
    out_dir = os.fspath(out_dir)
    manifest_dir = os.path.realpath(out_dir)

    for index, name in enumerate(clean_names):
        clean_path = os.path.join(os.fspath(clean_dir), name)
        try:
            clean = load_image(clean_path)
        except UNDECODABLE as exc:
            skip(clean_path, exc)
            continue
        rng = stream_rng(seed, index)
        template_index = int(rng.integers(0, len(pool)))
        if method == "color_transfer":
            degraded = lab_to_srgb(color_transfer(srgb_to_lab(clean), pool.stats[template_index]))
        else:
            degraded = scatter_degrade(clean, ranges.draw(rng))
        rel = f"degraded/{os.path.splitext(name)[0]}.png"
        save_image(degraded, os.path.join(out_dir, rel))
        clean_rel = os.path.relpath(os.path.realpath(clean_path), manifest_dir)
        manifest.entries.append(ManifestEntry(rel, clean_rel, template_index, seed, method))
    manifest.write(os.path.join(out_dir, "manifest.tsv"))
    return manifest


def _ranges_note(method: str, ranges: ScatterRanges) -> str:
    if method != "scatter":
        return ""
    return (
        f"beta_direct={ranges.beta_direct} beta_backscatter={ranges.beta_backscatter} "
        f"veil={ranges.veil} depth={ranges.depth}"
    )


def load_pair(manifest_path, entry: ManifestEntry, version: int) -> tuple[RgbImage, RgbImage]:
    """Load (degraded, clean) images for an entry of a manifest of the given version."""
    base = os.path.dirname(os.path.abspath(os.fspath(manifest_path)))
    degraded = load_image(os.path.join(base, entry.degraded))
    clean = load_image(os.path.join(base, entry.clean) if version >= 2 else entry.clean)
    return degraded, clean
