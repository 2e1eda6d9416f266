"""enhance_directory samples runs of same-size images as one batch, and no output depends on it."""

import os

import numpy as np
import pytest

from uwdiff import pipeline
from uwdiff.denoiser import ConditionalDenoiser
from uwdiff.diffusion import GuidanceConfig, make_linear_schedule, stream_rng
from uwdiff.errors import SamplingDivergedError
from uwdiff.images import RgbImage
from uwdiff.imageio import load_image, save_image
from uwdiff.jointnet import JointNetConfig, init_params
from uwdiff.training import JointContext

SCHED = make_linear_schedule(4, 1e-3, 2e-2)


def guided_context(gamma2=1e3):
    params = init_params(JointNetConfig(width=4, embed_dim=4, token_count=3, token_width=4, text_hidden=4), 0)
    theta = np.eye(4)
    return JointContext(params, theta[0], theta[1], GuidanceConfig(gamma2=gamma2))


def write_images(directory, sizes, rng):
    os.makedirs(directory)
    names = [f"{chr(ord('a') + i)}.png" for i in range(len(sizes))]
    for name, size in zip(names, sizes):
        save_image(RgbImage.from_array(rng.uniform(0, 1, (size, size, 3))), directory / name)
    return names


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_a_batch_writes_the_bytes_of_one_image_at_a_time(tmp_path, rng):
    names = write_images(tmp_path / "in", [8, 8, 8, 8], rng)
    model, context = ConditionalDenoiser(width=2, seed=0), guided_context()
    written = pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", model, SCHED, 7, context)
    assert written == [os.path.join(tmp_path / "out", name) for name in names]
    os.makedirs(tmp_path / "alone")
    for index, name in enumerate(names):
        img = load_image(tmp_path / "in" / name)
        alone = pipeline.enhance_image(img, model, SCHED, context.guidance, context, stream_rng(7, index))
        save_image(alone, tmp_path / "alone" / name)
        assert read(tmp_path / "out" / name) == read(tmp_path / "alone" / name)


def test_mixed_sizes_keep_name_order_and_progress(tmp_path, rng):
    names = write_images(tmp_path / "in", [8, 8, 12, 8], rng)
    lines = []
    written = pipeline.enhance_directory(
        tmp_path / "in", tmp_path / "out", ConditionalDenoiser(width=2, seed=0), SCHED, 0, progress=lines.append
    )
    assert written == [os.path.join(tmp_path / "out", name) for name in names]
    assert lines == [f"[{i + 1}/4] {name}" for i, name in enumerate(names)]
    assert [load_image(path).width for path in written] == [8, 8, 12, 8]


@pytest.mark.parametrize(
    "sizes,runs",
    [([8, 8, 12, 8], [2, 1, 1]), ([32] * 5, [4, 1]), ([64, 64], [1, 1]), ([16, 8, 8, 16], [1, 2, 1])],
)
def test_enhance_image_is_called_once_per_run(tmp_path, rng, monkeypatch, sizes, runs):
    write_images(tmp_path / "in", sizes, rng)
    seen = []

    def fake(images, model, sched, guidance, context, rngs):
        assert len({(img.height, img.width) for img in images}) == 1 and len(rngs) == len(images)
        seen.append(len(images))
        return images

    monkeypatch.setattr(pipeline, "enhance_image", fake)
    pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", None, SCHED, 0)
    assert seen == runs


def test_a_diverging_run_names_its_first_non_finite_image(tmp_path):
    os.makedirs(tmp_path / "in")
    for name, level in (("a.png", 0.2), ("b.png", 0.6), ("c.png", 0.9)):
        save_image(RgbImage.from_array(np.full((8, 8, 3), level)), tmp_path / "in" / name)

    def model(x, condition, t, sched):  # a.png stays finite, b.png gets 3 NaNs, c.png all NaN
        eps = np.zeros_like(x)
        level = condition.mean()
        if level > 0.5:
            eps[:] = np.nan
        elif level > 0.0:
            eps.reshape(-1)[:3] = np.nan
        return eps

    with pytest.raises(SamplingDivergedError) as caught:
        pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", model, SCHED, 0)
    assert str(caught.value) == "b.png: reverse chain diverged at step t=4 of 4: 3 non-finite values in x_3"
