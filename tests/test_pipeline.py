"""enhance_directory samples runs of same-size images as one batch, one run after another; no output
depends on the runs."""

import os
import threading

import numpy as np
import pytest

from uwdiff import pipeline
from uwdiff.denoiser import ConditionalDenoiser
from uwdiff.diffusion import make_linear_schedule, stream_rng
from uwdiff.errors import SamplingDivergedError
from uwdiff.images import RgbImage
from uwdiff.imageio import load_image, save_image

from toy_world import tiny_context

SCHED = make_linear_schedule(4, 1e-3, 2e-2)


def write_images(directory, sizes, rng):
    os.makedirs(directory)
    names = [f"{chr(ord('a') + i)}.png" for i in range(len(sizes))]
    for name, size in zip(names, sizes):
        save_image(RgbImage.from_array(rng.uniform(0, 1, (size, size, 3))), directory / name)
    return names


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("guided", [False, True], ids=["unguided", "guided"])
@pytest.mark.parametrize("sizes", [[8, 8, 8, 8], [64, 64, 64]], ids=["8px", "64px"])
def test_a_batch_writes_the_bytes_of_one_image_at_a_time(tmp_path, rng, sizes, guided):
    names = write_images(tmp_path / "in", sizes, rng)
    model, context = ConditionalDenoiser(width=2, seed=0), tiny_context(1e3) if guided else None
    written = pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", model, SCHED, 7, context)
    assert written == [os.path.join(tmp_path / "out", name) for name in names]
    os.makedirs(tmp_path / "alone")
    for index, name in enumerate(names):
        img = load_image(tmp_path / "in" / name)
        guidance = None if context is None else context.guidance
        alone = pipeline.enhance_image(img, model, SCHED, guidance, context, stream_rng(7, index))
        save_image(alone, tmp_path / "alone" / name)
        assert read(tmp_path / "out" / name) == read(tmp_path / "alone" / name)


def test_enhance_image_without_a_guidance_argument_guides_by_the_contexts_own(rng):
    image = RgbImage.from_array(rng.uniform(0, 1, (8, 8, 3)))
    model, context = ConditionalDenoiser(width=2, seed=0), tiny_context(1e3)
    own, given, unguided = (
        pipeline.enhance_image(image, model, SCHED, guidance, ctx, stream_rng(0, 0)).data
        for guidance, ctx in ((None, context), (context.guidance, context), (None, None))
    )
    assert np.array_equal(own, given) and not np.array_equal(own, unguided)


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
    [
        ([8, 8, 12, 8], [2, 1, 1]),
        ([32] * 5, [4, 1]),
        ([64, 64], [1, 1]),
        ([16, 8, 8, 16], [1, 2, 1]),
        ([128, 8, 8], [1, 2]),
    ],
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


@pytest.mark.parametrize(
    "sizes,decoded", [([32] * 5, [4, 5]), ([8, 8, 12, 8], [3, 4, 4]), ([64, 64, 64], [1, 2, 3])]
)
def test_a_run_is_sampled_before_the_next_image_is_decoded(tmp_path, rng, monkeypatch, sizes, decoded):
    write_images(tmp_path / "in", sizes, rng)
    loaded, seen = [], []

    def spy_load(path):
        loaded.append(path)
        return load_image(path)

    def fake(images, model, sched, guidance, context, rngs):
        seen.append(len(loaded))
        return images

    monkeypatch.setattr(pipeline, "load_image", spy_load)
    monkeypatch.setattr(pipeline, "enhance_image", fake)
    pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", None, SCHED, 0)
    assert seen == decoded


def test_a_run_shares_one_denoiser_call_per_step(rng):
    images = [RgbImage.from_array(rng.uniform(0, 1, (32, 32, 3))) for _ in range(4)]
    model, context, shapes = ConditionalDenoiser(width=2, seed=0), tiny_context(1e3), []

    def spy(x, condition, t, sched):
        shapes.append((x.shape, condition.shape))
        return model(x, condition, t, sched)

    rngs = [stream_rng(0, i) for i in range(4)]
    batched = pipeline.enhance_image(images, spy, SCHED, None, context, rngs)
    assert shapes == [((4, 3, 32, 32), (4, 3, 32, 32))] * SCHED.steps
    for i, image in enumerate(images):
        alone = pipeline.enhance_image(image, model, SCHED, None, context, stream_rng(0, i))
        assert np.array_equal(batched[i].data, alone.data)


def test_a_diverging_run_names_its_first_non_finite_image(tmp_path):
    os.makedirs(tmp_path / "in")
    for name, level in (("a.png", 0.2), ("b.png", 0.6), ("c.png", 0.9)):
        save_image(RgbImage.from_array(np.full((8, 8, 3), level)), tmp_path / "in" / name)

    def model(x, condition, t, sched):  # a.png stays finite, b.png gets 3 NaNs, c.png all NaN
        eps = np.zeros_like(x)
        for row, level in zip(eps, condition.mean(axis=(1, 2, 3))):
            if level > 0.5:
                row[:] = np.nan
            elif level > 0.0:
                row.reshape(-1)[:3] = np.nan
        return eps

    with pytest.raises(SamplingDivergedError) as caught:
        pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", model, SCHED, 0)
    assert str(caught.value) == "b.png: reverse chain diverged at step t=4 of 4: 3 non-finite values in x_3"


def write_levels(directory, levels, size=64):
    os.makedirs(directory)
    for name, level in levels.items():
        save_image(RgbImage.from_array(np.full((size, size, 3), level)), directory / name)


def nan_model(x, condition, t, sched):  # images brighter than mid-grey go all NaN
    return np.full_like(x, np.nan) if condition.mean() > 0.0 else np.zeros_like(x)


def test_a_nan_in_the_second_image_names_it_after_the_first_image_is_written(tmp_path):
    write_levels(tmp_path / "in", {"a.png": 0.2, "b.png": 0.8, "c.png": 0.2})
    with pytest.raises(SamplingDivergedError) as caught:
        pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", nan_model, SCHED, 0)
    assert str(caught.value) == "b.png: reverse chain diverged at step t=4 of 4: 12288 non-finite values in x_3"
    assert os.listdir(tmp_path / "out") == ["a.png"]


def test_a_nan_in_the_first_image_writes_nothing(tmp_path):
    write_levels(tmp_path / "in", {"a.png": 0.8, "b.png": 0.2})
    with pytest.raises(SamplingDivergedError, match="^a.png: "):
        pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", nan_model, SCHED, 0)
    assert not os.path.exists(tmp_path / "out")


def test_an_error_inside_enhance_image_ends_the_stage_and_writes_nothing(tmp_path, monkeypatch):
    write_levels(tmp_path / "in", {"a.png": 0.2, "b.png": 0.4})
    calls = []

    class Stop(Exception):  # as the benchmark's set-up probe raises where the first image begins
        pass

    def stop(*args):
        calls.append(args)
        raise Stop

    monkeypatch.setattr(pipeline, "enhance_image", stop)
    with pytest.raises(Stop):
        pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", None, SCHED, 0)
    assert len(calls) == 1
    assert not os.path.exists(tmp_path / "out")


def test_two_allowed_cores_start_no_thread(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    names = write_images(tmp_path / "in", [64, 64, 64], rng)
    written = pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", ConditionalDenoiser(width=2), SCHED, 0)
    assert written == [os.path.join(tmp_path / "out", name) for name in names]
