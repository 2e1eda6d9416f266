"""enhance_directory samples runs of same-size images as one batch, and two large runs at once on two
threads; no output depends on either."""

import os
import threading
import time

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


def test_enhance_image_without_a_guidance_argument_guides_by_the_contexts_own(rng):
    image = RgbImage.from_array(rng.uniform(0, 1, (8, 8, 3)))
    model, context = ConditionalDenoiser(width=2, seed=0), guided_context()
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


def test_a_run_shares_one_denoiser_call_per_step(rng):
    images = [RgbImage.from_array(rng.uniform(0, 1, (32, 32, 3))) for _ in range(4)]
    model, context, shapes = ConditionalDenoiser(width=2, seed=0), guided_context(), []

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


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def record_threads(monkeypatch):
    """The thread of each enhance_image call, in call order."""
    seen, real = [], pipeline.enhance_image

    def spy(*args):
        seen.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(pipeline, "enhance_image", spy)
    return seen


def write_levels(directory, levels, size=64):
    os.makedirs(directory)
    for name, level in levels.items():
        save_image(RgbImage.from_array(np.full((size, size, 3), level)), directory / name)


@pytest.mark.parametrize("guided", [False, True], ids=["unguided", "guided"])
def test_concurrent_runs_write_the_bytes_of_one_image_at_a_time(tmp_path, rng, monkeypatch, two_cores, guided):
    names = write_images(tmp_path / "in", [64, 64, 64], rng)
    model, context = ConditionalDenoiser(width=2, seed=0), guided_context() if guided else None
    alone_fn, threads = pipeline.enhance_image, threading.active_count()
    seen = record_threads(monkeypatch)
    written = pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", model, SCHED, 7, context)
    assert threading.active_count() == threads
    main = threading.get_ident()
    assert len(seen) == 3 and main in seen[:2] and len(set(seen[:2])) == 2 and seen[2] == main
    assert written == [os.path.join(tmp_path / "out", name) for name in names]
    os.makedirs(tmp_path / "alone")
    for index, name in enumerate(names):
        img = load_image(tmp_path / "in" / name)
        guidance = None if context is None else context.guidance
        save_image(alone_fn(img, model, SCHED, guidance, context, stream_rng(7, index)), tmp_path / "alone" / name)
        assert read(tmp_path / "out" / name) == read(tmp_path / "alone" / name)


def test_names_and_progress_stay_in_order_when_the_worker_finishes_first(tmp_path, two_cores):
    os.makedirs(tmp_path / "in")
    levels = {"a.png": 0.1, "b.png": 0.3, "c.png": 0.5, "d.png": 0.7, "e.png": 0.8, "f.png": 0.9}
    for name, level in levels.items():
        size = 8 if name == "c.png" else 64  # pairs (a, b) and (d, e); c and f alone
        save_image(RgbImage.from_array(np.full((size, size, 3), level)), tmp_path / "in" / name)

    def model(x, condition, t, sched):  # a and d, sampled on this thread, finish after their workers
        if np.isclose(condition.mean(), [-0.8, 0.4], atol=0.02).any():
            time.sleep(0.01)
        return np.zeros_like(x)

    lines = []
    written = pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", model, SCHED, 0, progress=lines.append)
    assert written == [os.path.join(tmp_path / "out", os.path.splitext(name)[0] + ".png") for name in levels]
    assert lines == [f"[{i + 1}/6] {name}" for i, name in enumerate(levels)]


def nan_model(x, condition, t, sched):  # images brighter than mid-grey go all NaN
    return np.full_like(x, np.nan) if condition.mean() > 0.0 else np.zeros_like(x)


def test_a_nan_in_the_worker_image_names_it_after_the_first_image_is_written(tmp_path, two_cores):
    write_levels(tmp_path / "in", {"a.png": 0.2, "b.png": 0.8, "c.png": 0.2})
    threads = threading.active_count()
    with pytest.raises(SamplingDivergedError) as caught:
        pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", nan_model, SCHED, 0)
    assert threading.active_count() == threads
    assert str(caught.value) == "b.png: reverse chain diverged at step t=4 of 4: 12288 non-finite values in x_3"
    assert os.listdir(tmp_path / "out") == ["a.png"]


def test_a_nan_in_the_first_image_writes_nothing(tmp_path, two_cores):
    write_levels(tmp_path / "in", {"a.png": 0.8, "b.png": 0.2})
    threads = threading.active_count()
    with pytest.raises(SamplingDivergedError, match="^a.png: "):
        pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", nan_model, SCHED, 0)
    assert threading.active_count() == threads
    assert not os.path.exists(tmp_path / "out")


def test_an_error_inside_enhance_image_ends_the_stage_and_leaves_no_thread(tmp_path, monkeypatch, two_cores):
    write_levels(tmp_path / "in", {"a.png": 0.2, "b.png": 0.4})
    calls = []

    class Stop(Exception):  # as the benchmark's set-up probe raises where the first image begins
        pass

    def stop(*args):
        calls.append(threading.get_ident())
        raise Stop

    monkeypatch.setattr(pipeline, "enhance_image", stop)
    threads = threading.active_count()
    with pytest.raises(Stop):
        pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", None, SCHED, 0)
    assert threading.active_count() == threads
    assert len(set(calls)) == 2
    assert not os.path.exists(tmp_path / "out")


def test_one_allowed_core_starts_no_thread(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    seen = record_threads(monkeypatch)
    write_images(tmp_path / "in", [64, 64, 64], rng)
    pipeline.enhance_directory(tmp_path / "in", tmp_path / "out", ConditionalDenoiser(width=2), SCHED, 0)
    assert seen == [threading.get_ident()] * 3


@pytest.mark.parametrize(
    "runs,groups",
    [
        ([(1, 64), (1, 64), (1, 64)], [2, 1]),
        ([(1, 64), (1, 8), (1, 64), (1, 64)], [1, 1, 2]),
        ([(4, 32), (4, 32), (1, 64), (1, 64)], [1, 1, 2]),
        ([(1, 64), (1, 128), (1, 48), (1, 64)], [2, 1, 1]),
    ],
)
def test_only_consecutive_runs_of_one_large_image_pair_up(runs, groups):
    runs = [[(0, "x.png", RgbImage.from_array(np.zeros((size, size, 3))))] * count for count, size in runs]
    assert [len(group) for group in pipeline._run_groups(iter(runs), threaded=True)] == groups
    assert [len(group) for group in pipeline._run_groups(iter(runs), threaded=False)] == [1] * len(runs)
