"""ConditionalDenoiser samples in its weights' dtype: `astype(np.float32)` makes the float32
copy that `enhance` samples with, while training and checkpoints keep float64."""

import hashlib
import threading

import numpy as np
import pytest

from uwdiff import autodiff as ad
from uwdiff import pipeline
from uwdiff.autodiff import Tensor
from uwdiff.checkpoint import read_checkpoint
from uwdiff.config import RunConfig
from uwdiff.denoiser import ConditionalDenoiser
from uwdiff.diffusion import make_linear_schedule, stream_rng
from uwdiff.imageio import _quantize_8bit
from uwdiff.training import LossWeights, OptimizerConfig, fine_tune

from toy_world import toy_scene

SCHED = make_linear_schedule(200, 1e-4, 2e-2)

# sha256 of the checkpoint of a default-config denoiser drawn with seed 0: float64 weights
DEFAULT_SEED0_CKPT = "aee2c74341cf20962179becbdbbc955958ff64284b260bd3deaeb0eb2340700f"


def call_inputs(size=64, seed=0):
    return np.random.default_rng(seed).standard_normal((2, 1, 3, size, size))


def test_a_call_runs_in_the_weights_dtype_and_conv2d_keeps_float32():
    model = ConditionalDenoiser(width=8, seed=0)
    x, condition = call_inputs(16)
    eps_hat = model.astype(np.float32)(x, condition, 100, SCHED)
    assert eps_hat.dtype == np.float32 and eps_hat.shape == x.shape
    assert model(x, condition, 100, SCHED).dtype == np.float64
    assert all(tensor.data.dtype == np.float64 for tensor in model.tensors.values())
    for w_shape in ((8, 8, 3, 3), (3, 8, 3, 3)):  # im2col (conv1), taps (conv2)
        out = ad.conv2d(
            Tensor(np.ones((1, 8, 16, 16), dtype=np.float32)),
            Tensor(np.ones(w_shape, dtype=np.float32)),
            Tensor(np.ones(w_shape[0], dtype=np.float32)),
            padding=1,
        )
        assert out.data.dtype == np.float32


@pytest.mark.parametrize("size", [24, 32, 64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_batch_of_four_gets_each_lone_calls_bits(size, dtype):
    model = ConditionalDenoiser(width=32, seed=0).astype(dtype)
    x, condition = np.random.default_rng(size).standard_normal((2, 4, 3, size, size))
    for t in (1, 100, 200):
        batched = model(x, condition, t, SCHED)
        alone = [model(x[i : i + 1], condition[i : i + 1], t, SCHED) for i in range(4)]
        assert batched.dtype == dtype and np.array_equal(batched, np.concatenate(alone))


def test_training_graph_stays_float64():
    model = ConditionalDenoiser(width=4, seed=0)
    x, condition = call_inputs(8)
    for param in model.parameters():
        param.requires_grad = True
    try:
        eps = model.noise_graph(Tensor(x), condition, 10, SCHED)
        assert eps.requires_grad and eps.data.dtype == np.float64
    finally:
        for param in model.parameters():
            param.requires_grad = False


def test_a_full_chain_in_float32_stays_within_one_grey_level_of_float64():
    model = ConditionalDenoiser(width=32, seed=0)
    image = toy_scene(np.random.default_rng(5), 64)
    single = pipeline.enhance_image(image, model.astype(np.float32), SCHED, None, None, stream_rng(0, 0))
    double = pipeline.enhance_image(image, model, SCHED, None, None, stream_rng(0, 0))
    gap = np.abs(single.data - double.data).max()
    assert 0 < gap < 1e-5  # a real float32 path, close to the float64 one
    a, b = (np.frombuffer(_quantize_8bit(img), dtype=np.uint8).astype(int) for img in (single, double))
    assert np.abs(a - b).max() <= 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_an_astype_copy_shares_nothing_with_its_source(rng, dtype):
    model = ConditionalDenoiser(width=4, seed=0)
    copy = model.astype(dtype)
    assert list(copy.tensors) == list(model.tensors)
    for name, tensor in copy.tensors.items():
        assert tensor.data.dtype == dtype and not np.shares_memory(tensor.data, model.tensors[name].data)
        assert np.array_equal(tensor.data, model.tensors[name].data.astype(dtype))
    x, condition = call_inputs(8)
    before = copy(x, condition, 50, SCHED)
    pairs = [tuple(rng.uniform(-1, 1, (2, 3, 8, 8)))]
    fine_tune(model, pairs, SCHED, LossWeights(1.0, 0.0), OptimizerConfig(learning_rate=1e-2, total_steps=1))
    assert np.array_equal(copy(x, condition, 50, SCHED), before)  # training the source leaves the copy
    assert not np.array_equal(model.astype(dtype)(x, condition, 50, SCHED), before)


def test_a_loaded_model_samples_bit_for_bit_like_its_source(tmp_path):
    config = RunConfig()  # seed 0: a load that drew from the echo's seed would not match
    source = ConditionalDenoiser(width=config.denoiser_width, seed=5)
    path = tmp_path / "model.ckpt"
    pipeline.save_checkpoint(path, source.tensors, config)
    model, _ = pipeline.load_model_checkpoint(path)
    image = toy_scene(np.random.default_rng(5), 16)
    loaded, sourced = (pipeline.enhance_image(image, m, SCHED, None, None, stream_rng(0, 0)) for m in (model, source))
    assert np.array_equal(loaded.data, sourced.data)


def test_a_checkpoint_saved_after_sampling_holds_the_float64_weights(tmp_path):
    config = RunConfig()
    model = ConditionalDenoiser(width=config.denoiser_width, seed=0)
    pipeline.save_checkpoint(tmp_path / "before.ckpt", model.tensors, config)
    x, condition = call_inputs(16)
    model.astype(np.float32)(x, condition, 50, SCHED)
    model(x, condition, 50, SCHED)
    pipeline.save_checkpoint(tmp_path / "after.ckpt", model.tensors, config)
    after = (tmp_path / "after.ckpt").read_bytes()
    assert after == (tmp_path / "before.ckpt").read_bytes()
    assert hashlib.sha256(after).hexdigest() == DEFAULT_SEED0_CKPT
    tensors, _ = read_checkpoint(tmp_path / "after.ckpt")
    assert all(np.array_equal(tensors[name], t.data) for name, t in model.tensors.items())


def test_two_threads_sharing_one_float32_copy_each_get_a_lone_calls_bytes():
    x, condition = call_inputs(64)
    lone = ConditionalDenoiser(width=32, seed=0).astype(np.float32)(x, condition, 100, SCHED)
    model = ConditionalDenoiser(width=32, seed=0).astype(np.float32)
    barrier = threading.Barrier(2)
    results = [None, None]

    def call(i):
        barrier.wait()
        results[i] = model(x, condition, 100, SCHED)

    workers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    for result in results:
        assert np.array_equal(result, lone)

