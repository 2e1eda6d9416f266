import tracemalloc

import numpy as np
import pytest

from uwdiff import autodiff as ad
from uwdiff.autodiff import Tensor
from uwdiff.denoiser import ConditionalDenoiser
from uwdiff.diffusion import make_linear_schedule
from uwdiff.errors import ShapeMismatchError
from uwdiff.verification import check_gradients

from oracles import conv2d_loop


def fd_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar fn over every entry of x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = fn()
        flat[i] = orig - h
        f_minus = fn()
        flat[i] = orig
        out[i] = (f_plus - f_minus) / (2 * h)
    return grad


def check_op(build, *shapes, seed=0, atol=1e-6):
    """build(*tensors) -> scalar Tensor; verifies every input's gradient."""
    gen = np.random.default_rng(seed)
    arrays = [gen.uniform(0.2, 1.5, s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    build(*tensors).backward()

    def value() -> float:
        return build(*[Tensor(a) for a in arrays]).item()

    for tensor, array in zip(tensors, arrays):
        fd = fd_grad(value, array)
        assert tensor.grad is not None
        assert np.allclose(tensor.grad, fd, atol=atol), (tensor.grad, fd)


class TestElementwiseOps:
    def test_add_broadcast(self):
        check_op(lambda a, b: ad.tsum(a + b), (3, 4), (4,))

    def test_sub(self):
        check_op(lambda a, b: ad.tsum(a - b), (2, 3), (2, 3))

    def test_mul_broadcast(self):
        check_op(lambda a, b: ad.tsum(a * b), (2, 3, 2), (3, 1))

    def test_power(self):
        check_op(lambda a: ad.tsum(a**3.0), (5,))

    def test_log_tanh_sigmoid(self):
        check_op(lambda a: ad.tsum(ad.log(a)), (4,))
        check_op(lambda a: ad.tsum(ad.tanh(a)), (4,))
        check_op(lambda a: ad.tsum(ad.sigmoid(a)), (4,))

    def test_absolute(self):
        check_op(lambda a: ad.tsum(ad.absolute(a)), (6,))

    def test_clip_interior_gradient(self):
        x = Tensor(np.array([0.5, 2.0, -1.0]), requires_grad=True)
        ad.tsum(ad.clip(x, 0.0, 1.0)).backward()
        assert np.array_equal(x.grad, [1.0, 0.0, 0.0])


class TestReductionsAndShaping:
    def test_sum_axis(self):
        check_op(lambda a: ad.tsum(ad.tsum(a, axis=1) * 2.0), (3, 4))

    def test_sum_axis_tuple(self):
        check_op(lambda a: ad.tsum(ad.tsum(a, axis=(1, 2)) * 1.5), (2, 3, 4))

    def test_mean(self):
        check_op(lambda a: ad.tmean(a), (3, 5))

    def test_mean_axis(self):
        check_op(lambda a: ad.tsum(ad.tmean(a, axis=0)), (4, 3))

    def test_concat(self):
        check_op(lambda a, b: ad.tsum(ad.concat([a, b], axis=0) ** 2.0), (2, 3), (4, 3))

    def test_reshape(self):
        check_op(lambda a, b: ad.tsum(ad.reshape(a, (3, 4)) * b), (2, 6), (4,))


class TestMatmul:
    def test_matrix_vector(self):
        check_op(lambda a, b: ad.tsum(a @ b), (3, 4), (4,))

    def test_matrix_matrix(self):
        check_op(lambda a, b: ad.tsum(a @ b), (3, 4), (4, 2))

    def test_vector_vector(self):
        check_op(lambda a, b: a @ b, (5,), (5,))

    def test_vector_matrix(self):
        check_op(lambda a, b: ad.tsum(a @ b), (3,), (3, 4))

    def test_matrix_times_stacked_columns(self):
        check_op(lambda a, b: ad.tsum((a @ b) ** 2.0), (3, 4), (2, 4, 1))


# (x shape, weight shape, stride, padding, with bias); the first four keep
# c_out >= c_in and run through im2col, the "narrow" ones (c_out < c_in,
# stride 1) through the per-tap path; the "batch" ones hold two images
CONV_CASES = [
    pytest.param((1, 3, 8, 9), (4, 3, 3, 3), 1, 0, True, id="1-0"),
    pytest.param((1, 3, 8, 9), (4, 3, 3, 3), 1, 1, True, id="1-1"),
    pytest.param((1, 3, 8, 9), (4, 3, 3, 3), 2, 1, True, id="2-1"),
    pytest.param((1, 3, 8, 9), (4, 3, 3, 3), 2, 0, True, id="2-0"),
    pytest.param((1, 5, 8, 9), (2, 5, 3, 3), 1, 1, True, id="narrow-3x3-pad1"),
    pytest.param((1, 5, 8, 9), (2, 5, 3, 3), 1, 0, True, id="narrow-3x3-pad0"),
    pytest.param((1, 6, 5, 7), (1, 6, 1, 1), 1, 0, True, id="narrow-1x1-pad0"),
    pytest.param((1, 4, 11, 4), (3, 4, 3, 3), 1, 1, True, id="narrow-tall"),
    pytest.param((1, 5, 8, 9), (2, 5, 3, 3), 1, 1, False, id="narrow-no-bias"),
    pytest.param((2, 3, 8, 9), (4, 3, 3, 3), 2, 1, True, id="batch-2-1"),
    pytest.param((2, 3, 8, 9), (4, 3, 3, 3), 1, 0, True, id="batch-1-0"),
    pytest.param((2, 5, 8, 9), (2, 5, 3, 3), 1, 1, True, id="batch-narrow-3x3-pad1"),
    pytest.param((2, 6, 5, 7), (1, 6, 1, 1), 1, 0, True, id="batch-narrow-1x1-pad0"),
]

GRAD_CASES = [
    pytest.param((1, 2, 6, 5), (3, 2, 3, 3), 1, 1, True, id="1-1"),
    pytest.param((1, 2, 6, 5), (3, 2, 3, 3), 2, 1, True, id="2-1"),
    pytest.param((1, 5, 6, 5), (2, 5, 3, 3), 1, 1, True, id="narrow-3x3-pad1"),
    pytest.param((1, 5, 6, 5), (2, 5, 3, 3), 1, 0, True, id="narrow-3x3-pad0"),
    pytest.param((1, 6, 4, 5), (1, 6, 1, 1), 1, 0, True, id="narrow-1x1-pad0"),
    pytest.param((1, 3, 7, 4), (2, 3, 3, 3), 1, 1, True, id="narrow-tall"),
    pytest.param((1, 5, 6, 5), (2, 5, 3, 3), 1, 1, False, id="narrow-no-bias"),
    pytest.param((2, 2, 6, 5), (3, 2, 3, 3), 2, 1, True, id="batch-2-1"),
    pytest.param((2, 2, 6, 5), (3, 2, 3, 3), 1, 0, True, id="batch-1-0"),
    pytest.param((2, 5, 6, 5), (2, 5, 3, 3), 1, 1, True, id="batch-narrow-3x3-pad1"),
    pytest.param((2, 6, 4, 5), (1, 6, 1, 1), 1, 0, False, id="batch-narrow-1x1-no-bias"),
]


class TestConv2d:
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding,with_bias", CONV_CASES)
    def test_forward_matches_loop_oracle(self, x_shape, w_shape, stride, padding, with_bias, rng):
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        b = rng.standard_normal(w_shape[0]) if with_bias else None
        out = ad.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b), stride=stride, padding=padding)
        for image, got in zip(x, out.data, strict=True):
            ref = conv2d_loop(image, w, b, stride, padding)
            assert got.shape == ref.shape
            assert np.allclose(got, ref, atol=1e-12)

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding,with_bias", GRAD_CASES)
    def test_gradients(self, x_shape, w_shape, stride, padding, with_bias):
        check_op(
            lambda x, w, *b: ad.tsum(ad.conv2d(x, w, *b, stride=stride, padding=padding) ** 2.0),
            x_shape,
            w_shape,
            *([(w_shape[0],)] if with_bias else []),
            atol=1e-5,
        )

    @pytest.mark.parametrize("w_shape,stride", [((4, 3, 3, 3), 2), ((2, 3, 3, 3), 1)], ids=["im2col", "taps"])
    def test_batch_rows_are_the_lone_images_bit_for_bit(self, w_shape, stride, rng):
        x = Tensor(rng.standard_normal((3, 3, 9, 8)), requires_grad=True)
        w, b = Tensor(rng.standard_normal(w_shape)), Tensor(rng.standard_normal(w_shape[0]))
        out = ad.conv2d(x, w, b, stride=stride, padding=1)
        ad.tsum(out * out).backward()
        for i in range(3):
            xi = Tensor(x.data[i : i + 1], requires_grad=True)
            alone = ad.conv2d(xi, w, b, stride=stride, padding=1)
            ad.tsum(alone * alone).backward()
            assert np.array_equal(out.data[i : i + 1], alone.data)
            assert np.array_equal(x.grad[i : i + 1], xi.grad)

    @pytest.mark.parametrize("budget", [None, 1], ids=["default-budget", "one-row-chunks"])
    @pytest.mark.parametrize(
        "x_shape,w_shape,stride",
        [
            ((1, 8, 64, 64), (32, 8, 3, 3), 1),
            ((2, 3, 64, 64), (4, 3, 3, 3), 2),
            ((2, 4, 32, 32), (8, 4, 3, 3), 2),
            ((2, 8, 16, 16), (16, 8, 3, 3), 2),
        ],
        ids=["denoiser-conv1-64px", "encoder-conv1", "encoder-conv2", "encoder-conv3"],
    )
    def test_graph_free_chunks_equal_the_kept_columns_bit_for_bit(
        self, x_shape, w_shape, stride, budget, rng, monkeypatch
    ):
        if budget is not None:
            monkeypatch.setattr(ad, "_COLS_BYTES", budget)
        x = rng.standard_normal(x_shape)
        w, b = rng.standard_normal(w_shape), rng.standard_normal(w_shape[0])
        free = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=1)
        kept = ad.conv2d(Tensor(x), Tensor(w, requires_grad=True), Tensor(b), stride=stride, padding=1)
        assert kept.requires_grad and not free.requires_grad
        assert np.array_equal(free.data, kept.data)

    @staticmethod
    def record_chunks(monkeypatch):
        """The right operand of every np.matmul call, in call order."""
        matmul, chunks = np.matmul, []

        def recording(a, b, **kwargs):
            chunks.append(b)
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        return chunks

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_graph_free_chunk_holds_the_most_rows_that_fit_the_budget(self, dtype, n, monkeypatch):
        chunks = self.record_chunks(monkeypatch)
        out = ad.conv2d(Tensor(np.ones((n, 8, 64, 64), dtype)), Tensor(np.ones((32, 8, 3, 3), dtype)), padding=1)
        row = 8 * 3 * 3 * 64 * np.dtype(dtype).itemsize  # one output row's columns, denoiser conv1 at 64 px
        largest = max(chunk.nbytes for chunk in chunks)
        assert out.data.dtype == dtype and all(chunk.dtype == dtype for chunk in chunks)
        assert all(chunk.shape[0] == 1 for chunk in chunks)  # an image too large for one chunk is chunked alone
        assert largest <= ad._COLS_BYTES < largest + row

    @pytest.mark.parametrize(
        "dtype,images", [(np.float32, [2, 2]), (np.float64, [1, 1, 1, 1])], ids=["float32", "float64"]
    )
    def test_a_graph_free_chunk_holds_the_most_whole_images_that_fit_the_budget(self, dtype, images, monkeypatch):
        chunks = self.record_chunks(monkeypatch)
        ad.conv2d(Tensor(np.ones((4, 8, 32, 32), dtype)), Tensor(np.ones((32, 8, 3, 3), dtype)), padding=1)
        image = 8 * 3 * 3 * 32 * 32 * np.dtype(dtype).itemsize  # one image's columns, denoiser conv1 at 32 px
        assert [chunk.shape[0] for chunk in chunks] == images
        assert images[0] * image <= ad._COLS_BYTES < (images[0] + 1) * image

    @pytest.mark.parametrize(
        "x_shape,w_shape,stride",
        [
            ((1, 8, 64, 64), (32, 8, 3, 3), 1),
            ((2, 3, 64, 64), (4, 3, 3, 3), 2),
            ((4, 8, 64, 64), (32, 8, 3, 3), 1),
            ((4, 3, 64, 64), (4, 3, 3, 3), 2),
        ],
        ids=["denoiser-conv1-64px", "encoder-conv1", "denoiser-conv1-64px-batch-4", "encoder-conv1-batch-4"],
    )
    def test_float32_chunks_equal_one_chunk_bit_for_bit(self, x_shape, w_shape, stride, rng, monkeypatch):
        x, w, b = (rng.standard_normal(shape).astype(np.float32) for shape in (x_shape, w_shape, w_shape[:1]))

        def conv(budget):
            monkeypatch.setattr(ad, "_COLS_BYTES", budget)
            return ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=1).data

        default = ad._COLS_BYTES
        whole = conv(1 << 40)
        assert whole.dtype == np.float32
        assert np.array_equal(conv(default), whole)
        assert np.array_equal(conv(1), whole)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_unbatched_input_rejected(self):
        with pytest.raises(ShapeMismatchError, match="batch"):
            ad.conv2d(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))


class TestTensorDtype:
    def test_a_float32_array_stays_float32_and_is_not_copied(self):
        data = np.ones((2, 3), dtype=np.float32)
        assert Tensor(data).data is data

    def test_a_float64_array_is_not_copied(self):
        data = np.ones((2, 3))
        assert Tensor(data).data is data

    @pytest.mark.parametrize(
        "value",
        [np.arange(3), np.ones(3, dtype=np.float16), [1.0, 2.0], [1, 2], 2.5, 3, True],
        ids=["int-array", "float16", "float-list", "int-list", "float", "int", "bool"],
    )
    def test_every_other_input_becomes_float64(self, value):
        tensor = Tensor(value)
        assert tensor.data.dtype == np.float64
        assert np.array_equal(tensor.data, np.asarray(value, dtype=np.float64))

    def test_float32_mixed_with_float64_promotes_to_float64(self):
        single, double = Tensor(np.ones((1, 2, 4, 4), np.float32)), Tensor(np.ones((1, 2, 4, 4)))
        assert (single + double).data.dtype == np.float64
        assert (single * double).data.dtype == np.float64
        assert (single * 2.0).data.dtype == np.float64  # a Python float becomes a float64 tensor
        assert ad.concat([single, double], axis=1).data.dtype == np.float64
        for w_shape in ((3, 2, 3, 3), (1, 2, 3, 3)):  # im2col, taps
            assert ad.conv2d(single, Tensor(np.ones(w_shape)), padding=1).data.dtype == np.float64
            assert ad.conv2d(double, Tensor(np.ones(w_shape, np.float32)), padding=1).data.dtype == np.float64

    def test_verify_gradient_checks_read_their_float64_figures(self):
        assert check_gradients(0).detail == "pixels=5.54e-09, conv1=1.54e-10"


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeMismatchError):
            (x * 2.0).backward()

    def test_grad_accumulates_over_shared_node(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = x * x  # dy/dx = 2x through two paths
        y.backward()
        assert x.grad == pytest.approx(4.0)

    def test_constants_collect_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3))
        ad.tsum(x * c).backward()
        assert c.grad is None
        assert np.array_equal(x.grad, np.ones(3))

    def test_tensors_that_need_no_gradient_get_none(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)))  # frozen
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        c = Tensor(rng.standard_normal(4))
        hidden = ad.tanh(ad.conv2d(x, w, b, stride=2, padding=1))
        out = ad.tsum(ad.matmul(c, ad.reshape(hidden, (2, 4, 9))) ** 2.0)
        out.backward()
        assert x.grad is not None and b.grad is not None and hidden.grad is not None
        assert w.grad is None and c.grad is None

    def test_repeated_backward_resets_grads(self):
        x = Tensor(np.array(3.0), requires_grad=True)

        def run():
            out = x * x
            out.backward()
            return x.grad

        assert run() == pytest.approx(run())


def test_a_graph_free_64_px_denoiser_call_peaks_under_2_4_mb(rng):
    # it runs in float32: in float64 the peak is about 2.9 MB, and conv1's whole
    # float64 column matrix (2.4 MB) would take it to about 4 MB
    model = ConditionalDenoiser(width=32, seed=0).astype(np.float32)
    sched = make_linear_schedule(200, 1e-4, 2e-2)
    x, condition = rng.standard_normal((2, 1, 3, 64, 64))
    model(x, condition, 100, sched)
    tracemalloc.start()
    try:
        model(x, condition, 100, sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.4e6
