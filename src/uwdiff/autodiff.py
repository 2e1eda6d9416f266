"""Minimal reverse-mode automatic differentiation over numpy arrays.

Covers exactly the operator set the toolkit trains with: broadcast
arithmetic, matmul, batched 2-D convolution, smooth pointwise
nonlinearities, reductions, reshaping and concatenation, plus the weight
initialization and the Adam optimizer that every model uses. Every gradient
is validated against central finite differences in the test suite.

Tensors hold float64, except that an array which is already float32 stays
float32, so a graph-free forward pass can run in single precision. Ops
follow numpy's promotion: float32 mixed with float64 gives float64.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable tensor that requires one.

        A parent's gradient is computed only when that parent requires a
        gradient, so frozen weights and constant inputs cost nothing and keep
        grad None. Flags must therefore not change between building a graph
        and calling backward().
        """
        if self.data.size != 1:
            raise ShapeMismatchError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                for parent, grad_fn in zip(node._parents, node._backward):
                    if parent.requires_grad:
                        _accumulate(parent, grad_fn(node.grad))

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _ensure(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accumulate(node: Tensor, grad: np.ndarray) -> None:
    """Add grad to node.grad. A first gradient is stored as given, often a view
    of another node's gradient; that is safe because no backward mutates a
    gradient in place."""
    node.grad = grad if node.grad is None else node.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's result; `backward` holds one function per parent that maps the
    result's gradient to that parent's. The graph is recorded only when some
    parent requires a gradient."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def add(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    return _node(
        a.data + b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(g, b.data.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    return _node(
        a.data - b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(-g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    return _node(
        a.data * b.data,
        (a, b),
        (lambda g: _unbroadcast(g * b.data, a.data.shape), lambda g: _unbroadcast(g * a.data, b.data.shape)),
    )


def power(a, exponent: float) -> Tensor:
    a = _ensure(a)
    return _node(a.data**exponent, (a,), (lambda g: g * exponent * a.data ** (exponent - 1),))


def matmul(a, b) -> Tensor:
    """numpy's matmul: a leading stack axis runs one BLAS call per stacked
    matrix, and the gradient of an operand shared across the stack sums over it."""
    a, b = _ensure(a), _ensure(b)

    def grad_a(g):
        bd = b.data
        if bd.ndim == 1:
            return g * bd if a.data.ndim == 1 else np.outer(g, bd)
        return _unbroadcast(g @ bd.swapaxes(-1, -2), a.data.shape)

    def grad_b(g):
        ad = a.data
        if ad.ndim == 1:
            return g * ad if b.data.ndim == 1 else np.outer(ad, g)
        return _unbroadcast(ad.swapaxes(-1, -2) @ g, b.data.shape)

    return _node(a.data @ b.data, (a, b), (grad_a, grad_b))


def log(a) -> Tensor:
    a = _ensure(a)
    return _node(np.log(a.data), (a,), (lambda g: g / a.data,))


def tanh(a) -> Tensor:
    a = _ensure(a)
    data = np.tanh(a.data)
    return _node(data, (a,), (lambda g: g * (1.0 - data**2),))


def sigmoid(a) -> Tensor:
    a = _ensure(a)
    data = 1.0 / (1.0 + np.exp(-a.data))
    return _node(data, (a,), (lambda g: g * data * (1.0 - data),))


def absolute(a) -> Tensor:
    a = _ensure(a)
    return _node(np.abs(a.data), (a,), (lambda g: g * np.sign(a.data),))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through only in the interior."""
    a = _ensure(a)
    return _node(np.clip(a.data, lo, hi), (a,), (lambda g: g * ((a.data > lo) & (a.data < hi)),))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)

    def grad(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, tuple(ax % a.data.ndim for ax in axes))
        return np.broadcast_to(g, a.data.shape).copy()

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), (grad,))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _ensure(a)
    return _node(a.data.reshape(shape), (a,), (lambda g: g.reshape(a.data.shape),))


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_ensure(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def part_grad(start, stop):
        index = [slice(None)] * data.ndim
        index[axis] = slice(start, stop)
        return lambda g: g[tuple(index)]

    return _node(data, tuple(parts), tuple(part_grad(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])))


# Most bytes of column matrix a graph-free convolution builds at once
_COLS_BYTES = 640 * 1024


def _conv_im2col(xp: np.ndarray, weight: np.ndarray, stride: int, h_out: int, w_out: int, keep_cols: bool):
    """Convolution as GEMMs per image over its (C·kh·kw, H·W) column matrix.

    The columns are kept whole, for the weight gradient, only when keep_cols
    is set. Otherwise they are built and multiplied in chunks of at most
    _COLS_BYTES: as many whole images as fit, or else the most output rows of
    one image that fit. A chunk's columns come from one strided view of the
    padded input in one copy, and one stacked matmul multiplies them, which
    numpy runs as one GEMM per image. An image's chunks are those it would get
    alone, so every output keeps the bits it gets alone. Chunking itself is
    not bit-neutral: OpenBLAS rounds some small GEMMs differently, and row
    chunks that spanned a batch changed float32 outputs at 24 px.
    """
    n = xp.shape[0]
    c_out, c_in, kh, kw = weight.shape
    w2 = weight.reshape(c_out, c_in * kh * kw)
    out = np.empty((n, c_out, h_out * w_out), dtype=np.result_type(xp, weight))
    if keep_cols:
        images, rows = n, h_out
    else:  # images is 1 when a whole image does not fit, and rows then the most that do
        row_bytes = xp.itemsize * c_in * kh * kw * w_out
        images = max(1, _COLS_BYTES // (row_bytes * h_out))
        rows = min(h_out, max(1, _COLS_BYTES // row_bytes))
    sn, sc, sh, sw = xp.strides
    for i0 in range(0, n, images):
        i1 = min(i0 + images, n)
        for r0 in range(0, h_out, rows):
            r1 = min(r0 + rows, h_out)
            window = np.lib.stride_tricks.as_strided(
                xp[i0:i1, :, stride * r0 :],
                shape=(i1 - i0, c_in, kh, kw, r1 - r0, w_out),
                strides=(sn, sc, sh, sw, stride * sh, stride * sw),
                writeable=False,
            )
            cols = window.reshape(i1 - i0, c_in * kh * kw, (r1 - r0) * w_out)
            np.matmul(w2, cols, out=out[i0:i1, :, r0 * w_out : r1 * w_out])
    kept = cols if keep_cols else None

    def grad_x(g):
        gcols = (w2.T @ g.reshape(n, c_out, h_out * w_out)).reshape(n, c_in, kh, kw, h_out, w_out)
        gxp = np.zeros_like(xp)
        for di in range(kh):
            for dj in range(kw):
                gxp[:, :, di : di + stride * h_out : stride, dj : dj + stride * w_out : stride] += gcols[
                    :, :, di, dj
                ]
        return gxp

    def grad_w(g):
        g2 = g.reshape(n, c_out, h_out * w_out)
        return (g2 @ kept.swapaxes(-1, -2)).sum(axis=0).reshape(weight.shape)

    return out.reshape(n, c_out, h_out, w_out), grad_x, grad_w


def _conv_taps(xp: np.ndarray, weight: np.ndarray, h_out: int, w_out: int):
    """Stride-1 convolution as one small stacked GEMM per kernel tap, with no column matrix.

    Output pixel (i, j) sits at i·Wp + j of a row-major (h_out, Wp) grid, and
    tap (di, dj) reads the flattened padded input at that index plus
    di·Wp + dj, so each tap is a GEMM over one contiguous slice per image; the
    grid's last Wp − w_out columns wrap across rows and are dropped (Anderson
    et al. 2017, "Low-memory GEMM-based convolution algorithms").
    """
    n = xp.shape[0]
    c_out, c_in, kh, kw = weight.shape
    hp, wp = xp.shape[2:]
    span = (h_out - 1) * wp + w_out
    flat = xp.reshape(n, c_in, hp * wp)
    w_taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))
    taps = [(di, dj, di * wp + dj) for di in range(kh) for dj in range(kw)]
    acc = np.zeros((n, c_out, h_out * wp), dtype=np.result_type(xp, weight))
    for di, dj, off in taps:
        acc[:, :, :span] += w_taps[di, dj] @ flat[:, :, off : off + span]
    out = np.ascontiguousarray(acc.reshape(n, c_out, h_out, wp)[..., :w_out])

    def on_grid(g):  # the output gradient laid on the (h_out, Wp) grid, first `span` entries
        g_grid = np.zeros((n, c_out, h_out, wp))
        g_grid[..., :w_out] = g
        return g_grid.reshape(n, c_out, h_out * wp)[:, :, :span]

    def grad_x(g):
        g_flat = on_grid(g)
        gflat = np.zeros_like(flat)
        for di, dj, off in taps:
            gflat[:, :, off : off + span] += w_taps[di, dj].T @ g_flat
        return gflat.reshape(xp.shape)

    def grad_w(g):
        g_flat = on_grid(g)
        grad = np.empty_like(weight)
        for di, dj, off in taps:
            grad[:, :, di, dj] = (g_flat @ flat[:, :, off : off + span].swapaxes(-1, -2)).sum(axis=0)
        return grad

    return out, grad_x, grad_w


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) of an (N, C, H, W) batch with (O, C, kh, kw) filters.

    Stride-1 convolutions with fewer output than input channels run per kernel
    tap (`_conv_taps`), where the column matrix would dwarf the output; every
    other shape runs through im2col, which is faster for wide outputs. Either
    way each image gets the BLAS calls it would get alone, because a stacked
    matmul runs one GEMM per image, so an image's output does not depend on
    the rest of its batch. Every buffer takes the dtype of the input and
    weight, so float32 operands convolve in float32.
    """
    x, weight = _ensure(x), _ensure(weight)
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"conv2d input must be an (N, C, H, W) batch, got shape {x.data.shape}")
    n, c_in, height, width = x.data.shape
    c_out, c_in2, kh, kw = weight.data.shape
    if c_in != c_in2:
        raise ShapeMismatchError(f"conv2d channels mismatch: input {c_in}, weight {c_in2}")
    pad = padding
    h_out = (height + 2 * pad - kh) // stride + 1
    w_out = (width + 2 * pad - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeMismatchError("conv2d input is smaller than the kernel")
    xp = x.data
    if pad:
        xp = np.zeros((n, c_in, height + 2 * pad, width + 2 * pad), dtype=x.data.dtype)
        xp[:, :, pad : pad + height, pad : pad + width] = x.data
    if stride == 1 and c_out < c_in:
        out, grad_xp, grad_w = _conv_taps(xp, weight.data, h_out, w_out)
    else:
        out, grad_xp, grad_w = _conv_im2col(xp, weight.data, stride, h_out, w_out, weight.requires_grad)
    grads = [
        (lambda g: grad_xp(g)[:, :, pad : pad + height, pad : pad + width]) if pad else grad_xp,
        grad_w,
    ]
    parents = [x, weight]
    if bias is not None:
        bias = _ensure(bias)
        out += bias.data[:, None, None]
        parents.append(bias)
        grads.append(lambda g: g.reshape(n, c_out, h_out * w_out).sum(axis=2).sum(axis=0))
    return _node(out, tuple(parents), tuple(grads))


def dot(a, b) -> Tensor:
    return tsum(mul(a, b))


# ---------------------------------------------------------------------------
# Parameters and the optimizer
# ---------------------------------------------------------------------------


def init_layers(rng: np.random.Generator, shapes: dict[str, tuple[int, ...]]) -> dict[str, Tensor]:
    """Named parameters in table order: a 1-D entry is a zero bias, any other a
    weight drawn from rng as N(0, 1/sqrt(fan_in)) with fan_in = prod(shape[1:])."""
    tensors = {}
    for name, shape in shapes.items():
        scale = 1.0 / np.sqrt(np.prod(shape[1:]))
        tensors[name] = Tensor(np.zeros(shape) if len(shape) == 1 else rng.normal(0.0, scale, shape))
    return tensors


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class Adam:
    """Adam with the conventional (0.9, 0.999, 1e-8) moment constants."""

    def __init__(self, params: list[Tensor]):
        self.params = params
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def step(self, lr: float) -> None:
        self.step_count += 1
        for i, p in enumerate(self.params):
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            self._m[i] = _ADAM_BETA1 * self._m[i] + (1 - _ADAM_BETA1) * grad
            self._v[i] = _ADAM_BETA2 * self._v[i] + (1 - _ADAM_BETA2) * grad**2
            m_hat = self._m[i] / (1 - _ADAM_BETA1**self.step_count)
            v_hat = self._v[i] / (1 - _ADAM_BETA2**self.step_count)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
