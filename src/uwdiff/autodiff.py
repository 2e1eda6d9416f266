"""Minimal reverse-mode automatic differentiation over numpy arrays.

Covers exactly the operator set the toolkit trains with: broadcast
arithmetic, matmul, 2-D convolution, smooth pointwise nonlinearities,
reductions, and concatenation, plus the Adam optimizer that every
training loop uses. Every gradient is validated against central finite
differences in the test suite.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeMismatchError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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
        """Accumulate gradients of this scalar into every reachable leaf."""
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
                node._backward(node.grad)

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
    if node.grad is None:
        node.grad = np.zeros_like(node.data)
    node.grad = node.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = parents
        out._backward = backward
    return out


def add(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    a = _ensure(a)
    data = a.data**exponent

    def backward(g):
        _accumulate(a, g * exponent * a.data ** (exponent - 1))

    return _node(data, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    data = a.data @ b.data

    def backward(g):
        ad, bd = a.data, b.data
        if ad.ndim == 1 and bd.ndim == 1:
            _accumulate(a, g * bd)
            _accumulate(b, g * ad)
        elif ad.ndim == 2 and bd.ndim == 1:
            _accumulate(a, np.outer(g, bd))
            _accumulate(b, ad.T @ g)
        elif ad.ndim == 1 and bd.ndim == 2:
            _accumulate(a, g @ bd.T)
            _accumulate(b, np.outer(ad, g))
        else:
            _accumulate(a, g @ bd.T)
            _accumulate(b, ad.T @ g)

    return _node(data, (a, b), backward)


def log(a) -> Tensor:
    a = _ensure(a)
    data = np.log(a.data)

    def backward(g):
        _accumulate(a, g / a.data)

    return _node(data, (a,), backward)


def tanh(a) -> Tensor:
    a = _ensure(a)
    data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - data**2))

    return _node(data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _ensure(a)
    data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accumulate(a, g * data * (1.0 - data))

    return _node(data, (a,), backward)


def absolute(a) -> Tensor:
    a = _ensure(a)
    data = np.abs(a.data)

    def backward(g):
        _accumulate(a, g * np.sign(a.data))

    return _node(data, (a,), backward)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through only in the interior."""
    a = _ensure(a)
    data = np.clip(a.data, lo, hi)

    def backward(g):
        _accumulate(a, g * ((a.data > lo) & (a.data < hi)))

    return _node(data, (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g_arr = np.asarray(g)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g_arr = np.expand_dims(g_arr, tuple(ax % a.data.ndim for ax in axes))
        _accumulate(a, np.broadcast_to(g_arr, a.data.shape).copy())

    return _node(data, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_ensure(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            _accumulate(part, g[tuple(index)])

    return _node(data, tuple(parts), backward)


def _conv_im2col(xp: np.ndarray, weight: np.ndarray, stride: int, h_out: int, w_out: int):
    """Convolution as one GEMM over the (C·kh·kw, H·W) column matrix."""
    c_out, c_in, kh, kw = weight.shape
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = win.transpose(0, 3, 4, 1, 2).reshape(c_in * kh * kw, h_out * w_out)
    w2 = weight.reshape(c_out, c_in * kh * kw)
    out = (w2 @ cols).reshape(c_out, h_out, w_out)

    def grads(g):
        g2 = g.reshape(c_out, h_out * w_out)
        grad_w = (g2 @ cols.T).reshape(weight.shape)
        gcols = (w2.T @ g2).reshape(c_in, kh, kw, h_out, w_out)
        gxp = np.zeros_like(xp)
        for di in range(kh):
            for dj in range(kw):
                gxp[:, di : di + stride * h_out : stride, dj : dj + stride * w_out : stride] += gcols[
                    :, di, dj
                ]
        return grad_w, gxp

    return out, grads


def _conv_taps(xp: np.ndarray, weight: np.ndarray, h_out: int, w_out: int):
    """Stride-1 convolution as one small GEMM per kernel tap, with no column matrix.

    Output pixel (i, j) sits at i·Wp + j of a row-major (h_out, Wp) grid, and
    tap (di, dj) reads the flattened padded input at that index plus
    di·Wp + dj, so each tap is a GEMM over one contiguous slice; the grid's
    last Wp − w_out columns wrap across rows and are dropped (Anderson et al.
    2017, "Low-memory GEMM-based convolution algorithms").
    """
    c_out, c_in, kh, kw = weight.shape
    hp, wp = xp.shape[1:]
    span = (h_out - 1) * wp + w_out
    flat = xp.reshape(c_in, hp * wp)
    w_taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))
    taps = [(di, dj, di * wp + dj) for di in range(kh) for dj in range(kw)]
    acc = np.zeros((c_out, h_out * wp))
    for di, dj, off in taps:
        acc[:, :span] += w_taps[di, dj] @ flat[:, off : off + span]
    out = np.ascontiguousarray(acc.reshape(c_out, h_out, wp)[:, :, :w_out])

    def grads(g):
        g_grid = np.zeros((c_out, h_out, wp))
        g_grid[:, :, :w_out] = g
        g_flat = g_grid.reshape(c_out, h_out * wp)[:, :span]
        grad_w = np.empty_like(weight)
        gflat = np.zeros_like(flat)
        for di, dj, off in taps:
            grad_w[:, :, di, dj] = g_flat @ flat[:, off : off + span].T
            gflat[:, off : off + span] += w_taps[di, dj].T @ g_flat
        return grad_w, gflat.reshape(xp.shape)

    return out, grads


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) of a (C,H,W) input with (O,C,kh,kw) filters.

    Stride-1 convolutions with fewer output than input channels run per kernel
    tap (`_conv_taps`), where the column matrix would dwarf the output; every
    other shape runs through im2col, which is faster for wide outputs.
    """
    x, weight = _ensure(x), _ensure(weight)
    c_in, height, width = x.data.shape
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
        xp = np.zeros((c_in, height + 2 * pad, width + 2 * pad))
        xp[:, pad : pad + height, pad : pad + width] = x.data
    if stride == 1 and c_out < c_in:
        out, grads = _conv_taps(xp, weight.data, h_out, w_out)
    else:
        out, grads = _conv_im2col(xp, weight.data, stride, h_out, w_out)
    if bias is not None:
        bias = _ensure(bias)
        out += bias.data[:, None, None]
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        grad_w, gxp = grads(g)
        _accumulate(weight, grad_w)
        if bias is not None:
            _accumulate(bias, g.reshape(c_out, h_out * w_out).sum(axis=1))
        _accumulate(x, gxp[:, pad : pad + height, pad : pad + width] if pad else gxp)

    return _node(out, parents, backward)


def dot(a, b) -> Tensor:
    return tsum(mul(a, b))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

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
