"""Minimal reverse-mode automatic differentiation over numpy arrays.

Covers exactly the operator set the toolkit trains with: broadcast
arithmetic, matmul, 2-D convolution, smooth pointwise nonlinearities,
reductions, reshape, and concatenation, plus the Adam optimizer that every
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

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

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


def div(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    data = a.data / b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / b.data**2, b.data.shape))

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


def exp(a) -> Tensor:
    a = _ensure(a)
    data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * data)

    return _node(data, (a,), backward)


def log(a) -> Tensor:
    a = _ensure(a)
    data = np.log(a.data)

    def backward(g):
        _accumulate(a, g / a.data)

    return _node(data, (a,), backward)


def sqrt(a) -> Tensor:
    a = _ensure(a)
    data = np.sqrt(a.data)

    def backward(g):
        _accumulate(a, g / (2.0 * data))

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


def reshape(a, shape) -> Tensor:
    a = _ensure(a)
    data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _node(data, (a,), backward)


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


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) of a (C,H,W) input with (O,C,kh,kw) filters."""
    x, weight = _ensure(x), _ensure(weight)
    c_in, height, width = x.data.shape
    c_out, c_in2, kh, kw = weight.data.shape
    if c_in != c_in2:
        raise ShapeMismatchError(f"conv2d channels mismatch: input {c_in}, weight {c_in2}")
    pad = padding
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad))) if pad else x.data
    h_out = (height + 2 * pad - kh) // stride + 1
    w_out = (width + 2 * pad - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeMismatchError("conv2d input is smaller than the kernel")
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = win.transpose(0, 3, 4, 1, 2).reshape(c_in * kh * kw, h_out * w_out)
    w2 = weight.data.reshape(c_out, c_in * kh * kw)
    out = w2 @ cols
    if bias is not None:
        bias = _ensure(bias)
        out = out + bias.data[:, None]
    data = out.reshape(c_out, h_out, w_out)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        g2 = g.reshape(c_out, h_out * w_out)
        _accumulate(weight, (g2 @ cols.T).reshape(weight.data.shape))
        if bias is not None:
            _accumulate(bias, g2.sum(axis=1))
        gcols = (w2.T @ g2).reshape(c_in, kh, kw, h_out, w_out)
        gxp = np.zeros_like(xp)
        for di in range(kh):
            for dj in range(kw):
                gxp[:, di : di + stride * h_out : stride, dj : dj + stride * w_out : stride] += gcols[
                    :, di, dj
                ]
        _accumulate(x, gxp[:, pad : pad + height, pad : pad + width] if pad else gxp)

    return _node(data, parents, backward)


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
