"""Reverse-mode automatic differentiation over dense numpy arrays.

The graph is define-by-run: every op records its parent tensors and a
closure that maps the output gradient to parent gradients.  ``backward``
walks the recorded nodes once in reverse topological order and accumulates
gradients into the ``grad`` field of leaf tensors that require them.

Broadcasting is deliberately restricted.  Elementwise ops align a shorter
shape against the *trailing* axes of the longer one (leading batch axes
only); anything else needs an explicit :func:`expand`.  ``matmul`` batch
axes broadcast like numpy.

Every forward op validates that finite inputs produced finite outputs;
overflow raises :class:`NumericalOverflow` instead of propagating inf/NaN.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.special import erf

from .errors import (
    DivideByZero,
    NotScalar,
    NumericalOverflow,
    ShapeMismatch,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (evaluation mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericalOverflow(f"{op} produced non-finite values")


class Tensor:
    """Dense n-dimensional array with optional gradient tracking.

    ``data`` is treated as immutable once the tensor participates in a
    graph; the only sanctioned in-place mutation is the optimizer update of
    leaf parameters between forward passes.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Optional[Callable[[np.ndarray], tuple]] = None
        self._op = "leaf"

    # --- introspection ---

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, op={self._op!r})"

    def item(self) -> float:
        if self.data.size != 1:
            raise NotScalar(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    # --- graph mechanics ---

    def backward(self) -> None:
        backward(self)

    # --- operator sugar ---

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / other)
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self.dtype), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    # --- reductions / movement as methods ---

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _mean(self, axis, keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes if axes else None)

    def expand(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return expand(self, shape)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def _check_dtypes(op: str, *ts: Tensor) -> None:
    dt = ts[0].dtype
    for t in ts[1:]:
        if t.dtype != dt:
            raise TypeError(f"{op}: mixed dtypes {dt} and {t.dtype}")


# --- broadcasting helpers (leading batch axes only) ---

def _suffix_shape(op: str, sa: tuple, sb: tuple) -> tuple:
    """Result shape when one operand shape is a trailing suffix of the other."""
    if sa == sb:
        return sa
    if len(sa) >= len(sb):
        longer, shorter = sa, sb
    else:
        longer, shorter = sb, sa
    k = len(shorter)
    if k == 0 or longer[len(longer) - k:] == shorter:
        return longer
    raise ShapeMismatch(f"{op}: shapes {sa} and {sb} only broadcast over leading axes")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over the leading axes added by suffix broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


# --- elementwise ---

@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes("add", a, b)
    _suffix_shape("add", a.shape, b.shape)
    data = a.data + b.data

    def vjp(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _make(data, "add", (a, b), vjp)


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes("sub", a, b)
    _suffix_shape("sub", a.shape, b.shape)
    data = a.data - b.data

    def vjp(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return _make(data, "sub", (a, b), vjp)


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes("mul", a, b)
    _suffix_shape("mul", a.shape, b.shape)
    data = a.data * b.data

    def vjp(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return _make(data, "mul", (a, b), vjp)


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def div(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes("div", a, b)
    _suffix_shape("div", a.shape, b.shape)
    if np.any(b.data == 0):
        raise DivideByZero("div: zero denominator")
    data = a.data / b.data

    def vjp(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        return _reduce_to(ga, a.shape), _reduce_to(gb, b.shape)

    return _make(data, "div", (a, b), vjp)


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    data = a.data * a.dtype.type(s)

    def vjp(g):
        return (g * a.dtype.type(s),)

    return _make(data, "scale", (a,), vjp)


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def gelu(a: Tensor) -> Tensor:
    x = a.data
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = (x * phi).astype(a.dtype, copy=False)

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return (g * (phi + x * pdf).astype(a.dtype, copy=False),)

    return _make(data, "gelu", (a,), vjp)


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # stable two-branch form: never exponentiates a positive argument
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    data = data.astype(a.dtype, copy=False)

    def vjp(g):
        return (g * data * (1.0 - data),)

    return _make(data, "sigmoid", (a,), vjp)


# --- normalization ---

@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.ndim <= axis < a.ndim:
        raise ShapeMismatch(f"softmax: axis {axis} invalid for shape {a.shape}")
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = (e / np.sum(e, axis=axis, keepdims=True)).astype(a.dtype, copy=False)

    def vjp(g):
        dot = np.sum(g * data, axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _make(data, "softmax", (a,), vjp)


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    w = a.shape[-1]
    if gain.shape != (w,) or bias.shape != (w,):
        raise ShapeMismatch(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} vs last axis {w}")
    _check_dtypes("layer_norm", a, gain, bias)
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + a.dtype.type(eps))
    xhat = xc * inv
    data = (xhat * gain.data + bias.data).astype(a.dtype, copy=False)

    def vjp(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        reduce_axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=reduce_axes)
        dbias = g.sum(axis=reduce_axes)
        return dx.astype(a.dtype, copy=False), dgain, dbias

    return _make(data, "layer_norm", (a, gain, bias), vjp)


# --- movement ---

def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeMismatch("concat: empty tensor list")
    _check_dtypes("concat", *ts)
    nd = ts[0].ndim
    axis = axis % nd
    base = list(ts[0].shape)
    for t in ts[1:]:
        if t.ndim != nd:
            raise ShapeMismatch("concat: rank mismatch")
        for ax in range(nd):
            if ax != axis and t.shape[ax] != base[ax]:
                raise ShapeMismatch(
                    f"concat: non-concat extents differ: {t.shape} vs {tuple(base)}")
    data = np.concatenate([t.data for t in ts], axis=axis)
    offsets = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    return _make(data, "concat", tuple(ts), vjp)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    axis = axis % a.ndim
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeMismatch(
            f"narrow: [{start}:{start + length}) out of range for axis {axis} of {a.shape}")
    idx = tuple(slice(None) if ax != axis else slice(start, start + length)
                for ax in range(a.ndim))
    data = np.ascontiguousarray(a.data[idx])

    def vjp(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _make(data, "narrow", (a,), vjp)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeMismatch(f"reshape: {a.shape} -> {shape}: {e}") from None

    def vjp(g):
        return (g.reshape(a.shape),)

    return _make(data, "reshape", (a,), vjp)


def transpose(a: Tensor, axes: Optional[tuple] = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeMismatch(f"transpose: axes {axes} invalid for rank {a.ndim}")
    data = np.ascontiguousarray(a.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _make(data, "transpose", (a,), vjp)


def expand(a: Tensor, shape: tuple) -> Tensor:
    """Explicit broadcast: prepend axes and/or repeat size-1 axes."""
    if len(shape) < a.ndim:
        raise ShapeMismatch(f"expand: target {shape} has lower rank than {a.shape}")
    lead = len(shape) - a.ndim
    for ax, (have, want) in enumerate(zip(a.shape, shape[lead:])):
        if have != want and have != 1:
            raise ShapeMismatch(
                f"expand: axis {ax} of {a.shape} cannot expand to {shape}")
    try:
        data = np.ascontiguousarray(np.broadcast_to(a.data, shape))
    except ValueError as e:
        raise ShapeMismatch(f"expand: {a.shape} -> {shape}: {e}") from None
    expanded = tuple(lead + ax for ax, (have, want) in
                     enumerate(zip(a.shape, shape[lead:])) if have == 1 and want != 1)

    def vjp(g):
        g = g.sum(axis=tuple(range(lead))) if lead else g
        if expanded:
            g = g.sum(axis=tuple(ax - lead for ax in expanded), keepdims=True)
        return (g,)

    return _make(data, "expand", (a,), vjp)


# --- contraction ---

@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch(f"matmul: operands must be >=2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul: inner extents differ: {a.shape} @ {b.shape}")

    if b.ndim == 2 and a.ndim > 2:
        # x @ W with a plain matrix: collapse the batch into one big GEMM
        k, n = b.shape
        a2 = a.data.reshape(-1, k)
        data = (a2 @ b.data).reshape(a.shape[:-1] + (n,))

        def vjp(g):
            g2 = g.reshape(-1, n)
            ga = (g2 @ b.data.T).reshape(a.shape)
            gb = a2.T @ g2
            return ga, gb

        return _make(data, "matmul", (a, b), vjp)

    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}: {e}") from None

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _reduce_batch(ga, a.shape), _reduce_batch(gb, b.shape)

    return _make(data, "matmul", (a, b), vjp)


def _reduce_batch(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Undo numpy batch-broadcasting of the leading (non-matrix) axes."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax in range(g.ndim - 2):
        if shape[ax] == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    data = np.asarray(data, dtype=a.dtype)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=True),)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(ax % a.ndim for ax in axes)
        if not keepdims:
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=True),)

    return _make(data, "sum", (a,), vjp)


def _mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.shape[ax % a.ndim]
    return scale(_sum(a, axis, keepdims), 1.0 / count)


# --- convolution support ---

def im2col(a: Tensor, kernel: int, stride: int = 1, padding: int = 0) -> Tensor:
    """Extract kernel x kernel patches of a [B, C, H, W] tensor.

    Returns [B, OH, OW, C*kernel*kernel] with (channel, row, col) flattening,
    so a convolution is a single matmul against a [C*k*k, C_out] matrix.
    """
    if a.ndim != 4:
        raise ShapeMismatch(f"im2col: expected [B, C, H, W], got {a.shape}")
    bsz, ch, h, w = a.shape
    k, s, p = kernel, stride, padding
    if h + 2 * p < k or w + 2 * p < k:
        raise ShapeMismatch(f"im2col: kernel {k} larger than padded input {a.shape}")
    x = a.data
    if p:
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    windows = windows[:, :, ::s, ::s]  # [B, C, OH, OW, k, k]
    oh, ow = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 2, 3, 1, 4, 5)  # [B, OH, OW, C, k, k]
    data = np.ascontiguousarray(cols).reshape(bsz, oh, ow, ch * k * k)

    def vjp(g):
        gc = g.reshape(bsz, oh, ow, ch, k, k).transpose(0, 3, 1, 2, 4, 5)
        gp = np.zeros((bsz, ch, h + 2 * p, w + 2 * p), dtype=g.dtype)
        for i in range(k):
            for j in range(k):
                gp[:, :, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s] += gc[..., i, j]
        if p:
            gp = gp[:, :, p:-p, p:-p]
        return (np.ascontiguousarray(gp),)

    return _make(data, "im2col", (a,), vjp)


# --- backward pass ---

def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``."""
    if loss.data.size != 1:
        raise NotScalar(f"backward: loss has {loss.data.size} elements")
    order = _toposort(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is not None:
            parent_grads = node._vjp(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if pg.shape != parent.shape:
                    raise ShapeMismatch(
                        f"{node._op}: gradient shape {pg.shape} vs {parent.shape}")
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
        elif node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g


# --- optimizer primitive ---

def sgd_step(params: Iterable[Tensor], grads: Iterable[np.ndarray], lr: float) -> list[Tensor]:
    """In-place p <- p - lr * g for each (param, grad) pair."""
    params = list(params)
    grads = list(grads)
    if len(params) != len(grads):
        raise ShapeMismatch(f"sgd_step: {len(params)} params vs {len(grads)} grads")
    for p, g in zip(params, grads):
        g = np.asarray(g, dtype=p.dtype)
        if g.shape != p.shape:
            raise ShapeMismatch(f"sgd_step: grad {g.shape} vs param {p.shape}")
        p.data -= p.dtype.type(lr) * g
    return params
