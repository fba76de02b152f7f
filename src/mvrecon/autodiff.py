"""Reverse-mode automatic differentiation over dense numpy arrays.

The graph is define-by-run: every op records its parent tensors and a
closure that maps the output gradient to parent gradients.  ``backward``
walks the recorded nodes once in reverse topological order and accumulates
gradients into the ``grad`` field of leaf tensors that require them.

A graph is single-use.  ``backward`` frees each node's closure and parent
links as soon as its VJP has run, so an activation goes once the last VJP
that reads it is done and the walk never holds the whole graph.  A second
``backward`` through a freed node raises :class:`GraphReleased`.

:func:`attention` and :func:`conv2d` trade time for memory: they keep no
score matrix or patches, only their inputs (attention also its output and
each row's log-sum-exp), and backward recomputes the rest.

Elementwise ops broadcast as numpy does; a shape pair numpy rejects
raises :class:`ShapeMismatch`.  A binary op's second operand may be a
number, and an operand that does not require a gradient gets none
computed.

Ops let inf and NaN propagate (those that can make them, and ``backward``
with every VJP, run under ``np.errstate``, so numpy prints no
``RuntimeWarning``); finiteness is checked where a value leaves the graph:
a train step's loss and gradients, and :func:`check_finite` on each no-grad
model pass and rollout map.

This module is only the graph engine; the parameter update rule lives in
``training.py``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

from .errors import GraphReleased, NumericalOverflow, ShapeMismatch

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


def check_finite(data: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericalOverflow(f"{what} produced non-finite values")


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
            raise ShapeMismatch(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    # --- graph mechanics ---

    def backward(self) -> None:
        backward(self)

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
        return transpose(self, axes)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp) -> Tensor:
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


# --- broadcasting ---

def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient ``g`` down to ``shape``: over the leading axes that
    broadcasting added, one at a time, then over every size-1 axis it
    stretched, in one call."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    stretched = tuple(ax for ax, n in enumerate(shape) if n == 1 and g.shape[ax] != 1)
    return g.sum(axis=stretched, keepdims=True) if stretched else g


# --- elementwise ---

@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def _binary(op: str, fn, a: Tensor, b, grad_a, grad_b) -> Tensor:
    """``fn(a, b)`` with numpy broadcasting; ``b`` may be a number.
    ``grad_a(g, x, y)`` and ``grad_b(g, x, y)`` give each operand's
    gradient at the output's shape; the VJP sums it back to the operand,
    and gives ``None`` for an operand that does not require one."""
    b = _as_tensor(b, a.dtype)
    _check_dtypes(op, a, b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatch(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None

    def vjp(g):
        ga = _unbroadcast(grad_a(g, a.data, b.data), a.shape) if a.requires_grad else None
        gb = _unbroadcast(grad_b(g, a.data, b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _make(fn(a.data, b.data), op, (a, b), vjp)


def add(a: Tensor, b) -> Tensor:
    return _binary("add", np.add, a, b, lambda g, x, y: g, lambda g, x, y: g)


def sub(a: Tensor, b) -> Tensor:
    return _binary("sub", np.subtract, a, b, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a: Tensor, b) -> Tensor:
    return _binary("mul", np.multiply, a, b, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a: Tensor, b) -> Tensor:
    # a zero denominator gives inf or nan, which the graph's exit checks report
    return _binary("div", np.divide, a, b,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def gelu(a: Tensor) -> Tensor:
    x = a.data
    # in place, in the order of 0.5 * (1 + erf(x / sqrt 2)): no temporaries
    phi = np.multiply(x, _INV_SQRT2, out=np.empty_like(x))
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    if not (_grad_enabled and a.requires_grad):
        phi *= x  # no VJP will read phi, so the output takes its place
        return _make(phi, "gelu", (a,), None)
    data = x * phi

    def vjp(g):
        # g * (phi + x * exp(-x * x / 2) / sqrt(2 pi)), in place
        t = np.multiply(x, -0.5, out=np.empty_like(x))
        t *= x
        np.exp(t, out=t)
        t *= _INV_SQRT_2PI
        t *= x
        t += phi
        t *= g
        return (t,)

    return _make(data, "gelu", (a,), vjp)


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # stable two-branch form: never exponentiates a positive argument
    e = np.exp(-np.abs(x))
    data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(a.dtype, copy=False)

    def vjp(g):
        return (g * data * (1.0 - data),)

    return _make(data, "sigmoid", (a,), vjp)


# --- normalization ---

def _softmax_inplace(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of ``x`` along ``axis``, written over ``x`` itself; returns
    the probabilities (the same array) and each row's log-sum-exp."""
    peak = np.max(x, axis=axis, keepdims=True)
    x -= peak
    np.exp(x, out=x)
    total = np.sum(x, axis=axis, keepdims=True)
    x /= total
    return x, peak + np.log(total)


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    data, _ = _softmax_inplace(np.array(a.data), -1)

    def vjp(g):
        dot = np.sum(g * data, axis=-1, keepdims=True)
        return (data * (g - dot),)

    return _make(data, "softmax", (a,), vjp)


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def layer_norm(a: Tensor) -> Tensor:
    """Each last-axis row of ``a`` at zero mean and unit variance (eps 1e-5),
    with no gain or bias."""
    xc = a.data - a.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(xc * xc, axis=-1, keepdims=True) + a.dtype.type(1e-5))
    data = xc * inv

    def vjp(g):
        m1 = g.mean(axis=-1, keepdims=True)
        m2 = (g * data).mean(axis=-1, keepdims=True)
        return (inv * (g - m1 - data * m2),)

    return _make(data, "layer_norm", (a,), vjp)


# --- movement ---

def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    ts = list(tensors)
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as e:
        raise ShapeMismatch(f"concat: {[t.shape for t in ts]} on axis {axis}: {e}") from None
    _check_dtypes("concat", *ts)
    offsets = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    return _make(data, "concat", tuple(ts), vjp)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    if not -a.ndim <= axis < a.ndim or start < 0 or start + length > a.shape[axis]:
        raise ShapeMismatch(
            f"narrow: [{start}:{start + length}) out of range for axis {axis} of {a.shape}")
    idx = (slice(None),) * (axis % a.ndim) + (slice(start, start + length),)
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


def transpose(a: Tensor, axes: tuple) -> Tensor:
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeMismatch(f"transpose: axes {axes} invalid for rank {a.ndim}")
    data = np.ascontiguousarray(a.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _make(data, "transpose", (a,), vjp)


# --- contraction ---

@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``a @ b``, plus ``bias`` along the last axis when given.  With a 2-D
    ``b`` the leading axes of ``a`` make one big GEMM; a 3-D ``b`` is a
    batch of GEMMs, [B, M, K] @ [B, K, N].  With the bias a dense layer is
    one node, and the graph never keeps the product before the bias."""
    parents = (a, b) if bias is None else (a, b, bias)
    _check_dtypes("matmul", *parents)
    batched = b.ndim == 3
    if not (a.ndim >= 2 and b.ndim == 2 or batched and a.ndim == 3):
        raise ShapeMismatch(f"matmul: needs >=2-D @ 2-D or 3-D @ 3-D, got {a.shape} @ {b.shape}")
    if batched and a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"matmul: batch extents differ: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul: inner extents differ: {a.shape} @ {b.shape}")
    k, n = b.shape[-2:]
    if bias is not None and bias.shape != (n,):
        raise ShapeMismatch(f"matmul: bias {bias.shape} does not fit a weight {b.shape}")
    a2 = a.data if batched else a.data.reshape(-1, k)
    data = np.matmul(a2, b.data)
    if bias is not None:
        data += bias.data
    data = data.reshape(a.shape[:-1] + (n,))

    def vjp(g):
        g2 = g if batched else g.reshape(-1, n)
        ga = np.matmul(g2, b.data.swapaxes(-1, -2)).reshape(a.shape)
        gb = np.matmul(a2.swapaxes(-1, -2), g2)
        return (ga, gb) if bias is None else (ga, gb, _unbroadcast(g, (n,)))

    return _make(data, "matmul", parents, vjp)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[B, N, D] -> [B, heads, N, D / heads], as a view."""
    bsz, n, width = x.shape
    return x.reshape(bsz, n, heads, width // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """[B, heads, N, d] -> [B, N, heads * d], as a new array."""
    bsz, heads, n, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(bsz, n, heads * d)


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              trace: Optional[list] = None) -> Tensor:
    """``softmax(q kᵀ / sqrt(d)) v`` on [B, N, D] inputs for each of
    ``heads`` heads of width d = D / heads, heads concatenated.  One node
    that keeps its inputs, output and each row's log-sum-exp; backward
    recomputes the [B, heads, Nq, Nk] probabilities, which ``trace``, when
    given, receives."""
    _check_dtypes("attention", q, k, v)
    if (q.ndim != 3 or k.shape != v.shape or k.shape[0] != q.shape[0]
            or k.shape[-1] != q.shape[-1] or q.shape[-1] % heads):
        raise ShapeMismatch(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, {heads} heads")
    s = q.dtype.type(1.0 / math.sqrt(q.shape[-1] // heads))
    kh, vh = _split_heads(k.data, heads), _split_heads(v.data, heads)
    scores = np.matmul(_split_heads(q.data * s, heads), kh.swapaxes(-1, -2))
    probs, lse = _softmax_inplace(scores, -1)
    if trace is not None:
        trace.append(probs)
    data = _merge_heads(np.matmul(probs, vh))

    def vjp(g):
        qh = _split_heads(q.data * s, heads)
        p = np.matmul(qh, kh.swapaxes(-1, -2))
        p -= lse
        np.exp(p, out=p)
        gh = _split_heads(g, heads)
        gv = np.matmul(p.swapaxes(-1, -2), gh)
        ds = np.matmul(gh, vh.swapaxes(-1, -2))
        ds -= np.sum(gh * _split_heads(data, heads), axis=-1, keepdims=True)
        ds *= p
        gq = np.matmul(ds, kh)
        gq *= s
        gk = np.matmul(ds.swapaxes(-1, -2), qh)
        return _merge_heads(gq), _merge_heads(gk), _merge_heads(gv)

    return _make(data, "attention", (q, k, v), vjp)


def _sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    data = np.asarray(data, dtype=a.dtype)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
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
    return mul(_sum(a, axis, keepdims), 1.0 / count)


# --- convolution ---

def _patches(x: np.ndarray, k: int, s: int, p: int) -> np.ndarray:
    """The k x k windows of a [B, H, W, C] array at stride ``s`` over ``p``
    pixels of zero padding, copied out as [B, OH, OW, k, k, C]."""
    if x.shape[1] + 2 * p < k or x.shape[2] + 2 * p < k:
        raise ShapeMismatch(f"patches: kernel {k} larger than padded input {x.shape}")
    if p:
        x = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))[:, ::s, ::s]
    return np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))


def _fold_patches(g: np.ndarray, h: int, w: int, s: int, p: int) -> np.ndarray:
    """Adjoint of :func:`_patches`: sum [B, OH, OW, k, k, C] window
    gradients back onto the unpadded [B, h, w, C] input, as a view into
    the padded sum."""
    bsz, oh, ow, k, _, ch = g.shape
    out = np.zeros((bsz, h + 2 * p, w + 2 * p, ch), dtype=g.dtype)
    for i in range(k):
        for j in range(k):
            out[:, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s] += g[:, :, :, i, j]
    return out[:, p:p + h, p:p + w]


def im2col(a: Tensor, kernel: int, stride: int = 1, padding: int = 0) -> Tensor:
    """The kernel x kernel patches of a [B, C, H, W] tensor as [B, OH, OW,
    C*kernel*kernel], (channel, row, col) flattened: :func:`conv2d` by the
    identity kernel.  The model calls ``conv2d`` itself."""
    x = transpose(a, (0, 2, 3, 1))
    n = x.shape[-1] * kernel * kernel
    eye = Tensor(np.eye(n, dtype=a.dtype).reshape(n, x.shape[-1], kernel, kernel))
    return conv2d(x, eye, Tensor(np.zeros(n, a.dtype)), stride, padding)


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int, padding: int) -> Tensor:
    """Channel-last convolution: [B, H, W, C] input, [O, C, k, k] weight and
    [O] bias -> [B, OH, OW, O].  Backward rebuilds the patches, and gives no
    input gradient when the input does not require one."""
    _check_dtypes("conv2d", x, weight, bias)
    out_ch, ch, k, _ = weight.shape
    if x.ndim != 4 or x.shape[-1] != ch or bias.shape != (out_ch,):
        raise ShapeMismatch(
            f"conv2d: input {x.shape}, weight {weight.shape}, bias {bias.shape}")
    cols = _patches(x.data, k, stride, padding)
    bsz, oh, ow = cols.shape[:3]
    wm = weight.data.transpose(2, 3, 1, 0).reshape(k * k * ch, out_ch)
    data = cols.reshape(-1, k * k * ch) @ wm
    data += bias.data
    data = data.reshape(bsz, oh, ow, out_ch)

    def vjp(g):
        g2 = g.reshape(-1, out_ch)
        # one patch-sized array at a time: the patches go before gx's are made
        gw = _patches(x.data, k, stride, padding).reshape(-1, k * k * ch).T @ g2
        gx = _fold_patches((g2 @ wm.T).reshape(bsz, oh, ow, k, k, ch), x.shape[1],
                           x.shape[2], stride, padding) if x.requires_grad else None
        gw = gw.reshape(k, k, ch, out_ch).transpose(3, 2, 0, 1)
        return gx, np.ascontiguousarray(gw), g2.sum(axis=0)

    return _make(data, "conv2d", (x, weight, bias), vjp)


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


def _released(g):
    raise GraphReleased("backward: this graph was freed by an earlier backward")


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``,
    freeing each node of the graph once its VJP has run."""
    if loss.data.size != 1:
        raise ShapeMismatch(f"backward: loss has {loss.data.size} elements")
    order = _toposort(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is not None:
            parent_grads = node._vjp(g)
            parents = node._parents
            node._vjp, node._parents = _released, ()
            for parent, pg in zip(parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if pg.shape != parent.shape:
                    raise ShapeMismatch(
                        f"{node._op}: gradient shape {pg.shape} vs {parent.shape}")
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
        elif node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
