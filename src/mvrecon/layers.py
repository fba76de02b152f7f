"""Parameterized layers built on the autodiff ops.

Layers hold their weights as ``Tensor`` leaves and expose them through
``named_params()`` so the model can build a flat, stably-ordered parameter
table for the optimizer and for checkpoints.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import WidthMismatch

EMBED_STD = 0.02  # learned embeddings and the decoder query bank


class Linear:
    """Dense layer; weights default to fan-in-scaled Gaussian init."""

    def __init__(self, rng, in_dim: int, out_dim: int, std: float | None = None,
                 dtype=np.float32):
        if std is None:
            std = 1.0 / math.sqrt(in_dim)
        self.weight = Tensor(rng.normal(0.0, std, (in_dim, out_dim)),
                             requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.weight), self.bias)

    def named_params(self):
        yield "weight", self.weight
        yield "bias", self.bias


class LayerNorm:
    def __init__(self, dim: int, dtype=np.float32, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim), requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(dim), requires_grad=True, dtype=dtype)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias, self.eps)

    def named_params(self):
        yield "gain", self.gain
        yield "bias", self.bias


class Conv2d:
    """k x k convolution via patch extraction and one matmul."""

    def __init__(self, rng, in_channels: int, out_channels: int, kernel: int = 3,
                 stride: int = 2, padding: int = 1, dtype=np.float32):
        fan_in = in_channels * kernel * kernel
        self.weight = Tensor(rng.normal(0.0, math.sqrt(2.0 / fan_in),
                                        (out_channels, in_channels, kernel, kernel)),
                             requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True, dtype=dtype)
        self.kernel = kernel
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        cols = ad.im2col(x, self.kernel, self.stride, self.padding)
        out_ch = self.weight.shape[0]
        w = self.weight.reshape(out_ch, -1).transpose(1, 0)
        y = ad.add(ad.matmul(cols, w), self.bias)  # [B, OH, OW, C_out]
        return y.transpose(0, 3, 1, 2)

    def named_params(self):
        yield "weight", self.weight
        yield "bias", self.bias


class FeedForward:
    """Two-layer MLP with a GELU between."""

    def __init__(self, rng, dim: int, hidden: int, out_dim: int | None = None,
                 dtype=np.float32):
        self.fc1 = Linear(rng, dim, hidden, dtype=dtype)
        self.fc2 = Linear(rng, hidden, out_dim if out_dim is not None else dim,
                          dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ad.gelu(self.fc1(x)))

    def named_params(self):
        for name, p in self.fc1.named_params():
            yield f"fc1.{name}", p
        for name, p in self.fc2.named_params():
            yield f"fc2.{name}", p


class MultiHeadAttention:
    """Scaled dot-product attention with per-head splitting.

    ``query`` and ``keyvalue`` are [B, N, dim]; self-attention when
    ``keyvalue`` is omitted.  ``trace`` collects the softmax attention
    matrices as numpy arrays.
    """

    def __init__(self, rng, dim: int, heads: int, dtype=np.float32):
        if dim % heads != 0:
            raise WidthMismatch(f"{heads} heads do not divide width {dim}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.q = Linear(rng, dim, dim, dtype=dtype)
        self.k = Linear(rng, dim, dim, dtype=dtype)
        self.v = Linear(rng, dim, dim, dtype=dtype)
        self.out = Linear(rng, dim, dim, dtype=dtype)

    def __call__(self, query: Tensor, keyvalue: Tensor | None = None,
                 trace: list | None = None) -> Tensor:
        kv = query if keyvalue is None else keyvalue
        if query.shape[-1] != self.dim or kv.shape[-1] != self.dim:
            raise WidthMismatch(
                f"attention built for width {self.dim}, got {query.shape[-1]}"
                f"/{kv.shape[-1]}")
        bsz, n_q = query.shape[0], query.shape[1]
        n_k = kv.shape[1]

        def heads_first(t, n):
            return t.reshape(bsz, n, self.heads, self.head_dim).transpose(0, 2, 1, 3)

        q = heads_first(self.q(query), n_q)
        k = heads_first(self.k(kv), n_k)
        v = heads_first(self.v(kv), n_k)
        scores = ad.scale(ad.matmul(q, k.transpose(0, 1, 3, 2)),
                          1.0 / math.sqrt(self.head_dim))
        attn = ad.softmax(scores, axis=-1)
        if trace is not None:
            trace.append(np.array(attn.data))
        mixed = ad.matmul(attn, v)  # [B, h, Nq, head_dim]
        merged = mixed.transpose(0, 2, 1, 3).reshape(bsz, n_q, self.dim)
        return self.out(merged)

    def named_params(self):
        for part_name, part in (("q", self.q), ("k", self.k),
                                ("v", self.v), ("out", self.out)):
            for name, p in part.named_params():
                yield f"{part_name}.{name}", p


class AttentionLayer:
    """Pre-norm attention layer.

    The attention path always carries a residual; the MLP path optionally
    does (the encoder omits it, the refiner keeps it).
    """

    def __init__(self, rng, dim: int, heads: int, mlp_ratio: int,
                 mlp_residual: bool, dtype=np.float32):
        self.norm_attn = LayerNorm(dim, dtype=dtype)
        self.attn = MultiHeadAttention(rng, dim, heads, dtype=dtype)
        self.norm_mlp = LayerNorm(dim, dtype=dtype)
        self.mlp = FeedForward(rng, dim, dim * mlp_ratio, dtype=dtype)
        self.mlp_residual = mlp_residual

    def __call__(self, x: Tensor, trace: list | None = None) -> Tensor:
        attended = ad.add(x, self.attn(self.norm_attn(x), trace=trace))
        fed = self.mlp(self.norm_mlp(attended))
        return ad.add(attended, fed) if self.mlp_residual else fed

    def named_params(self):
        for name, p in self.norm_attn.named_params():
            yield f"norm_attn.{name}", p
        for name, p in self.attn.named_params():
            yield f"attn.{name}", p
        for name, p in self.norm_mlp.named_params():
            yield f"norm_mlp.{name}", p
        for name, p in self.mlp.named_params():
            yield f"mlp.{name}", p


def prefixed(prefix: str, layer):
    for name, p in layer.named_params():
        yield f"{prefix}.{name}", p
