"""Parameterized layers built on the autodiff ops.

Every layer, and the model, is a ``Module`` that declares each parameter
once, as an attribute set in ``__init__``.  ``Module.named_params`` walks
the attributes in the order ``__init__`` assigned them: a ``Tensor`` is a
parameter; a ``Module`` is a child whose names take the attribute as prefix
(``attn.q.weight``); a list gives children named ``attr.i``
(``blocks.0.layers.1``); ``None`` and anything else are skipped.  That
order and those names are what the optimizer steps and checkpoints store.

Every MLP in the model is ``MLP_RATIO`` times as wide as its input.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

EMBED_STD = 0.02  # learned embeddings and the decoder query bank
MLP_RATIO = 4     # hidden width of every MLP, in multiples of its input width


class Module:
    """Base class whose parameters are found by the walk described above."""

    def named_params(self):
        for name, value in vars(self).items():
            yield from _named(name, value)

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_params()]

    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.grad = None


def _named(name: str, value):
    if isinstance(value, Tensor):
        yield name, value
    elif isinstance(value, Module):
        for sub, p in value.named_params():
            yield f"{name}.{sub}", p
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _named(f"{name}.{i}", item)


class Linear(Module):
    """Dense layer with fan-in-scaled Gaussian init."""

    def __init__(self, rng, in_dim: int, out_dim: int, dtype=np.float32):
        self.weight = Tensor(rng.normal(0.0, 1.0 / math.sqrt(in_dim), (in_dim, out_dim)),
                             requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.weight, self.bias)


class LayerNorm(Module):
    """Layer norm over the last axis with autodiff's default epsilon, 1e-5."""

    def __init__(self, dim: int, dtype=np.float32):
        self.gain = Tensor(np.ones(dim), requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(dim), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


class Conv2d(Module):
    """3 x 3 convolution at stride 2 with 1 pixel of zero padding on
    channel-last [B, H, W, C] input; it halves the image (rounding up).
    The weight is stored [out, in, k, k]."""

    KERNEL, STRIDE, PADDING = 3, 2, 1

    def __init__(self, rng, in_channels: int, out_channels: int, dtype=np.float32):
        k = self.KERNEL
        self.weight = Tensor(rng.normal(0.0, math.sqrt(2.0 / (in_channels * k * k)),
                                        (out_channels, in_channels, k, k)),
                             requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias, self.STRIDE, self.PADDING)


class FeedForward(Module):
    """Two-layer MLP with a GELU between."""

    def __init__(self, rng, dim: int, hidden: int, out_dim: int | None = None,
                 dtype=np.float32):
        self.fc1 = Linear(rng, dim, hidden, dtype=dtype)
        self.fc2 = Linear(rng, hidden, out_dim if out_dim is not None else dim,
                          dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ad.gelu(self.fc1(x)))


class MultiHeadAttention(Module):
    """Scaled dot-product self-attention with per-head splitting.

    ``x`` is [B, N, dim].  ``trace`` collects the softmax attention
    matrices as numpy arrays.  The decoder holds one of these for its
    parameters and runs its own cross-attention (see ``decoder.py``).
    """

    def __init__(self, rng, dim: int, heads: int, dtype=np.float32):
        self.heads = heads
        self.q = Linear(rng, dim, dim, dtype=dtype)
        self.k = Linear(rng, dim, dim, dtype=dtype)
        self.v = Linear(rng, dim, dim, dtype=dtype)
        self.out = Linear(rng, dim, dim, dtype=dtype)

    def __call__(self, x: Tensor, trace: list | None = None) -> Tensor:
        mixed = ad.attention(self.q(x), self.k(x), self.v(x), self.heads, trace=trace)
        return self.out(mixed)


class AttentionLayer(Module):
    """Pre-norm attention layer.

    The attention path always carries a residual; the MLP path optionally
    does (the encoder omits it, the refiner keeps it).
    """

    def __init__(self, rng, dim: int, heads: int, mlp_residual: bool, dtype=np.float32):
        self.norm_attn = LayerNorm(dim, dtype=dtype)
        self.attn = MultiHeadAttention(rng, dim, heads, dtype=dtype)
        self.norm_mlp = LayerNorm(dim, dtype=dtype)
        self.mlp = FeedForward(rng, dim, dim * MLP_RATIO, dtype=dtype)
        self.mlp_residual = mlp_residual

    def __call__(self, x: Tensor, trace: list | None = None) -> Tensor:
        attended = ad.add(x, self.attn(self.norm_attn(x), trace=trace))
        fed = self.mlp(self.norm_mlp(attended))
        return ad.add(attended, fed) if self.mlp_residual else fed
