"""Parameterized layers built on the autodiff ops.

Every layer, and the model, is a ``Module`` that declares each parameter
once, as an attribute set in ``__init__``.  ``Module.named_params`` walks
the attributes in the order ``__init__`` assigned them: a ``Tensor`` is a
parameter; a ``Module`` is a child whose names take the attribute as prefix
(``attn.q.weight``); a list gives children named ``attr.i``
(``blocks.0.layers.1``); ``None`` and anything else are skipped.  That
order and those names are what the optimizer steps and checkpoints store.

Every parameter comes from an ``Init``, the init generator and the dtype,
which each layer constructor takes first; the model makes its one ``Init``
from its seed and ``ModelConfig.np_dtype``.  Each weight is drawn in float64,
in constructor order, and cast to the dtype as it is made.  A layer keeps
only weights that change its function: a map whose bias another term states,
or a softmax cancels, is ``Linear(init, a, b).weight``, drawn as before.
Every layer norm is affine-free (``ad.layer_norm`` has no gain or bias):
each feeds only linear maps, so a gain would scale the rows of the map it
feeds, and a bias would be a key bias the softmax cancels or a bias that
``q.bias``, ``out.bias`` or ``fc1.bias`` already states.

Every MLP in the model is ``MLP_RATIO`` times as wide as its input.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

EMBED_STD = 0.02  # learned embeddings and the decoder query bank
MLP_RATIO = 4     # hidden width of every MLP, in multiples of its input width


class Init:
    """The init generator and the parameter dtype.  With ``rng=None`` nothing
    is drawn or allocated: each weight is a read-only broadcast of its start
    value, zero for Gaussian weights, for a checkpoint to replace."""

    def __init__(self, rng: np.random.Generator | None, dtype):
        self.rng = rng
        self.dtype = np.dtype(dtype)

    def gaussian(self, std: float, shape) -> Tensor:
        """A parameter drawn from N(0, std^2), or zeros with no generator."""
        if self.rng is None:
            return self.zeros(shape)
        return Tensor(self.rng.normal(0.0, std, shape), requires_grad=True, dtype=self.dtype)

    def zeros(self, shape) -> Tensor:
        """A parameter of zeros: every bias starts here."""
        if self.rng is None:
            return Tensor(np.broadcast_to(self.dtype.type(0.0), shape), requires_grad=True)
        return Tensor(np.zeros(shape, self.dtype), requires_grad=True)


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

    def __init__(self, init: Init, in_dim: int, out_dim: int):
        self.weight = init.gaussian(1.0 / math.sqrt(in_dim), (in_dim, out_dim))
        self.bias = init.zeros(out_dim)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.weight, self.bias)


class Conv2d(Module):
    """3 x 3 convolution at stride 2 with 1 pixel of zero padding on
    channel-last [B, H, W, C] input; it halves the image (rounding up).
    The weight is stored [out, in, k, k]."""

    KERNEL, STRIDE, PADDING = 3, 2, 1

    def __init__(self, init: Init, in_channels: int, out_channels: int):
        k = self.KERNEL
        self.weight = init.gaussian(math.sqrt(2.0 / (in_channels * k * k)),
                                    (out_channels, in_channels, k, k))
        self.bias = init.zeros(out_channels)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias, self.STRIDE, self.PADDING)


class FeedForward(Module):
    """Two-layer MLP with a GELU between."""

    def __init__(self, init: Init, dim: int, hidden: int):
        self.fc1 = Linear(init, dim, hidden)
        self.fc2 = Linear(init, hidden, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ad.gelu(self.fc1(x)))


class MultiHeadAttention(Module):
    """Scaled dot-product self-attention with per-head splitting.

    ``x`` is [B, N, dim].  ``trace`` collects the softmax attention matrices as numpy arrays.

    The key and value maps have no bias: the softmax over keys cancels a key
    bias, and since each head's probabilities sum to 1 a value bias comes out
    as ``b @ out.weight``, which ``out.bias`` already states.
    """

    def __init__(self, init: Init, dim: int, heads: int):
        self.heads = heads
        self.q = Linear(init, dim, dim)
        self.k = Linear(init, dim, dim).weight
        self.v = Linear(init, dim, dim).weight
        self.out = Linear(init, dim, dim)

    def __call__(self, x: Tensor, trace: list | None = None) -> Tensor:
        mixed = ad.attention(self.q(x), ad.matmul(x, self.k), ad.matmul(x, self.v),
                             self.heads, trace=trace)
        return self.out(mixed)


class AttentionLayer(Module):
    """Pre-norm attention layer.

    The attention path always carries a residual; the MLP path optionally
    does (the encoder omits it, the refiner keeps it).
    """

    def __init__(self, init: Init, dim: int, heads: int, mlp_residual: bool):
        self.attn = MultiHeadAttention(init, dim, heads)
        self.mlp = FeedForward(init, dim, dim * MLP_RATIO)
        self.mlp_residual = mlp_residual

    def __call__(self, x: Tensor, trace: list | None = None) -> Tensor:
        attended = ad.add(x, self.attn(ad.layer_norm(x), trace=trace))
        fed = self.mlp(ad.layer_norm(attended))
        return ad.add(attended, fed) if self.mlp_residual else fed
