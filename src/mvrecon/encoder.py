"""Per-view image embedding and the coarse-to-fine patch attention encoder.

Each view image collapses to a single token.  The encoder runs a stack of
attention blocks over the view tokens at halving widths; every block's
output is kept and the per-view concatenation of all of them (normalized)
is the feature handed to the volume decoder.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import EmptyViewList, OddWidth, TooManyViews, WidthMismatch
from .layers import EMBED_STD, AttentionLayer, Conv2d, LayerNorm, Linear, prefixed


class ViewBackbone:
    """Small conv tower: stride-2 stages with channel doubling, then a
    global average pool and a linear head to the embedding width."""

    def __init__(self, rng, cfg: ModelConfig):
        dtype = cfg.np_dtype
        self.convs = []
        ch_in = cfg.image_channels
        ch_out = cfg.backbone_channels
        for _ in range(cfg.backbone_stages):
            self.convs.append(Conv2d(rng, ch_in, ch_out, dtype=dtype))
            ch_in, ch_out = ch_out, ch_out * 2
        self.head = Linear(rng, ch_in, cfg.embed_dim, dtype=dtype)
        self.image_size = cfg.image_size
        self.image_channels = cfg.image_channels

    def __call__(self, images: Tensor) -> Tensor:
        """[B, C, H, W] images -> [B, d] embeddings."""
        if images.ndim != 4 or images.shape[1] != self.image_channels \
                or images.shape[2] != self.image_size or images.shape[3] != self.image_size:
            raise WidthMismatch(
                f"backbone expects [B, {self.image_channels}, {self.image_size}, "
                f"{self.image_size}], got {images.shape}")
        x = images
        for conv in self.convs:
            x = ad.gelu(conv(x))
        pooled = x.mean(axis=(2, 3))
        return self.head(pooled)

    def named_params(self):
        for i, conv in enumerate(self.convs):
            yield from prefixed(f"conv{i}", conv)
        yield from prefixed("head", self.head)


class PatchAttentionBlock:
    """A stack of attention layers at a fixed width, optionally followed by
    a learned projection that halves the width for the next block."""

    def __init__(self, rng, width: int, layers: int, heads: int, mlp_ratio: int,
                 reduce: bool, dtype=np.float32):
        self.width = width
        self.layers = [AttentionLayer(rng, width, heads, mlp_ratio,
                                      mlp_residual=False, dtype=dtype)
                       for _ in range(layers)]
        if reduce:
            if width % 2 != 0:
                raise OddWidth(f"cannot halve odd width {width}")
            self.reduce: Linear | None = Linear(rng, width, width // 2, dtype=dtype)
        else:
            self.reduce = None

    def __call__(self, tokens: Tensor, trace: list | None = None):
        """Returns (block output at full width, halved tokens or None)."""
        x = tokens
        for layer in self.layers:
            x = layer(x, trace=trace)
        reduced = self.reduce(x) if self.reduce is not None else None
        return x, reduced

    def named_params(self):
        for i, layer in enumerate(self.layers):
            yield from prefixed(f"layer{i}", layer)
        if self.reduce is not None:
            yield from prefixed("reduce", self.reduce)


class MultiViewEncoder:
    """Coarse-to-fine patch attention over the set of view tokens."""

    def __init__(self, rng, cfg: ModelConfig):
        dtype = cfg.np_dtype
        self.cfg = cfg
        if cfg.use_positional_embeddings:
            self.positional = Tensor(
                rng.normal(0.0, EMBED_STD, (cfg.max_views, cfg.embed_dim)),
                requires_grad=True, dtype=dtype)
        else:
            self.positional = None
        widths = cfg.encoder_widths
        heads = cfg.encoder_head_counts()
        self.blocks = []
        for j, (w, h) in enumerate(zip(widths, heads)):
            last = j == len(widths) - 1
            self.blocks.append(PatchAttentionBlock(
                rng, w, cfg.encoder_layers, h, cfg.mlp_ratio,
                reduce=not last, dtype=dtype))
        self.final_norm = LayerNorm(cfg.feature_width, dtype=dtype)

    def __call__(self, tokens: Tensor, trace: list | None = None) -> Tensor:
        """[B, N, d] view tokens -> [B, N, feature_width] fused features.

        ``trace``, when given, receives one list per block holding that
        block's per-layer attention matrices.
        """
        n_views = tokens.shape[1]
        if n_views < 1:
            raise EmptyViewList("need at least one view")
        if n_views > self.cfg.max_views:
            raise TooManyViews(f"{n_views} views exceed the limit {self.cfg.max_views}")
        if tokens.shape[-1] != self.cfg.embed_dim:
            raise WidthMismatch(
                f"tokens are {tokens.shape[-1]} wide, expected {self.cfg.embed_dim}")
        x = tokens
        if self.positional is not None:
            x = ad.add(x, ad.narrow(self.positional, 0, 0, n_views))
        collected = []
        for block in self.blocks:
            block_trace: list | None = [] if trace is not None else None
            out, reduced = block(x, trace=block_trace)
            if trace is not None:
                trace.append(block_trace)
            collected.append(out)
            x = reduced if reduced is not None else out
        fused = ad.concat(collected, axis=-1)
        return self.final_norm(fused)

    def named_params(self):
        if self.positional is not None:
            yield "positional", self.positional
        for j, block in enumerate(self.blocks):
            yield from prefixed(f"block{j}", block)
        yield from prefixed("final_norm", self.final_norm)
