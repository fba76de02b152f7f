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
from .config import BACKBONE_STAGES, IMAGE_CHANNELS, MAX_VIEWS, ModelConfig
from .layers import EMBED_STD, AttentionLayer, Conv2d, LayerNorm, Linear, Module


class ViewBackbone(Module):
    """Small conv tower: stride-2 stages with channel doubling, then a
    global average pool and a linear head to the embedding width.  The
    images turn channel-last once, at entry, and the convolutions and the
    pool work on [B, H, W, C]."""

    def __init__(self, rng, cfg: ModelConfig):
        dtype = cfg.np_dtype
        self.convs = []
        ch_in = IMAGE_CHANNELS
        ch_out = cfg.backbone_channels
        for _ in range(BACKBONE_STAGES):
            self.convs.append(Conv2d(rng, ch_in, ch_out, dtype=dtype))
            ch_in, ch_out = ch_out, ch_out * 2
        self.head = Linear(rng, ch_in, cfg.embed_dim, dtype=dtype)

    def __call__(self, images: Tensor) -> Tensor:
        """[B, C, H, W] images -> [B, d] embeddings."""
        x = images.transpose(0, 2, 3, 1)
        for conv in self.convs:
            x = ad.gelu(conv(x))
        return self.head(x.mean(axis=(1, 2)))


class PatchAttentionBlock(Module):
    """A stack of attention layers at a fixed width, optionally followed by
    a learned projection that halves the width for the next block."""

    def __init__(self, rng, width: int, layers: int, heads: int, reduce: bool,
                 dtype=np.float32):
        self.layers = [AttentionLayer(rng, width, heads, mlp_residual=False, dtype=dtype)
                       for _ in range(layers)]
        self.reduce = Linear(rng, width, width // 2, dtype=dtype) if reduce else None

    def __call__(self, tokens: Tensor, trace: list | None = None):
        """Returns (block output at full width, halved tokens or None)."""
        x = tokens
        for layer in self.layers:
            x = layer(x, trace=trace)
        reduced = self.reduce(x) if self.reduce is not None else None
        return x, reduced


class MultiViewEncoder(Module):
    """Coarse-to-fine patch attention over the set of view tokens."""

    def __init__(self, rng, cfg: ModelConfig):
        dtype = cfg.np_dtype
        self.positional = Tensor(rng.normal(0.0, EMBED_STD, (MAX_VIEWS, cfg.embed_dim)),
                                 requires_grad=True, dtype=dtype)
        widths = cfg.encoder_widths
        heads = cfg.encoder_head_counts()
        self.blocks = []
        for j, (w, h) in enumerate(zip(widths, heads)):
            last = j == len(widths) - 1
            self.blocks.append(PatchAttentionBlock(
                rng, w, cfg.encoder_layers, h, reduce=not last, dtype=dtype))
        self.final_norm = LayerNorm(cfg.feature_width, dtype=dtype)

    def __call__(self, tokens: Tensor, trace: list | None = None) -> Tensor:
        """[B, N, d] view tokens -> [B, N, feature_width] fused features.

        ``trace``, when given, receives one list per block holding that
        block's per-layer attention matrices.
        """
        x = ad.add(tokens, ad.narrow(self.positional, 0, 0, tokens.shape[1]))
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
