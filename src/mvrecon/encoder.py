"""Per-view image embedding and the coarse-to-fine patch attention encoder.

Each view image collapses to a single token.  The encoder runs a stack of
attention blocks over the view tokens at halving widths; every block's
output is kept and the per-view concatenation of all of them (normalized)
is the feature handed to the volume decoder.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import Tensor
from .config import BACKBONE_STAGES, IMAGE_CHANNELS, MAX_VIEWS, ModelConfig
from .layers import EMBED_STD, AttentionLayer, Conv2d, Init, Linear, Module


class ViewBackbone(Module):
    """Small conv tower: stride-2 stages with channel doubling, then a
    global average pool and a linear head to the embedding width.  The
    images turn channel-last once, at entry, and the convolutions and the
    pool work on [B, H, W, C]."""

    def __init__(self, init: Init, cfg: ModelConfig):
        self.convs = []
        ch_in = IMAGE_CHANNELS
        ch_out = cfg.backbone_channels
        for _ in range(BACKBONE_STAGES):
            self.convs.append(Conv2d(init, ch_in, ch_out))
            ch_in, ch_out = ch_out, ch_out * 2
        self.head = Linear(init, ch_in, cfg.embed_dim)

    def __call__(self, images: Tensor) -> Tensor:
        """[B, C, H, W] images -> [B, d] embeddings."""
        x = images.transpose(0, 2, 3, 1)
        for conv in self.convs:
            x = ad.gelu(conv(x))
        return self.head(x.mean(axis=(1, 2)))


class PatchAttentionBlock(Module):
    """A stack of attention layers at a fixed width, optionally followed by
    a learned projection that halves the width for the next block."""

    def __init__(self, init: Init, width: int, layers: int, heads: int, reduce: bool):
        self.layers = [AttentionLayer(init, width, heads, mlp_residual=False)
                       for _ in range(layers)]
        self.reduce = Linear(init, width, width // 2) if reduce else None

    def __call__(self, tokens: Tensor, trace: list | None = None):
        """Returns (block output at full width, halved tokens or None)."""
        x = tokens
        for layer in self.layers:
            x = layer(x, trace=trace)
        reduced = self.reduce(x) if self.reduce is not None else None
        return x, reduced


class MultiViewEncoder(Module):
    """Coarse-to-fine patch attention over the set of view tokens."""

    def __init__(self, init: Init, cfg: ModelConfig):
        self.positional = init.gaussian(EMBED_STD, (MAX_VIEWS, cfg.embed_dim))
        widths = cfg.encoder_widths
        self.blocks = []
        for j, w in enumerate(widths):
            last = j == len(widths) - 1
            self.blocks.append(PatchAttentionBlock(init, w, cfg.encoder_layers,
                                                   cfg.head_count(w), reduce=not last))

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
        return ad.layer_norm(fused)
