"""Cross-attention volume decoder.

A learnable bank of cube queries attends over the fused view features; an
MLP turns each attended cube token into that cube's voxel logits, and the
sigmoid-squashed cubes are assembled into the coarse volume.

The attention output of a cube is a probability-weighted mix of the heads
x views value rows, and the ``out`` projection and the MLP's first layer
are linear, so both run on those value rows before the mix rather than on
every cube query after it: 21 x 8 rows against 512 at paper scale.  The
``out`` bias enters each head's rows divided by the head count, which is
exact because each head's probabilities sum to 1.  Only the MLP's GELU and
second layer need the per-cube rows.
"""

from __future__ import annotations

import math

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .layers import EMBED_STD, MLP_RATIO, FeedForward, Init, MultiHeadAttention, Module
from .voxels import assemble_tokens


class VolumeDecoder(Module):
    def __init__(self, init: Init, cfg: ModelConfig):
        self.cfg = cfg
        width = cfg.feature_width
        # one learnable query row per output cube
        self.cube_queries = init.gaussian(EMBED_STD, (cfg.cube_count, width))
        # parameter holders: __call__ runs their weights in its own order
        self.attn = MultiHeadAttention(init, width, cfg.decoder_head_count())
        self.mlp = FeedForward(init, width, width * MLP_RATIO, out_dim=cfg.decoder_cube ** 3)

    def __call__(self, features: Tensor) -> Tensor:
        """[B, N, feature_width] view features -> [B, V, V, V] volume in (0, 1)."""
        attn, mlp = self.attn, self.mlp
        bsz, n, width = features.shape
        heads, cubes = attn.heads, self.cube_queries.shape[0]
        d = width // heads
        q = attn.q(self.cube_queries).reshape(cubes, heads, d).transpose(1, 0, 2)
        k = attn.k(features).reshape(bsz * n, heads, d).transpose(1, 2, 0)
        v = attn.v(features).reshape(bsz * n, heads, d).transpose(1, 0, 2)
        scores = ad.scale(ad.matmul(q, k), 1.0 / math.sqrt(d))  # [H, G, B*N]
        probs = ad.softmax(scores.reshape(heads, cubes, bsz, n))
        probs = probs.transpose(2, 1, 0, 3).reshape(bsz, cubes, heads * n)
        # each head's values through its rows of `out`, then through `fc1`;
        # one running name, so that without a graph each step frees the last
        x = ad.matmul(v, attn.out.weight.reshape(heads, d, width),
                      ad.scale(attn.out.bias, 1.0 / heads))  # [H, B*N, W]
        x = x.reshape(heads, bsz, n, width).transpose(1, 0, 2, 3)
        x = ad.matmul(x.reshape(bsz, heads * n, width), mlp.fc1.weight)  # [B, H*N, 4W]
        x = ad.matmul(probs, x, mlp.fc1.bias)  # the mix: [B, G, 4W]
        cube_values = ad.sigmoid(mlp.fc2(ad.gelu(x)))  # [B, G, c^3]
        return assemble_tokens(cube_values, self.cfg.decoder_cube, self.cfg.voxel_side)
