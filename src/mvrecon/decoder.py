"""Cross-attention volume decoder.

A learnable bank of cube queries attends over the fused view features; an
MLP turns each attended cube token into that cube's voxel logits, and the
sigmoid-squashed cubes are assembled into the coarse volume.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .layers import EMBED_STD, MLP_RATIO, FeedForward, MultiHeadAttention, Module
from .voxels import assemble_tokens


class VolumeDecoder(Module):
    def __init__(self, rng, cfg: ModelConfig):
        dtype = cfg.np_dtype
        self.cfg = cfg
        width = cfg.feature_width
        # one learnable query row per output cube
        self.cube_queries = Tensor(
            rng.normal(0.0, EMBED_STD, (cfg.cube_count, width)),
            requires_grad=True, dtype=dtype)
        self.attn = MultiHeadAttention(rng, width, cfg.decoder_head_count(),
                                       dtype=dtype)
        self.mlp = FeedForward(rng, width, width * MLP_RATIO,
                               out_dim=cfg.decoder_cube ** 3, dtype=dtype)

    def __call__(self, features: Tensor) -> Tensor:
        """[B, N, feature_width] view features -> [B, V, V, V] volume in (0, 1)."""
        bsz = features.shape[0]
        queries = self.cube_queries.expand((bsz,) + self.cube_queries.shape)
        attended = self.attn(queries, keyvalue=features)
        cube_values = ad.sigmoid(self.mlp(attended))  # [B, g, c^3]
        return assemble_tokens(cube_values, self.cfg.decoder_cube, self.cfg.voxel_side)
