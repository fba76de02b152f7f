"""Cross-attention volume decoder.

A learnable bank of cube queries attends over the fused view features; an
MLP turns each attended cube token into that cube's voxel logits, and the
sigmoid-squashed cubes are assembled into the coarse volume.

Only weights that change the function are kept.  The query and output
projections are drawn, then folded at init into the bank and ``fc1``: one
acts on the learned bank alone, the other feeds ``fc1`` with nothing
nonlinear between.  The softmax over views cancels a key bias, and makes a
value bias a constant that ``fc1.bias`` states.  Each head's
d-wide value rows run through its d rows of ``fc1`` before the mix, not
every cube query after it: 21 x 8 rows against 512 at paper scale.
"""

from __future__ import annotations

import math

from . import autodiff as ad
from .autodiff import Tensor
from .config import DECODER_CUBE, ModelConfig
from .layers import EMBED_STD, MLP_RATIO, Init, Linear, Module
from .voxels import assemble_tokens


class VolumeDecoder(Module):
    def __init__(self, init: Init, cfg: ModelConfig):
        self.cfg = cfg
        width, hidden = cfg.feature_width, cfg.feature_width * MLP_RATIO
        self.queries = init.gaussian(EMBED_STD, (cfg.cube_count, width))  # one per cube
        query_map = Linear(init, width, width).weight
        self.key = Linear(init, width, width).weight
        self.value = Linear(init, width, width).weight
        out_map = Linear(init, width, width).weight
        self.fc1 = Linear(init, width, hidden)
        self.fc2 = Linear(init, hidden, DECODER_CUBE ** 3)
        if init.rng is not None:  # nothing to fold in a build a checkpoint overwrites
            self.queries.data = self.queries.data @ query_map.data
            self.fc1.weight.data = out_map.data @ self.fc1.weight.data

    def __call__(self, features: Tensor) -> Tensor:
        """[B, N, feature_width] view features -> [B, V, V, V] volume in (0, 1)."""
        bsz, n, width = features.shape
        heads, cubes = self.cfg.head_count(width), self.queries.shape[0]
        d, hidden = width // heads, self.fc1.weight.shape[1]
        q = self.queries.reshape(cubes, heads, d).transpose(1, 0, 2)
        k = ad.matmul(features, self.key).reshape(bsz * n, heads, d).transpose(1, 2, 0)
        v = ad.matmul(features, self.value).reshape(bsz * n, heads, d).transpose(1, 0, 2)
        scores = ad.mul(ad.matmul(q, k), 1.0 / math.sqrt(d))  # [H, G, B*N]
        probs = ad.softmax(scores.reshape(heads, cubes, bsz, n))
        probs = probs.transpose(2, 1, 0, 3).reshape(bsz, cubes, heads * n)
        # one running name, so that without a graph each step frees the last
        x = ad.matmul(v, self.fc1.weight.reshape(heads, d, hidden))  # [H, B*N, 4W]
        x = x.reshape(heads, bsz, n, hidden).transpose(1, 0, 2, 3).reshape(bsz, heads * n, hidden)
        x = ad.matmul(probs, x, self.fc1.bias)  # the mix: [B, G, 4W]
        cube_values = ad.sigmoid(self.fc2(ad.gelu(x)))  # [B, G, c^3]
        return assemble_tokens(cube_values, DECODER_CUBE, self.cfg.voxel_side)
