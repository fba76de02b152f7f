"""Multi-scale cube attention refiner.

Each block cuts the running volume into cubes of a fixed side, runs
attention layers over the flattened cube tokens (residuals on both the
attention and MLP paths), and reassembles a full volume before the next
block re-partitions at half the cube side.  A single sigmoid after the
last block maps the accumulated correction into (0, 1).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import NonDivisibleCube, WidthMismatch
from .layers import EMBED_STD, AttentionLayer, Linear, prefixed
from .voxels import assemble_tokens, partition_tokens


class CubeAttentionBlock:
    def __init__(self, rng, cube_side: int, grid_side: int, layers: int, heads: int,
                 mlp_ratio: int, dtype=np.float32):
        if grid_side % cube_side != 0:
            raise NonDivisibleCube(
                f"cube side {cube_side} does not divide grid side {grid_side}")
        self.cube_side = cube_side
        self.grid_side = grid_side
        width = cube_side ** 3
        n_tokens = (grid_side // cube_side) ** 3
        self.proj_in = Linear(rng, width, width, dtype=dtype)
        self.positional = Tensor(rng.normal(0.0, EMBED_STD, (n_tokens, width)),
                                 requires_grad=True, dtype=dtype)
        self.layers = [AttentionLayer(rng, width, heads, mlp_ratio,
                                      mlp_residual=True, dtype=dtype)
                       for _ in range(layers)]
        self.proj_out = Linear(rng, width, width, dtype=dtype)

    def __call__(self, volume: Tensor) -> Tensor:
        tokens = partition_tokens(volume, self.cube_side)
        x = ad.add(self.proj_in(tokens), self.positional)
        for layer in self.layers:
            x = layer(x)
        return assemble_tokens(self.proj_out(x), self.cube_side, self.grid_side)

    def named_params(self):
        yield from prefixed("proj_in", self.proj_in)
        yield "positional", self.positional
        for i, layer in enumerate(self.layers):
            yield from prefixed(f"layer{i}", layer)
        yield from prefixed("proj_out", self.proj_out)


class VolumeRefiner:
    def __init__(self, rng, cfg: ModelConfig):
        dtype = cfg.np_dtype
        self.cfg = cfg
        self.blocks = [
            CubeAttentionBlock(rng, cube, cfg.voxel_side, cfg.refiner_layers,
                               heads, cfg.mlp_ratio, dtype=dtype)
            for cube, heads in zip(cfg.refiner_cubes, cfg.refiner_heads)
        ]

    def __call__(self, volume: Tensor) -> Tensor:
        """[B, V, V, V] coarse volume in (0, 1) -> refined volume in (0, 1)."""
        side = self.cfg.voxel_side
        if volume.ndim != 4 or volume.shape[1:] != (side, side, side):
            raise WidthMismatch(
                f"refiner built for side {side}, got volume {volume.shape}")
        x = volume
        for block in self.blocks:
            x = block(x)
        refined = ad.sigmoid(x)
        if self.cfg.refiner_input_residual:
            # averaged residual keeps the output inside (0, 1)
            refined = ad.scale(ad.add(refined, volume), 0.5)
        return refined

    def named_params(self):
        for i, block in enumerate(self.blocks):
            yield from prefixed(f"block{i}", block)
