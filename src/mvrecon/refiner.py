"""Multi-scale cube attention refiner.

Each block cuts the running volume into cubes of a fixed side, runs
attention layers over the flattened cube tokens (residuals on both the
attention and MLP paths) with one head per cube side, and reassembles a
full volume before the next block re-partitions at half the cube side.  One
sigmoid after the last block maps the accumulated correction into (0, 1).
The input map has no bias: the positional table already adds to each token.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .layers import EMBED_STD, AttentionLayer, Init, Linear, Module
from .voxels import assemble_tokens, partition_tokens


class CubeAttentionBlock(Module):
    def __init__(self, init: Init, cube_side: int, grid_side: int, layers: int):
        self.cube_side = cube_side
        self.grid_side = grid_side
        width = cube_side ** 3
        n_tokens = (grid_side // cube_side) ** 3
        self.proj_in = Linear(init, width, width).weight
        self.positional = init.gaussian(EMBED_STD, (n_tokens, width))
        self.layers = [AttentionLayer(init, width, heads=cube_side, mlp_residual=True)
                       for _ in range(layers)]
        self.proj_out = Linear(init, width, width)

    def __call__(self, volume: Tensor) -> Tensor:
        tokens = partition_tokens(volume, self.cube_side)
        x = ad.add(ad.matmul(tokens, self.proj_in), self.positional)
        for layer in self.layers:
            x = layer(x)
        return assemble_tokens(self.proj_out(x), self.cube_side, self.grid_side)


class VolumeRefiner(Module):
    def __init__(self, init: Init, cfg: ModelConfig):
        self.blocks = [CubeAttentionBlock(init, cube, cfg.voxel_side, cfg.refiner_layers)
                       for cube in cfg.refiner_cubes]

    def __call__(self, volume: Tensor) -> Tensor:
        """[B, V, V, V] coarse volume in (0, 1) -> refined volume in (0, 1)."""
        x = volume
        for block in self.blocks:
            x = block(x)
        return ad.sigmoid(x)
