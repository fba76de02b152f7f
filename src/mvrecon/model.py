"""Full reconstruction model: backbone -> encoder -> decoder -> refiner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .decoder import VolumeDecoder
from .encoder import MultiViewEncoder, ViewBackbone
from .errors import EmptyViewList, ShapeMismatch, TooManyViews
from .layers import Module
from .refiner import VolumeRefiner
from .voxels import CONTINUOUS, VoxelGrid


@dataclass
class ModelOutput:
    coarse: Tensor    # decoder volume, [B, V, V, V] in (0, 1)
    refined: Tensor   # final volume (same tensor as coarse when no refiner)
    features: Tensor  # fused view features, [B, N, feature_width]


class MultiViewReconstructor(Module):
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng([int(seed), 0x5eed])
        self.backbone = ViewBackbone(rng, cfg)
        self.encoder = MultiViewEncoder(rng, cfg)
        self.decoder = VolumeDecoder(rng, cfg)
        self.refiner = VolumeRefiner(rng, cfg) if cfg.use_refiner else None

    # --- forward paths ---

    def _as_image_tensor(self, images) -> Tensor:
        if not isinstance(images, Tensor):
            images = Tensor(np.asarray(images, dtype=self.cfg.np_dtype))
        return images

    def encode(self, images, trace: list | None = None) -> Tensor:
        """[B, N, C, H, W] view images -> [B, N, feature_width] features."""
        t = self._as_image_tensor(images)
        if t.ndim != 5:
            raise ShapeMismatch(f"encode expects [B, N, C, H, W], got {t.shape}")
        bsz, n_views = t.shape[0], t.shape[1]
        if n_views < 1:
            raise EmptyViewList("encode needs at least one view")
        if n_views > self.cfg.max_views:
            raise TooManyViews(f"{n_views} views exceed limit {self.cfg.max_views}")
        flat = t.reshape((bsz * n_views,) + t.shape[2:])
        embedded = self.backbone(flat)
        tokens = embedded.reshape(bsz, n_views, self.cfg.embed_dim)
        return self.encoder(tokens, trace=trace)

    def forward(self, images, trace: list | None = None) -> ModelOutput:
        features = self.encode(images, trace=trace)
        coarse = self.decoder(features)
        refined = self.refiner(coarse) if self.refiner is not None else coarse
        return ModelOutput(coarse=coarse, refined=refined, features=features)

    __call__ = forward

    def reconstruct(self, views: np.ndarray) -> VoxelGrid:
        """[N, C, H, W] views of one object -> continuous voxel grid."""
        with ad.no_grad():
            out = self.forward(np.asarray(views)[None])
        values = out.refined.data[0]
        # sigmoid output is strictly inside (0, 1) but guard float round-off
        return VoxelGrid(self.cfg.voxel_side,
                         np.clip(values, 0.0, 1.0), CONTINUOUS)

    def reconstruct_batch(self, views: np.ndarray) -> np.ndarray:
        """[B, N, C, H, W] -> [B, V, V, V] continuous volumes (no grad)."""
        with ad.no_grad():
            return self.forward(views).refined.data
