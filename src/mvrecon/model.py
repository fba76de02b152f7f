"""Full reconstruction model: backbone -> encoder -> decoder -> refiner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import IMAGE_CHANNELS, MAX_VIEWS, ModelConfig
from .decoder import VolumeDecoder
from .encoder import MultiViewEncoder, ViewBackbone
from .errors import ShapeMismatch
from .layers import Init, Module
from .refiner import VolumeRefiner
from .voxels import VoxelGrid

# Objects per reconstruction forward.  float32 GEMM blocking depends on the
# batch shape, so an object's volume would differ in its last bits with the
# number of objects it shares a forward with.  Every volume is computed in a
# batch of exactly this many, so each row's bits are independent of the rest.
RECONSTRUCT_CHUNK = 8


@dataclass
class ModelOutput:
    coarse: Tensor    # decoder volume, [B, V, V, V] in (0, 1)
    refined: Tensor   # final volume (same tensor as coarse when no refiner)


class MultiViewReconstructor(Module):
    def __init__(self, cfg: ModelConfig, seed: int | None = 0):
        """Builds every module, drawing each initial weight from ``seed``'s
        generator; ``seed=None`` draws nothing and starts those weights at zero."""
        rng = None if seed is None else np.random.default_rng([int(seed), 0x5eed])
        init = Init(rng, cfg.np_dtype)
        self.cfg = cfg
        self.backbone = ViewBackbone(init, cfg)
        self.encoder = MultiViewEncoder(init, cfg)
        self.decoder = VolumeDecoder(init, cfg)
        self.refiner = VolumeRefiner(init, cfg) if cfg.use_refiner else None

    # --- forward paths ---

    def encode(self, images, trace: list | None = None) -> Tensor:
        """[B, N, C, H, W] view images -> [B, N, feature_width] features.

        The one check of the model's input: every module after the backbone
        takes what the module before it produced.
        """
        t = images if isinstance(images, Tensor) else Tensor(
            np.asarray(images, dtype=self.cfg.np_dtype))
        side = self.cfg.image_size
        if t.ndim != 5 or t.shape[2:] != (IMAGE_CHANNELS, side, side):
            raise ShapeMismatch(f"encode expects [B, N, {IMAGE_CHANNELS}, {side}, {side}], "
                                f"got {t.shape}")
        bsz, n_views = t.shape[0], t.shape[1]
        if n_views < 1:
            raise ShapeMismatch("encode needs at least one view")
        if n_views > MAX_VIEWS:
            raise ShapeMismatch(f"{n_views} views exceed limit {MAX_VIEWS}")
        flat = t.reshape((bsz * n_views,) + t.shape[2:])
        embedded = self.backbone(flat)
        tokens = embedded.reshape(bsz, n_views, self.cfg.embed_dim)
        return self.encoder(tokens, trace=trace)

    def forward(self, images) -> ModelOutput:
        features = self.encode(images)
        coarse = self.decoder(features)
        refined = self.refiner(coarse) if self.refiner is not None else coarse
        return ModelOutput(coarse=coarse, refined=refined)

    __call__ = forward

    def reconstruct(self, views: np.ndarray) -> VoxelGrid:
        """[N, C, H, W] views of one object -> continuous voxel grid."""
        return VoxelGrid(self.reconstruct_batch([views])[0])

    def reconstruct_batch(self, views) -> np.ndarray:
        """Per-object [N, C, H, W] views (a sequence, or a [B, N, C, H, W]
        array) -> [B, V, V, V] continuous volumes, without grad.

        Objects run ``RECONSTRUCT_CHUNK`` at a time; the last chunk is padded
        with zero views, and only the real rows are returned.  Every object
        must have the same [N, C, H, W] views.
        """
        for i, obj_views in enumerate(views):
            if np.shape(obj_views) != np.shape(views[0]):
                raise ShapeMismatch(f"object {i} has views {np.shape(obj_views)}, "
                                    f"object 0 has {np.shape(views[0])}")
        volumes = np.empty((len(views),) + (self.cfg.voxel_side,) * 3,
                           dtype=self.cfg.np_dtype)
        for start in range(0, len(views), RECONSTRUCT_CHUNK):
            chunk = views[start:start + RECONSTRUCT_CHUNK]
            batch = np.zeros((RECONSTRUCT_CHUNK,) + np.shape(chunk[0]),
                             dtype=self.cfg.np_dtype)
            batch[:len(chunk)] = chunk
            with ad.no_grad():
                refined = self.forward(batch).refined.data
            # sigmoid output is strictly inside (0, 1) but guard float round-off
            volumes[start:start + len(chunk)] = np.clip(refined[:len(chunk)], 0.0, 1.0)
        return volumes
