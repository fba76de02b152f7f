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

# No-grad reconstruction runs in two stages, each in batches of one fixed
# size padded with zeros.  float32 GEMM blocking depends on the batch shape,
# so a row's last bits would differ with the number of rows it shares a GEMM
# with; at a fixed shape they do not depend on the other rows.
# EMBED_CHUNK fixes the backbone stage: images embedded per pass.
# RECONSTRUCT_CHUNK fixes the token stage (encoder, decoder, refiner):
# objects per pass.  So each image's token and each object's volume has the
# same bits whatever it is reconstructed with.
EMBED_CHUNK = 16
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

    def _check_views(self, shape) -> None:
        """The one check of the model's input: ``shape`` must be [B, N, C, S, S]
        with 1 <= N <= MAX_VIEWS.  Every module after the backbone takes what
        the module before it produced."""
        side = self.cfg.image_size
        if len(shape) != 5 or tuple(shape[2:]) != (IMAGE_CHANNELS, side, side):
            raise ShapeMismatch(f"encode expects [B, N, {IMAGE_CHANNELS}, {side}, {side}], "
                                f"got {tuple(shape)}")
        _check_view_count(shape[1])

    def encode(self, images, trace: list | None = None) -> Tensor:
        """[B, N, C, H, W] view images -> [B, N, feature_width] features."""
        t = images if isinstance(images, Tensor) else Tensor(
            np.asarray(images, dtype=self.cfg.np_dtype))
        self._check_views(t.shape)
        bsz, n_views = t.shape[0], t.shape[1]
        flat = t.reshape((bsz * n_views,) + t.shape[2:])
        embedded = self.backbone(flat)
        tokens = embedded.reshape(bsz, n_views, self.cfg.embed_dim)
        return self.encoder(tokens, trace=trace)

    def decode(self, features: Tensor) -> ModelOutput:
        """[B, N, feature_width] features -> the coarse and refined volumes."""
        coarse = self.decoder(features)
        refined = self.refiner(coarse) if self.refiner is not None else coarse
        return ModelOutput(coarse=coarse, refined=refined)

    def forward(self, images) -> ModelOutput:
        return self.decode(self.encode(images))

    __call__ = forward

    # --- no-grad reconstruction, in two stages ---

    def reconstruct(self, views: np.ndarray) -> VoxelGrid:
        """[N, C, H, W] views of one object -> continuous voxel grid."""
        return VoxelGrid(self.reconstruct_batch([views])[0])

    def reconstruct_batch(self, views) -> np.ndarray:
        """Per-object [N, C, H, W] views (a sequence, or a [B, N, C, H, W]
        array) -> [B, V, V, V] continuous volumes, without grad."""
        return self.volumes_from_tokens(self.embed_views(views))

    def embed_views(self, views) -> np.ndarray:
        """Per-object [N, C, H, W] views (a sequence, or a [B, N, C, H, W]
        array) -> [B, N, embed_dim] backbone tokens, without grad.

        Images run ``EMBED_CHUNK`` at a time; the last chunk is padded with
        zero images.  Every object must have the same [N, C, H, W] views.
        """
        for i, obj_views in enumerate(views):
            if np.shape(obj_views) != np.shape(views[0]):
                raise ShapeMismatch(f"object {i} has views {np.shape(obj_views)}, "
                                    f"object 0 has {np.shape(views[0])}")
        shape = (len(views),) + (np.shape(views[0]) if len(views) else ())
        self._check_views(shape)
        images = [image for obj_views in views for image in obj_views]
        tokens = np.empty((len(images), self.cfg.embed_dim), dtype=self.cfg.np_dtype)
        for start in range(0, len(images), EMBED_CHUNK):
            chunk = images[start:start + EMBED_CHUNK]
            batch = np.zeros((EMBED_CHUNK,) + shape[2:], dtype=self.cfg.np_dtype)
            batch[:len(chunk)] = chunk
            with ad.no_grad():
                embedded = self.backbone(Tensor(batch)).data
            tokens[start:start + len(chunk)] = embedded[:len(chunk)]
        return tokens.reshape(shape[:2] + (self.cfg.embed_dim,))

    def volumes_from_tokens(self, tokens) -> np.ndarray:
        """[B, N, embed_dim] backbone tokens -> [B, V, V, V] continuous
        volumes, without grad.

        Objects run ``RECONSTRUCT_CHUNK`` at a time; the last chunk is padded
        with zero tokens, and only the real rows are returned.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 3 or tokens.shape[2] != self.cfg.embed_dim:
            raise ShapeMismatch(f"volumes_from_tokens expects [B, N, {self.cfg.embed_dim}], "
                                f"got {tokens.shape}")
        _check_view_count(tokens.shape[1])
        volumes = np.empty((len(tokens),) + (self.cfg.voxel_side,) * 3,
                           dtype=self.cfg.np_dtype)
        for start in range(0, len(tokens), RECONSTRUCT_CHUNK):
            chunk = tokens[start:start + RECONSTRUCT_CHUNK]
            batch = np.zeros((RECONSTRUCT_CHUNK,) + chunk.shape[1:], dtype=self.cfg.np_dtype)
            batch[:len(chunk)] = chunk
            with ad.no_grad():
                refined = self.decode(self.encoder(Tensor(batch))).refined.data
            # sigmoid output is strictly inside (0, 1) but guard float round-off
            volumes[start:start + len(chunk)] = np.clip(refined[:len(chunk)], 0.0, 1.0)
        return volumes


def _check_view_count(n_views: int) -> None:
    if n_views < 1:
        raise ShapeMismatch("encode needs at least one view")
    if n_views > MAX_VIEWS:
        raise ShapeMismatch(f"{n_views} views exceed limit {MAX_VIEWS}")
