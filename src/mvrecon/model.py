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

# Each stage's no-grad form runs in passes of one fixed size padded with
# zero rows.  float32 GEMM blocking depends on the batch shape, so a row's
# last bits would differ with the number of rows it shares a GEMM with; at a
# fixed shape they do not depend on the other rows.  EMBED_CHUNK fixes the
# embed stage (the backbone): images per pass.  RECONSTRUCT_CHUNK fixes the
# decode stage (encoder, decoder, refiner): objects per pass.  So each
# image's token and each object's volume has the same bits whatever it is
# reconstructed with.
EMBED_CHUNK = 16
RECONSTRUCT_CHUNK = 8


@dataclass
class ModelOutput:
    refined: Tensor   # final volume, [B, V, V, V] in [0, 1]


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

    # --- the two stages, in their graph form ---

    def _check_views(self, shape) -> None:
        """The one check of the model's input: ``shape`` must be [B, N, C, S, S]
        with 1 <= N <= MAX_VIEWS.  Every module after the backbone takes what
        the module before it produced."""
        side = self.cfg.image_size
        if len(shape) != 5 or tuple(shape[2:]) != (IMAGE_CHANNELS, side, side):
            raise ShapeMismatch(f"embed expects [B, N, {IMAGE_CHANNELS}, {side}, {side}], "
                                f"got {tuple(shape)}")
        _check_view_count(shape[1], "embed")

    def embed(self, images) -> Tensor:
        """[B, N, C, H, W] view images -> [B, N, embed_dim] backbone tokens."""
        t = images if isinstance(images, Tensor) else Tensor(
            np.asarray(images, dtype=self.cfg.np_dtype))
        self._check_views(t.shape)
        bsz, n_views = t.shape[0], t.shape[1]
        flat = t.reshape((bsz * n_views,) + t.shape[2:])
        return self.backbone(flat).reshape(bsz, n_views, self.cfg.embed_dim)

    def decode(self, tokens: Tensor) -> ModelOutput:
        """[B, N, embed_dim] backbone tokens -> the refined volume (the
        decoder's, when there is no refiner)."""
        volume = self.decoder(self.encoder(tokens))
        if self.refiner is not None:
            volume = self.refiner(volume)
        return ModelOutput(refined=volume)

    def forward(self, images) -> ModelOutput:
        return self.decode(self.embed(images))

    __call__ = forward

    # --- the two stages, in their no-grad form ---

    def reconstruct(self, views: np.ndarray) -> VoxelGrid:
        """[N, C, H, W] views of one object -> continuous voxel grid."""
        return VoxelGrid(self.volumes_from_tokens(self.embed_views([views]))[0])

    def embed_views(self, views) -> np.ndarray:
        """Per-object [N, C, H, W] views (a sequence, or a [B, N, C, H, W]
        array) -> [B, N, embed_dim] backbone tokens, without grad.

        Images run ``EMBED_CHUNK`` at a time.  Every object must have the
        same [N, C, H, W] views.
        """
        for i, obj_views in enumerate(views):
            if np.shape(obj_views) != np.shape(views[0]):
                raise ShapeMismatch(f"object {i} has views {np.shape(obj_views)}, "
                                    f"object 0 has {np.shape(views[0])}")
        shape = (len(views),) + (np.shape(views[0]) if len(views) else ())
        self._check_views(shape)
        images = [image for obj_views in views for image in obj_views]
        tokens = self._padded_passes(self.backbone, images, EMBED_CHUNK, (self.cfg.embed_dim,))
        return tokens.reshape(shape[:2] + (self.cfg.embed_dim,))

    def volumes_from_tokens(self, tokens) -> np.ndarray:
        """[B, N, embed_dim] backbone tokens -> [B, V, V, V] continuous
        volumes, without grad.  Objects run ``RECONSTRUCT_CHUNK`` at a time."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 3 or tokens.shape[2] != self.cfg.embed_dim:
            raise ShapeMismatch(f"volumes_from_tokens expects [B, N, {self.cfg.embed_dim}], "
                                f"got {tokens.shape}")
        _check_view_count(tokens.shape[1], "volumes_from_tokens")
        return self._padded_passes(lambda batch: self.decode(batch).refined, tokens,
                                   RECONSTRUCT_CHUNK, (self.cfg.voxel_side,) * 3)

    def _padded_passes(self, stage, rows, chunk: int, row_shape: tuple) -> np.ndarray:
        """``stage`` run without grad on ``rows`` (a sequence of equal-shape
        arrays), ``chunk`` rows per pass; the last pass is padded with zero
        rows, and only the real rows' outputs are kept, checked once to be
        finite as they leave the graph.  ``rows`` is sliced, never stacked whole."""
        out = np.empty((len(rows),) + row_shape, dtype=self.cfg.np_dtype)
        for start in range(0, len(rows), chunk):
            part = rows[start:start + chunk]
            batch = np.zeros((chunk,) + np.shape(part[0]), dtype=self.cfg.np_dtype)
            batch[:len(part)] = part
            with ad.no_grad():
                out[start:start + len(part)] = stage(Tensor(batch)).data[:len(part)]
        ad.check_finite(out, "the model")
        return out


def _check_view_count(n_views: int, stage: str) -> None:
    if n_views < 1:
        raise ShapeMismatch(f"{stage} needs at least one view")
    if n_views > MAX_VIEWS:
        raise ShapeMismatch(f"{n_views} views exceed limit {MAX_VIEWS}")
