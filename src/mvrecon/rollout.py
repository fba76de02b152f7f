"""Attention rollout over the encoder's patch attention blocks.

Per block: average each layer's attention over heads, add the identity
(the residual path), re-normalize rows, and multiply the layer matrices
together.  Row-stochasticity is preserved, so each view's row reads as a
distribution over the input views.

The encoder runs on the tokens ``embed_views`` gives, the ones evaluation
reconstructs from, so a map reads the same embedded views a score does.
"""

from __future__ import annotations

import os

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import MultiViewReconstructor
from .voxio import write_pgm


def normalize_layer_attention(attn: np.ndarray) -> np.ndarray:
    """[heads, N, N] softmax attention -> row-stochastic rollout factor."""
    avg = attn.mean(axis=0)
    avg = avg + np.eye(avg.shape[0], dtype=avg.dtype)
    return avg / avg.sum(axis=-1, keepdims=True)


def rollout_from_trace(block_trace: list[np.ndarray]) -> np.ndarray:
    """Multiply a block's per-layer factors (later layers on the left)."""
    rolled = None
    for layer_attn in block_trace:
        factor = normalize_layer_attention(layer_attn)
        rolled = factor if rolled is None else factor @ rolled
    return rolled


def attention_rollout(model: MultiViewReconstructor,
                      views: np.ndarray) -> list[np.ndarray]:
    """[N, C, H, W] views of one sample -> one [N, N] map per encoder block."""
    trace: list = []
    with ad.no_grad():
        model.encoder(Tensor(model.embed_views([views])), trace=trace)
    maps = []
    for block_trace in trace:
        maps.append(rollout_from_trace([layer[0] for layer in block_trace]))
    return maps


def save_rollout_maps(maps: list[np.ndarray], out_dir: str,
                      prefix: str = "rollout") -> list[str]:
    """One PGM per block per view: the view's rollout row, peak-normalized."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for j, mat in enumerate(maps):
        for n in range(mat.shape[0]):
            row = mat[n]
            peak = row.max()
            image = (row / peak if peak > 0 else row)[None, :]
            path = os.path.join(out_dir, f"{prefix}_block{j + 1}_view{n + 1}.pgm")
            with open(path, "wb") as fh:
                fh.write(write_pgm(image))
            written.append(path)
    return written
