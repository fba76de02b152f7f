"""Voxel grids: the cube partition, reconstruction losses, and metrics.

Grids are cubic occupancy fields stored as ``(V, V, V)`` float arrays in C
order, axes ``(x, y, z)`` with z fastest.  Losses take ``[B, V, V, V]``
batches (arrays or Tensors) and are built from autodiff ops so they can
train the model; metrics take arrays and are plain numpy.  ``VoxelGrid``
is what ``reconstruct`` returns: one continuous volume in [0, 1].

The F-score matches voxels at integer offsets within tau, ties counted with
a 1e-9 tolerance, by dilating each grid once; its cost grows with (tau*V)^2
until the ball of offsets covers the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import BadConfig, ShapeMismatch

DEFAULT_THRESHOLD = 0.3
SSIM_C1 = 0.01
SSIM_C2 = 0.03


@dataclass
class VoxelGrid:
    """A reconstructed [V, V, V] occupancy volume with values in [0, 1]."""

    values: np.ndarray


def partition_tokens(x: Tensor, cube_side: int) -> Tensor:
    """Differentiable partition of a [B, V, V, V] tensor into [B, (V/c)^3, c^3].

    Token order is row-major over cube indices; within a cube the voxels
    keep their row-major order.  ``assemble_tokens`` is the exact inverse.
    """
    b, v = x.shape[0], x.shape[1]
    if x.shape[1:] != (v, v, v):
        raise ShapeMismatch(f"partition_tokens: expected [B, V, V, V], got {x.shape}")
    if v % cube_side != 0:
        raise ShapeMismatch(f"cube side {cube_side} does not divide grid side {v}")
    n, c = v // cube_side, cube_side
    blocks = x.reshape(b, n, c, n, c, n, c).transpose(0, 1, 3, 5, 2, 4, 6)
    return blocks.reshape(b, n ** 3, c ** 3)


def assemble_tokens(tokens: Tensor, cube_side: int, grid_side: int) -> Tensor:
    """Inverse of partition_tokens: [B, (V/c)^3, c^3] -> [B, V, V, V]."""
    b = tokens.shape[0]
    n, c = grid_side // cube_side, cube_side
    if tokens.shape[1:] != (n ** 3, c ** 3):
        raise ShapeMismatch(
            f"assemble_tokens: {tokens.shape} vs expected [B, {n ** 3}, {c ** 3}]")
    blocks = tokens.reshape(b, n, n, n, c, c, c).transpose(0, 1, 4, 2, 5, 3, 6)
    return blocks.reshape(b, grid_side, grid_side, grid_side)


# --- losses (autodiff) ---

def _loss_pair(y, y_pred) -> tuple[Tensor, Tensor]:
    # an array target takes the prediction's dtype
    pt = y_pred if isinstance(y_pred, Tensor) else Tensor(y_pred)
    yt = y if isinstance(y, Tensor) else Tensor(y, dtype=pt.dtype)
    if yt.shape != pt.shape:
        raise ShapeMismatch(f"loss: shapes {yt.shape} vs {pt.shape}")
    if yt.ndim != 4:
        raise ShapeMismatch(f"loss: expected [B,V,V,V], got {yt.shape}")
    return yt, pt


def loss_mse(y, y_pred) -> Tensor:
    """Mean squared voxel error, averaged over the batch."""
    yt, pt = _loss_pair(y, y_pred)
    diff = ad.sub(yt, pt)
    return ad.mul(diff, diff).mean()


def loss_ssim3d(y, y_pred) -> Tensor:
    """One minus the volume-level structural similarity, batch mean.

    Statistics (means, variances, covariance) are taken over the whole
    volume as a single window; the result lies in [0, 2].
    """
    yt, pt = _loss_pair(y, y_pred)
    vol_axes = (1, 2, 3)

    def center(t):
        mu = t.mean(axis=vol_axes, keepdims=True)
        return mu, ad.sub(t, mu)

    mu_y, yc = center(yt)
    mu_p, pc = center(pt)
    var_y = ad.mul(yc, yc).mean(axis=vol_axes, keepdims=True)
    var_p = ad.mul(pc, pc).mean(axis=vol_axes, keepdims=True)
    cov = ad.mul(yc, pc).mean(axis=vol_axes, keepdims=True)

    lum = ad.add(ad.mul(ad.mul(mu_y, mu_p), 2.0), SSIM_C1)
    struct = ad.add(ad.mul(cov, 2.0), SSIM_C2)
    denom_lum = ad.add(ad.add(ad.mul(mu_y, mu_y), ad.mul(mu_p, mu_p)), SSIM_C1)
    denom_struct = ad.add(ad.add(var_y, var_p), SSIM_C2)
    ssim = ad.div(ad.mul(lum, struct), ad.mul(denom_lum, denom_struct))
    return ad.sub(Tensor(np.asarray(1.0, dtype=ssim.dtype)), ssim.mean())


def loss_total(y, y_pred) -> Tensor:
    """Sum of the MSE and 3D structural-similarity losses."""
    return ad.add(loss_mse(y, y_pred), loss_ssim3d(y, y_pred))


# the training objective; train_step looks it up per call, so wrappers set
# on this entry see every step's loss
LOSS_FUNCTIONS = {"total": loss_total}


# --- metrics (numpy) ---

def check_scoring(threshold: float, tau: float | None = None) -> None:
    """Reject a threshold outside (0, 1] or a tau that is not positive and finite."""
    if not 0.0 < threshold <= 1.0:
        raise BadConfig(f"threshold {threshold} is outside (0, 1]")
    if tau is not None and not 0.0 < tau < float("inf"):
        raise BadConfig(f"tau {tau} is not a positive finite distance")


def metric_iou(y: np.ndarray, y_pred: np.ndarray,
               threshold: float = DEFAULT_THRESHOLD) -> float:
    """Intersection over union of the binarized volumes (1.0 if both empty)."""
    a, b = np.asarray(y) >= threshold, np.asarray(y_pred) >= threshold
    if a.shape != b.shape:
        raise ShapeMismatch(f"metric_iou: {a.shape} vs {b.shape}")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 1.0
    return float(np.count_nonzero(a & b) / union)


def _dilate(g: np.ndarray, r2: int) -> np.ndarray:
    """OR of ``g`` shifted by every integer offset o with |o|^2 <= r2."""
    v = g.shape[0]
    m = min(math.isqrt(max(r2, 0)), v - 1)
    sl = {s: slice(max(s, 0), v + min(s, 0)) for s in range(-m, m + 1)}  # i with i - s in range
    out, run, h = np.zeros_like(g), g.copy(), 0
    # the ball's (dx, dy) columns, by the z half-length each spans, shortest first
    for need, dx, dy in sorted((min(math.isqrt(r2 - dx * dx - dy * dy), v - 1), dx, dy)
                               for dx in sl for dy in sl if dx * dx + dy * dy <= r2):
        while h < need:     # run is g dilated along z by up to h voxels
            h += 1
            run[:, :, sl[h]] |= g[:, :, sl[-h]]
            run[:, :, sl[-h]] |= g[:, :, sl[h]]
        out[sl[dx], sl[dy]] |= run[sl[-dx], sl[-dy]]
    return out


def metric_fscore(y: np.ndarray, y_pred: np.ndarray,
                  threshold: float = DEFAULT_THRESHOLD,
                  tau: float | None = None) -> float:
    """F-score of the binarized [V, V, V] volumes within a distance ``tau``.

    ``tau`` is in unit-cube coordinates and defaults to one voxel pitch, 1/V.
    A voxel is matched when the other grid has one at an integer offset o
    with |o|^2 <= floor((tau*V)^2 * (1 + 1e-9)), so a tie at tau counts
    whatever the rounding.  The cost grows with (tau*V)^2, capped by the grid.
    An empty grid on either side matches nothing and scores 0.
    """
    a, b = np.asarray(y) >= threshold, np.asarray(y_pred) >= threshold
    if a.shape != b.shape or a.shape != a.shape[:1] * 3:
        raise ShapeMismatch(f"metric_fscore: {a.shape} vs {b.shape}, not two [V, V, V] grids")
    if not a.any() or not b.any():
        return 0.0
    v = a.shape[0]
    t = 1.0 if tau is None else tau * v     # in voxel pitches; a negative tau matches nothing
    r2 = int(min(t * t * (1 + 1e-9), 3 * (v - 1) ** 2)) if t >= 0 else -1
    precision = np.count_nonzero(b & _dilate(a, r2)) / np.count_nonzero(b)
    recall = np.count_nonzero(a & _dilate(b, r2)) / np.count_nonzero(a)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)
