"""Voxel grids: the cube partition, reconstruction losses, and metrics.

Grids are cubic occupancy fields stored as ``(V, V, V)`` float arrays in C
order, axes ``(x, y, z)`` with z fastest.  Losses are built from autodiff
ops so they can train the model; metrics are plain numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.spatial import cKDTree

from . import autodiff as ad
from .autodiff import Tensor
from .errors import EmptyVolume, NonDivisibleCube, ShapeMismatch

CONTINUOUS = "continuous"
BINARY = "binary"

DEFAULT_THRESHOLD = 0.3
SSIM_C1 = 0.01
SSIM_C2 = 0.03


@dataclass
class VoxelGrid:
    """V^3 occupancy field, either continuous in [0, 1] or binary {0, 1}."""

    side: int
    values: np.ndarray
    kind: str = CONTINUOUS

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.side,) * 3:
            raise ShapeMismatch(
                f"VoxelGrid: values shape {self.values.shape} != side {self.side}")
        if self.kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"VoxelGrid: unknown kind {self.kind!r}")
        if self.kind == BINARY:
            if not np.all((self.values == 0) | (self.values == 1)):
                raise ValueError("binary grid may only contain 0 and 1")
        else:
            if np.any(self.values < 0) or np.any(self.values > 1):
                raise ValueError("continuous grid values must lie in [0, 1]")

    @classmethod
    def zeros(cls, side: int, kind: str = CONTINUOUS, dtype=np.float32) -> "VoxelGrid":
        return cls(side, np.zeros((side,) * 3, dtype=dtype), kind)

    def binarize(self, threshold: float = DEFAULT_THRESHOLD) -> "VoxelGrid":
        return VoxelGrid(self.side, (self.values >= threshold).astype(np.float32), BINARY)

    def occupancy(self) -> int:
        return int(np.count_nonzero(self.values >= 0.5)) if self.kind == BINARY \
            else int(np.count_nonzero(self.values))


def partition_tokens(x: Tensor, cube_side: int) -> Tensor:
    """Differentiable partition of a [B, V, V, V] tensor into [B, (V/c)^3, c^3].

    Token order is row-major over cube indices; within a cube the voxels
    keep their row-major order.  ``assemble_tokens`` is the exact inverse.
    """
    b, v = x.shape[0], x.shape[1]
    if x.shape[1:] != (v, v, v):
        raise ShapeMismatch(f"partition_tokens: expected [B, V, V, V], got {x.shape}")
    if v % cube_side != 0:
        raise NonDivisibleCube(f"cube side {cube_side} does not divide grid side {v}")
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

GridLike = Union[VoxelGrid, np.ndarray, Tensor]


def _loss_operand(x: GridLike, like_dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, VoxelGrid):
        x = x.values
    return Tensor(np.asarray(x, dtype=like_dtype))


def _float_dtype(x: GridLike):
    if isinstance(x, Tensor):
        return x.dtype
    if isinstance(x, VoxelGrid):
        x = x.values
    dt = np.asarray(x).dtype
    return dt if dt in (np.float32, np.float64) else np.dtype(np.float32)


def _loss_pair(y: GridLike, y_pred: GridLike) -> tuple[Tensor, Tensor]:
    # graph tensors cannot be recast, so their dtype wins
    if isinstance(y_pred, Tensor):
        dtype = y_pred.dtype
    elif isinstance(y, Tensor):
        dtype = y.dtype
    else:
        dtype = np.promote_types(_float_dtype(y), _float_dtype(y_pred))
    yt = _loss_operand(y, dtype)
    pt = _loss_operand(y_pred, dtype)
    if yt.shape != pt.shape:
        raise ShapeMismatch(f"loss: shapes {yt.shape} vs {pt.shape}")
    if yt.ndim == 3:
        yt, pt = yt.reshape((1,) + yt.shape), pt.reshape((1,) + pt.shape)
    if yt.ndim != 4:
        raise ShapeMismatch(f"loss: expected [V,V,V] or [B,V,V,V], got {yt.shape}")
    return yt, pt


def loss_mse(y: GridLike, y_pred: GridLike) -> Tensor:
    """Mean squared voxel error, averaged over the batch."""
    yt, pt = _loss_pair(y, y_pred)
    diff = ad.sub(yt, pt)
    return ad.mul(diff, diff).mean()


def loss_ssim3d(y: GridLike, y_pred: GridLike,
                c1: float = SSIM_C1, c2: float = SSIM_C2) -> Tensor:
    """One minus the volume-level structural similarity, batch mean.

    Statistics (means, variances, covariance) are taken over the whole
    volume as a single window; the result lies in [0, 2].
    """
    yt, pt = _loss_pair(y, y_pred)
    vol_axes = (1, 2, 3)
    full = yt.shape

    def center(t):
        mu = t.mean(axis=vol_axes, keepdims=True)
        return mu, ad.sub(t, mu.expand(full))

    mu_y, yc = center(yt)
    mu_p, pc = center(pt)
    var_y = ad.mul(yc, yc).mean(axis=vol_axes, keepdims=True)
    var_p = ad.mul(pc, pc).mean(axis=vol_axes, keepdims=True)
    cov = ad.mul(yc, pc).mean(axis=vol_axes, keepdims=True)

    lum = ad.add(ad.scale(ad.mul(mu_y, mu_p), 2.0), c1)
    struct = ad.add(ad.scale(cov, 2.0), c2)
    denom_lum = ad.add(ad.add(ad.mul(mu_y, mu_y), ad.mul(mu_p, mu_p)), c1)
    denom_struct = ad.add(ad.add(var_y, var_p), c2)
    ssim = ad.div(ad.mul(lum, struct), ad.mul(denom_lum, denom_struct))
    return ad.sub(Tensor(np.asarray(1.0, dtype=ssim.dtype)), ssim.mean())


def loss_total(y: GridLike, y_pred: GridLike) -> Tensor:
    """Sum of the MSE and 3D structural-similarity losses."""
    return ad.add(loss_mse(y, y_pred), loss_ssim3d(y, y_pred))


LOSS_FUNCTIONS = {
    "mse": loss_mse,
    "ssim": loss_ssim3d,
    "total": loss_total,
}


# --- metrics (numpy) ---

def _binary_values(grid: GridLike, threshold: float) -> np.ndarray:
    if isinstance(grid, Tensor):
        grid = grid.data
    if isinstance(grid, VoxelGrid):
        if grid.kind == BINARY:
            return grid.values.astype(bool)
        grid = grid.values
    return np.asarray(grid) >= threshold


def metric_iou(y: GridLike, y_pred: GridLike,
               threshold: float = DEFAULT_THRESHOLD) -> float:
    """Intersection over union of the binarized volumes (1.0 if both empty)."""
    a = _binary_values(y, threshold)
    b = _binary_values(y_pred, threshold)
    if a.shape != b.shape:
        raise ShapeMismatch(f"metric_iou: {a.shape} vs {b.shape}")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 1.0
    return float(np.count_nonzero(a & b) / union)


def occupied_points(values: np.ndarray) -> np.ndarray:
    """Centers of occupied voxels, normalized to the unit cube."""
    v = values.shape[0]
    idx = np.argwhere(values)
    return (idx.astype(np.float64) + 0.5) / v


def fscore_points(pred_pts: np.ndarray, true_pts: np.ndarray, tau: float) -> float:
    """F-score of two point sets under a nearest-neighbor distance cutoff."""
    if len(pred_pts) == 0 or len(true_pts) == 0:
        raise EmptyVolume("F-score needs non-empty point sets")
    d_pred = cKDTree(true_pts).query(pred_pts)[0]
    d_true = cKDTree(pred_pts).query(true_pts)[0]
    precision = float(np.mean(d_pred <= tau))
    recall = float(np.mean(d_true <= tau))
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metric_fscore(y: GridLike, y_pred: GridLike,
                  threshold: float = DEFAULT_THRESHOLD,
                  tau: float | None = None) -> float:
    """F-score over occupied-voxel center point sets.

    ``tau`` defaults to one voxel pitch in unit-cube coordinates (1/V).
    """
    a = _binary_values(y, threshold)
    b = _binary_values(y_pred, threshold)
    if a.shape != b.shape:
        raise ShapeMismatch(f"metric_fscore: {a.shape} vs {b.shape}")
    if tau is None:
        tau = 1.0 / a.shape[0]
    return fscore_points(occupied_points(b), occupied_points(a), tau)
