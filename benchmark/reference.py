"""Statistics and independent reference computations for the benchmark.

Nothing here imports ``mvrecon``: the references restate the method's
definitions in plain float64 numpy so that the benchmark can check the
program's outputs against computations made apart from it.
"""

from __future__ import annotations

import statistics

import numpy as np

# Stabilising constants of the volume SSIM, as the method defines them.
SSIM_C1 = 0.01
SSIM_C2 = 0.03


# --- statistics ---

def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them (exclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def self_times(spans) -> list[float]:
    """Duration of each span minus the part its direct children cover.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.  Spans come from one thread, so the
    children of a span do not overlap each other.
    """
    own = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# --- reconstruction loss ---

def total_loss(targets: np.ndarray, refined: np.ndarray) -> float:
    """Batch-mean voxel MSE plus one minus the batch-mean single-window SSIM."""
    y = np.asarray(targets, dtype=np.float64).reshape(len(targets), -1)
    p = np.asarray(refined, dtype=np.float64).reshape(len(refined), -1)
    mse = np.mean((y - p) ** 2)
    mu_y, mu_p = y.mean(axis=1), p.mean(axis=1)
    var_y = ((y - mu_y[:, None]) ** 2).mean(axis=1)
    var_p = ((p - mu_p[:, None]) ** 2).mean(axis=1)
    cov = ((y - mu_y[:, None]) * (p - mu_p[:, None])).mean(axis=1)
    ssim = ((2 * mu_y * mu_p + SSIM_C1) * (2 * cov + SSIM_C2)
            / ((mu_y ** 2 + mu_p ** 2 + SSIM_C1) * (var_y + var_p + SSIM_C2)))
    return float(mse + 1.0 - ssim.mean())


# --- reconstruction metrics ---

def iou(truth: np.ndarray, pred: np.ndarray) -> float:
    """Intersection over union of two boolean grids; 1.0 when both are empty."""
    union = np.count_nonzero(truth | pred)
    return 1.0 if union == 0 else np.count_nonzero(truth & pred) / union


def _nearest_distances(src: np.ndarray, dst: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Distance from each point of ``src`` to its nearest point of ``dst``,
    by brute force over all pairs, a chunk of ``src`` at a time."""
    out = np.empty(len(src))
    for i in range(0, len(src), chunk):
        diff = src[i:i + chunk, None, :] - dst[None, :, :]
        out[i:i + chunk] = np.sqrt((diff ** 2).sum(axis=2)).min(axis=1)
    return out


def fscore(truth: np.ndarray, pred: np.ndarray, tau: float) -> float:
    """F-score between the occupied-voxel centres of two boolean grids.

    Centres lie in the unit cube; a point counts as matched when its
    nearest neighbour in the other set is within ``tau``.  An empty grid
    scores 0.
    """
    side = truth.shape[0]
    t_pts = (np.argwhere(truth) + 0.5) / side
    p_pts = (np.argwhere(pred) + 0.5) / side
    if len(t_pts) == 0 or len(p_pts) == 0:
        return 0.0
    precision = np.mean(_nearest_distances(p_pts, t_pts) <= tau)
    recall = np.mean(_nearest_distances(t_pts, p_pts) <= tau)
    if precision + recall == 0:
        return 0.0
    return float(2 * precision * recall / (precision + recall))
