"""Training loop: per-iteration view sampling, stepped learning rate, SGD."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .config import TrainConfig
from .datagen import Dataset, DatasetObject, levels_to_images
from .errors import (DivergedLoss, MissingViews, NumericalOverflow, ShapeMismatch,
                     TooFewObjects)
from .model import MultiViewReconstructor
from .voxels import LOSS_FUNCTIONS


@dataclass
class TrainResult:
    losses: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)


def data_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), 0xda7a])


def sample_batch(objects: list[DatasetObject], cfg: TrainConfig,
                 rng: np.random.Generator):
    """Stack a batch, sampling views per object without replacement; only
    the sampled views become float32 images."""
    levels, grids = [], []
    for obj in objects:
        pool = len(obj.levels)
        if cfg.views_per_sample > pool:
            raise MissingViews(
                f"need {cfg.views_per_sample} views, object has {pool}")
        picked = rng.choice(pool, size=cfg.views_per_sample, replace=False)
        levels.append(obj.levels[picked])
        grids.append(obj.grid)
    return levels_to_images(np.stack(levels)), np.stack(grids)


def sgd_step(params: list[Tensor], grads: list[np.ndarray], lr: float) -> None:
    """In-place p <- p - lr * g for each (param, grad) pair."""
    if len(params) != len(grads):
        raise ShapeMismatch(f"sgd_step: {len(params)} params vs {len(grads)} grads")
    for p, g in zip(params, grads):
        g = np.asarray(g, dtype=p.dtype)
        if g.shape != p.shape:
            raise ShapeMismatch(f"sgd_step: grad {g.shape} vs param {p.shape}")
        p.data -= p.dtype.type(lr) * g


def train_step(model: MultiViewReconstructor, images: np.ndarray,
               targets: np.ndarray, cfg: TrainConfig, lr: float) -> float:
    """One forward, ``loss_total`` on the refined volume, backward and SGD
    update; returns the loss.  Each ``p.grad`` lives from this step's
    backward until the next step starts."""
    model.zero_grads()
    try:
        out = model.forward(images.astype(cfg.model.np_dtype, copy=False))
        loss = LOSS_FUNCTIONS["total"](targets.astype(cfg.model.np_dtype, copy=False),
                                       out.refined)
        value = loss.item()
        if not np.isfinite(value):
            raise DivergedLoss(f"loss is {value}")
        loss.backward()
    except NumericalOverflow as exc:
        raise DivergedLoss(f"forward/backward overflowed: {exc}") from exc
    params = model.parameters()
    grads = []
    for name, p in model.named_params():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise DivergedLoss(f"non-finite gradient in {name}")
        grads.append(g)
    sgd_step(params, grads, lr)
    return value


def train(model: MultiViewReconstructor, dataset: Dataset, cfg: TrainConfig,
          log_every: int = 0, progress=None) -> TrainResult:
    """Run the configured epochs (or ``max_iterations``) over the train split.

    Deterministic given the seed: object order, view sampling, and updates
    all draw from one generator in a fixed order.
    """
    train_objs = dataset.split("train")
    if not train_objs:
        raise TooFewObjects("train split is empty")
    rng = data_rng(cfg.seed)
    result = TrainResult()
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate(epoch)
        order = rng.permutation(len(train_objs))
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_objs[i] for i in order[start:start + cfg.batch_size]]
            # free the last step's grads and batch first, so the step's peak repeats
            model.zero_grads()
            images = grids = None
            images, grids = sample_batch(batch, cfg, rng)
            try:
                value = train_step(model, images, grids, cfg, lr)
            except DivergedLoss as exc:
                raise DivergedLoss(
                    f"iteration {len(result.losses)}, epoch {epoch}: {exc}"
                ) from exc
            result.losses.append(value)
            result.lrs.append(lr)
            done = len(result.losses)
            if log_every and done % log_every == 0 and progress:
                progress(done, value, lr)
            if cfg.max_iterations and done >= cfg.max_iterations:
                return result
    return result


def loss_curve_csv(result: TrainResult) -> str:
    lines = ["iteration,lr,loss"]
    for i, (lr, loss) in enumerate(zip(result.lrs, result.losses)):
        lines.append(f"{i},{lr:.6g},{loss:.10g}")
    return "\n".join(lines) + "\n"
