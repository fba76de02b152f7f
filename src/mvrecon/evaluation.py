"""Evaluation: the view-count table and the occlusion sweep, as ``Score`` rows.

A row holds the mean IoU and F-score at one setting (a view count or a box
size), its count of empty predictions and a per-category breakdown; one loop,
``_scores``, fills both tables.  Views are the first k poses of the ring.

Each distinct view image is embedded once.  Every view count is a prefix of
the same poses, so ``evaluate`` embeds each object's first ``max(view_counts)``
views and reconstructs every count from a prefix of those tokens.
``occlusion_sweep`` embeds the clean views no box replaces once, then, one
box at a time, the views ``occlude`` hits (``OCCLUDED_VIEWS``); a box of 0
leaves them clean, so only it embeds their clean images.  The bits are those
of reconstructing each setting's own views with ``embed_views`` and
``volumes_from_tokens``: each runs passes of one fixed size (``EMBED_CHUNK``
images, ``RECONSTRUCT_CHUNK`` objects), so an image's token does not depend
on the images it shares a pass with, nor an object's volume and score on the
objects evaluated with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datagen import Dataset, DatasetObject, OCCLUDED_VIEWS, OCCLUSION_BOX_SIZES, occlude
from .errors import BadConfig, MissingViews, TooFewObjects
from .model import MultiViewReconstructor
from .voxels import DEFAULT_THRESHOLD, check_scoring, metric_fscore, metric_iou

DEFAULT_VIEW_COUNTS = (1, 2, 3, 4, 5, 8, 12, 18, 20)


@dataclass
class Score:
    setting: int  # the view count or the box size
    mean_iou: float
    mean_fscore: float
    per_category: dict[str, tuple[float, float]]
    n_empty: int  # objects with no voxel at or above the threshold; each scores F = 0


@dataclass
class EvalReport:
    view_counts: list[Score]
    occlusion: list[Score] = field(default_factory=list)

    def result_for(self, view_count: int) -> Score:
        for r in self.view_counts:
            if r.setting == view_count:
                return r
        raise KeyError(view_count)


def reconstruct_objects(model: MultiViewReconstructor, tokens: np.ndarray,
                        n_views: int) -> np.ndarray:
    """Reconstruct each object from the first ``n_views`` of its embedded
    views, ``tokens`` [B, N, embed_dim]."""
    if not 1 <= n_views <= tokens.shape[1]:
        raise MissingViews(f"asked for {n_views} views, the tokens hold {tokens.shape[1]}")
    return model.volumes_from_tokens(tokens[:, :n_views])


def _scored_objects(dataset: Dataset, split: str, threshold: float,
                    tau: float | None) -> list[DatasetObject]:
    check_scoring(threshold, tau)
    objects = dataset.split(split)
    if not objects:
        raise TooFewObjects(f"split {split!r} is empty")
    return objects


def _scores(objects: list[DatasetObject], threshold: float, tau: float | None,
            settings, reconstruct) -> list[Score]:
    """Score the volumes ``reconstruct(setting)`` gives for each setting."""
    rows = []
    for setting in settings:
        ious, fscores, cats, n_empty = [], [], {}, 0
        for obj, vol in zip(objects, reconstruct(setting)):
            iou = metric_iou(obj.grid >= 0.5, vol, threshold)
            f = metric_fscore(obj.grid >= 0.5, vol, threshold, tau)
            n_empty += not np.any(vol >= threshold)
            ious.append(iou)
            fscores.append(f)
            cats.setdefault(obj.category, []).append((iou, f))
        per_category = {c: (float(np.mean([x[0] for x in v])),
                            float(np.mean([x[1] for x in v])))
                        for c, v in sorted(cats.items())}
        rows.append(Score(setting, float(np.mean(ious)), float(np.mean(fscores)),
                          per_category, n_empty))
    return rows


def evaluate(model: MultiViewReconstructor, dataset: Dataset, split: str = "test",
             view_counts=DEFAULT_VIEW_COUNTS, threshold: float = DEFAULT_THRESHOLD,
             tau: float | None = None) -> EvalReport:
    objects = _scored_objects(dataset, split, threshold, tau)
    if not view_counts:
        return EvalReport([])
    tokens = model.embed_views([obj.first_views(max(view_counts)) for obj in objects])
    return EvalReport(_scores(objects, threshold, tau, view_counts,
                              lambda k: reconstruct_objects(model, tokens, k)))


def occlusion_sweep(model: MultiViewReconstructor, dataset: Dataset,
                    sizes=OCCLUSION_BOX_SIZES, split: str = "test",
                    n_views: int = 12, mode: str = "center",
                    threshold: float = DEFAULT_THRESHOLD,
                    tau: float | None = None) -> list[Score]:
    """Score each box size of ``sizes``; a random-mode box is seeded with
    its object's seed."""
    if min(sizes, default=0) < 0:
        raise BadConfig(f"box size {min(sizes)} is negative")
    objects = _scored_objects(dataset, split, threshold, tau)
    if not sizes:
        return []
    clean = [obj.first_views(n_views) for obj in objects]
    hit = np.zeros(n_views, dtype=bool)
    hit[OCCLUDED_VIEWS] = True
    # the views no box replaces, embedded once (a lone view is always hit)
    kept_tokens = model.embed_views([views[~hit] for views in clean]) if not hit.all() else 0

    def occluded(box):
        hit_tokens = model.embed_views(
            [occlude(views, box, mode=mode, seed=obj.seed)[hit]
             for obj, views in zip(objects, clean)])
        tokens = np.empty((len(objects), n_views, hit_tokens.shape[2]), hit_tokens.dtype)
        tokens[:, hit] = hit_tokens
        tokens[:, ~hit] = kept_tokens
        return reconstruct_objects(model, tokens, n_views)

    return _scores(objects, threshold, tau, sizes, occluded)


# --- report rendering ---

def scores_csv(rows: list[Score], setting_name: str) -> str:
    """An overall line per setting, with its empty count, then one per category."""
    lines = [f"{setting_name},category,iou,fscore,n_empty"]
    for r in rows:
        lines.append(f"{r.setting},overall,{r.mean_iou:.6f},{r.mean_fscore:.6f},{r.n_empty}")
        for cat, (iou, f) in r.per_category.items():
            lines.append(f"{r.setting},{cat},{iou:.6f},{f:.6f},")
    return "\n".join(lines) + "\n"


def scores_markdown(rows: list[Score], title: str, label: str = "{}") -> str:
    """A table with one column per setting; ``label`` formats its heading."""
    table = [["Metric"] + [label.format(r.setting) for r in rows], ["---"] * (len(rows) + 1),
             ["IoU"] + [f"{r.mean_iou:.3f}" for r in rows],
             ["F-score"] + [f"{r.mean_fscore:.3f}" for r in rows],
             ["Empty"] + [str(r.n_empty) for r in rows]]
    return f"### {title}\n\n" + "".join("| " + " | ".join(row) + " |\n" for row in table)
