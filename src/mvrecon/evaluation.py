"""Evaluation: per-view-count metric tables and the occlusion sweep.

View selection is deterministic (the first k poses of the ring) so the
emitted tables are reproducible.  Volumes come from the model's
``reconstruct_batch``, which runs objects in fixed chunks, so an object's
volume, and its score, do not depend on which other objects are evaluated
with it.  Metrics average per object; a per-category breakdown rides along.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datagen import Dataset, DatasetObject, OCCLUSION_BOX_SIZES, occlude
from .errors import BadConfig, EmptyVolume, TooFewObjects
from .model import MultiViewReconstructor
from .voxels import DEFAULT_THRESHOLD, check_scoring, metric_fscore, metric_iou

DEFAULT_VIEW_COUNTS = (1, 2, 3, 4, 5, 8, 12, 18, 20)


@dataclass
class ViewCountResult:
    view_count: int
    mean_iou: float
    mean_fscore: float
    per_category: dict[str, tuple[float, float]] = field(default_factory=dict)


@dataclass
class OcclusionResult:
    box_size: int
    mean_iou: float
    mean_fscore: float


@dataclass
class EvalReport:
    split: str
    threshold: float
    tau: float
    n_objects: int
    view_counts: list[ViewCountResult] = field(default_factory=list)
    occlusion: list[OcclusionResult] = field(default_factory=list)
    occlusion_views: int = 12

    def result_for(self, view_count: int) -> ViewCountResult:
        for r in self.view_counts:
            if r.view_count == view_count:
                return r
        raise KeyError(view_count)


def reconstruct_objects(model: MultiViewReconstructor, objects: list[DatasetObject],
                        n_views: int, view_transform=None) -> np.ndarray:
    """Reconstruct each object from its first ``n_views`` poses."""
    views = []
    for obj in objects:
        selected = obj.first_views(n_views)
        if view_transform is not None:
            selected = view_transform(obj, selected)
        views.append(selected)
    return model.reconstruct_batch(views)


def _score_objects(objects: list[DatasetObject], volumes: np.ndarray,
                   threshold: float, tau: float):
    ious, fscores, cats = [], [], {}
    for obj, vol in zip(objects, volumes):
        iou = metric_iou(obj.grid >= 0.5, vol, threshold)
        try:
            f = metric_fscore(obj.grid >= 0.5, vol, threshold, tau)
        except EmptyVolume:
            f = 0.0  # degenerate prediction scores zero rather than aborting
        ious.append(iou)
        fscores.append(f)
        cats.setdefault(obj.category, []).append((iou, f))
    per_category = {c: (float(np.mean([x[0] for x in v])),
                        float(np.mean([x[1] for x in v])))
                    for c, v in sorted(cats.items())}
    return float(np.mean(ious)), float(np.mean(fscores)), per_category


def evaluate(model: MultiViewReconstructor, dataset: Dataset, split: str = "test",
             view_counts=DEFAULT_VIEW_COUNTS, threshold: float = DEFAULT_THRESHOLD,
             tau: float | None = None) -> EvalReport:
    check_scoring(threshold, tau)
    objects = dataset.split(split)
    if not objects:
        raise TooFewObjects(f"split {split!r} is empty")
    if tau is None:
        tau = 1.0 / dataset.voxel_side
    report = EvalReport(split, threshold, tau, len(objects))
    for k in view_counts:
        volumes = reconstruct_objects(model, objects, k)
        iou, f, cats = _score_objects(objects, volumes, threshold, tau)
        report.view_counts.append(ViewCountResult(k, iou, f, cats))
    return report


def occlusion_sweep(model: MultiViewReconstructor, dataset: Dataset,
                    sizes=OCCLUSION_BOX_SIZES, split: str = "test",
                    n_views: int = 12, mode: str = "center",
                    threshold: float = DEFAULT_THRESHOLD, tau: float | None = None,
                    seed: int = 0) -> list[OcclusionResult]:
    check_scoring(threshold, tau)
    if min(sizes, default=0) < 0:
        raise BadConfig(f"box size {min(sizes)} is negative")
    objects = dataset.split(split)
    if not objects:
        raise TooFewObjects(f"split {split!r} is empty")
    if tau is None:
        tau = 1.0 / dataset.voxel_side
    results = []
    for box in sizes:
        def blocked(obj, views, _box=box):
            return occlude(views, _box, mode=mode,
                           seed=seed * 100_003 + obj.seed)
        volumes = reconstruct_objects(model, objects, n_views,
                                      view_transform=blocked if box else None)
        iou, f, _ = _score_objects(objects, volumes, threshold, tau)
        results.append(OcclusionResult(box, iou, f))
    return results


# --- report rendering ---

def report_csv(report: EvalReport) -> str:
    lines = ["view_count,category,iou,fscore"]
    for r in report.view_counts:
        lines.append(f"{r.view_count},overall,{r.mean_iou:.6f},{r.mean_fscore:.6f}")
        for cat, (iou, f) in r.per_category.items():
            lines.append(f"{r.view_count},{cat},{iou:.6f},{f:.6f}")
    return "\n".join(lines) + "\n"


def occlusion_csv(results: list[OcclusionResult]) -> str:
    lines = ["box_size,iou,fscore"]
    for r in results:
        lines.append(f"{r.box_size},{r.mean_iou:.6f},{r.mean_fscore:.6f}")
    return "\n".join(lines) + "\n"


def report_markdown(report: EvalReport) -> str:
    counts = [r.view_count for r in report.view_counts]
    head = "| Metric | " + " | ".join(str(c) for c in counts) + " |"
    rule = "|---" * (len(counts) + 1) + "|"
    iou_row = "| IoU | " + " | ".join(f"{r.mean_iou:.3f}"
                                      for r in report.view_counts) + " |"
    f_row = "| F-score | " + " | ".join(f"{r.mean_fscore:.3f}"
                                        for r in report.view_counts) + " |"
    lines = ["### Reconstruction by number of views", "", head, rule, iou_row, f_row]
    if report.occlusion:
        lines += ["", occlusion_markdown(report.occlusion, report.occlusion_views)]
    return "\n".join(lines) + "\n"


def occlusion_markdown(results: list[OcclusionResult], n_views: int = 12) -> str:
    head = ("| Metric | "
            + " | ".join(f"{r.box_size}x{r.box_size}" for r in results) + " |")
    rule = "|---" * (len(results) + 1) + "|"
    iou_row = "| IoU | " + " | ".join(f"{r.mean_iou:.3f}" for r in results) + " |"
    f_row = "| F-score | " + " | ".join(f"{r.mean_fscore:.3f}" for r in results) + " |"
    return "\n".join([f"### {n_views}-view reconstruction under occlusion", "",
                      head, rule, iou_row, f_row])

