import os
import subprocess
import sys

import numpy as np
import pytest

import mvrecon
from mvrecon.config import tiny_model_config
from mvrecon.datagen import CATEGORIES, build_dataset
from mvrecon.errors import MissingViews, TooFewObjects
from mvrecon.evaluation import (
    DEFAULT_VIEW_COUNTS,
    evaluate,
    occlusion_csv,
    occlusion_markdown,
    occlusion_sweep,
    report_csv,
    report_markdown,
)
from mvrecon.model import MultiViewReconstructor


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(15, voxel_side=8, image_size=32, seed=2,
                         categories=CATEGORIES[:3], n_views=24)


class CyclingStub:
    """Returns prepared volumes for objects visited in evaluation order."""

    def __init__(self, volumes):
        self.volumes = volumes
        self.cursor = 0

    def reconstruct_batch(self, views):
        n = views.shape[0]
        out = [self.volumes[(self.cursor + i) % len(self.volumes)]
               for i in range(n)]
        self.cursor = (self.cursor + n) % len(self.volumes)
        return np.stack(out)


class ConstantStub:
    def __init__(self, value, side):
        self.value = value
        self.side = side

    def reconstruct_batch(self, views):
        return np.full((views.shape[0],) + (self.side,) * 3, self.value,
                       dtype=np.float32)


def test_perfect_model_scores_one(dataset):
    objs = dataset.split("test")
    stub = CyclingStub([o.grid * 0.99 for o in objs])
    report = evaluate(stub, dataset, view_counts=(1, 8, 20))
    for r in report.view_counts:
        assert r.mean_iou == 1.0
        assert r.mean_fscore == 1.0


def test_constant_half_model_matches_enumeration(dataset):
    objs = dataset.split("test")[:5]
    ds_small = type(dataset)(dataset.voxel_side, dataset.image_size,
                             dataset.n_views, dataset.elevation_deg, objs)
    stub = ConstantStub(0.5, dataset.voxel_side)
    report = evaluate(stub, ds_small, view_counts=(1,), threshold=0.3)
    expected = []
    for obj in objs:
        occupied = 0
        v = dataset.voxel_side
        for x in range(v):
            for y in range(v):
                for z in range(v):
                    occupied += obj.grid[x, y, z] >= 0.5
        expected.append(occupied / v ** 3)  # prediction fills the whole grid
    assert report.view_counts[0].mean_iou == pytest.approx(np.mean(expected))


def test_report_columns_match_reference(dataset):
    stub = ConstantStub(0.5, dataset.voxel_side)
    report = evaluate(stub, dataset)
    assert tuple(r.view_count for r in report.view_counts) == DEFAULT_VIEW_COUNTS
    assert DEFAULT_VIEW_COUNTS == (1, 2, 3, 4, 5, 8, 12, 18, 20)


def test_per_category_breakdown(dataset):
    objs = dataset.split("test")
    stub = CyclingStub([o.grid * 0.9 for o in objs])
    report = evaluate(stub, dataset, view_counts=(4,))
    cats = report.view_counts[0].per_category
    assert set(cats) == {o.category for o in objs}
    for iou, f in cats.values():
        assert iou == 1.0 and f == 1.0


def test_missing_views_error(dataset):
    stub = ConstantStub(0.5, dataset.voxel_side)
    with pytest.raises(MissingViews):
        evaluate(stub, dataset, view_counts=(25,))


def test_empty_split_error(dataset):
    ds_empty = type(dataset)(dataset.voxel_side, dataset.image_size,
                             dataset.n_views, dataset.elevation_deg,
                             [o for o in dataset.objects if o.split == "train"])
    stub = ConstantStub(0.5, dataset.voxel_side)
    with pytest.raises(TooFewObjects):
        evaluate(stub, ds_empty)


def test_occlusion_sweep_zero_box_equals_plain(dataset):
    model = MultiViewReconstructor(tiny_model_config(), seed=0)
    plain = evaluate(model, dataset, view_counts=(12,))
    swept = occlusion_sweep(model, dataset, sizes=(0,), n_views=12)
    assert swept[0].mean_iou == pytest.approx(plain.view_counts[0].mean_iou)
    assert swept[0].mean_fscore == pytest.approx(plain.view_counts[0].mean_fscore)


def test_occlusion_sweep_has_seven_sizes(dataset):
    stub = ConstantStub(0.5, dataset.voxel_side)
    results = occlusion_sweep(stub, dataset)
    assert [r.box_size for r in results] == [10, 15, 20, 25, 30, 35, 40]


def test_report_renderings(dataset):
    stub = ConstantStub(0.5, dataset.voxel_side)
    report = evaluate(stub, dataset, view_counts=(1, 8))
    report.occlusion = occlusion_sweep(stub, dataset, sizes=(10, 40))
    csv = report_csv(report)
    assert csv.splitlines()[0] == "view_count,category,iou,fscore"
    assert any(line.startswith("8,overall,") for line in csv.splitlines())
    md = report_markdown(report)
    assert "| Metric | 1 | 8 |" in md
    assert "10x10" in md
    occ_csv = occlusion_csv(report.occlusion)
    assert occ_csv.splitlines()[0] == "box_size,iou,fscore"
    assert len(occ_csv.strip().splitlines()) == 3


def test_evaluate_does_not_touch_model_params(dataset):
    model = MultiViewReconstructor(tiny_model_config(), seed=4)
    before = [p.data.copy() for p in model.parameters()]
    evaluate(model, dataset, view_counts=(1, 4))
    for prev, p in zip(before, model.parameters()):
        assert np.array_equal(prev, p.data)
        assert p.grad is None


RANDOM_SWEEP = """
from mvrecon.config import tiny_model_config
from mvrecon.datagen import CATEGORIES, build_dataset
from mvrecon.evaluation import occlusion_sweep
from mvrecon.model import MultiViewReconstructor
dataset = build_dataset(15, voxel_side=8, image_size=32, seed=2,
                        categories=CATEGORIES[:3], n_views=12)
model = MultiViewReconstructor(tiny_model_config(), seed=4)
for r in occlusion_sweep(model, dataset, sizes=(20, 40), n_views=8, mode="random"):
    print(repr(r.mean_iou), repr(r.mean_fscore))
"""


def test_random_occlusion_does_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(mvrecon.__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", RANDOM_SWEEP], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
