import os
import subprocess
import sys

import numpy as np
import pytest

import mvrecon
from mvrecon.config import tiny_model_config
from mvrecon.datagen import CATEGORIES, build_dataset
from mvrecon.errors import BadConfig, MissingViews, ShapeMismatch, TooFewObjects
from mvrecon.evaluation import (
    DEFAULT_VIEW_COUNTS,
    evaluate,
    occlusion_sweep,
    reconstruct_objects,
    scores_csv,
    scores_markdown,
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
        n = len(views)
        out = [self.volumes[(self.cursor + i) % len(self.volumes)]
               for i in range(n)]
        self.cursor = (self.cursor + n) % len(self.volumes)
        return np.stack(out)


class ConstantStub:
    def __init__(self, value, side):
        self.value = value
        self.side = side

    def reconstruct_batch(self, views):
        return np.full((len(views),) + (self.side,) * 3, self.value,
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
    assert tuple(r.setting for r in report.view_counts) == DEFAULT_VIEW_COUNTS
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
    assert swept[0].mean_iou == plain.view_counts[0].mean_iou
    assert swept[0].mean_fscore == plain.view_counts[0].mean_fscore
    assert swept[0].per_category == plain.view_counts[0].per_category


@pytest.mark.parametrize("kwargs", [
    dict(threshold=float("nan")), dict(threshold=0.0), dict(threshold=1.5),
    dict(threshold=float("inf")), dict(tau=float("nan")), dict(tau=0.0), dict(tau=-1.0),
    dict(tau=float("inf")),
])
def test_scoring_parameters_are_range_checked(dataset, kwargs):
    stub = ConstantStub(0.5, dataset.voxel_side)
    with pytest.raises(BadConfig):
        evaluate(stub, dataset, view_counts=(1,), **kwargs)
    with pytest.raises(BadConfig):
        occlusion_sweep(stub, dataset, sizes=(0,), **kwargs)


def test_occlusion_sweep_rejects_negative_box(dataset):
    stub = ConstantStub(0.5, dataset.voxel_side)
    with pytest.raises(BadConfig, match="box size -5 is negative"):
        occlusion_sweep(stub, dataset, sizes=(-5, 0))


def test_scoring_accepts_a_threshold_of_one(dataset):
    stub = ConstantStub(1.0, dataset.voxel_side)
    report = evaluate(stub, dataset, view_counts=(1,), threshold=1.0, tau=0.5)
    assert report.view_counts[0].n_empty == 0


def test_occlusion_sweep_has_seven_sizes(dataset):
    stub = ConstantStub(0.5, dataset.voxel_side)
    results = occlusion_sweep(stub, dataset)
    assert [r.setting for r in results] == [10, 15, 20, 25, 30, 35, 40]


def test_empty_predictions_are_counted_and_score_zero(dataset):
    stub = ConstantStub(0.0, dataset.voxel_side)
    n_test = len(dataset.split("test"))
    rows = evaluate(stub, dataset, view_counts=(1, 8)).view_counts
    rows += occlusion_sweep(stub, dataset, sizes=(0, 20))
    for r in rows:
        assert r.n_empty == n_test
        assert r.mean_fscore == 0.0 and r.mean_iou == 0.0
    half = evaluate(ConstantStub(0.5, dataset.voxel_side), dataset, view_counts=(1,))
    assert half.view_counts[0].n_empty == 0


def test_report_renderings(dataset):
    stub = ConstantStub(0.5, dataset.voxel_side)
    rows = evaluate(stub, dataset, view_counts=(1, 8)).view_counts
    categories = sorted({o.category for o in dataset.split("test")})
    csv = scores_csv(rows, "view_count").splitlines()
    assert csv[0] == "view_count,category,iou,fscore,n_empty"
    assert csv[1] == f"1,overall,{rows[0].mean_iou:.6f},{rows[0].mean_fscore:.6f},0"
    assert [line.split(",")[1] for line in csv[2:2 + len(categories)]] == categories
    assert csv[2].endswith(",")  # the empty count is only on overall lines
    assert len(csv) == 1 + 2 * (1 + len(categories))
    md = scores_markdown(rows, "Reconstruction by number of views")
    assert md.startswith("### Reconstruction by number of views\n")
    assert "| Metric | 1 | 8 |" in md
    assert "| Empty | 0 | 0 |" in md
    occlusion = occlusion_sweep(stub, dataset, sizes=(10, 40))
    occ_csv = scores_csv(occlusion, "box_size").splitlines()
    assert occ_csv[0] == "box_size,category,iou,fscore,n_empty"
    assert len(occ_csv) == 1 + 2 * (1 + len(categories))
    assert "| Metric | 10x10 | 40x40 |" in scores_markdown(occlusion, "occlusion", "{0}x{0}")


@pytest.fixture(scope="module")
def two_chunks():
    """A tiny model and 12 test objects: one full chunk and one padded."""
    dataset = build_dataset(60, 8, 32, n_views=12)
    objects = dataset.split("test")
    assert len(objects) == 12
    model = MultiViewReconstructor(tiny_model_config(), seed=1)
    return model, objects, reconstruct_objects(model, objects, 12)


@pytest.mark.parametrize("size", [1, 3, 9])
def test_volumes_do_not_depend_on_the_other_objects(two_chunks, size):
    model, objects, whole = two_chunks
    rng = np.random.default_rng(size)
    for _ in range(2):
        pick = rng.permutation(len(objects))[:size]
        volumes = reconstruct_objects(model, [objects[i] for i in pick], 12)
        assert np.array_equal(volumes, whole[pick])


def test_single_reconstruct_matches_evaluated_volume(two_chunks):
    model, objects, whole = two_chunks
    for i in (0, 11):
        grid = model.reconstruct(objects[i].views[:12])
        assert np.array_equal(grid.values, whole[i])


def test_reconstruct_batch_rejects_mixed_view_counts(two_chunks):
    model, objects, _ = two_chunks
    views = [objects[0].views[:3], objects[1].views[:2]]
    with pytest.raises(ShapeMismatch, match="object 1 has views"):
        model.reconstruct_batch(views)


def test_evaluate_does_not_touch_model_params(dataset):
    model = MultiViewReconstructor(tiny_model_config(), seed=4)
    before = [p.data.copy() for p in model.parameters()]
    evaluate(model, dataset, view_counts=(1, 4))
    for prev, p in zip(before, model.parameters()):
        assert np.array_equal(prev, p.data)
        assert p.grad is None


RANDOM_SWEEP = """
from mvrecon.config import TrainConfig, tiny_model_config
from mvrecon.datagen import CATEGORIES, build_dataset
from mvrecon.evaluation import occlusion_sweep
from mvrecon.model import MultiViewReconstructor
from mvrecon.training import train
dataset = build_dataset(15, voxel_side=8, image_size=32, seed=2,
                        categories=CATEGORIES[:3], n_views=12)
model = MultiViewReconstructor(tiny_model_config(), seed=4)
for r in occlusion_sweep(model, dataset, sizes=(20, 40), n_views=8, mode="random"):
    print(repr(r.mean_iou), repr(r.mean_fscore))
cfg = TrainConfig(batch_size=4, views_per_sample=8, max_iterations=2, seed=3)
for loss in train(model, dataset, cfg).losses:
    print(repr(loss))
"""


def test_random_occlusion_does_not_depend_on_hash_seed():
    # the random sweep's two rows, then two training losses
    src = os.path.dirname(os.path.dirname(mvrecon.__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", RANDOM_SWEEP], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]
