import os
import subprocess
import sys

import numpy as np
import pytest

import mvrecon
from mvrecon.config import tiny_model_config
from mvrecon.datagen import (
    CATEGORIES,
    OCCLUDED_VIEWS,
    OCCLUSION_BOX_SIZES,
    build_dataset,
    occlude,
)
from mvrecon.encoder import ViewBackbone
from mvrecon.errors import BadConfig, MissingViews, ShapeMismatch, TooFewObjects
from mvrecon.evaluation import (
    DEFAULT_VIEW_COUNTS,
    EvalReport,
    evaluate,
    occlusion_sweep,
    reconstruct_objects,
    scores_csv,
    scores_markdown,
)
from mvrecon.model import EMBED_CHUNK, MultiViewReconstructor

from modelutil import traced_tiny_benchmark


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(15, voxel_side=8, image_size=32, seed=2,
                         categories=CATEGORIES[:3], n_views=24)


class Stub:
    """Embeds each view as one zero; subclasses make volumes from the tokens."""

    def embed_views(self, views):
        return np.zeros((len(views), len(views[0]), 1), dtype=np.float32)


class CyclingStub(Stub):
    """Returns prepared volumes for objects visited in evaluation order."""

    def __init__(self, volumes):
        self.volumes = volumes
        self.cursor = 0

    def volumes_from_tokens(self, tokens):
        n = len(tokens)
        out = [self.volumes[(self.cursor + i) % len(self.volumes)]
               for i in range(n)]
        self.cursor = (self.cursor + n) % len(self.volumes)
        return np.stack(out)


class ConstantStub(Stub):
    def __init__(self, value, side):
        self.value = value
        self.side = side

    def volumes_from_tokens(self, tokens):
        return np.full((len(tokens),) + (self.side,) * 3, self.value,
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


def test_given_tokens_are_checked_without_converting_a_view(dataset):
    # reconstruct_objects takes tokens only, so it has no view to convert
    model = MultiViewReconstructor(tiny_model_config(), seed=0)
    tokens = model.embed_views([obj.first_views(24) for obj in dataset.split("test")[:2]])
    assert reconstruct_objects(model, tokens, 3).shape == (2, 8, 8, 8)
    for n_views in (25, 0, -1):
        with pytest.raises(MissingViews, match=f"asked for {n_views} views, the tokens hold 24"):
            reconstruct_objects(model, tokens, n_views)


def test_no_setting_embeds_nothing_and_scores_no_row(dataset, embedded_images):
    stub = ConstantStub(0.5, dataset.voxel_side)
    embedded = []
    stub.embed_views = embedded.append
    assert evaluate(stub, dataset, view_counts=()) == EvalReport([])
    assert embedded == []
    model = MultiViewReconstructor(tiny_model_config(), seed=0)
    assert occlusion_sweep(model, dataset, sizes=(), n_views=12) == []
    assert embedded_images == []  # no backbone pass


@pytest.mark.parametrize("view_counts", [(-1, 8), (0,)])
def test_every_view_count_is_checked_before_tokens_are_sliced(dataset, view_counts):
    # a bare tokens[:, :-1] would score 7 of 8 views without a word
    with pytest.raises(MissingViews, match=f"asked for {view_counts[0]} views"):
        evaluate(ConstantStub(0.5, dataset.voxel_side), dataset, view_counts=view_counts)


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


def own_volumes(model, views):
    """The volumes of reconstructing ``views``, one [N, C, H, W] array per
    object, all at once."""
    return model.volumes_from_tokens(model.embed_views(views))


@pytest.fixture(scope="module")
def two_chunks():
    """A tiny model and 12 test objects: one full chunk and one padded."""
    dataset = build_dataset(60, 8, 32, n_views=12)
    objects = dataset.split("test")
    assert len(objects) == 12
    model = MultiViewReconstructor(tiny_model_config(), seed=1)
    return model, objects, own_volumes(model, [obj.first_views(12) for obj in objects])


@pytest.mark.parametrize("size", [1, 3, 9])
def test_volumes_do_not_depend_on_the_other_objects(two_chunks, size):
    model, objects, whole = two_chunks
    rng = np.random.default_rng(size)
    for _ in range(2):
        pick = rng.permutation(len(objects))[:size]
        volumes = own_volumes(model, [objects[i].first_views(12) for i in pick])
        assert np.array_equal(volumes, whole[pick])


def test_single_reconstruct_matches_evaluated_volume(two_chunks):
    model, objects, whole = two_chunks
    for i in (0, 11):
        grid = model.reconstruct(objects[i].views[:12])
        assert np.array_equal(grid.values, whole[i])


def test_embed_views_rejects_mixed_view_counts(two_chunks):
    model, objects, _ = two_chunks
    views = [objects[0].views[:3], objects[1].views[:2]]
    with pytest.raises(ShapeMismatch, match="object 1 has views"):
        model.embed_views(views)


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


# --- each view image is embedded once ---

class Recorder:
    """The model, keeping every volume batch the evaluation scores."""

    def __init__(self, model):
        self.model = model
        self.volumes = []

    def embed_views(self, views):
        return self.model.embed_views(views)

    def volumes_from_tokens(self, tokens):
        self.volumes.append(self.model.volumes_from_tokens(tokens))
        return self.volumes[-1]


@pytest.fixture(scope="module")
def twenty_views():
    """The tiny preset, whose second conv stage rounds differently with the
    number of images in a pass, and 12 test objects with 20 views each."""
    dataset = build_dataset(60, 8, 32, seed=5, n_views=20)
    assert len(dataset.split("test")) == 12
    return MultiViewReconstructor(tiny_model_config(), seed=2), dataset


def test_view_counts_from_one_embedding_match_their_own_views_bitwise(twenty_views):
    model, dataset = twenty_views
    objects = dataset.split("test")
    recorder = Recorder(model)
    rows = evaluate(recorder, dataset).view_counts
    assert len(recorder.volumes) == len(DEFAULT_VIEW_COUNTS)
    for k, volumes, row in zip(DEFAULT_VIEW_COUNTS, recorder.volumes, rows):
        own = own_volumes(model, [obj.first_views(k) for obj in objects])
        assert np.array_equal(volumes, own), k
        assert row == evaluate(model, dataset, view_counts=(k,)).view_counts[0]


@pytest.mark.parametrize("mode", ["center", "random"])
def test_occlusion_from_reembedded_hit_views_matches_bitwise(twenty_views, mode):
    model, dataset = twenty_views
    objects = dataset.split("test")
    recorder = Recorder(model)
    rows = occlusion_sweep(recorder, dataset, sizes=(0, 10, 40), n_views=12, mode=mode)
    for box, volumes, row in zip((0, 10, 40), recorder.volumes, rows):
        # the sweep's seed 0 gives each object its own seed
        own = own_volumes(model, [occlude(obj.first_views(12), box, mode=mode,
                                          seed=obj.seed) for obj in objects])
        assert np.array_equal(volumes, own), box
        assert row == occlusion_sweep(model, dataset, sizes=(box,), n_views=12, mode=mode)[0]


@pytest.fixture()
def embedded_images(monkeypatch):
    """The number of images each backbone pass is handed, padding included."""
    counts = []
    backbone = ViewBackbone.__call__

    def counting(self, images):
        counts.append(images.shape[0])
        return backbone(self, images)

    monkeypatch.setattr(ViewBackbone, "__call__", counting)
    return counts


def test_each_view_image_is_embedded_once(embedded_images):
    # the eval-desk benchmark op at tiny size: 8 test objects, the default
    # view counts, then the centre sweep at 12 views
    dataset = build_dataset(40, 8, 32, seed=1)
    n_test = len(dataset.split("test"))
    assert n_test == 8
    model = MultiViewReconstructor(tiny_model_config(), seed=0)
    evaluate(model, dataset)
    assert sum(embedded_images) == 20 * n_test
    embedded_images.clear()
    occlusion_sweep(model, dataset, n_views=12)
    hit = len(range(12)[OCCLUDED_VIEWS])
    assert hit == 6
    # the views no box hits once, then each box's hit views; no box is 0
    assert sum(embedded_images) == (12 - hit + len(OCCLUSION_BOX_SIZES) * hit) * n_test
    assert set(embedded_images) == {EMBED_CHUNK}


@pytest.mark.parametrize("n_views", [1, 12, 16, 20])
def test_one_object_embeds_its_views_in_whole_passes(embedded_images, n_views):
    model = MultiViewReconstructor(tiny_model_config(), seed=0)
    views = np.zeros((n_views, 2, 32, 32), dtype=np.float32)
    model.reconstruct(views)
    assert sum(embedded_images) == -(-n_views // EMBED_CHUNK) * EMBED_CHUNK


def test_traced_eval_benchmark_finds_every_span():
    # the tracer wraps evaluation.reconstruct_objects, evaluation.occlude,
    # the metrics, ViewBackbone.__call__ and MultiViewReconstructor.forward
    # by name; a missing one fails the run
    metrics = traced_tiny_benchmark("eval-desk")
    for name in ("evaluation.reconstruct_ms", "datagen.occlude_ms", "voxels.iou_ms",
                 "voxels.fscore_ms", "encoder.backbone_ms"):
        assert metrics[name] > 0, name
