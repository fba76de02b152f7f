import hashlib
import weakref

import numpy as np
import pytest

from mvrecon import autodiff as ad
from mvrecon import training
from mvrecon.config import TrainConfig, tiny_model_config
from mvrecon.datagen import build_dataset, CATEGORIES, levels_to_images
from mvrecon.errors import DivergedLoss, MissingViews, NumericalOverflow, TooFewObjects
from mvrecon.evaluation import evaluate
from mvrecon.model import MultiViewReconstructor
from mvrecon.rollout import attention_rollout
from mvrecon.training import (
    data_rng,
    loss_curve_csv,
    sample_batch,
    train,
    train_step,
)

from modelutil import WEIGHT_FAULTS, traced_tiny_benchmark


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_dataset(12, voxel_side=8, image_size=32, seed=1,
                         categories=CATEGORIES[:3], n_views=8)


def make_cfg(**overrides):
    base = dict(model=tiny_model_config(), batch_size=4, views_per_sample=3,
                epochs=2, seed=0, lr_init=0.01)
    base.update(overrides)
    return TrainConfig(**base)


def test_lr_schedule_paper_milestones():
    cfg = TrainConfig(model=tiny_model_config(), lr_init=0.01,
                      lr_decay_epochs=500, lr_floor=1e-4, epochs=1)
    assert cfg.learning_rate(0) == pytest.approx(0.01)
    assert cfg.learning_rate(499) == pytest.approx(0.01)
    assert cfg.learning_rate(500) == pytest.approx(0.001)
    assert cfg.learning_rate(1000) == pytest.approx(1e-4)
    assert cfg.learning_rate(2500) == pytest.approx(1e-4)  # floored


def test_view_sampling_without_replacement(tiny_dataset):
    cfg = make_cfg(views_per_sample=5)
    rng = data_rng(0)
    objs = tiny_dataset.split("train")[:2]
    images, grids = sample_batch(objs, cfg, rng)
    assert images.shape == (2, 5, 2, 32, 32)
    assert grids.shape == (2, 8, 8, 8)


def test_sample_batch_converts_only_the_picked_views(tiny_dataset, monkeypatch):
    converted = []

    def counting(levels):
        converted.append(levels.shape)
        return levels_to_images(levels)

    monkeypatch.setattr(training, "levels_to_images", counting)
    cfg = make_cfg(views_per_sample=5)
    objs = tiny_dataset.split("train")[:2]
    images, _ = sample_batch(objs, cfg, data_rng(0))
    assert converted == [(2, 5, 2, 32, 32)]
    rng = data_rng(0)
    picked = [rng.choice(len(obj.levels), size=5, replace=False) for obj in objs]
    expected = np.stack([levels_to_images(obj.levels[p]) for obj, p in zip(objs, picked)])
    assert images.dtype == np.float32 and images.tobytes() == expected.tobytes()


def test_view_sampling_missing_views(tiny_dataset):
    # config asks for 9 views, but the rendered objects only carry 8
    cfg = make_cfg(views_per_sample=9)
    with pytest.raises(MissingViews):
        sample_batch(tiny_dataset.split("train")[:1], cfg, data_rng(0))


@pytest.mark.parametrize("seed", range(5))
def test_single_step_decreases_frozen_batch_loss(tiny_dataset, seed):
    cfg = make_cfg(seed=seed, lr_init=1e-2)
    model = MultiViewReconstructor(cfg.model, seed=seed)
    rng = data_rng(seed)
    objs = tiny_dataset.split("train")[:4]
    images, grids = sample_batch(objs, cfg, rng)

    from mvrecon.voxels import loss_total
    before = loss_total(grids, model.forward(images).refined).item()
    train_step(model, images, grids, cfg, lr=cfg.lr_init)
    after = loss_total(grids, model.forward(images).refined).item()
    assert after < before


def test_train_step_frees_old_gradients_before_the_forward(tiny_dataset):
    cfg = make_cfg()
    model = MultiViewReconstructor(cfg.model, seed=0)
    images, grids = sample_batch(tiny_dataset.split("train")[:2], cfg, data_rng(0))
    forward, starts = model.forward, []

    def recording(x):
        starts.append([p.grad is None for p in model.parameters()])
        return forward(x)

    model.forward = recording
    for _ in range(2):
        train_step(model, images, grids, cfg, lr=cfg.lr_init)
        assert all(p.grad is not None for p in model.parameters())
    assert len(starts) == 2 and all(all(s) for s in starts)


def test_train_frees_the_last_step_before_sampling_the_next(tiny_dataset, monkeypatch):
    # No step's gradients or batch are alive while the next step allocates;
    # the last step's gradients stay for the caller.
    cfg = make_cfg(max_iterations=3)
    model = MultiViewReconstructor(cfg.model, seed=0)
    batch, seen = [], []

    def recording(objects, cfg, rng):
        seen.append((all(p.grad is None for p in model.parameters()),
                     [ref() is None for ref in batch]))
        images, grids = sample_batch(objects, cfg, rng)
        batch[:] = [weakref.ref(images), weakref.ref(grids)]
        return images, grids

    monkeypatch.setattr(training, "sample_batch", recording)
    train(model, tiny_dataset, cfg)
    assert seen == [(True, [])] + [(True, [True, True])] * 2
    assert all(p.grad is not None for p in model.parameters())


def test_train_step_graph_keeps_no_scores_or_patches(tiny_dataset, monkeypatch):
    # Every attention score or probability matrix and every conv patch
    # matrix the step could keep, in any of the layouts they take.
    banned = set()
    attention, conv2d, backward = ad.attention, ad.conv2d, ad.backward

    def recording_attention(q, k, v, heads, trace=None):
        banned.add((q.shape[0], heads, q.shape[1], k.shape[1]))
        return attention(q, k, v, heads, trace)

    def recording_conv2d(x, weight, bias, stride, padding):
        y = conv2d(x, weight, bias, stride, padding)
        (bsz, oh, ow, _), (_, ch, k, _) = y.shape, weight.shape
        banned.update({(bsz, oh, ow, k, k, ch), (bsz, oh, ow, k * k * ch),
                       (bsz * oh * ow, k * k * ch)})
        return y

    held = []

    def walking_backward(loss):
        for node in ad._toposort(loss):
            held.append(node.data)
            for cell in getattr(node._vjp, "__closure__", None) or ():
                value = cell.cell_contents
                held.append(value.data if isinstance(value, ad.Tensor) else value)
        backward(loss)

    monkeypatch.setattr(ad, "attention", recording_attention)
    monkeypatch.setattr(ad, "conv2d", recording_conv2d)
    monkeypatch.setattr(ad, "backward", walking_backward)
    cfg = make_cfg()
    model = MultiViewReconstructor(cfg.model, seed=0)
    images, grids = sample_batch(tiny_dataset.split("train")[:2], cfg, data_rng(0))
    train_step(model, images, grids, cfg, lr=cfg.lr_init)
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert len(banned) >= 5 and len(arrays) > 100
    assert not [a.shape for a in arrays if a.shape in banned]


def test_training_deterministic(tiny_dataset):
    curves = []
    for _ in range(2):
        cfg = make_cfg(max_iterations=6)
        model = MultiViewReconstructor(cfg.model, seed=0)
        result = train(model, tiny_dataset, cfg)
        curves.append(result.losses)
    assert curves[0] == curves[1]


def test_training_runs_configured_iterations(tiny_dataset):
    cfg = make_cfg(max_iterations=5, epochs=10)
    model = MultiViewReconstructor(cfg.model, seed=1)
    result = train(model, tiny_dataset, cfg)
    assert len(result.losses) == 5
    assert len(result.lrs) == 5


def test_training_aborts_on_divergence_with_diagnostic(tiny_dataset):
    cfg = make_cfg(epochs=3)
    model = MultiViewReconstructor(cfg.model, seed=2)
    # poison two chained conv stages so the first forward overflows float32
    model.backbone.convs[0].weight.data[:] = np.float32(1e20)
    model.backbone.convs[1].weight.data[:] = np.float32(1e20)
    with pytest.raises(DivergedLoss) as err:
        train(model, tiny_dataset, cfg)
    assert "iteration 0" in str(err.value)


@pytest.mark.parametrize("fault", WEIGHT_FAULTS)
@pytest.mark.parametrize("exit_", ["train", "reconstruct", "evaluate", "rollout"])
def test_a_non_finite_weight_raises_where_the_value_leaves_the_graph(
        tiny_dataset, fault, exit_):
    cfg = make_cfg()
    model = MultiViewReconstructor(cfg.model, seed=2)
    fault(model)
    views = tiny_dataset.objects[0].first_views(3)
    error, run = {
        "train": (DivergedLoss, lambda: train(model, tiny_dataset, cfg)),
        "reconstruct": (NumericalOverflow, lambda: model.reconstruct(views)),
        "evaluate": (NumericalOverflow,
                     lambda: evaluate(model, tiny_dataset, view_counts=(1, 3))),
        "rollout": (NumericalOverflow, lambda: attention_rollout(model, views)),
    }[exit_]
    with pytest.raises(error):
        run()


def test_training_empty_split():
    ds = build_dataset(12, voxel_side=8, image_size=32, seed=1,
                       categories=CATEGORIES[:3], n_views=8)
    for obj in ds.objects:
        obj.split = "test"
    with pytest.raises(TooFewObjects):
        train(MultiViewReconstructor(tiny_model_config(), seed=0), ds, make_cfg())


def test_loss_curve_csv_shape(tiny_dataset):
    cfg = make_cfg(max_iterations=3)
    model = MultiViewReconstructor(cfg.model, seed=3)
    result = train(model, tiny_dataset, cfg)
    text = loss_curve_csv(result)
    lines = text.strip().splitlines()
    assert lines[0] == "iteration,lr,loss"
    assert len(lines) == 4


def test_traced_train_benchmark_times_the_layer_norms():
    # the tracer wraps autodiff.layer_norm by name and passes its arguments
    # through; the norms have no parameters of their own to find them by
    metrics = traced_tiny_benchmark("train-desk")
    assert metrics["autodiff.layer_norm_calls"] > 0
    assert metrics["autodiff.layer_norm_ms"] > 0


def test_three_train_steps_are_pinned(tiny_dataset):
    # the graph, the losses' VJPs and the update in one pin: a change that
    # moves any bit of a train step moves these digests
    cfg = make_cfg(max_iterations=3)
    model = MultiViewReconstructor(cfg.model, seed=0)
    losses = train(model, tiny_dataset, cfg).losses
    weights = hashlib.sha256()
    for name, p in model.named_params():
        weights.update(name.encode())
        weights.update(p.data.tobytes())
    loss_bytes = np.asarray(losses, np.float64).tobytes()
    assert hashlib.sha256(loss_bytes).hexdigest()[:16] == "25a34908d0a48610"
    assert weights.hexdigest()[:16] == "bd083828eb8338aa"
