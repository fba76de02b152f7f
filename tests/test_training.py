import numpy as np
import pytest

from mvrecon.config import TrainConfig, tiny_model_config
from mvrecon.datagen import build_dataset, CATEGORIES
from mvrecon.errors import DivergedLoss, MissingViews, TooFewObjects
from mvrecon.model import MultiViewReconstructor
from mvrecon.training import (
    data_rng,
    loss_curve_csv,
    sample_batch,
    train,
    train_step,
)


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
    assert result.iterations_run == 5
    assert len(result.losses) == 5
    assert len(result.lrs) == 5
    assert result.rng_state is not None


def test_training_aborts_on_divergence_with_diagnostic(tiny_dataset):
    cfg = make_cfg(epochs=3)
    model = MultiViewReconstructor(cfg.model, seed=2)
    # poison two chained conv stages so the first forward overflows float32
    model.backbone.convs[0].weight.data[:] = np.float32(1e20)
    model.backbone.convs[1].weight.data[:] = np.float32(1e20)
    with pytest.raises(DivergedLoss) as err:
        train(model, tiny_dataset, cfg)
    assert "iteration 0" in str(err.value)


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
