import math

import numpy as np
import pytest

from mvrecon import autodiff as ad
from mvrecon.autodiff import Tensor
from mvrecon.config import (
    ENCODER_BLOCKS, IMAGE_CHANNELS, ModelConfig, paper_model_config, tiny_model_config)
from mvrecon.errors import ShapeMismatch
from mvrecon.model import MultiViewReconstructor

from fd import central_diff, rel_err
from modelutil import check_param_grads, erf, naive_conv, random_images, tiny64


def encode(model, images):
    """[B, N, C, H, W] images -> [B, N, feature_width] encoder features."""
    return model.encoder(model.embed(images))


def small_cfg(**overrides):
    base = dict(
        voxel_side=8, image_size=16, embed_dim=8, encoder_layers=1,
        heads=2, backbone_channels=3, refiner_cube=4, refiner_layers=1, dtype="float64",
    )
    base.update(overrides)
    return ModelConfig(**base)


# --- width laws ---

def test_full_scale_width_law():
    cfg = paper_model_config()
    assert cfg.encoder_widths == [768, 384, 192]
    assert cfg.feature_width == 1344


def test_tiny_width_law():
    cfg = tiny_model_config()
    assert cfg.encoder_widths == [32, 16, 8]
    assert cfg.feature_width == 56


@pytest.mark.parametrize("blocks", [ENCODER_BLOCKS])
def test_width_law_deeper_stacks(blocks):
    cfg = tiny_model_config(embed_dim=64, heads=4)
    assert cfg.feature_width == sum(64 >> j for j in range(blocks))
    model = MultiViewReconstructor(cfg, seed=0)
    feats = encode(model, random_images(0, 1, 2, cfg))
    assert feats.shape == (1, 2, cfg.feature_width)


def test_encoded_width_independent_of_view_count():
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=1)
    f1 = encode(model, random_images(1, 1, 1, cfg))
    f8 = encode(model, random_images(2, 1, 8, cfg))
    assert f1.shape[-1] == f8.shape[-1] == 56


def test_single_view_attention_is_finite():
    cfg = small_cfg()
    model = MultiViewReconstructor(cfg, seed=2)
    out, reduced = model.encoder.blocks[0](
        Tensor(np.random.default_rng(0).standard_normal((1, 1, 8))))
    assert out.shape == (1, 1, 8)
    assert reduced.shape == (1, 1, 4)
    assert np.all(np.isfinite(out.data))


def test_view_count_errors():
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=0)
    with pytest.raises(ShapeMismatch, match="25 views exceed limit 24"):
        model.embed(random_images(0, 1, 25, cfg))
    with pytest.raises(ShapeMismatch, match="embed needs at least one view"):
        model.embed(np.zeros((1, 0, 2, 32, 32), dtype=np.float32))


@pytest.mark.parametrize("shape", [(1, 2, 3, 32, 32), (1, 2, 2, 16, 16), (1, 2, 2, 32, 16)],
                         ids=["channels", "side", "non-square"])
def test_encode_rejects_wrong_image_shape(shape):
    model = MultiViewReconstructor(tiny_model_config(), seed=0)
    with pytest.raises(ShapeMismatch, match=r"embed expects \[B, N, 2, 32, 32\]"):
        model.embed(np.zeros(shape, dtype=np.float32))


@pytest.mark.parametrize("shape,match", [
    ((1, 2, 2, 16, 16), r"embed expects \[B, N, 2, 32, 32\]"),
    ((1, 2, 3, 32, 32), r"embed expects \[B, N, 2, 32, 32\]"),
    ((2, 32, 32), r"embed expects \[B, N, 2, 32, 32\]"),
    ((1, 0, 2, 32, 32), "embed needs at least one view"),
    ((1, 25, 2, 32, 32), "25 views exceed limit 24"),
], ids=["side", "channels", "rank", "no-view", "too-many"])
def test_embedding_path_checks_images_like_encode(shape, match):
    # the backbone itself takes any image size; the graph and the no-grad
    # form of the embed stage check the images alike
    model = MultiViewReconstructor(tiny_model_config(), seed=0)
    images = np.zeros(shape, dtype=np.float32)
    for path in (model.forward, model.embed_views):
        with pytest.raises(ShapeMismatch, match=match):
            path(images)
        with pytest.raises(ShapeMismatch, match=match):
            path(list(images))


@pytest.mark.parametrize("shape,match", [
    ((1, 2, 16), r"volumes_from_tokens expects \[B, N, 32\]"),
    ((2, 32), r"volumes_from_tokens expects \[B, N, 32\]"),
    ((1, 0, 32), "volumes_from_tokens needs at least one view"),
    ((1, 25, 32), "25 views exceed limit 24"),
], ids=["width", "rank", "no-view", "too-many"])
def test_volumes_from_tokens_checks_its_tokens(shape, match):
    model = MultiViewReconstructor(tiny_model_config(), seed=0)
    with pytest.raises(ShapeMismatch, match=match):
        model.volumes_from_tokens(np.zeros(shape, dtype=np.float32))


# --- backbone ---

def gelu_np(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)).astype(x.dtype))


def naive_backbone(model, img):
    x = img
    for conv in model.backbone.convs:
        x = gelu_np(naive_conv(x, conv.weight.data, conv.bias.data))
    pooled = x.mean(axis=(1, 2))
    head = model.backbone.head
    return pooled @ head.weight.data + head.bias.data


def embed(model, img):
    """Backbone embedding of one [C, H, W] image."""
    return model.backbone(Tensor(img[None], dtype=model.cfg.np_dtype)).data[0]


def test_zero_image_matches_bias_only_forward():
    cfg = small_cfg()
    model = MultiViewReconstructor(cfg, seed=3)
    img = np.zeros((IMAGE_CHANNELS, cfg.image_size, cfg.image_size))
    got = embed(model, img)
    want = naive_backbone(model, img)
    np.testing.assert_allclose(got, want, atol=1e-12)
    # first stage of a zero [1, H, W, C] image is exactly the bias map
    first = model.backbone.convs[0]
    stage = ad.gelu(first(Tensor(img[None].transpose(0, 2, 3, 1), dtype=np.float64))).data
    np.testing.assert_allclose(
        stage[0], gelu_np(np.broadcast_to(first.bias.data, stage[0].shape)), atol=1e-12)


def test_backbone_matches_naive_conv_oracle():
    cfg = small_cfg()
    model = MultiViewReconstructor(cfg, seed=4)
    img = np.random.default_rng(5).random(
        (IMAGE_CHANNELS, cfg.image_size, cfg.image_size))
    np.testing.assert_allclose(embed(model, img),
                               naive_backbone(model, img), atol=1e-10)


def test_identical_images_identical_embeddings():
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=5)
    img = np.random.default_rng(6).random(
        (IMAGE_CHANNELS, cfg.image_size, cfg.image_size)).astype(np.float32)
    a = embed(model, img)
    b = embed(model, img.copy())
    assert np.array_equal(a, b)


def test_embedding_grad_wrt_input_image():
    cfg = small_cfg()
    model = MultiViewReconstructor(cfg, seed=6)
    img = np.random.default_rng(7).random(
        (IMAGE_CHANNELS, cfg.image_size, cfg.image_size))
    t = Tensor(img[None], requires_grad=True)
    model.backbone(t).sum().backward()

    def forward():
        with ad.no_grad():
            return model.backbone(Tensor(img[None])).sum().item()

    numeric = central_diff(forward, img)
    assert rel_err(t.grad[0], numeric) < 1e-4


# --- permutation behaviour ---

def test_permutation_equivariance_without_positions():
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=7)
    model.encoder.positional.data[...] = 0.0  # x + 0 is bitwise x
    images = random_images(8, 2, 6, cfg)
    feats = encode(model, images).data
    rng = np.random.default_rng(9)
    for _ in range(5):
        perm = rng.permutation(6)
        permuted = encode(model, images[:, perm]).data
        assert np.max(np.abs(permuted - feats[:, perm])) < 1e-5


def test_positions_break_permutation_equivariance():
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=8)
    images = random_images(10, 1, 4, cfg)
    feats = encode(model, images).data
    perm = np.array([1, 0, 3, 2])
    permuted = encode(model, images[:, perm]).data
    assert np.max(np.abs(permuted - feats[:, perm])) > 1e-4


def test_encode_deterministic_bitwise():
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=9)
    images = random_images(11, 1, 3, cfg)
    assert np.array_equal(encode(model, images).data, encode(model, images).data)


# --- gradients through every encoder parameter group ---

def test_encoder_param_grads_vs_fd():
    cfg = tiny64()
    model = MultiViewReconstructor(cfg, seed=10)
    images = random_images(12, 1, 2, cfg)
    head = Tensor(np.random.default_rng(13).standard_normal(
        (1, 2, cfg.feature_width)))
    table = {f"backbone.{n}": p for n, p in model.backbone.named_params()}
    table.update({f"encoder.{n}": p for n, p in model.encoder.named_params()})

    def forward():
        return ad.mul(encode(model, images), head).sum()

    check_param_grads(table, forward, seed=14, entries=2, tol=1e-4)
