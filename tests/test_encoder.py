import math

import numpy as np
import pytest
from scipy.special import erf

from mvrecon import autodiff as ad
from mvrecon.autodiff import Tensor
from mvrecon.config import ModelConfig, paper_model_config, tiny_model_config
from mvrecon.errors import EmptyViewList, TooManyViews, WidthMismatch
from mvrecon.model import MultiViewReconstructor

from fd import central_diff, rel_err
from modelutil import check_param_grads, random_images, tiny64


def small_cfg(**overrides):
    base = dict(
        voxel_side=8, image_size=16, embed_dim=8, encoder_layers=1,
        encoder_heads=2, backbone_stages=2, backbone_channels=3,
        decoder_heads=2, refiner_cubes=(4, 2), refiner_layers=1,
        refiner_heads=(4, 2), dtype="float64",
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


@pytest.mark.parametrize("blocks", [3, 4, 5])
def test_width_law_deeper_stacks(blocks):
    cfg = tiny_model_config(embed_dim=64, encoder_blocks=blocks, encoder_heads=4)
    assert cfg.feature_width == sum(64 >> j for j in range(blocks))
    model = MultiViewReconstructor(cfg, seed=0)
    feats = model.encode(random_images(0, 1, 2, cfg))
    assert feats.shape == (1, 2, cfg.feature_width)


def test_encoded_width_independent_of_view_count():
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=1)
    f1 = model.encode(random_images(1, 1, 1, cfg))
    f8 = model.encode(random_images(2, 1, 8, cfg))
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
    cfg = tiny_model_config(max_views=4)
    model = MultiViewReconstructor(cfg, seed=0)
    with pytest.raises(TooManyViews):
        model.encode(random_images(0, 1, 5, cfg))
    with pytest.raises(EmptyViewList):
        model.encode(np.zeros((1, 0, 2, 32, 32), dtype=np.float32))


# --- backbone ---

def gelu_np(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def naive_conv(x, weight, bias, stride=2, pad=1):
    cin, h, w = x.shape
    cout, _, k, _ = weight.shape
    xp = np.zeros((cin, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    out = np.zeros((cout, oh, ow), dtype=x.dtype)
    for co in range(cout):
        for i in range(oh):
            for j in range(ow):
                patch = xp[:, i * stride:i * stride + k, j * stride:j * stride + k]
                out[co, i, j] = np.sum(patch * weight[co]) + bias[co]
    return out


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
    img = np.zeros((cfg.image_channels, cfg.image_size, cfg.image_size))
    got = embed(model, img)
    want = naive_backbone(model, img)
    np.testing.assert_allclose(got, want, atol=1e-12)
    # first stage of a zero image is exactly the bias map
    first = model.backbone.convs[0]
    stage = ad.gelu(first(Tensor(img[None], dtype=np.float64))).data
    np.testing.assert_allclose(
        stage[0], gelu_np(np.broadcast_to(first.bias.data[:, None, None], stage[0].shape)),
        atol=1e-12)


def test_backbone_matches_naive_conv_oracle():
    cfg = small_cfg()
    model = MultiViewReconstructor(cfg, seed=4)
    img = np.random.default_rng(5).random(
        (cfg.image_channels, cfg.image_size, cfg.image_size))
    np.testing.assert_allclose(embed(model, img),
                               naive_backbone(model, img), atol=1e-10)


def test_identical_images_identical_embeddings():
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=5)
    img = np.random.default_rng(6).random(
        (cfg.image_channels, cfg.image_size, cfg.image_size)).astype(np.float32)
    a = embed(model, img)
    b = embed(model, img.copy())
    assert np.array_equal(a, b)


def test_embedding_grad_wrt_input_image():
    cfg = small_cfg()
    model = MultiViewReconstructor(cfg, seed=6)
    img = np.random.default_rng(7).random(
        (cfg.image_channels, cfg.image_size, cfg.image_size))
    t = Tensor(img[None], requires_grad=True)
    model.backbone(t).sum().backward()

    def forward():
        with ad.no_grad():
            return model.backbone(Tensor(img[None])).sum().item()

    numeric = central_diff(forward, img)
    assert rel_err(t.grad[0], numeric) < 1e-4


# --- permutation behaviour ---

def test_permutation_equivariance_without_positions():
    cfg = tiny_model_config(use_positional_embeddings=False)
    model = MultiViewReconstructor(cfg, seed=7)
    images = random_images(8, 2, 6, cfg)
    feats = model.encode(images).data
    rng = np.random.default_rng(9)
    for _ in range(5):
        perm = rng.permutation(6)
        permuted = model.encode(images[:, perm]).data
        assert np.max(np.abs(permuted - feats[:, perm])) < 1e-5


def test_positions_break_permutation_equivariance():
    cfg = tiny_model_config(use_positional_embeddings=True)
    model = MultiViewReconstructor(cfg, seed=8)
    images = random_images(10, 1, 4, cfg)
    feats = model.encode(images).data
    perm = np.array([1, 0, 3, 2])
    permuted = model.encode(images[:, perm]).data
    assert np.max(np.abs(permuted - feats[:, perm])) > 1e-4


def test_encode_deterministic_bitwise():
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=9)
    images = random_images(11, 1, 3, cfg)
    assert np.array_equal(model.encode(images).data, model.encode(images).data)


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
        return ad.mul(model.encode(images), head).sum()

    check_param_grads(table, forward, seed=14, entries=2, tol=1e-4)
