import numpy as np
import pytest

from mvrecon import autodiff as ad
from mvrecon.autodiff import Tensor
from mvrecon.config import paper_model_config, tiny_model_config
from mvrecon.decoder import VolumeDecoder
from mvrecon.errors import ShapeMismatch
from mvrecon.model import MultiViewReconstructor

from modelutil import check_param_grads, random_images, tiny64


def rand_features(seed, batch, views, width, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((batch, views, width)).astype(dtype))


def test_full_scale_decoder_shape():
    cfg = paper_model_config()
    rng = np.random.default_rng(0)
    dec = VolumeDecoder(rng, cfg)
    assert dec.cube_queries.shape == (512, 1344)
    out = dec(rand_features(1, 1, 2, 1344))
    assert out.shape == (1, 32, 32, 32)


def test_output_strictly_inside_unit_interval():
    cfg = tiny_model_config()
    dec = VolumeDecoder(np.random.default_rng(1), cfg)
    out = dec(rand_features(2, 2, 4, cfg.feature_width)).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_decode_view_permutation_invariance():
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=3)
    model.encoder.positional.data[...] = 0.0  # x + 0 is bitwise x
    images = random_images(4, 1, 6, cfg)
    base = model.forward(images).coarse.data
    rng = np.random.default_rng(5)
    for _ in range(5):
        perm = rng.permutation(6)
        permuted = model.forward(images[:, perm]).coarse.data
        assert np.max(np.abs(permuted - base)) < 1e-5


def test_decode_handles_duplicate_views():
    cfg = tiny_model_config()
    dec = VolumeDecoder(np.random.default_rng(6), cfg)
    f = rand_features(7, 1, 3, cfg.feature_width)
    doubled = ad.concat([f, ad.narrow(f, 1, 0, 1)], axis=1)
    out_plain = dec(f).data
    out_doubled = dec(doubled).data
    assert out_doubled.shape == out_plain.shape
    assert np.all(np.isfinite(out_doubled))
    # attention re-weights, so no equality claim; just a changed result
    assert not np.array_equal(out_plain, out_doubled)


def test_decoder_errors():
    cfg = tiny_model_config()
    dec = VolumeDecoder(np.random.default_rng(8), cfg)
    with pytest.raises(ShapeMismatch, match="matmul: inner extents differ"):
        dec(rand_features(9, 1, 2, cfg.feature_width + 1))


def test_decoder_shape_law():
    for cube, side in ((4, 8), (2, 8), (4, 16)):
        cfg = tiny_model_config(voxel_side=side, decoder_cube=cube,
                                refiner_cubes=(4, 2), decoder_heads=2)
        dec = VolumeDecoder(np.random.default_rng(10), cfg)
        g = cfg.cube_count
        assert side == cube * round(g ** (1 / 3))
        out = dec(rand_features(11, 1, 1, cfg.feature_width))
        assert out.shape == (1, side, side, side)


def test_decoder_query_grads_vs_fd():
    cfg = tiny64()
    dec = VolumeDecoder(np.random.default_rng(12), cfg)
    feats = rand_features(13, 1, 2, cfg.feature_width, dtype=np.float64)
    target = np.random.default_rng(14).random((1, 8, 8, 8))

    def forward():
        diff = ad.sub(dec(feats), Tensor(target))
        return ad.mul(diff, diff).mean()

    table = dict(dec.named_params())
    check_param_grads(table, forward, seed=15, entries=2, tol=1e-4)
