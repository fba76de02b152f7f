import numpy as np
import pytest

from mvrecon import autodiff as ad
from mvrecon.autodiff import Tensor
from mvrecon.config import paper_model_config, tiny_model_config
from mvrecon.decoder import VolumeDecoder
from mvrecon.errors import ShapeMismatch
from mvrecon.model import MultiViewReconstructor
from mvrecon.voxels import assemble_tokens

from modelutil import check_param_grads, random_images, seeded_init, tiny64


def rand_features(seed, batch, views, width, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((batch, views, width)).astype(dtype))


def test_full_scale_decoder_shape():
    cfg = paper_model_config()
    dec = VolumeDecoder(seeded_init(0, cfg.np_dtype), cfg)
    assert dec.cube_queries.shape == (512, 1344)
    out = dec(rand_features(1, 1, 2, 1344))
    assert out.shape == (1, 32, 32, 32)


def test_output_strictly_inside_unit_interval():
    cfg = tiny_model_config()
    dec = VolumeDecoder(seeded_init(1, cfg.np_dtype), cfg)
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
    dec = VolumeDecoder(seeded_init(6, cfg.np_dtype), cfg)
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
    dec = VolumeDecoder(seeded_init(8, cfg.np_dtype), cfg)
    with pytest.raises(ShapeMismatch, match="matmul: inner extents differ"):
        dec(rand_features(9, 1, 2, cfg.feature_width + 1))


def test_decoder_shape_law():
    for cube, side in ((4, 8), (2, 8), (4, 16)):
        cfg = tiny_model_config(voxel_side=side, decoder_cube=cube,
                                refiner_cubes=(4, 2), decoder_heads=2)
        dec = VolumeDecoder(seeded_init(10, cfg.np_dtype), cfg)
        g = cfg.cube_count
        assert side == cube * round(g ** (1 / 3))
        out = dec(rand_features(11, 1, 1, cfg.feature_width))
        assert out.shape == (1, side, side, side)


def test_decoder_query_grads_vs_fd():
    cfg = tiny64()
    dec = VolumeDecoder(seeded_init(12, cfg.np_dtype), cfg)
    feats = rand_features(13, 1, 2, cfg.feature_width, dtype=np.float64)
    target = np.random.default_rng(14).random((1, 8, 8, 8))

    def forward():
        diff = ad.sub(dec(feats), Tensor(target))
        return ad.mul(diff, diff).mean()

    table = dict(dec.named_params())
    check_param_grads(table, forward, seed=15, entries=2, tol=1e-4)


def reference_decode(dec, features):
    """The decoder as plain cross-attention then MLP on every cube query."""
    attn, cfg = dec.attn, dec.cfg
    queries = dec.cube_queries.expand((features.shape[0],) + dec.cube_queries.shape)
    mixed = ad.attention(attn.q(queries), attn.k(features), attn.v(features), attn.heads)
    cube_values = ad.sigmoid(dec.mlp(attn.out(mixed)))
    return assemble_tokens(cube_values, cfg.decoder_cube, cfg.voxel_side)


# at 20 views the decoder mixes 4 heads x 20 = 80 value rows, more than
# tiny's 8 cube queries
@pytest.mark.parametrize("views", [2, 20])
def test_decoder_matches_cross_attention_then_mlp(views):
    cfg = tiny64()
    dec = VolumeDecoder(seeded_init(16, cfg.np_dtype), cfg)
    rng = np.random.default_rng(17)
    for p in dec.parameters():  # non-zero biases, so the out-bias fold is tested
        p.data += rng.normal(0.0, 0.05, p.shape)
    feats = rand_features(18, 2, views, cfg.feature_width, dtype=np.float64)
    feats.requires_grad = True
    weights = Tensor(rng.standard_normal((2,) + (cfg.voxel_side,) * 3))
    results = []
    for decode in (dec, lambda f: reference_decode(dec, f)):
        dec.zero_grads()
        feats.grad = None
        volume = decode(feats)
        ad.mul(volume, weights).sum().backward()
        grads = {name: p.grad for name, p in dec.named_params()}
        results.append((volume.data, feats.grad, grads))
    (got, got_feats, got_grads), (want, want_feats, want_grads) = results
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    np.testing.assert_allclose(got_feats, want_feats, rtol=1e-9, atol=1e-15)
    for name, g in want_grads.items():
        # the key bias shifts every score of a query row alike, so its true
        # gradient is 0 and both sides hold round-off
        atol = 1e-12 if name == "attn.k.bias" else 1e-15
        np.testing.assert_allclose(got_grads[name], g, rtol=1e-9, atol=atol, err_msg=name)
