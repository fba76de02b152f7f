import numpy as np
import pytest

from mvrecon import autodiff as ad
from mvrecon.autodiff import Tensor
from mvrecon.config import DECODER_CUBE, paper_model_config, tiny_model_config
from mvrecon.decoder import VolumeDecoder
from mvrecon.errors import ShapeMismatch
from mvrecon.layers import EMBED_STD, MLP_RATIO, Linear
from mvrecon.model import MultiViewReconstructor
from mvrecon.voxels import assemble_tokens

from modelutil import check_param_grads, random_images, seeded_init, tiny64


def rand_features(seed, batch, views, width, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((batch, views, width)).astype(dtype))


def test_full_scale_decoder_shape():
    cfg = paper_model_config()
    dec = VolumeDecoder(seeded_init(0, cfg.np_dtype), cfg)
    assert dec.queries.shape == (512, 1344)
    assert dec.fc1.weight.shape == (1344, 5376)
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

    def decode(images):
        return model.decoder(model.encoder(model.embed(images))).data

    base = decode(images)
    rng = np.random.default_rng(5)
    for _ in range(5):
        perm = rng.permutation(6)
        permuted = decode(images[:, perm])
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
    for side in (8, 16):
        cfg = tiny_model_config(voxel_side=side, heads=2)
        dec = VolumeDecoder(seeded_init(10, cfg.np_dtype), cfg)
        g = cfg.cube_count
        assert side == DECODER_CUBE * round(g ** (1 / 3))
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


def test_decoder_holds_only_what_changes_its_function():
    dec = VolumeDecoder(seeded_init(0), tiny_model_config())
    assert [name for name, _ in dec.named_params()] == [
        "queries", "key", "value",
        "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]


def unfolded_maps(cfg, seed, noise=0.0):
    """The query bank and the maps of the unfolded decoder, drawn in the
    order ``VolumeDecoder`` draws them: query, key, value and output maps,
    then the MLP.  ``noise`` perturbs the bank and every bias."""
    init = seeded_init(seed, cfg.np_dtype)
    width, hidden = cfg.feature_width, cfg.feature_width * MLP_RATIO
    bank = init.gaussian(EMBED_STD, (cfg.cube_count, width))
    shapes = {"q": (width, width), "k": (width, width), "v": (width, width),
              "out": (width, width), "fc1": (width, hidden),
              "fc2": (hidden, DECODER_CUBE ** 3)}
    maps = {name: Linear(init, *shape) for name, shape in shapes.items()}
    rng = np.random.default_rng(seed + 1)
    for p in [bank] + [m.bias for m in maps.values()]:
        p.data += rng.normal(0.0, noise, p.shape)
    return bank, maps


def reference_decode(cfg, bank, maps, features):
    """The unfolded decoder: cross-attention of the projected bank over the
    features with key and value biases and an output map, then the MLP, on
    every cube query."""
    batch = [bank.reshape((1,) + bank.shape)] * features.shape[0]
    queries = maps["q"](ad.concat(batch, axis=0))
    mixed = ad.attention(queries, maps["k"](features), maps["v"](features),
                         cfg.head_count(cfg.feature_width))
    cube_values = ad.sigmoid(maps["fc2"](ad.gelu(maps["fc1"](maps["out"](mixed)))))
    return assemble_tokens(cube_values, DECODER_CUBE, cfg.voxel_side)


def fold(dec, bank, maps):
    """Set ``dec`` to the unfolded maps' function.  The key and value
    weights and fc2 are shared, so both forms put their gradients on them.
    Each head's probabilities sum to 1, so the value bias leaves the
    attention as it came and folds into ``fc1.bias`` with the output bias."""
    q, v, out, fc1 = maps["q"], maps["v"], maps["out"], maps["fc1"]
    dec.queries.data = bank.data @ q.weight.data + q.bias.data
    dec.key, dec.value, dec.fc2 = maps["k"].weight, v.weight, maps["fc2"]
    dec.fc1.weight.data = out.weight.data @ fc1.weight.data
    dec.fc1.bias.data = ((v.bias.data @ out.weight.data + out.bias.data) @ fc1.weight.data
                         + fc1.bias.data)


@pytest.mark.parametrize("seed", [0, 1])
def test_untrained_decoder_is_the_unfolded_form(seed):
    cfg = tiny64()
    dec = VolumeDecoder(seeded_init(seed, cfg.np_dtype), cfg)
    bank, maps = unfolded_maps(cfg, seed)
    assert np.array_equal(dec.key.data, maps["k"].weight.data)
    assert np.array_equal(dec.fc2.weight.data, maps["fc2"].weight.data)
    feats = rand_features(seed + 2, 2, 3, cfg.feature_width, dtype=np.float64)
    want = reference_decode(cfg, bank, maps, feats).data
    np.testing.assert_allclose(dec(feats).data, want, rtol=1e-12, atol=0)


# at 20 views the decoder mixes 4 heads x 20 = 80 value rows, more than
# tiny's 8 cube queries
@pytest.mark.parametrize("views", [2, 20])
def test_decoder_matches_cross_attention_then_mlp(views):
    cfg = tiny64()
    bank, maps = unfolded_maps(cfg, 16, noise=0.5)
    dec = VolumeDecoder(seeded_init(16, cfg.np_dtype), cfg)
    fold(dec, bank, maps)
    rng = np.random.default_rng(17)
    feats = rand_features(18, 2, views, cfg.feature_width, dtype=np.float64)
    feats.requires_grad = True
    weights = Tensor(rng.standard_normal((2,) + (cfg.voxel_side,) * 3))
    shared = {"key": dec.key, "value": dec.value,
              "fc2.weight": dec.fc2.weight, "fc2.bias": dec.fc2.bias}
    results = []
    for decode in (dec, lambda f: reference_decode(cfg, bank, maps, f)):
        for p in [feats] + list(shared.values()):
            p.grad = None
        volume = decode(feats)
        ad.mul(volume, weights).sum().backward()
        results.append((volume.data, feats.grad, {n: p.grad for n, p in shared.items()}))
    (got, got_feats, got_grads), (want, want_feats, want_grads) = results
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    np.testing.assert_allclose(got_feats, want_feats, rtol=1e-9, atol=1e-15)
    for name, g in want_grads.items():
        np.testing.assert_allclose(got_grads[name], g, rtol=1e-9, atol=1e-15, err_msg=name)
