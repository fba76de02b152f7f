"""The parameter registry that ``Module.named_params`` walks."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from mvrecon import autodiff as ad
from mvrecon import decoder, encoder, layers, refiner
from mvrecon.autodiff import Tensor
from mvrecon.checkpoint import checkpoint_bytes, load_checkpoint_bytes
from mvrecon.config import desk_model_config, paper_model_config, tiny_model_config
from mvrecon.layers import Init, Linear
from mvrecon.model import MultiViewReconstructor
from mvrecon.voxels import loss_total

from modelutil import random_images, seeded_init, tiny64


def names_of(module):
    return [name for name, _ in module.named_params()]


@pytest.mark.parametrize("make,count", [(tiny_model_config, 185_860),
                                        (desk_model_config, 7_037_104)], ids=["tiny", "desk"])
def test_registry_names_and_counts(make, count):
    net = MultiViewReconstructor(make(), seed=0)
    names = names_of(net)
    assert len(names) == len(set(names)) == 130
    assert net.num_params() == count
    assert names[0] == "backbone.convs.0.weight"
    assert names[names.index("encoder.blocks.0.layers.1.attn.q.weight"):][:5] == [
        "encoder.blocks.0.layers.1.attn.q.weight", "encoder.blocks.0.layers.1.attn.q.bias",
        "encoder.blocks.0.layers.1.attn.k", "encoder.blocks.0.layers.1.attn.v",
        "encoder.blocks.0.layers.1.attn.out.weight"]
    assert names[-1] == "refiner.blocks.1.proj_out.bias"


def weight_digest(module, skip: str = "") -> str:
    """sha256 over each parameter's name and then its bytes, in order,
    leaving out the names that start with ``skip`` when it is given."""
    h = hashlib.sha256()
    for name, p in module.named_params():
        if not (skip and name.startswith(skip)):
            h.update(name.encode())
            h.update(p.data.tobytes())
    return h.hexdigest()[:16]


# The learning gate's numbers rest on these initial weights.  The second
# digest leaves out the decoder, so it shows that a change to the decoder's
# own weights kept every other weight's bits.  The paper preset, seed 0,
# gives 903c2a89974cda2f and 20d83ed81b3f74e6; it is too slow to build on
# every run.  The ids leave the digests out, so new pins keep the names.
# Dropping a bias or a norm's gain and bias left these digests equal to the
# old weights' over the names that remain, so every kept weight has its old
# bits.
@pytest.mark.parametrize("make,seed,digest,outside_decoder", [
    pytest.param(tiny_model_config, 0, "4f27e5fcbe56113e", "f4d6521892c47666", id="tiny-0"),
    pytest.param(tiny_model_config, 1, "0bb2594e235696e3", "5be4bb711603599c", id="tiny-1"),
    pytest.param(tiny_model_config, 2, "1b2a725814ec0074", "63ff46ed7fcc0ca8", id="tiny-2"),
    pytest.param(desk_model_config, 0, "ffff2896785d2e9b", "734f618bc80a0dbe", id="desk-0"),
    pytest.param(desk_model_config, 1, "7d0eed9635ba61aa", "801d49c80a994540", id="desk-1"),
    pytest.param(desk_model_config, 2, "326055d18acd2be8", "b7c4a2e423643722", id="desk-2"),
    pytest.param(lambda: tiny_model_config(dtype="float64"), 0, "be48d31ceb6593a9",
                 "26bbb697d8d1b44e", id="tiny_float64-0"),
    pytest.param(lambda: desk_model_config(dtype="float64"), 0, "fb0075ac19c8b46a",
                 "8b7a1e53dcd4976d", id="desk_float64-0"),
])
def test_initial_weights_are_pinned(make, seed, digest, outside_decoder):
    net = MultiViewReconstructor(make(), seed=seed)
    assert weight_digest(net, skip="decoder.") == outside_decoder
    assert weight_digest(net) == digest


def test_untrained_refined_volume_is_pinned():
    # the untrained function the learning gate starts from; dropping a bias
    # that is zero at init left every bit of it
    cfg = tiny_model_config()
    volume = MultiViewReconstructor(cfg, seed=0).forward(random_images(0, 2, 5, cfg)).refined
    assert hashlib.sha256(volume.data.tobytes()).hexdigest()[:16] == "548df9293aabbe24"


def test_untrained_no_grad_volumes_are_pinned():
    # the no-grad form of the same function: 45 images cross an embed pass
    # and 9 objects cross a decode pass
    net = MultiViewReconstructor(tiny_model_config(), seed=0)
    volumes = net.volumes_from_tokens(net.embed_views(random_images(0, 9, 5, net.cfg)))
    assert hashlib.sha256(volumes.tobytes()).hexdigest()[:16] == "551b98f9ed9fb496"


@pytest.mark.parametrize("make", [tiny_model_config, desk_model_config], ids=["tiny", "desk"])
@pytest.mark.parametrize("objects,views", [(1, 1), (3, 5), (9, 8)])
def test_forward_and_the_no_grad_forms_agree(make, objects, views):
    # they differ only in the GEMM shapes the padded passes give
    net = MultiViewReconstructor(make(), seed=0)
    images = random_images(objects, objects, views, net.cfg)
    with ad.no_grad():
        graph = net.forward(images).refined.data
    no_grad = net.volumes_from_tokens(net.embed_views(images))
    assert np.max(np.abs(graph - no_grad)) <= 1e-5


def test_every_parameter_changes_the_loss():
    # a tensor whose gradient is zero up to round-off changes nothing the
    # model computes: a key bias read 1e-18 here, and the smallest gradient
    # of a kept tensor, the last encoder layer's attn.k, reads 1.2e-7
    cfg = tiny64()
    net = MultiViewReconstructor(cfg, seed=0)
    targets = (np.random.default_rng(1).random((2,) + (cfg.voxel_side,) * 3) < 0.3) * 1.0
    loss_total(targets, net.forward(random_images(2, 2, 5, cfg)).refined).backward()
    dead = [name for name, p in net.named_params()
            if p.grad is None or np.max(np.abs(p.grad)) <= 1e-12]
    assert dead == []


class WithBiases:
    """``autodiff`` with a bias added to every product by a weight that
    ``biases`` maps to one: the model as it was with a bias on every map."""

    def __init__(self, biases: dict):
        self.biases = biases

    def __getattr__(self, name):
        return getattr(ad, name)

    def matmul(self, a, b, bias=None):
        return ad.matmul(a, b, self.biases.get(b, bias))


def test_pruned_model_with_the_folds_is_the_form_with_every_bias(monkeypatch):
    cfg = tiny64()
    net = MultiViewReconstructor(cfg, seed=0)
    rng = np.random.default_rng(3)
    attention = [layer.attn for block in net.encoder.blocks + net.refiner.blocks
                 for layer in block.layers]
    weights = ([a.k for a in attention] + [a.v for a in attention] + [net.decoder.value]
               + [block.proj_in for block in net.refiner.blocks])
    biases = {w: Tensor(rng.standard_normal(w.shape[1])) for w in weights}
    images = random_images(4, 2, 3, cfg)
    loss_weights = Tensor(rng.standard_normal((2,) + (cfg.voxel_side,) * 3))

    def run():
        net.zero_grads()
        volume = net.forward(images).refined
        ad.mul(volume, loss_weights).sum().backward()
        return volume.data, {p: p.grad for p in net.parameters()}

    with monkeypatch.context() as m:
        for module in (layers, decoder, refiner):
            m.setattr(module, "ad", WithBiases(biases))
        want, want_grads = run()
    assert np.max(np.abs(run()[0] - want)) > 1e-3  # the biases change the function...
    # ...and fold: the softmax cancels a key bias, and the probabilities,
    # which sum to 1, carry a value bias to out.bias or fc1.bias
    carried = [(a.v, a.out) for a in attention] + [(net.decoder.value, net.decoder.fc1)]
    for value, linear in carried:
        linear.bias.data += biases[value].data @ linear.weight.data
    for block in net.refiner.blocks:
        block.positional.data += biases[block.proj_in].data
    got, got_grads = run()
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    # a weight the value bias went through had it in its input, so its
    # gradient also held the bias times that of the weight's own bias
    for value, linear in carried:
        got_grads[linear.weight] += np.outer(biases[value].data, got_grads[linear.bias])
    for name, p in net.named_params():
        np.testing.assert_allclose(got_grads[p], want_grads[p], rtol=1e-9, atol=1e-15,
                                   err_msg=name)


class WithNormAffine:
    """``autodiff`` with a gain and bias on every layer norm, one pair per
    width in ``affine``: the model as it was with affine norms."""

    def __init__(self, affine: dict):
        self.affine = affine

    def __getattr__(self, name):
        return getattr(ad, name)

    def layer_norm(self, a):
        gain, bias = self.affine[a.shape[-1]]
        return ad.add(ad.mul(ad.layer_norm(a), gain), bias)


def fold_norm(weight, gain, bias):
    """Scale ``weight``'s rows by a norm's gain; returns the norm's bias
    through the old weight, the bias the affine-free map no longer adds."""
    shifted = bias.data @ weight.data
    weight.data = gain.data[:, None] * weight.data
    return shifted


def test_affine_free_norms_with_the_folds_are_the_affine_form(monkeypatch):
    cfg = tiny64()
    net = MultiViewReconstructor(cfg, seed=0)
    attention = [layer for block in net.encoder.blocks + net.refiner.blocks
                 for layer in block.layers]
    rng = np.random.default_rng(5)
    affine = {w: (Tensor(1.0 + 0.5 * rng.standard_normal(w)), Tensor(rng.standard_normal(w)))
              for w in sorted({layer.attn.k.shape[0] for layer in attention}
                              | {cfg.feature_width})}
    images = random_images(6, 2, 3, cfg)
    with monkeypatch.context() as m:
        for module in (layers, encoder):
            m.setattr(module, "ad", WithNormAffine(affine))
        want = net.forward(images).refined.data
    assert np.max(np.abs(net.forward(images).refined.data - want)) > 1e-3  # the affine counts
    # each norm feeds only linear maps: its gain scales their rows; its bias
    # through a key map is a key bias the softmax cancels, and through the
    # others a constant that q.bias, out.bias or fc1.bias takes up
    for layer in attention:
        attn, (gain, bias) = layer.attn, affine[layer.attn.k.shape[0]]
        attn.q.bias.data += fold_norm(attn.q.weight, gain, bias)
        fold_norm(attn.k, gain, bias)
        attn.out.bias.data += fold_norm(attn.v, gain, bias) @ attn.out.weight.data
        layer.mlp.fc1.bias.data += fold_norm(layer.mlp.fc1.weight, gain, bias)
    dec, (gain, bias) = net.decoder, affine[cfg.feature_width]
    fold_norm(dec.key, gain, bias)
    dec.fc1.bias.data += fold_norm(dec.value, gain, bias) @ dec.fc1.weight.data
    np.testing.assert_allclose(net.forward(images).refined.data, want, rtol=1e-9, atol=0)


def test_layers_take_an_init_not_a_generator():
    # Generator.normal(std, shape) would build a wrong weight without a word
    with pytest.raises(AttributeError, match="gaussian"):
        Linear(np.random.default_rng(0), 4, 5)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_seed_none_draws_nothing_and_zeroes_the_drawn_weights(dtype, monkeypatch):
    drawn = MultiViewReconstructor(tiny_model_config(dtype=dtype), seed=0)

    def no_generator(*args, **kwargs):
        raise AssertionError("seed=None made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    blank = MultiViewReconstructor(tiny_model_config(dtype=dtype), seed=None)
    assert names_of(blank) == names_of(drawn)
    for (name, p), (_, q) in zip(drawn.named_params(), blank.named_params()):
        assert q.shape == p.shape and q.dtype == p.dtype == np.dtype(dtype), name
        assert np.all(q.data == 0.0), name


def test_seed_none_allocates_no_weight():
    # a checkpoint replaces every weight, so a paper-scale build costs nothing
    tracemalloc.start()
    try:
        blank = MultiViewReconstructor(paper_model_config(), seed=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blank.num_params() > 60_000_000
    assert peak < 4 << 20
    assert not any(p.data.flags.writeable for p in blank.parameters())


@pytest.mark.parametrize("flag,prefix", [("use_refiner", "refiner.")])
def test_switched_off_part_drops_exactly_its_names(flag, prefix):
    full = names_of(MultiViewReconstructor(tiny_model_config(), seed=0))
    part = names_of(MultiViewReconstructor(tiny_model_config(**{flag: False}), seed=0))
    assert part == [name for name in full if not name.startswith(prefix)]
    assert len(part) < len(full)


class GatedLinear(Linear):
    """A Linear with one more parameter, declared only here."""

    def __init__(self, init: Init, in_dim: int, out_dim: int):
        super().__init__(init, in_dim, out_dim)
        self.gate = init.gaussian(1.0, out_dim)


def gated_model(seed):
    net = MultiViewReconstructor(tiny_model_config(), seed=seed)
    net.backbone.head = GatedLinear(seeded_init(seed), *net.backbone.head.weight.shape)
    return net


def test_added_tensor_attribute_is_registered_and_checkpointed():
    source = gated_model(1)
    names = names_of(source)
    at = names.index("backbone.head.gate")
    assert names[at - 2:at] == ["backbone.head.weight", "backbone.head.bias"]
    target = gated_model(2)
    assert not np.array_equal(target.backbone.head.gate.data, source.backbone.head.gate.data)
    load_checkpoint_bytes(checkpoint_bytes(source), target)
    for (name, p), (_, q) in zip(source.named_params(), target.named_params()):
        assert np.array_equal(p.data, q.data), name
