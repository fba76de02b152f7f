"""The parameter registry that ``Module.named_params`` walks."""

import hashlib

import numpy as np
import pytest

from mvrecon.checkpoint import checkpoint_bytes, load_checkpoint_bytes
from mvrecon.config import desk_model_config, tiny_model_config
from mvrecon.layers import Init, Linear
from mvrecon.model import MultiViewReconstructor

from modelutil import seeded_init


def names_of(module):
    return [name for name, _ in module.named_params()]


@pytest.mark.parametrize("make,count", [(tiny_model_config, 194_076),
                                        (desk_model_config, 7_051_872)])
def test_registry_names_and_counts(make, count):
    net = MultiViewReconstructor(make(), seed=0)
    names = names_of(net)
    assert len(names) == len(set(names)) == 200
    assert net.num_params() == count
    assert names[0] == "backbone.convs.0.weight"
    assert "encoder.blocks.0.layers.1.attn.q.weight" in names
    assert names[-1] == "refiner.blocks.1.proj_out.bias"


def weight_digest(module) -> str:
    """sha256 over each parameter's name and then its bytes, in order."""
    h = hashlib.sha256()
    for name, p in module.named_params():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()[:16]


# The learning gate's numbers rest on these initial weights.  The paper
# preset, seed 0, gives 44850ef01e90ede4; it is too slow to build on every run.
@pytest.mark.parametrize("make,seed,digest", [
    (tiny_model_config, 0, "02f3d83cf8e843b0"),
    (tiny_model_config, 1, "d265a58170d60146"),
    (tiny_model_config, 2, "7f0609319a76608f"),
    (desk_model_config, 0, "b9dd346cf0ebd264"),
    (desk_model_config, 1, "05640385b7bb9bb2"),
    (desk_model_config, 2, "e91d8c9c2782587a"),
    pytest.param(lambda: tiny_model_config(dtype="float64"), 0, "13d79b2434964412",
                 id="tiny_float64-0-13d79b2434964412"),
    pytest.param(lambda: desk_model_config(dtype="float64"), 0, "668ac990e5e34180",
                 id="desk_float64-0-668ac990e5e34180"),
])
def test_initial_weights_are_pinned(make, seed, digest):
    assert weight_digest(MultiViewReconstructor(make(), seed=seed)) == digest


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
        # layer-norm gains are constants, not drawn
        assert np.all(q.data == (1.0 if name.endswith(".gain") else 0.0)), name


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
