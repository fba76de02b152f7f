import numpy as np
import pytest

from mvrecon import autodiff as ad
from mvrecon.autodiff import Tensor
from mvrecon.config import paper_model_config, tiny_model_config
from mvrecon.errors import ShapeMismatch
from mvrecon.refiner import CubeAttentionBlock, VolumeRefiner
from mvrecon.voxels import partition_tokens

from modelutil import check_param_grads, seeded_init, tiny64


def rand_volume(seed, side, batch=1, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.random((batch, side, side, side)).astype(dtype))


def test_full_scale_token_counts():
    cfg = paper_model_config()
    vol = rand_volume(0, 32)
    first = partition_tokens(vol, cfg.refiner_cubes[0])
    second = partition_tokens(vol, cfg.refiner_cubes[1])
    assert first.shape == (1, 64, 512)
    assert second.shape == (1, 512, 64)
    refiner = VolumeRefiner(seeded_init(1), paper_model_config(refiner_layers=1))
    assert refiner.blocks[0].positional.shape == (64, 512)
    assert refiner.blocks[1].positional.shape == (512, 64)


def test_shape_preserved_and_output_in_unit_interval():
    for side, cube in ((8, 4), (16, 4), (16, 8)):
        cfg = tiny_model_config(voxel_side=side, refiner_cube=cube)
        refiner = VolumeRefiner(seeded_init(2, cfg.np_dtype), cfg)
        out = refiner(rand_volume(3, side)).data
        assert out.shape == (1, side, side, side)
        assert np.all(out > 0.0) and np.all(out < 1.0)


def test_zeroed_output_projections_give_constant_half():
    cfg = tiny_model_config()
    refiner = VolumeRefiner(seeded_init(4, cfg.np_dtype), cfg)
    for block in refiner.blocks:
        block.proj_out.weight.data[:] = 0.0
        block.proj_out.bias.data[:] = 0.0
    out = refiner(rand_volume(5, cfg.voxel_side)).data
    np.testing.assert_allclose(out, np.full_like(out, 0.5), atol=1e-12)


def changed_cubes(block, vol, bumped, tol):
    """Which of the block's output cubes move when its input changes."""
    diff = np.abs(block(Tensor(bumped)).data - block(Tensor(vol)).data)
    return np.any(partition_tokens(Tensor(diff), block.cube_side).data[0] > tol, axis=-1)


def bump_cube_five(vol):
    bumped = vol.copy()
    bumped[0, 5, 1, 6] += 0.5  # a voxel of cube (1, 0, 1), token 5
    return bumped


def test_locality_with_identity_attention(monkeypatch):
    # with attention replaced by the identity, each cube is refined alone
    monkeypatch.setattr(ad, "attention", lambda q, k, v, heads, trace=None: v)
    block = CubeAttentionBlock(seeded_init(6, np.float64), cube_side=4, grid_side=8,
                               layers=1)
    vol = np.random.default_rng(7).random((1, 8, 8, 8))
    changed = changed_cubes(block, vol, bump_cube_five(vol), 1e-12)
    np.testing.assert_array_equal(changed, np.arange(8) == 5)


def test_mixing_without_identity_attention():
    block = CubeAttentionBlock(seeded_init(8, np.float64), cube_side=4, grid_side=8,
                               layers=1)
    vol = np.random.default_rng(9).random((1, 8, 8, 8))
    changed = changed_cubes(block, vol, bump_cube_five(vol), 1e-9)
    assert changed.sum() == 8  # softmax attention spreads the perturbation


def test_wrong_volume_side_rejected():
    cfg = tiny_model_config()
    refiner = VolumeRefiner(seeded_init(11, cfg.np_dtype), cfg)
    with pytest.raises(ShapeMismatch, match="add: shapes"):
        refiner(rand_volume(12, 16))


def test_refiner_param_grads_vs_fd():
    cfg = tiny64()  # V=8, cube sides 4 then 2, two layers per block
    assert cfg.refiner_cubes == [4, 2] and cfg.refiner_layers == 2
    refiner = VolumeRefiner(seeded_init(15, cfg.np_dtype), cfg)
    vol = rand_volume(16, 8, dtype=np.float64)
    target = np.random.default_rng(17).random((1, 8, 8, 8))

    def forward():
        diff = ad.sub(refiner(vol), Tensor(target))
        return ad.mul(diff, diff).mean()

    check_param_grads(dict(refiner.named_params()), forward, seed=18,
                      entries=2, tol=1e-4)
