from pathlib import Path

import numpy as np
import pytest

from mvrecon.config import ENCODER_BLOCKS, tiny_model_config
from mvrecon.errors import NumericalOverflow
from mvrecon.model import MultiViewReconstructor
from mvrecon.rollout import (
    attention_rollout,
    normalize_layer_attention,
    rollout_from_trace,
    save_rollout_maps,
)
from mvrecon.voxio import read_pgm

from modelutil import random_images


def test_identity_attention_rolls_to_identity():
    n = 4
    attn = np.broadcast_to(np.eye(n, dtype=np.float64), (2, n, n)).copy()
    rolled = rollout_from_trace([attn])
    np.testing.assert_allclose(rolled, np.eye(n), atol=1e-12)


def test_rows_sum_to_one_on_random_attention():
    rng = np.random.default_rng(0)
    for _ in range(10):
        logits = rng.standard_normal((3, 5, 5))
        attn = np.exp(logits)
        attn /= attn.sum(axis=-1, keepdims=True)
        factor = normalize_layer_attention(attn)
        np.testing.assert_allclose(factor.sum(axis=-1), np.ones(5), atol=1e-6)
        rolled = rollout_from_trace([attn, attn])
        np.testing.assert_allclose(rolled.sum(axis=-1), np.ones(5), atol=1e-6)


def test_two_layer_toy_matches_hand_product():
    a1 = np.array([[[0.6, 0.2, 0.2],
                    [0.1, 0.8, 0.1],
                    [0.3, 0.3, 0.4]]])
    a2 = np.array([[[0.5, 0.25, 0.25],
                    [0.2, 0.6, 0.2],
                    [0.1, 0.1, 0.8]]])
    eye = np.eye(3)
    m1 = (a1[0] + eye)
    m1 = m1 / m1.sum(axis=-1, keepdims=True)
    m2 = (a2[0] + eye)
    m2 = m2 / m2.sum(axis=-1, keepdims=True)
    hand = m2 @ m1
    rolled = rollout_from_trace([a1, a2])
    np.testing.assert_allclose(rolled, hand, atol=1e-8)


def test_model_rollout_shapes_and_stochasticity():
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=0)
    views = random_images(1, 1, 5, cfg)[0]
    maps = attention_rollout(model, views)
    assert len(maps) == ENCODER_BLOCKS
    for mat in maps:
        assert mat.shape == (5, 5)
        np.testing.assert_allclose(mat.sum(axis=-1), np.ones(5), atol=1e-6)
        assert np.all(mat >= 0)


def test_a_nan_encoder_weight_raises_at_the_maps():
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=1)
    model.encoder.blocks[0].layers[0].attn.q.weight.data[0, 0] = np.nan
    with pytest.raises(NumericalOverflow, match="attention rollout"):
        attention_rollout(model, random_images(2, 1, 3, cfg)[0])


def test_save_rollout_maps(tmp_path):
    cfg = tiny_model_config()
    model = MultiViewReconstructor(cfg, seed=1)
    views = random_images(2, 1, 3, cfg)[0]
    maps = attention_rollout(model, views)
    paths = save_rollout_maps(maps, str(tmp_path), prefix="demo")
    assert len(paths) == ENCODER_BLOCKS * 3
    img = read_pgm(Path(paths[0]).read_bytes())
    assert img.shape == (1, 3)
    assert img.max() == 255  # the peak of each map is 1
