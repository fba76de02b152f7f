import numpy as np
import pytest

from mvrecon.checkpoint import (
    _record_bytes,
    checkpoint_bytes,
    load_checkpoint,
    load_checkpoint_bytes,
    save_checkpoint,
)
from mvrecon.config import config_hash, tiny_model_config
from mvrecon.errors import ConfigHashMismatch, CorruptRecord, VersionMismatch
from mvrecon.model import MultiViewReconstructor

from modelutil import random_images


@pytest.fixture()
def tiny_model():
    return MultiViewReconstructor(tiny_model_config(), seed=3)


def test_roundtrip_reproduces_forward_bitwise(tiny_model, tmp_path):
    cfg = tiny_model.cfg
    images = random_images(0, 1, 2, cfg)
    before = tiny_model.forward(images).refined.data.copy()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_model)

    other = MultiViewReconstructor(cfg, seed=99)  # different init
    assert not np.array_equal(other.forward(images).refined.data, before)
    load_checkpoint(path, other)
    after = other.forward(images).refined.data
    assert np.array_equal(after, before)


def test_checkpoint_bytes_deterministic(tiny_model):
    assert checkpoint_bytes(tiny_model) == checkpoint_bytes(tiny_model)


def test_tampered_byte_is_detected(tiny_model):
    data = bytearray(checkpoint_bytes(tiny_model))
    data[len(data) // 2] ^= 0xFF
    with pytest.raises(CorruptRecord):
        load_checkpoint_bytes(bytes(data), tiny_model)


def assert_load_fails_unchanged(data, model):
    before = [p.data.copy() for p in model.parameters()]
    with pytest.raises(CorruptRecord):
        load_checkpoint_bytes(data, model)
    for prev, p in zip(before, model.parameters()):
        assert np.array_equal(prev, p.data)


def test_truncated_checkpoint_is_detected(tiny_model):
    data = checkpoint_bytes(tiny_model)
    other = MultiViewReconstructor(tiny_model.cfg, seed=2)
    assert_load_fails_unchanged(data[:-10], other)


def test_repeated_record_is_detected(tiny_model):
    # the first record twice and the second not at all: the count still fits
    header = checkpoint_bytes(tiny_model)[:48]  # magic, version, hash, count
    records = [_record_bytes(name, p.data) for name, p in tiny_model.named_params()]
    records[1] = records[0]
    other = MultiViewReconstructor(tiny_model.cfg, seed=2)
    assert_load_fails_unchanged(header + b"".join(records), other)


def test_version_mismatch(tiny_model):
    data = bytearray(checkpoint_bytes(tiny_model))
    for version in (1, 99):  # 1: the earlier layout, which carried resume state
        data[8:12] = version.to_bytes(4, "little")  # version field
        with pytest.raises(VersionMismatch):
            load_checkpoint_bytes(bytes(data), tiny_model)
    with pytest.raises(VersionMismatch):
        load_checkpoint_bytes(b"NOTACKPT" + bytes(data[8:]), tiny_model)


def test_config_hash_mismatch(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_model)
    other_cfg = tiny_model_config(embed_dim=64)
    other = MultiViewReconstructor(other_cfg, seed=3)
    with pytest.raises(ConfigHashMismatch):
        load_checkpoint(path, other)


def test_config_hash_readable_from_header(tiny_model):
    # magic (8 bytes) and version (4) precede the 32-byte config hash
    data = checkpoint_bytes(tiny_model)
    assert data[12:44].hex() == config_hash(tiny_model.cfg)


def test_non_utf8_record_name_is_corrupt(tiny_model):
    data = bytearray(checkpoint_bytes(tiny_model))
    first_name = data.index(b"backbone.")  # the first record's name
    data[first_name] = 0xFF
    with pytest.raises(CorruptRecord):
        load_checkpoint_bytes(bytes(data), tiny_model)
