import re
import zlib

import numpy as np
import pytest

from mvrecon.checkpoint import (
    checkpoint_bytes,
    load_checkpoint,
    load_checkpoint_bytes,
    load_model,
    save_checkpoint,
)
from mvrecon.config import model_config_to_text, tiny_model_config
from mvrecon.errors import ConfigMismatch, MalformedFile
from mvrecon.model import MultiViewReconstructor

from modelutil import random_images


@pytest.fixture()
def tiny_model():
    return MultiViewReconstructor(tiny_model_config(), seed=3)


def resigned(data: bytes) -> bytes:
    """``data`` with its CRC recomputed, as a deliberate edit would be."""
    return data[:-4] + zlib.crc32(data[12:-4]).to_bytes(4, "little")


def with_head(data: bytes, edit) -> bytes:
    """``data`` with its head replaced by ``edit(head)``, re-signed."""
    head_end = 16 + int.from_bytes(data[12:16], "little")
    head = edit(data[16:head_end])
    return resigned(data[:12] + len(head).to_bytes(4, "little") + head + data[head_end:])


def assert_load_fails_unchanged(data, model, error, match=None):
    before = [p.data.copy() for p in model.parameters()]
    with pytest.raises(error, match=match):
        load_checkpoint_bytes(data, model)
    for prev, p in zip(before, model.parameters()):
        assert np.array_equal(prev, p.data)


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
    other = MultiViewReconstructor(tiny_model.cfg, seed=2)
    assert_load_fails_unchanged(bytes(data), other, MalformedFile, "checksum mismatch")


def test_truncated_checkpoint_is_detected(tiny_model):
    data = checkpoint_bytes(tiny_model)
    other = MultiViewReconstructor(tiny_model.cfg, seed=2)
    assert_load_fails_unchanged(data[:-10], other, MalformedFile, "checksum mismatch")
    assert_load_fails_unchanged(resigned(data[:-10]), other, MalformedFile,
                                "payload length mismatch")


@pytest.mark.parametrize("head_len", [lambda n: n - 19, lambda n: n, lambda n: 2 ** 32 - 1],
                         ids=["into-crc", "file-length", "u32-max"])
def test_head_running_past_the_file_is_corrupt(tiny_model, tmp_path, head_len):
    data = checkpoint_bytes(tiny_model)
    data = resigned(data[:12] + head_len(len(data)).to_bytes(4, "little") + data[16:])
    other = MultiViewReconstructor(tiny_model.cfg, seed=2)
    assert_load_fails_unchanged(data, other, MalformedFile, "head runs past the end")
    path = tmp_path / "model.ckpt"
    path.write_bytes(data)
    with pytest.raises(MalformedFile, match="head runs past the end"):
        load_model(path)


def test_version_mismatch(tiny_model):
    data = bytearray(checkpoint_bytes(tiny_model))
    # 1 carried resume state; 2 a hash of the config, not its text; 3 one
    # record per parameter, each with its own name, shape, dtype and CRC
    for version in (1, 2, 3, 99):
        data[8:12] = version.to_bytes(4, "little")  # version field
        assert_load_fails_unchanged(bytes(data), tiny_model, MalformedFile,
                                    f"checkpoint version {version}, expected 4")
    assert_load_fails_unchanged(b"NOTACKPT" + bytes(data[8:]), tiny_model, MalformedFile,
                                "not a checkpoint file")


def test_config_mismatch(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_model)
    other_cfg = tiny_model_config(embed_dim=64)
    other = MultiViewReconstructor(other_cfg, seed=3)
    with pytest.raises(ConfigMismatch):
        load_checkpoint(path, other)


def test_swapped_parameters_are_a_config_mismatch(tiny_model):
    # the table of a build that declares attn.v before attn.k: same config,
    # same shapes, so only the parameter table tells the weights apart
    data = checkpoint_bytes(tiny_model)
    swapped = (data.replace(b".attn.k ", b".attn.x ").replace(b".attn.v ", b".attn.k ")
               .replace(b".attn.x ", b".attn.v "))
    assert swapped != data and len(swapped) == len(data)
    other = MultiViewReconstructor(tiny_model.cfg, seed=2)
    assert_load_fails_unchanged(resigned(swapped), other, ConfigMismatch)


def test_config_text_readable_from_header(tiny_model):
    # magic (8 bytes), version (4) and head length (4) precede the head,
    # which opens with the config text and a blank line
    data = checkpoint_bytes(tiny_model)
    text = model_config_to_text(tiny_model.cfg).encode()
    assert data[16:16 + len(text) + 1] == text + b"\n"
    assert b"model.heads = 4\n" in text


@pytest.mark.parametrize("overrides", [{}, {"dtype": "float64"}, {"use_refiner": False}],
                         ids=["tiny", "float64", "no_refiner"])
def test_load_model_rebuilds_the_model_from_the_file(tmp_path, overrides):
    # int, bool and str fields all come back from the text
    model = MultiViewReconstructor(tiny_model_config(**overrides), seed=5)
    images = random_images(1, 2, 3, model.cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded = load_model(path)
    assert loaded.cfg == model.cfg
    assert [n for n, _ in loaded.named_params()] == [n for n, _ in model.named_params()]
    assert np.array_equal(loaded.forward(images).refined.data,
                          model.forward(images).refined.data)


def test_load_model_draws_no_weights(tiny_model, tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_model)

    def no_generator(*args, **kwargs):
        raise AssertionError("load_model drew from a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded = load_model(path)
    for (name, p), (_, q) in zip(tiny_model.named_params(), loaded.named_params()):
        assert p.dtype == q.dtype and np.array_equal(p.data, q.data), name


def test_config_text_is_guarded_by_its_crc(tiny_model):
    # same length and the same parameter shapes: only the CRC can tell
    data = checkpoint_bytes(tiny_model)
    edited = data.replace(b"model.heads = 4", b"model.heads = 8", 1)
    assert edited != data and len(edited) == len(data)
    eight_heads = MultiViewReconstructor(tiny_model_config(heads=8))
    assert ([p.shape for p in eight_heads.parameters()]
            == [p.shape for p in tiny_model.parameters()])
    assert_load_fails_unchanged(edited, tiny_model, MalformedFile, "checksum mismatch")


def test_non_utf8_head_is_corrupt(tiny_model, tmp_path):
    data = bytearray(checkpoint_bytes(tiny_model))
    data[16] = 0xFF  # the head's first byte
    path = tmp_path / "model.ckpt"
    path.write_bytes(resigned(bytes(data)))
    with pytest.raises(MalformedFile, match="checkpoint config"):
        load_model(path)


@pytest.mark.parametrize("line", [b"model.encoder_blocks = 3", b"model.decoder_cube = 4",
                                  b"model.refiner_cubes = 4,2", b"model.refiner_heads = 4,2",
                                  b"model.encoder_heads = 4"])
def test_checkpoint_naming_a_fixed_shape_setting_is_corrupt(tiny_model, tmp_path, line):
    # checkpoints written while these were settings carry them in the head
    path = tmp_path / "model.ckpt"
    path.write_bytes(with_head(checkpoint_bytes(tiny_model), lambda head: line + b"\n" + head))
    with pytest.raises(MalformedFile, match="checkpoint config: unknown model field"):
        load_model(path)


@pytest.mark.parametrize("line,match", [
    # numpy cannot hold the decoder's query bank: 2e6^3 cubes
    (b"model.voxel_side = 8000000", "checkpoint config: "),
    # buildable, but not the shapes of the payload the file carries
    (b"model.embed_dim = 512", "payload length does not fit its config"),
])
def test_config_asking_for_other_shapes_is_corrupt(tiny_model, tmp_path, line, match):
    field = line.split(b" = ")[0]
    path = tmp_path / "model.ckpt"
    path.write_bytes(with_head(checkpoint_bytes(tiny_model), lambda head: re.sub(
        rb"^" + re.escape(field) + rb" = \d+$", line, head, count=1, flags=re.M)))
    assert line in path.read_bytes()
    with pytest.raises(MalformedFile, match=match):
        load_model(path)
