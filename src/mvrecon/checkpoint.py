"""Binary checkpoints: the model's config and parameters, nothing else.

Layout, version 4 (integers are little-endian u32):

    bytes 0-8    magic b"MVRCKPT\\0"
    bytes 8-12   version, 4
    bytes 12-16  head_len
    head         UTF-8: the model's ``model.key = value`` config lines, a
                 blank line, then one ``name d0,d1,...`` line per parameter
    payload      every parameter's little-endian bytes, in the head's order
    last 4       CRC32 of everything after the version

The config lines are what ``model_config_to_text`` writes, so ``load_model``
rebuilds the model from the file alone: ``MultiViewReconstructor(cfg,
seed=None)`` draws and allocates no weight, and the file's are assigned.
Before it assigns them, ``load_model`` checks the payload length against the
shapes the config implies, so a head asking for shapes too large to hold is
a ``MalformedFile``, not a failed allocation.  Parameters follow
``model.named_params()`` and take the config's dtype.  The config alone fixes
every shape; the parameter table is there so that a code change that reorders
or reshapes parameters under an unchanged config (``attn.k`` and ``attn.v``
swapped, say) raises ``ConfigMismatch`` instead of loading each weight into
the other's place.  A checkpoint stores no optimizer, data-order or RNG
state: it restores weights, not a run.

Loading checks, in order: magic and version, the CRC, that the head is the
model's own (``ConfigMismatch``), and the payload length.  Every other failed
check, and a head ``load_model`` cannot read, raises ``MalformedFile``.
Weights are assigned only once all pass, so a file that fails a check leaves
the model as it was.
"""

from __future__ import annotations

import zlib

import numpy as np

from .config import config_from_text, model_config_to_text
from .errors import ConfigMismatch, MalformedFile
from .model import MultiViewReconstructor

MAGIC = b"MVRCKPT\x00"
VERSION = 4


def _head(model) -> bytes:
    table = "".join(f"{name} {','.join(map(str, p.shape))}\n"
                    for name, p in model.named_params())
    return (model_config_to_text(model.cfg) + "\n" + table).encode()


def checkpoint_bytes(model) -> bytes:
    head = _head(model)
    body = [len(head).to_bytes(4, "little"), head]
    body += [np.ascontiguousarray(p.data, dtype=p.dtype.newbyteorder("<")).data
             for p in model.parameters()]
    crc = 0
    for part in body:
        crc = zlib.crc32(part, crc)
    return b"".join([MAGIC, VERSION.to_bytes(4, "little"), *body, crc.to_bytes(4, "little")])


def save_checkpoint(path, model) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(model))


def _checked(data: bytes) -> tuple[bytes, memoryview]:
    """The head and payload of a file whose version and CRC hold."""
    if data[:8] != MAGIC:
        raise MalformedFile("not a checkpoint file")
    version = int.from_bytes(data[8:12], "little")
    if version != VERSION:
        raise MalformedFile(f"checkpoint version {version}, expected {VERSION}")
    view = memoryview(data)  # slices are views, not copies
    if len(data) < 20 or zlib.crc32(view[12:-4]) != int.from_bytes(view[-4:], "little"):
        raise MalformedFile("checkpoint checksum mismatch")
    head_end = 16 + int.from_bytes(view[12:16], "little")
    if head_end > len(data) - 4:
        raise MalformedFile("checkpoint head runs past the end of the file")
    return bytes(view[16:head_end]), view[head_end:-4]


def _assign(model, head: bytes, payload: memoryview) -> None:
    if head != _head(model):
        raise ConfigMismatch("checkpoint was written for another config or parameter table")
    params = model.parameters()
    if len(payload) != sum(p.data.nbytes for p in params):
        raise MalformedFile("checkpoint payload length mismatch")
    offset = 0
    for p in params:
        values = np.frombuffer(payload, p.dtype.newbyteorder("<"), p.size, offset)
        offset += values.nbytes
        p.data = values.astype(p.dtype).reshape(p.shape)
        p.grad = None


def load_checkpoint_bytes(data: bytes, model) -> None:
    _assign(model, *_checked(data))


def load_checkpoint(path, model) -> None:
    with open(path, "rb") as fh:
        load_checkpoint_bytes(fh.read(), model)


def load_model(path) -> MultiViewReconstructor:
    """The model a checkpoint file describes, with the file's weights."""
    with open(path, "rb") as fh:
        head, payload = _checked(fh.read())
    try:
        cfg = config_from_text(head.decode().partition("\n\n")[0]).model
        model = MultiViewReconstructor(cfg, seed=None)  # allocates no weight
    except ValueError as exc:  # not UTF-8, a BadConfig, or shapes numpy cannot hold
        raise MalformedFile(f"checkpoint config: {exc}") from None
    if len(payload) != sum(p.data.nbytes for p in model.parameters()):
        raise MalformedFile("checkpoint payload length does not fit its config")
    _assign(model, head, payload)
    return model
