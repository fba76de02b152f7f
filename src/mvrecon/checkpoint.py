"""Binary checkpoints: the model's config and parameters, nothing else.

Layout, version 3 (all integers little-endian):

    magic     8s   b"MVRCKPT\\0"
    version   u32
    conf_len  u32
    config    the model's ``model.key = value`` lines, UTF-8
    conf_crc  u32  CRC32 of the config text
    n_params  u32
    records:  name_len u16, name, ndim u8, dims u32*, dtype u8,
              payload_len u64, payload, crc u32

The config text is what ``config_to_text`` writes for the model, so a
checkpoint describes its own architecture: ``load_model`` rebuilds the
model from the file alone.  Records follow ``model.named_params()``; a name
is the parameter's attribute path, such as
``encoder.blocks.0.layers.1.attn.q.weight``.  A checkpoint stores no
optimizer, data-order or RNG state: it restores weights, not a run.  A file
of any other version raises ``VersionMismatch``.

The config text and every record carry a CRC (a record's covers its name,
shape, dtype, and payload), so a flipped byte surfaces as ``CorruptRecord``
instead of silent weight drift.  Loading checks every record before it
assigns any weight: a file that fails a check raises and leaves the model
as it was.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .config import ModelConfig, config_from_text, model_config_to_text
from .errors import BadConfig, ConfigMismatch, CorruptRecord, VersionMismatch
from .model import MultiViewReconstructor

MAGIC = b"MVRCKPT\x00"
VERSION = 3
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class _Reader:
    def __init__(self, data: bytes):
        self.data = memoryview(data)  # slices are views, not copies
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise CorruptRecord("checkpoint truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))


def _record_crc(name_b, dims, dtype_code: int, payload) -> int:
    crc = zlib.crc32(name_b)
    crc = zlib.crc32(struct.pack(f"<{len(dims)}I", *dims), crc)
    crc = zlib.crc32(bytes([dtype_code]), crc)
    return zlib.crc32(payload, crc)


def _record_bytes(name: str, array: np.ndarray) -> bytes:
    name_b = name.encode()
    dtype_code = _DTYPE_CODES[array.dtype]
    dims = array.shape
    payload = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<")).tobytes()
    head = struct.pack("<H", len(name_b)) + name_b
    head += struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    head += struct.pack("<B", dtype_code)
    head += struct.pack("<Q", len(payload))
    crc = _record_crc(name_b, dims, dtype_code, payload)
    return head + payload + struct.pack("<I", crc)


def checkpoint_bytes(model) -> bytes:
    params = list(model.named_params())
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    conf = model_config_to_text(model.cfg).encode()
    out += struct.pack("<I", len(conf)) + conf + struct.pack("<I", zlib.crc32(conf))
    out += struct.pack("<I", len(params))
    for name, p in params:
        out += _record_bytes(name, p.data)
    return bytes(out)


def save_checkpoint(path, model) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(model))


def _read_config(r: _Reader) -> ModelConfig:
    if r.take(8) != MAGIC:
        raise VersionMismatch("not a checkpoint file")
    (version,) = r.unpack("I")
    if version != VERSION:
        raise VersionMismatch(f"checkpoint version {version}, expected {VERSION}")
    (conf_len,) = r.unpack("I")
    conf = r.take(conf_len)
    (crc,) = r.unpack("I")
    if zlib.crc32(conf) != crc:
        raise CorruptRecord("checkpoint config checksum mismatch")
    try:
        return config_from_text(bytes(conf).decode()).model
    except (UnicodeDecodeError, BadConfig) as exc:
        raise CorruptRecord(f"checkpoint config: {exc}") from None


def load_checkpoint_bytes(data: bytes, model) -> None:
    r = _Reader(data)
    if _read_config(r) != model.cfg:
        raise ConfigMismatch("checkpoint was written for a different config")
    (n_params,) = r.unpack("I")
    table = dict(model.named_params())
    if n_params != len(table):
        raise CorruptRecord(f"checkpoint has {n_params} records, model has {len(table)}")
    staged = {}  # name -> read-only view into ``data``
    for _ in range(n_params):
        (name_len,) = r.unpack("H")
        name_b = bytes(r.take(name_len))
        (ndim,) = r.unpack("B")
        dims = r.unpack(f"{ndim}I") if ndim else ()
        (dtype_code,) = r.unpack("B")
        (payload_len,) = r.unpack("Q")
        payload = r.take(payload_len)
        (crc,) = r.unpack("I")
        try:
            name = name_b.decode()
        except UnicodeDecodeError:
            raise CorruptRecord(f"record name {name_b!r} is not UTF-8") from None
        if _record_crc(name_b, dims, dtype_code, payload) != crc:
            raise CorruptRecord(f"record {name!r} checksum mismatch")
        if name not in table:
            raise CorruptRecord(f"unknown parameter {name!r}")
        if name in staged:
            raise CorruptRecord(f"parameter {name!r} appears twice")
        param = table[name]
        if dtype_code != _DTYPE_CODES[param.dtype]:
            raise CorruptRecord(
                f"record {name!r} dtype code {dtype_code} vs model {param.dtype}")
        if tuple(dims) != param.shape:
            raise CorruptRecord(
                f"record {name!r} shape {dims} vs model {param.shape}")
        if payload_len != param.data.nbytes:
            raise CorruptRecord(f"record {name!r} payload length mismatch")
        staged[name] = np.frombuffer(payload, dtype=param.dtype.newbyteorder("<"))
    if r.pos != len(data):
        raise CorruptRecord("trailing bytes after the last record")
    for name, values in staged.items():
        param = table[name]
        param.data = values.astype(param.dtype).reshape(param.shape)
        param.grad = None


def load_checkpoint(path, model) -> None:
    with open(path, "rb") as fh:
        load_checkpoint_bytes(fh.read(), model)


def load_model(path) -> MultiViewReconstructor:
    """The model a checkpoint file describes, with the file's weights."""
    with open(path, "rb") as fh:
        data = fh.read()
    model = MultiViewReconstructor(_read_config(_Reader(data)))
    load_checkpoint_bytes(data, model)
    return model
