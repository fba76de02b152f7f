"""Binary checkpoints: parameter table + training metadata + RNG state.

Layout (all integers little-endian):

    magic     8s   b"MVRCKPT\\0"
    version   u32
    confhash  32s  sha256 of the canonical model-config text
    epoch     u64
    iteration u64
    rng_len   u32, rng_json bytes, rng_crc u32
    n_params  u32
    records:  name_len u16, name, ndim u8, dims u32*, dtype u8,
              payload_len u64, payload, crc u32

Every record carries a CRC over its name, shape, dtype, and payload, so a
flipped byte surfaces as ``CorruptRecord`` instead of silent weight drift.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .config import config_hash
from .errors import ConfigHashMismatch, CorruptRecord, VersionMismatch

MAGIC = b"MVRCKPT\x00"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


@dataclass
class CheckpointMeta:
    epoch: int
    iteration: int
    rng_state: dict | None


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptRecord("checkpoint truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))


def _record_bytes(name: str, array: np.ndarray) -> bytes:
    name_b = name.encode()
    dtype_code = _DTYPE_CODES[array.dtype]
    dims = array.shape
    payload = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<")).tobytes()
    head = struct.pack("<H", len(name_b)) + name_b
    head += struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    head += struct.pack("<B", dtype_code)
    head += struct.pack("<Q", len(payload))
    crc = zlib.crc32(name_b)
    crc = zlib.crc32(struct.pack(f"<{len(dims)}I", *dims), crc)
    crc = zlib.crc32(bytes([dtype_code]), crc)
    crc = zlib.crc32(payload, crc)
    return head + payload + struct.pack("<I", crc)


def checkpoint_bytes(model, epoch: int = 0, iteration: int = 0,
                     rng_state: dict | None = None) -> bytes:
    params = list(model.named_params())
    rng_json = json.dumps(rng_state, sort_keys=True).encode() if rng_state else b""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += bytes.fromhex(config_hash(model.cfg))
    out += struct.pack("<QQ", epoch, iteration)
    out += struct.pack("<I", len(rng_json)) + rng_json
    out += struct.pack("<I", zlib.crc32(rng_json))
    out += struct.pack("<I", len(params))
    for name, p in params:
        out += _record_bytes(name, p.data)
    return bytes(out)


def save_checkpoint(path, model, epoch: int = 0, iteration: int = 0,
                    rng_state: dict | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(model, epoch, iteration, rng_state))


def load_checkpoint_bytes(data: bytes, model) -> CheckpointMeta:
    r = _Reader(data)
    if r.take(8) != MAGIC:
        raise VersionMismatch("not a checkpoint file")
    (version,) = r.unpack("I")
    if version != VERSION:
        raise VersionMismatch(f"checkpoint version {version}, expected {VERSION}")
    conf = r.take(32).hex()
    if conf != config_hash(model.cfg):
        raise ConfigHashMismatch("checkpoint was written for a different config")
    epoch, iteration = r.unpack("QQ")
    (rng_len,) = r.unpack("I")
    rng_json = r.take(rng_len)
    (rng_crc,) = r.unpack("I")
    if zlib.crc32(rng_json) != rng_crc:
        raise CorruptRecord("rng state checksum mismatch")
    rng_state = json.loads(rng_json.decode()) if rng_len else None
    (n_params,) = r.unpack("I")
    table = model.param_table()
    if n_params != len(table):
        raise CorruptRecord(f"checkpoint has {n_params} records, model has {len(table)}")
    for _ in range(n_params):
        (name_len,) = r.unpack("H")
        name_b = r.take(name_len)
        (ndim,) = r.unpack("B")
        dims = r.unpack(f"{ndim}I") if ndim else ()
        (dtype_code,) = r.unpack("B")
        (payload_len,) = r.unpack("Q")
        payload = r.take(payload_len)
        (crc,) = r.unpack("I")
        check = zlib.crc32(name_b)
        check = zlib.crc32(struct.pack(f"<{ndim}I", *dims), check)
        check = zlib.crc32(bytes([dtype_code]), check)
        check = zlib.crc32(payload, check)
        try:
            name = name_b.decode()
        except UnicodeDecodeError:
            raise CorruptRecord(f"record name {name_b!r} is not UTF-8") from None
        if check != crc:
            raise CorruptRecord(f"record {name!r} checksum mismatch")
        if name not in table:
            raise CorruptRecord(f"unknown parameter {name!r}")
        if dtype_code not in _CODE_DTYPES:
            raise CorruptRecord(f"record {name!r} has unknown dtype code {dtype_code}")
        dtype = _CODE_DTYPES[dtype_code]
        expected = table[name]
        if tuple(dims) != expected.shape:
            raise CorruptRecord(
                f"record {name!r} shape {dims} vs model {expected.shape}")
        if payload_len != int(np.prod(dims, dtype=np.int64)) * dtype.itemsize:
            raise CorruptRecord(f"record {name!r} payload length mismatch")
        values = np.frombuffer(payload, dtype=dtype.newbyteorder("<")).astype(dtype)
        expected.data = values.reshape(dims)
        expected.grad = None
    if r.pos != len(data):
        raise CorruptRecord("trailing bytes after the last record")
    return CheckpointMeta(epoch, iteration, rng_state)


def load_checkpoint(path, model) -> CheckpointMeta:
    with open(path, "rb") as fh:
        return load_checkpoint_bytes(fh.read(), model)

