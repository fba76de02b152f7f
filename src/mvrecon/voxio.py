"""Voxel and image file formats.

binvox: the public run-length-encoded format used for ShapeNet-style
ground truth.  In the file, voxel (x, y, z) lives at index
``x*d*d + z*d + y`` (y fastest, then z, then x), so arrays are transposed
between our native (x, y, z) order and the wire order on read/write.

VOXRAW: one ASCII header line ``VOXRAW <side> <dtype>`` followed by raw
little-endian values in native row-major order; exact roundtrip for
continuous grids.

PGM: binary P5, maxval 255, used for rendered view channels and heatmaps.
"""

from __future__ import annotations

import numpy as np

from .errors import BadRunValue, DimMismatch, MalformedHeader, TruncatedRLE
from .voxels import BINARY, CONTINUOUS, VoxelGrid

_BINVOX_MAGIC = b"#binvox 1"
_VOXRAW_MAGIC = "VOXRAW"
_VOXRAW_DTYPES = {"float32": np.float32, "float64": np.float64}


# --- binvox ---

def write_binvox(grid: VoxelGrid, translate=(0.0, 0.0, 0.0), scale: float = 1.0) -> bytes:
    if grid.kind != BINARY:
        raise ValueError("write_binvox: grid must be binary")
    d = grid.side
    header = (
        _BINVOX_MAGIC + b"\n"
        + f"dim {d} {d} {d}\n".encode()
        + f"translate {translate[0]:g} {translate[1]:g} {translate[2]:g}\n".encode()
        + f"scale {scale:g}\n".encode()
        + b"data\n"
    )
    flat = np.ascontiguousarray(grid.values.transpose(0, 2, 1)).reshape(-1)
    flat = (flat != 0).astype(np.uint8)
    return header + _rle_encode(flat)


def _rle_encode(flat: np.ndarray) -> bytes:
    if flat.size == 0:
        return b""
    boundaries = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [flat.size]))
    out = bytearray()
    for s, e in zip(starts, ends):
        value = int(flat[s])
        run = int(e - s)
        while run > 255:
            out += bytes((value, 255))
            run -= 255
        out += bytes((value, run))
    return bytes(out)


def read_binvox(data: bytes) -> VoxelGrid:
    lines, payload = _split_header(data)
    if not lines or not lines[0].startswith(_BINVOX_MAGIC):
        raise MalformedHeader("not a binvox file")
    dims = None
    for line in lines[1:]:
        if line.startswith(b"dim"):
            try:
                dims = [int(tok) for tok in line.split()[1:]]
            except ValueError:
                raise MalformedHeader(f"bad dim line: {line!r}") from None
        elif line.startswith((b"translate", b"scale")):
            continue
        else:
            raise MalformedHeader(f"unexpected header line: {line!r}")
    if dims is None:
        raise MalformedHeader("missing dim line")
    if len(dims) != 3:
        raise DimMismatch(f"expected 3 extents, got {dims}")
    if len(set(dims)) != 1:
        raise DimMismatch(f"only cubic grids are supported, got {dims}")
    d = dims[0]
    flat = _rle_decode(payload, d ** 3)
    values = flat.reshape(d, d, d).transpose(0, 2, 1).astype(np.float32)
    return VoxelGrid(d, np.ascontiguousarray(values), BINARY)


def _split_header(data: bytes) -> tuple[list[bytes], bytes]:
    lines = []
    pos = 0
    while True:
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise MalformedHeader("header not terminated by a data line")
        line = data[pos:nl]
        pos = nl + 1
        if line == b"data":
            return lines, data[pos:]
        lines.append(line)
        if len(lines) > 16:
            raise MalformedHeader("header too long")


def _rle_decode(payload: bytes, expected: int) -> np.ndarray:
    if len(payload) % 2 != 0:
        raise TruncatedRLE("odd number of payload bytes")
    pairs = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 2)
    values, counts = pairs[:, 0], pairs[:, 1]
    if np.any(counts == 0):
        raise TruncatedRLE("zero-length run")
    if np.any(values > 1):
        raise BadRunValue(f"run value {int(values.max())} is neither 0 nor 1")
    total = int(counts.sum())
    if total != expected:
        raise TruncatedRLE(f"payload expands to {total} voxels, expected {expected}")
    return np.repeat(values, counts)


# --- VOXRAW ---

def write_voxraw(grid: VoxelGrid) -> bytes:
    dtype = grid.values.dtype
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"write_voxraw: unsupported dtype {dtype}")
    header = f"{_VOXRAW_MAGIC} {grid.side} {dtype.name}\n".encode()
    body = np.ascontiguousarray(grid.values, dtype=dtype.newbyteorder("<")).tobytes()
    return header + body


def read_voxraw(data: bytes) -> VoxelGrid:
    nl = data.find(b"\n")
    if nl < 0:
        raise MalformedHeader("missing header line")
    try:
        magic, side_s, dtype_s = data[:nl].decode("ascii").split()
    except (UnicodeDecodeError, ValueError):
        raise MalformedHeader(f"bad header: {data[:nl]!r}") from None
    if magic != _VOXRAW_MAGIC:
        raise MalformedHeader(f"bad magic {magic!r}")
    if dtype_s not in _VOXRAW_DTYPES:
        raise MalformedHeader(f"unknown dtype {dtype_s!r}")
    side = int(side_s)
    dtype = _VOXRAW_DTYPES[dtype_s]
    body = data[nl + 1:]
    expected = side ** 3 * np.dtype(dtype).itemsize
    if len(body) != expected:
        raise MalformedHeader(
            f"payload is {len(body)} bytes, header implies {expected}")
    values = np.frombuffer(body, dtype=np.dtype(dtype).newbyteorder("<"))
    values = values.astype(dtype).reshape(side, side, side)
    return VoxelGrid(side, values, CONTINUOUS)


# --- PGM images ---

def write_pgm(image: np.ndarray) -> bytes:
    """Grayscale image in [0, 1] (or uint8) to binary P5 bytes."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"write_pgm: expected 2-D image, got {img.shape}")
    if img.dtype != np.uint8:
        img = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode() + img.tobytes()


def read_pgm(data: bytes) -> np.ndarray:
    """Binary P5 bytes to a float32 image in [0, 1]."""
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos == len(data):
            raise MalformedHeader("PGM header ends early")
        if data[pos:pos + 1] == b"#":  # comment line
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise MalformedHeader("PGM header ends inside a comment")
            pos = nl + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise MalformedHeader(f"not a binary PGM: {fields[0]!r}")
    if not all(f.isdigit() for f in fields[1:]):
        raise MalformedHeader(f"non-numeric PGM size or maxval: {fields[1:]!r}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise MalformedHeader(f"unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    body = data[pos:pos + w * h]
    if len(body) != w * h:
        raise MalformedHeader(f"payload is {len(body)} bytes, expected {w * h}")
    img = np.frombuffer(body, dtype=np.uint8).reshape(h, w)
    return img.astype(np.float32) / 255.0
