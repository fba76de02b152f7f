"""Voxel and image file formats.

binvox: the public run-length-encoded format used for ShapeNet-style
ground truth.  ``write_binvox`` takes a [V, V, V] array, nonzero meaning
occupied, and ``read_binvox`` returns a float32 one of 0s and 1s.  In the
file, voxel (x, y, z) lives at index ``x*d*d + z*d + y`` (y fastest, then
z, then x), so arrays are transposed between our native (x, y, z) order and
the wire order on read/write.

PGM: binary P5, maxval 255, used for rendered view channels and heatmaps.
``write_pgm`` takes a float image in [0, 1] or uint8 levels, and
``read_pgm`` returns the file's pixel bytes as uint8 levels, unconverted;
a float view is ``datagen.levels_to_images`` of them.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedFile, ShapeMismatch

_BINVOX_MAGIC = b"#binvox 1"


# --- binvox ---

def write_binvox(grid: np.ndarray) -> bytes:
    """A [V, V, V] grid as binvox bytes, at the origin with unit scale;
    a nonzero voxel is occupied."""
    d = grid.shape[0] if grid.ndim else 0
    if d < 1 or grid.shape != (d, d, d):
        raise ShapeMismatch(f"write_binvox: expected a [V, V, V] grid, V >= 1, "
                            f"got {grid.shape}")
    header = _BINVOX_MAGIC + f"\ndim {d} {d} {d}\ntranslate 0 0 0\nscale 1\ndata\n".encode()
    flat = np.ascontiguousarray(grid.transpose(0, 2, 1)).reshape(-1)
    flat = (flat != 0).astype(np.uint8)
    return header + _rle_encode(flat)


def _rle_encode(flat: np.ndarray) -> bytes:
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


def read_binvox(data: bytes) -> np.ndarray:
    """binvox bytes as a float32 [V, V, V] grid of 0s and 1s."""
    lines, payload = _split_header(data)
    if not lines or not lines[0].startswith(_BINVOX_MAGIC):
        raise MalformedFile("not a binvox file")
    dims = None
    for line in lines[1:]:
        if line.startswith(b"dim"):
            try:
                dims = [int(tok) for tok in line.split()[1:]]
            except ValueError:
                raise MalformedFile(f"bad dim line: {line!r}") from None
        elif line.startswith((b"translate", b"scale")):
            continue
        else:
            raise MalformedFile(f"unexpected header line: {line!r}")
    if dims is None:
        raise MalformedFile("missing dim line")
    if len(dims) != 3:
        raise MalformedFile(f"expected 3 extents, got {dims}")
    if len(set(dims)) != 1:
        raise MalformedFile(f"only cubic grids are supported, got {dims}")
    if dims[0] < 1:
        raise MalformedFile(f"grid side {dims[0]} is below 1")
    d = dims[0]
    flat = _rle_decode(payload, d ** 3)
    values = flat.reshape(d, d, d).transpose(0, 2, 1).astype(np.float32)
    return np.ascontiguousarray(values)


def _split_header(data: bytes) -> tuple[list[bytes], bytes]:
    lines = []
    pos = 0
    while True:
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise MalformedFile("header not terminated by a data line")
        line = data[pos:nl]
        pos = nl + 1
        if line == b"data":
            return lines, data[pos:]
        lines.append(line)
        if len(lines) > 16:
            raise MalformedFile("header too long")


def _rle_decode(payload: bytes, expected: int) -> np.ndarray:
    if len(payload) % 2 != 0:
        raise MalformedFile("odd number of payload bytes")
    pairs = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 2)
    values, counts = pairs[:, 0], pairs[:, 1]
    if np.any(counts == 0):
        raise MalformedFile("zero-length run")
    if np.any(values > 1):
        raise MalformedFile(f"run value {int(values.max())} is neither 0 nor 1")
    total = int(counts.sum())
    if total != expected:
        raise MalformedFile(f"payload expands to {total} voxels, expected {expected}")
    return np.repeat(values, counts)


# --- PGM images ---

def write_pgm(image: np.ndarray) -> bytes:
    """Grayscale image in [0, 1] (or uint8) to binary P5 bytes."""
    img = np.asarray(image)
    if img.ndim != 2 or 0 in img.shape:
        raise ShapeMismatch(f"write_pgm: expected a 2-D image of at least one "
                            f"pixel, got {img.shape}")
    if img.dtype != np.uint8:
        img = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode() + img.tobytes()


def read_pgm(data: bytes) -> np.ndarray:
    """Binary P5 bytes to a uint8 [H, W] image: the file's pixel bytes, level k
    standing for k/255."""
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos == len(data):
            raise MalformedFile("PGM header ends early")
        if data[pos:pos + 1] == b"#":  # comment line
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise MalformedFile("PGM header ends inside a comment")
            pos = nl + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise MalformedFile(f"not a binary PGM: {fields[0]!r}")
    if not all(f.isdigit() for f in fields[1:]):
        raise MalformedFile(f"non-numeric PGM size or maxval: {fields[1:]!r}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise MalformedFile(f"unsupported maxval {maxval}")
    if w < 1 or h < 1:
        raise MalformedFile(f"PGM size {w}x{h} holds no pixel")
    pos += 1  # single whitespace byte after maxval
    body = data[pos:pos + w * h]
    if len(body) != w * h:
        raise MalformedFile(f"payload is {len(body)} bytes, expected {w * h}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w).copy()
