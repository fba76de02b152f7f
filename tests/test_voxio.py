import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvrecon
from mvrecon.errors import BadRunValue, DimMismatch, MalformedHeader, TruncatedRLE
from mvrecon.voxels import BINARY, CONTINUOUS, VoxelGrid
from mvrecon.voxio import (
    read_binvox,
    read_pgm,
    read_voxraw,
    write_binvox,
    write_pgm,
    write_voxraw,
)


def rand_binary(seed, side=32, fill=0.3):
    rng = np.random.default_rng(seed)
    return VoxelGrid(side, (rng.random((side,) * 3) < fill).astype(np.float32), BINARY)


def decode_binvox_reference(data: bytes) -> np.ndarray:
    """Independent decoder following the public format description:
    header lines up to 'data', then (value, count) byte pairs laid out
    x-slowest / z / y-fastest."""
    lines = data.split(b"\n")
    assert lines[0] == b"#binvox 1"
    dims = [int(v) for v in lines[1].split()[1:]]
    header_len = len(b"\n".join(lines[:5])) + 1
    raw = np.frombuffer(data[header_len:], dtype=np.uint8)
    values, counts = raw[::2], raw[1::2]
    flat = np.repeat(values, counts)
    return flat.reshape(dims).transpose(0, 2, 1).astype(np.float32)


# --- binvox ---

def test_binvox_empty_grid_roundtrip():
    g = VoxelGrid.zeros(32, BINARY)
    data = write_binvox(g)
    payload = data.split(b"data\n", 1)[1]
    pairs = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 2)
    assert np.all(pairs[:, 0] == 0)  # payload is runs of zeros
    assert int(pairs[:, 1].sum()) == 32 ** 3
    back = read_binvox(data)
    assert np.array_equal(back.values, g.values)


def test_binvox_single_voxel_roundtrip():
    g = VoxelGrid.zeros(16, BINARY)
    g.values[3, 7, 11] = 1
    back = read_binvox(write_binvox(g))
    assert np.array_equal(back.values, g.values)


@pytest.mark.parametrize("seed", range(20))
def test_binvox_random_roundtrip(seed):
    g = rand_binary(seed, side=16)
    back = read_binvox(write_binvox(g))
    assert np.array_equal(back.values, g.values)


def test_binvox_wire_order_matches_public_format():
    g = rand_binary(5, side=8)
    ref = decode_binvox_reference(write_binvox(g))
    assert np.array_equal(ref, g.values)


def test_binvox_header_fields():
    g = rand_binary(0, side=8)
    data = write_binvox(g, translate=(1.0, 2.0, 3.0), scale=0.5)
    lines = data.split(b"\n")[:5]
    assert lines[0] == b"#binvox 1"
    assert lines[1] == b"dim 8 8 8"
    assert lines[2] == b"translate 1 2 3"
    assert lines[3] == b"scale 0.5"
    assert lines[4] == b"data"
    assert np.array_equal(read_binvox(data).values, g.values)


def test_binvox_bad_magic():
    with pytest.raises(MalformedHeader):
        read_binvox(b"#voxbin 1\ndim 2 2 2\ndata\n" + bytes((0, 8)))


def test_binvox_missing_data_line():
    with pytest.raises(MalformedHeader):
        read_binvox(b"#binvox 1\ndim 2 2 2\n" + bytes((0, 8)))


def test_binvox_truncated_payload():
    g = rand_binary(1, side=8)
    data = write_binvox(g)
    with pytest.raises(TruncatedRLE):
        read_binvox(data[:-2])
    with pytest.raises(TruncatedRLE):
        read_binvox(data[:-1])  # odd byte count


def test_binvox_dim_mismatch():
    with pytest.raises(DimMismatch):
        read_binvox(b"#binvox 1\ndim 2 2 4\ndata\n" + bytes((0, 16)))
    with pytest.raises(DimMismatch):
        read_binvox(b"#binvox 1\ndim 2 2\ndata\n" + bytes((0, 8)))


def test_binvox_run_value_outside_zero_one():
    with pytest.raises(BadRunValue):
        read_binvox(b"#binvox 1\ndim 2 2 2\ndata\n\x02\x08")


def test_binvox_long_run_splitting():
    g = VoxelGrid(8, np.ones((8, 8, 8), dtype=np.float32), BINARY)  # 512 > 255
    data = write_binvox(g)
    back = read_binvox(data)
    assert np.array_equal(back.values, g.values)


# --- VOXRAW ---

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_voxraw_roundtrip_exact(dtype):
    rng = np.random.default_rng(3)
    g = VoxelGrid(8, rng.random((8, 8, 8)).astype(dtype), CONTINUOUS)
    back = read_voxraw(write_voxraw(g))
    assert back.values.dtype == dtype
    assert np.array_equal(back.values, g.values)


@pytest.mark.parametrize("seed", range(20))
def test_voxraw_random_roundtrips(seed):
    rng = np.random.default_rng(seed)
    g = VoxelGrid(6, rng.random((6, 6, 6)).astype(np.float32), CONTINUOUS)
    assert np.array_equal(read_voxraw(write_voxraw(g)).values, g.values)


def test_voxraw_bad_magic():
    with pytest.raises(MalformedHeader):
        read_voxraw(b"RAWVOX 4 float32\n" + b"\x00" * (64 * 4))


def test_voxraw_length_mismatch():
    g = VoxelGrid.zeros(4)
    data = write_voxraw(g)
    with pytest.raises(MalformedHeader):
        read_voxraw(data[:-4])
    with pytest.raises(MalformedHeader):
        read_voxraw(data + b"\x00\x00\x00\x00")


def test_voxraw_unknown_dtype():
    with pytest.raises(MalformedHeader):
        read_voxraw(b"VOXRAW 2 float16\n" + b"\x00" * 16)


# --- PGM ---

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_pgm_roundtrip_quantized(seed):
    rng = np.random.default_rng(seed)
    img = rng.random((5, 7)).astype(np.float32)
    back = read_pgm(write_pgm(img))
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-7


def test_pgm_uint8_exact():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(4, 6), dtype=np.uint8)
    back = read_pgm(write_pgm(img))
    assert np.array_equal(np.rint(back * 255).astype(np.uint8), img)


def test_pgm_bad_magic():
    with pytest.raises(MalformedHeader):
        read_pgm(b"P2\n2 2\n255\n0 0 0 0")


MALFORMED_PGM_HEADERS = [
    b"#",                      # comment with no newline
    b"P5\n# comment",
    b"P5 2",                   # header ends early
    b"P5 x 2 255\n\0\0",
    b"P5 2 -1 255\n\0\0",
    b"P5 2 2 2.5e2\n\0\0\0\0",
]


def test_pgm_malformed_headers_raise_in_bounded_time():
    # a subprocess with a timeout, so a parser that loops fails instead of hanging
    script = (
        "import ast, sys\n"
        "from mvrecon.errors import MalformedHeader\n"
        "from mvrecon.voxio import read_pgm\n"
        "for data in ast.literal_eval(sys.argv[1]):\n"
        "    try:\n"
        "        read_pgm(data)\n"
        "    except MalformedHeader:\n"
        "        continue\n"
        "    sys.exit(f'{data!r} did not raise MalformedHeader')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mvrecon.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, repr(MALFORMED_PGM_HEADERS)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
