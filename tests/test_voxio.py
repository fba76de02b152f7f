import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvrecon
from mvrecon.datagen import levels_to_images
from mvrecon.errors import MalformedFile, ShapeMismatch
from mvrecon.voxio import (
    read_binvox,
    read_pgm,
    write_binvox,
    write_pgm,
)


def rand_binary(seed, side=32, fill=0.3):
    rng = np.random.default_rng(seed)
    return (rng.random((side,) * 3) < fill).astype(np.float32)


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
    g = np.zeros((32,) * 3, dtype=np.float32)
    data = write_binvox(g)
    payload = data.split(b"data\n", 1)[1]
    pairs = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 2)
    assert np.all(pairs[:, 0] == 0)  # payload is runs of zeros
    assert int(pairs[:, 1].sum()) == 32 ** 3
    back = read_binvox(data)
    assert np.array_equal(back, g)


def test_binvox_single_voxel_roundtrip():
    g = np.zeros((16,) * 3, dtype=np.float32)
    g[3, 7, 11] = 1
    back = read_binvox(write_binvox(g))
    assert np.array_equal(back, g)


@pytest.mark.parametrize("seed", range(20))
def test_binvox_random_roundtrip(seed):
    g = rand_binary(seed, side=16)
    back = read_binvox(write_binvox(g))
    assert np.array_equal(back, g)


def test_binvox_wire_order_matches_public_format():
    g = rand_binary(5, side=8)
    ref = decode_binvox_reference(write_binvox(g))
    assert np.array_equal(ref, g)


def test_binvox_header_fields():
    g = rand_binary(0, side=8)
    data = write_binvox(g)
    lines = data.split(b"\n")[:5]
    assert lines[0] == b"#binvox 1"
    assert lines[1] == b"dim 8 8 8"
    assert lines[2] == b"translate 0 0 0"
    assert lines[3] == b"scale 1"
    assert lines[4] == b"data"
    assert np.array_equal(read_binvox(data), g)


def test_binvox_bad_magic():
    with pytest.raises(MalformedFile, match="not a binvox file"):
        read_binvox(b"#voxbin 1\ndim 2 2 2\ndata\n" + bytes((0, 8)))


def test_binvox_missing_data_line():
    with pytest.raises(MalformedFile, match="header not terminated by a data line"):
        read_binvox(b"#binvox 1\ndim 2 2 2\n" + bytes((0, 8)))


def test_binvox_truncated_payload():
    g = rand_binary(1, side=8)
    data = write_binvox(g)
    with pytest.raises(MalformedFile, match=r"payload expands to \d+ voxels, expected 512"):
        read_binvox(data[:-2])
    with pytest.raises(MalformedFile, match="odd number of payload bytes"):
        read_binvox(data[:-1])


def test_binvox_dim_mismatch():
    with pytest.raises(MalformedFile, match="only cubic grids"):
        read_binvox(b"#binvox 1\ndim 2 2 4\ndata\n" + bytes((0, 16)))
    with pytest.raises(MalformedFile, match="expected 3 extents"):
        read_binvox(b"#binvox 1\ndim 2 2\ndata\n" + bytes((0, 8)))
    with pytest.raises(MalformedFile, match="grid side 0 is below 1"):
        read_binvox(b"#binvox 1\ndim 0 0 0\ndata\n")


@pytest.mark.parametrize("shape", [(0, 0, 0), (2, 3, 4), (4, 4)],
                         ids=["zero-side", "not-cubic", "2-d"])
def test_binvox_writer_rejects_what_the_reader_rejects(shape):
    with pytest.raises(ShapeMismatch, match=r"expected a \[V, V, V\] grid"):
        write_binvox(np.zeros(shape))


def test_binvox_run_value_outside_zero_one():
    with pytest.raises(MalformedFile, match="run value 2 is neither 0 nor 1"):
        read_binvox(b"#binvox 1\ndim 2 2 2\ndata\n\x02\x08")


def test_binvox_long_run_splitting():
    g = np.ones((8, 8, 8), dtype=np.float32)  # 512 > 255
    data = write_binvox(g)
    back = read_binvox(data)
    assert np.array_equal(back, g)


def test_binvox_nonzero_is_occupied():
    g = rand_binary(3, side=8)
    weighted = g * np.random.default_rng(4).uniform(0.1, 2.0, g.shape)
    assert write_binvox(g > 0) == write_binvox(weighted) == write_binvox(g)
    back = read_binvox(write_binvox(weighted))
    assert back.dtype == np.float32 and np.array_equal(back, g)


# --- PGM ---

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_pgm_roundtrip_quantized(seed):
    rng = np.random.default_rng(seed)
    img = rng.random((5, 7)).astype(np.float32)
    levels = read_pgm(write_pgm(img))
    assert levels.dtype == np.uint8 and levels.shape == img.shape
    assert np.max(np.abs(levels_to_images(levels) - img)) <= 0.5 / 255 + 1e-7


def test_pgm_uint8_exact():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(4, 6), dtype=np.uint8)
    back = read_pgm(write_pgm(img))
    assert back.dtype == np.uint8 and np.array_equal(back, img)


@pytest.mark.parametrize("shape", [(2, 3, 4), (0, 3), (3, 0)],
                         ids=["3-d", "zero-height", "zero-width"])
def test_pgm_rejects_non_2d_image(shape):
    # read_pgm rejects a zero height or width, so write_pgm does too
    with pytest.raises(ShapeMismatch):
        write_pgm(np.zeros(shape))


def test_pgm_bad_magic():
    with pytest.raises(MalformedFile, match="not a binary PGM"):
        read_pgm(b"P2\n2 2\n255\n0 0 0 0")


MALFORMED_PGM_HEADERS = [
    b"#",                      # comment with no newline
    b"P5\n# comment",
    b"P5 2",                   # header ends early
    b"P5 x 2 255\n\0\0",
    b"P5 2 -1 255\n\0\0",
    b"P5 2 2 2.5e2\n\0\0\0\0",
    b"P5\n0 0\n255\n",         # no pixels
    b"P5\n0 3\n255\n",
]


def test_pgm_malformed_headers_raise_in_bounded_time():
    # a subprocess with a timeout, so a parser that loops fails instead of hanging
    script = (
        "import ast, sys\n"
        "from mvrecon.errors import MalformedFile\n"
        "from mvrecon.voxio import read_pgm\n"
        "for data in ast.literal_eval(sys.argv[1]):\n"
        "    try:\n"
        "        read_pgm(data)\n"
        "    except MalformedFile:\n"
        "        continue\n"
        "    sys.exit(f'{data!r} did not raise MalformedFile')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mvrecon.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, repr(MALFORMED_PGM_HEADERS)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
