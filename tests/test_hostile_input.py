"""Hostile bytes: each parser fails only with its own error class,
``MalformedFile`` for a file and ``BadConfig`` for config text.

Every property overwrites a few bytes of a valid file, maybe cuts it short,
and parses the result.  ``derandomize`` fixes the examples, so the tests
draw the same inputs on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvrecon.checkpoint import checkpoint_bytes, load_checkpoint_bytes
from mvrecon.config import TrainConfig, config_from_text, config_to_text, tiny_model_config
from mvrecon.datagen import Dataset, DatasetObject, manifest_from_text, manifest_to_text
from mvrecon.errors import BadConfig, MalformedFile
from mvrecon.model import MultiViewReconstructor
from mvrecon.voxio import read_binvox, read_pgm, write_binvox, write_pgm

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

_rng = np.random.default_rng(0)
PGM = write_pgm(_rng.random((5, 7)))
BINVOX = write_binvox(_rng.random((8, 8, 8)) < 0.3)
MODEL = MultiViewReconstructor(tiny_model_config(), seed=0)
CHECKPOINT = checkpoint_bytes(MODEL)
MANIFEST = manifest_to_text(Dataset(16, 32, 24, 30.0, [
    DatasetObject("obj0000", "box", 11, "train", None, None),
    DatasetObject("obj0001", "ring", 12, "test", None, None),
])).encode()
CONFIG = config_to_text(TrainConfig(model=tiny_model_config())).encode()


def mutants(valid: bytes, span: int | None = None):
    """``valid`` with one to four of its first ``span`` bytes overwritten,
    then maybe cut short."""
    span = min(span or len(valid), len(valid))
    edits = st.lists(st.tuples(st.integers(0, span - 1), st.integers(0, 255)),
                     min_size=1, max_size=4)
    return st.tuples(edits, st.none() | st.integers(0, len(valid))).map(
        lambda drawn: _mutate(valid, *drawn))


def _mutate(valid: bytes, edits, cut) -> bytes:
    data = bytearray(valid)
    for pos, value in edits:
        data[pos] = value
    return bytes(data[:cut])


def fails_only_with(error, parse, data) -> None:
    try:
        parse(data)
    except error:
        pass


@FUZZ
@given(mutants(PGM))
def test_pgm(data):
    fails_only_with(MalformedFile, read_pgm, data)


@FUZZ
@given(mutants(BINVOX))
def test_binvox(data):
    fails_only_with(MalformedFile, read_binvox, data)


@settings(FUZZ, max_examples=100)
@given(mutants(CHECKPOINT, span=4096))  # the header and the first records' headers
def test_checkpoint(data):
    fails_only_with(MalformedFile, lambda d: load_checkpoint_bytes(d, MODEL), data)


@FUZZ
@given(mutants(MANIFEST))
def test_manifest(data):
    fails_only_with(MalformedFile, manifest_from_text, data.decode("latin-1"))


@FUZZ
@given(mutants(CONFIG))
def test_config_text(data):
    fails_only_with(BadConfig, config_from_text, data.decode("latin-1"))
