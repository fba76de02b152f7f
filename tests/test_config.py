import pytest

from mvrecon.config import (
    TrainConfig,
    config_from_text,
    config_to_text,
    desk_model_config,
    paper_model_config,
    tiny_model_config,
)
from mvrecon.errors import BadConfig, MvreconError

BASE = config_to_text(TrainConfig(model=tiny_model_config()))


def test_text_roundtrip():
    cfg = TrainConfig(model=tiny_model_config(use_refiner=False), batch_size=3)
    assert config_from_text(config_to_text(cfg)) == cfg


@pytest.mark.parametrize("text,expected", [
    ("true", True), ("Yes", True), ("1", True),
    ("FALSE", False), ("no", False), ("0", False),
])
def test_bool_spellings(text, expected):
    cfg = config_from_text(BASE + f"model.use_refiner = {text}\n")
    assert cfg.model.use_refiner is expected


@pytest.mark.parametrize("text", ["ture", "", "2", "on", "nope"])
def test_misspelt_bool_is_rejected(text):
    with pytest.raises(BadConfig, match="use_refiner"):
        config_from_text(BASE + f"model.use_refiner = {text}\n")


@pytest.mark.parametrize("line", [
    "model.refiner_cube = 0",
    "model.voxel_side = -8",
    "model.refiner_cube = -2",
    "model.heads = -1",
    "train.views_per_sample = 0",
    "train.seed = -1",
    "train.max_iterations = -1",
])
def test_non_positive_extent_or_head_count_is_rejected(line):
    with pytest.raises(BadConfig, match="must be at least"):
        config_from_text(BASE + line + "\n")


@pytest.mark.parametrize("name", ["encoder_blocks", "decoder_cube", "refiner_cubes",
                                  "refiner_heads", "encoder_heads", "decoder_heads"])
def test_fixed_shape_settings_are_unknown_fields(name):
    # constants, or merged into ``heads``, since they stopped being settings;
    # config text naming one predates that and is rejected, not ignored
    with pytest.raises(BadConfig, match=f"unknown model field '{name}'"):
        config_from_text(BASE + f"model.{name} = 4\n")


def test_refiner_cubes_halve_from_refiner_cube():
    assert paper_model_config().refiner_cubes == [8, 4]
    assert desk_model_config().refiner_cubes == [8, 4]
    assert tiny_model_config().refiner_cubes == [4, 2]
    assert tiny_model_config(voxel_side=12, refiner_cube=6).refiner_cubes == [6, 3]


@pytest.mark.parametrize("lines", [
    "model.voxel_side = 12\nmodel.refiner_cube = 3",   # divides, does not halve
    "model.refiner_cube = 1",                          # divides, does not halve
    "model.refiner_cube = 16",                         # halves, does not divide 8
    "model.refiner_cube = 6",                          # halves, does not divide 8
])
def test_refiner_cube_must_divide_the_voxel_side_and_halve(lines):
    with pytest.raises(BadConfig, match="must divide voxel side .* and be a multiple of 2"):
        config_from_text(BASE + lines + "\n")


@pytest.mark.parametrize("line", [
    "train.lr_init = inf",
    "train.lr_init = -0.5",
    "train.lr_init = nan",
])
def test_non_finite_or_negative_float_is_rejected(line):
    with pytest.raises(BadConfig, match="must be finite and at least 0"):
        config_from_text(BASE + line + "\n")


def test_zero_head_count_picks_one_from_the_width():
    cfg = config_from_text(BASE + "model.heads = 0\n").model
    assert [cfg.head_count(w) for w in cfg.encoder_widths + [cfg.feature_width]] == [1] * 4
    paper = paper_model_config()
    assert [paper.head_count(w) for w in paper.encoder_widths] == [12, 6, 3]
    assert paper.head_count(paper.feature_width) == 21


@pytest.mark.parametrize("line", [
    "model.voxel_side = eight",
    "train.lr_init = fast",
    "model.refiner_cubes = 4,x",
    "no equals sign",
    "model.nope = 1",
    "other.seed = 1",
    "model.dtype = float16",
    "model.heads = 3",
])
def test_malformed_line_raises_bad_config(line):
    with pytest.raises(BadConfig):
        config_from_text(BASE + line + "\n")


def test_bad_config_is_also_a_value_error():
    # the CLI reports a bad config by catching ValueError
    assert issubclass(BadConfig, MvreconError) and issubclass(BadConfig, ValueError)
