"""Architecture and training configuration.

``ModelConfig`` holds the scales a preset varies: image and volume size,
embedding width, layer and head counts, the refiner's first cube side,
whether the refiner runs, and the float dtype.  Presets cover the full-scale
layout (32^3 volumes, 768-wide embeddings), a desk-scale layout that trains
in minutes on a CPU, and a tiny layout used by gradient checks.  What every
layout shares is a module constant below, not a field: the image channels,
the backbone's stride-2 stages, the encoder's attention blocks at halving
widths, the decoder's cube side, the refiner's blocks at halving cube sides,
and the rows of the view positional table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import BadConfig

DTYPES = {"float32": np.float32, "float64": np.float64}
# ints that may be 0: a head count picks one from the width, max_iterations
# runs every epoch, and seed 0 is a seed
_MAY_BE_ZERO = ("heads", "max_iterations", "seed")

IMAGE_CHANNELS = 2   # silhouette and depth
BACKBONE_STAGES = 4  # stride-2 conv stages in the view backbone
ENCODER_BLOCKS = 3   # C2F attention blocks at halving widths
DECODER_CUBE = 4     # side of the cube each decoder query emits
REFINER_BLOCKS = 2   # cube attention blocks at halving cube sides
MAX_VIEWS = 24       # rows of the encoder's view positional table


@dataclass(frozen=True)
class ModelConfig:
    voxel_side: int = 32
    image_size: int = 224
    embed_dim: int = 768
    encoder_layers: int = 4          # attention layers per block
    heads: int = 0                   # encoder and decoder; 0 = width // 64, at least 1
    backbone_channels: int = 16      # first conv stage; doubles per stage
    refiner_cube: int = 8            # first block's cube side; halves per block
    refiner_layers: int = 6
    use_refiner: bool = True
    dtype: str = "float32"

    def __post_init__(self):
        self.validate()

    # --- derived quantities ---

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]

    @property
    def encoder_widths(self) -> list[int]:
        return [self.embed_dim >> j for j in range(ENCODER_BLOCKS)]

    @property
    def feature_width(self) -> int:
        return sum(self.encoder_widths)

    @property
    def cube_count(self) -> int:
        return (self.voxel_side // DECODER_CUBE) ** 3

    @property
    def refiner_cubes(self) -> list[int]:
        return [self.refiner_cube >> j for j in range(REFINER_BLOCKS)]

    def head_count(self, width: int) -> int:
        """Heads of the encoder or decoder attention at ``width``."""
        return self.heads or max(1, width // 64)

    def validate(self) -> None:
        if self.dtype not in DTYPES:
            raise BadConfig(f"unknown dtype {self.dtype!r}")
        _check_ranges("model", self)  # before any of the divisions below
        if self.embed_dim % (1 << (ENCODER_BLOCKS - 1)) != 0:
            raise BadConfig(
                f"embed_dim {self.embed_dim} not divisible by "
                f"2^{ENCODER_BLOCKS - 1}")
        if self.image_size < (1 << BACKBONE_STAGES):
            raise BadConfig("image smaller than the backbone downsampling")
        if self.voxel_side % DECODER_CUBE != 0:
            raise BadConfig(f"decoder cube {DECODER_CUBE} must divide the voxel side")
        multiple = 1 << (REFINER_BLOCKS - 1)  # so that every block's cube side is whole
        if self.voxel_side % self.refiner_cube or self.refiner_cube % multiple:
            raise BadConfig(f"model.refiner_cube = {self.refiner_cube} must divide voxel "
                            f"side {self.voxel_side} and be a multiple of {multiple}")
        for w in self.encoder_widths + [self.feature_width]:
            if w % self.head_count(w) != 0:
                raise BadConfig(f"{self.head_count(w)} heads do not divide width {w}")


def paper_model_config(**overrides) -> ModelConfig:
    """Full-scale layout: 224px views, 768-wide embeddings, 32^3 volumes."""
    return replace(ModelConfig(), **overrides) if overrides else ModelConfig()


def desk_model_config(**overrides) -> ModelConfig:
    """Layout that trains on a laptop CPU in minutes."""
    cfg = ModelConfig(
        voxel_side=16,
        image_size=64,
        embed_dim=32,
        encoder_layers=2,
        heads=4,
        backbone_channels=8,
        refiner_layers=2,
    )
    return replace(cfg, **overrides) if overrides else cfg


def tiny_model_config(**overrides) -> ModelConfig:
    """Smallest sensible layout, for gradient checks and fast tests: the desk
    layout at 8^3 voxels and 32 px, with half its channels and cube sides."""
    cfg = desk_model_config(voxel_side=8, image_size=32, backbone_channels=4,
                            refiner_cube=4)
    return replace(cfg, **overrides) if overrides else cfg


MODEL_PRESETS = {
    "paper": paper_model_config,
    "desk": desk_model_config,
    "tiny": tiny_model_config,
}


def _check_ranges(section: str, cfg) -> None:
    """Every int field is at least 1, or at least 0 if named in
    ``_MAY_BE_ZERO``; every float field is finite and at least 0."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "float":
            if not (math.isfinite(value) and value >= 0):
                raise BadConfig(f"{section}.{f.name} = {value} must be finite "
                                f"and at least 0")
        elif f.type == "int":
            least = 0 if f.name in _MAY_BE_ZERO else 1
            if value < least:
                raise BadConfig(f"{section}.{f.name} = {value} must be at least {least}")


@dataclass
class TrainConfig:
    """One run's schedule and seeds.  The objective is not a setting: every
    step minimises ``voxels.loss_total`` (MSE plus 3D-SSIM) on the refined
    volume, as the paper trains."""
    model: ModelConfig = field(default_factory=tiny_model_config)
    batch_size: int = 32
    views_per_sample: int = 8
    epochs: int = 100
    max_iterations: int = 0          # 0 = run all epochs
    lr_init: float = 0.01
    lr_decay_epochs: int = 500
    lr_decay_factor: float = 0.1
    lr_floor: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        _check_ranges("train", self)
        if self.views_per_sample > MAX_VIEWS:
            raise BadConfig(f"train.views_per_sample = {self.views_per_sample} "
                            f"exceeds {MAX_VIEWS}")
        if self.lr_floor > self.lr_init:
            raise BadConfig("lr floor above the initial rate")

    def learning_rate(self, epoch: int) -> float:
        lr = self.lr_init * self.lr_decay_factor ** (epoch // self.lr_decay_epochs)
        return max(self.lr_floor, lr)


# --- flat key=value config files ---

_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_value(text: str, ftype: str):
    """``text`` as a value of the annotated field type ``ftype``."""
    text = text.strip()
    if ftype == "bool":
        if text.lower() not in _BOOLS:
            raise ValueError("a bool is one of true/false, yes/no, 1/0")
        return _BOOLS[text.lower()]
    if ftype == "int":
        return int(text)
    if ftype == "float":
        return float(text)
    return text


def _section_text(section: str, cfg) -> str:
    return "".join(f"{section}.{f.name} = {getattr(cfg, f.name)}\n"
                   for f in fields(cfg) if f.name != "model")


def model_config_to_text(cfg: ModelConfig) -> str:
    """The ``model.`` lines of a config file; checkpoints store them too."""
    return _section_text("model", cfg)


def config_to_text(cfg: TrainConfig) -> str:
    return model_config_to_text(cfg.model) + _section_text("train", cfg)


def config_from_text(text: str) -> TrainConfig:
    known = {"model": {f.name: f.type for f in fields(ModelConfig)},
             "train": {f.name: f.type for f in fields(TrainConfig) if f.name != "model"}}
    kwargs: dict[str, dict] = {"model": {}, "train": {}}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadConfig(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        section, _, name = key.partition(".")
        if section not in known:
            raise BadConfig(f"config keys must start with model. or train.: {key!r}")
        if name not in known[section]:
            raise BadConfig(f"unknown {section} field {name!r}")
        try:
            kwargs[section][name] = _parse_value(value, known[section][name])
        except ValueError as exc:
            raise BadConfig(f"{key} = {value!r}: {exc}") from None
    return TrainConfig(model=ModelConfig(**kwargs["model"]), **kwargs["train"])

