"""Architecture and training configuration.

``ModelConfig`` pins every constant the model needs; presets cover the
full-scale layout (32^3 volumes, 768-wide embeddings), a desk-scale layout
that trains in minutes on a CPU, and a tiny layout used by gradient checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class ModelConfig:
    voxel_side: int = 32
    image_size: int = 224
    image_channels: int = 2
    embed_dim: int = 768
    encoder_blocks: int = 3          # attention blocks at halving widths
    encoder_layers: int = 4          # attention layers per block
    encoder_heads: int = 0           # 0 = width // 64, at least 1
    backbone_channels: int = 16      # first conv stage; doubles per stage
    backbone_stages: int = 4
    mlp_ratio: int = 4
    use_positional_embeddings: bool = True
    max_views: int = 24
    decoder_cube: int = 4
    decoder_heads: int = 0           # 0 = width // 64, at least 1
    refiner_cubes: tuple[int, ...] = (8, 4)
    refiner_layers: int = 6
    refiner_heads: tuple[int, ...] = (8, 4)
    use_refiner: bool = True
    refiner_input_residual: bool = False
    dtype: str = "float32"

    def __post_init__(self):
        self.validate()

    # --- derived quantities ---

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]

    @property
    def encoder_widths(self) -> list[int]:
        return [self.embed_dim >> j for j in range(self.encoder_blocks)]

    @property
    def feature_width(self) -> int:
        return sum(self.encoder_widths)

    @property
    def cube_count(self) -> int:
        return (self.voxel_side // self.decoder_cube) ** 3

    def encoder_head_counts(self) -> list[int]:
        return [self.encoder_heads or max(1, w // 64) for w in self.encoder_widths]

    def decoder_head_count(self) -> int:
        return self.decoder_heads or max(1, self.feature_width // 64)

    def validate(self) -> None:
        if self.dtype not in DTYPES:
            raise ValueError(f"unknown dtype {self.dtype!r}")
        if self.embed_dim % (1 << (self.encoder_blocks - 1)) != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by "
                f"2^{self.encoder_blocks - 1}")
        if self.image_size < (1 << self.backbone_stages):
            raise ValueError("image smaller than the backbone downsampling")
        if self.voxel_side % self.decoder_cube != 0:
            raise ValueError("decoder cube must divide the voxel side")
        if len(self.refiner_cubes) != len(self.refiner_heads):
            raise ValueError("refiner cube/head lists differ in length")
        for i, c in enumerate(self.refiner_cubes):
            if self.voxel_side % c != 0:
                raise ValueError(f"refiner cube {c} must divide voxel side")
            if i > 0 and self.refiner_cubes[i - 1] != 2 * c:
                raise ValueError("refiner cube sides must halve per block")
        for w, h in zip(self.encoder_widths, self.encoder_head_counts()):
            if w % h != 0:
                raise ValueError(f"{h} heads do not divide encoder width {w}")
        if self.feature_width % self.decoder_head_count() != 0:
            raise ValueError("decoder heads do not divide the feature width")
        for c, h in zip(self.refiner_cubes, self.refiner_heads):
            if (c ** 3) % h != 0:
                raise ValueError(f"{h} heads do not divide cube width {c ** 3}")


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
        encoder_heads=4,
        backbone_channels=8,
        decoder_heads=4,
        refiner_cubes=(8, 4),
        refiner_layers=2,
        refiner_heads=(8, 4),
    )
    return replace(cfg, **overrides) if overrides else cfg


def tiny_model_config(**overrides) -> ModelConfig:
    """Smallest sensible layout, used for gradient checks and fast tests."""
    cfg = ModelConfig(
        voxel_side=8,
        image_size=32,
        embed_dim=32,
        encoder_layers=2,
        encoder_heads=4,
        backbone_channels=4,
        decoder_heads=4,
        refiner_cubes=(4, 2),
        refiner_layers=2,
        refiner_heads=(4, 2),
    )
    return replace(cfg, **overrides) if overrides else cfg


MODEL_PRESETS = {
    "paper": paper_model_config,
    "desk": desk_model_config,
    "tiny": tiny_model_config,
}


@dataclass
class TrainConfig:
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
    loss_mode: str = "total"         # mse | ssim | total
    aux_coarse_weight: float = 0.0   # extra supervision on the pre-refiner volume

    def __post_init__(self):
        if self.loss_mode not in ("mse", "ssim", "total"):
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")
        if self.lr_floor > self.lr_init:
            raise ValueError("lr floor above the initial rate")

    def learning_rate(self, epoch: int) -> float:
        lr = self.lr_init * self.lr_decay_factor ** (epoch // self.lr_decay_epochs)
        return max(self.lr_floor, lr)


# --- flat key=value config files ---

def _format_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def _parse_value(text: str, ftype):
    text = text.strip()
    if ftype is bool:
        return text.lower() in ("1", "true", "yes")
    if ftype is int:
        return int(text)
    if ftype is float:
        return float(text)
    if ftype is str:
        return text
    # tuples of ints
    return tuple(int(x) for x in text.split(",") if x.strip())


def config_to_text(cfg: TrainConfig) -> str:
    lines = []
    for f in fields(ModelConfig):
        lines.append(f"model.{f.name} = {_format_value(getattr(cfg.model, f.name))}")
    for f in fields(TrainConfig):
        if f.name == "model":
            continue
        lines.append(f"train.{f.name} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> TrainConfig:
    model_fields = {f.name: f for f in fields(ModelConfig)}
    train_fields = {f.name: f for f in fields(TrainConfig) if f.name != "model"}
    model_kwargs, train_kwargs = {}, {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("model."):
            name = key[len("model."):]
            if name not in model_fields:
                raise ValueError(f"unknown model field {name!r}")
            model_kwargs[name] = _parse_value(value, _field_type(model_fields[name]))
        elif key.startswith("train."):
            name = key[len("train."):]
            if name not in train_fields:
                raise ValueError(f"unknown train field {name!r}")
            train_kwargs[name] = _parse_value(value, _field_type(train_fields[name]))
        else:
            raise ValueError(f"config keys must start with model. or train.: {key!r}")
    return TrainConfig(model=ModelConfig(**model_kwargs), **train_kwargs)


def _field_type(f):
    t = f.type
    if isinstance(t, str):  # postponed annotations
        return {"int": int, "float": float, "bool": bool, "str": str}.get(t, tuple)
    if t in (int, float, bool, str):
        return t
    return tuple


def config_hash(cfg: ModelConfig) -> str:
    text = "\n".join(
        f"{f.name}={_format_value(getattr(cfg, f.name))}"
        for f in sorted(fields(ModelConfig), key=lambda f: f.name))
    return hashlib.sha256(text.encode()).hexdigest()
