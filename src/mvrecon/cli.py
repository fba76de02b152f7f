"""Command-line interface.

Subcommands: synth (build a dataset), train, eval, occlusion, rollout,
reconstruct (view images -> binvox).
eval and occlusion each write one table of ``evaluation.Score`` rows, as
CSV and markdown, through the same writer.
A training run directory gets its flat key=value config file, a run
manifest recording the seed, git description, and outputs, and a checkpoint
that carries the model config, so the other commands need only the
checkpoint.  A bad config exits with ``bad config: ...``, and any other
package error or a file that cannot be read or written with ``error: ...``,
one line each.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

import numpy as np

from .checkpoint import load_model, save_checkpoint
from .config import (
    MODEL_PRESETS,
    TrainConfig,
    config_from_text,
    config_to_text,
    desk_model_config,
)
from .datagen import (
    CATEGORIES,
    DEFAULT_N_VIEWS,
    OCCLUSION_BOX_SIZES,
    build_dataset,
    levels_to_images,
    load_dataset,
    save_dataset,
)
from .errors import BadConfig, MvreconError, ShapeMismatch
from .evaluation import (
    DEFAULT_VIEW_COUNTS,
    evaluate,
    occlusion_sweep,
    scores_csv,
    scores_markdown,
)
from .model import MultiViewReconstructor
from .rollout import attention_rollout, save_rollout_maps
from .training import loss_curve_csv, train
from .voxels import DEFAULT_THRESHOLD, check_scoring
from .voxio import read_pgm, write_binvox


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_run_manifest(run_dir: str, seed: int, outputs: dict[str, str]) -> None:
    lines = ["# mvrecon run", f"git {_git_describe()}", f"seed {seed}", ""]
    lines += ["# outputs"] + [f"{k} {v}" for k, v in outputs.items()]
    with open(os.path.join(run_dir, "run.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _ints(text: str) -> tuple[int, ...]:
    values = tuple(int(x) for x in text.split(",") if x.strip())
    if not values:
        raise ValueError("empty list")
    return values


# --- synth ---

def cmd_synth(args) -> int:
    categories = tuple(args.categories.split(",")) if args.categories else CATEGORIES
    dataset = build_dataset(args.objects, args.voxel_side, args.image_size,
                            seed=args.seed, categories=categories, n_views=args.views)
    save_dataset(dataset, args.out)
    counts = {s: len(dataset.split(s)) for s in ("train", "val", "test")}
    print(f"wrote {args.objects} objects to {args.out} "
          f"(train/val/test = {counts['train']}/{counts['val']}/{counts['test']})")
    return 0


# --- train ---

def _train_config(args) -> TrainConfig:
    """The preset or ``--config`` text with each ``--set key=value`` line
    appended; later lines override earlier ones."""
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    else:
        text = config_to_text(TrainConfig(model=MODEL_PRESETS[args.preset]()))
    return config_from_text("\n".join([text, *args.set]))


def cmd_train(args) -> int:
    cfg = _train_config(args)
    dataset = load_dataset(args.data)
    for key in ("voxel_side", "image_size"):
        if getattr(dataset, key) != getattr(cfg.model, key):
            raise BadConfig(
                f"dataset {key} {getattr(dataset, key)} vs model {getattr(cfg.model, key)}; "
                f"pass --set model.{key}=N or a matching config")
    os.makedirs(args.out, exist_ok=True)
    model = MultiViewReconstructor(cfg.model, seed=cfg.seed)
    print(f"training {model.num_params():,} parameters "
          f"on {len(dataset.split('train'))} objects ("
          f"refiner={'on' if cfg.model.use_refiner else 'off'})")

    def progress(it, loss, lr):
        print(f"  iter {it:6d}  lr {lr:.2e}  loss {loss:.5f}")

    result = train(model, dataset, cfg, log_every=args.log_every,
                   progress=progress)
    ckpt_path = os.path.join(args.out, "checkpoint.ckpt")
    save_checkpoint(ckpt_path, model)
    with open(os.path.join(args.out, "loss_curve.csv"), "w") as fh:
        fh.write(loss_curve_csv(result))
    with open(os.path.join(args.out, "config.txt"), "w") as fh:
        fh.write(config_to_text(cfg))
    _write_run_manifest(args.out, cfg.seed, {
        "checkpoint": "checkpoint.ckpt",
        "loss_curve": "loss_curve.csv",
        "final_loss": f"{result.losses[-1]:.6f}" if result.losses else "nan",
        "iterations": str(len(result.losses)),
    })
    print(f"done: {len(result.losses)} iterations, "
          f"final loss {result.losses[-1]:.5f} -> {ckpt_path}")
    return 0


# --- eval and occlusion ---

def _write_scores(out_dir: str, name: str, rows, setting_name: str, title: str,
                  label: str = "{}") -> None:
    """Write ``name.csv`` and ``name.md`` for one table and print the markdown."""
    os.makedirs(out_dir, exist_ok=True)
    md = scores_markdown(rows, title, label)
    for ext, text in (("csv", scores_csv(rows, setting_name)), ("md", md)):
        with open(os.path.join(out_dir, f"{name}.{ext}"), "w") as fh:
            fh.write(text)
    print(md)


def cmd_eval(args) -> int:
    report = evaluate(load_model(args.checkpoint), load_dataset(args.data),
                      split=args.split, view_counts=args.view_counts,
                      threshold=args.threshold, tau=args.tau)
    _write_scores(args.out, "eval", report.view_counts, "view_count",
                  "Reconstruction by number of views")
    return 0


def cmd_occlusion(args) -> int:
    rows = occlusion_sweep(load_model(args.checkpoint), load_dataset(args.data),
                           sizes=args.sizes, split=args.split, n_views=args.views,
                           threshold=args.threshold, tau=args.tau)
    _write_scores(args.out, "occlusion", rows, "box_size",
                  f"{args.views}-view reconstruction under occlusion", "{0}x{0}")
    return 0


# --- rollout ---

def cmd_rollout(args) -> int:
    model = load_model(args.checkpoint)
    dataset = load_dataset(args.data)
    matches = [o for o in dataset.objects if o.object_id == args.object]
    if not matches:
        raise MvreconError(f"object {args.object!r} not in dataset")
    maps = attention_rollout(model, matches[0].first_views(args.views))
    paths = save_rollout_maps(maps, args.out, prefix=args.object)
    print(f"wrote {len(paths)} rollout maps to {args.out}")
    return 0


# --- reconstruct ---

def cmd_reconstruct(args) -> int:
    if len(args.images) % 2 != 0:
        raise BadConfig("--images expects silhouette/depth PGM pairs")
    check_scoring(args.threshold)
    model = load_model(args.checkpoint)
    images = []
    for path in args.images:
        with open(path, "rb") as fh:
            images.append(read_pgm(fh.read()))
        if images[-1].shape != images[0].shape:
            raise ShapeMismatch(f"{path} is {images[-1].shape}, "
                                f"{args.images[0]} is {images[0].shape}")
    views = levels_to_images(np.stack(images).reshape((-1, 2) + images[0].shape))
    occupied = model.reconstruct(views).values >= args.threshold
    with open(args.out, "wb") as fh:
        fh.write(write_binvox(occupied))
    print(f"reconstructed {np.count_nonzero(occupied)} occupied voxels -> {args.out}")
    return 0


# --- parser ---

def _scoring_parser(sub, name: str, help: str, func) -> argparse.ArgumentParser:
    """A subcommand with the flags that eval and occlusion share."""
    p = sub.add_parser(name, help=help)
    for flag in ("--checkpoint", "--data", "--out"):
        p.add_argument(flag, required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help=f"cut that binarizes predicted volumes, default {DEFAULT_THRESHOLD}")
    p.add_argument("--tau", type=float, default=None,
                   help="F-score distance in unit-cube coordinates, default 1/V (one voxel)")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvrecon",
        description="Multi-view voxel reconstruction with coarse-to-fine attention")
    sub = parser.add_subparsers(dest="command", required=True)

    desk = desk_model_config()  # train's default preset, which synth's data fits
    p = sub.add_parser("synth", help="generate a synthetic multi-view dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--objects", type=int, default=64)
    p.add_argument("--voxel-side", type=int, default=desk.voxel_side)
    p.add_argument("--image-size", type=int, default=desk.image_size)
    p.add_argument("--views", type=int, default=DEFAULT_N_VIEWS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--categories", default="",
                   help="comma-separated subset of " + ",".join(CATEGORIES))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=sorted(MODEL_PRESETS), default="desk")
    p.add_argument("--config", help="flat key=value config file (overrides preset)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config line, e.g. train.max_iterations=100 "
                        "or model.use_refiner=false (repeatable)")
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = _scoring_parser(sub, "eval", "metric tables for a trained checkpoint", cmd_eval)
    p.add_argument("--view-counts", type=_ints, default=DEFAULT_VIEW_COUNTS,
                   help="comma-separated, default 1,2,3,4,5,8,12,18,20")

    p = _scoring_parser(sub, "occlusion", "occlusion-robustness sweep", cmd_occlusion)
    p.add_argument("--views", type=int, default=12)
    p.add_argument("--sizes", type=_ints, default=OCCLUSION_BOX_SIZES,
                   help="comma-separated box sizes")

    p = sub.add_parser("rollout", help="attention-rollout heatmaps as PGM")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--object", required=True)
    p.add_argument("--views", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("reconstruct", help="silhouette/depth PGMs -> binvox")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", nargs="+", required=True,
                   help="alternating silhouette and depth PGM paths")
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.set_defaults(func=cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BadConfig as exc:
        raise SystemExit(f"bad config: {exc}") from None
    except (MvreconError, OSError) as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
