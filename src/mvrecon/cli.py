"""Command-line interface.

Subcommands: synth (build a dataset), train, eval, occlusion, rollout,
reconstruct (view images -> binvox).
Every run directory gets a flat key=value config file and a run manifest
recording the config, seed, git description, and outputs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    MODEL_PRESETS,
    TrainConfig,
    config_from_text,
    config_to_text,
)
from .datagen import (
    CATEGORIES,
    DEFAULT_N_VIEWS,
    OCCLUSION_BOX_SIZES,
    build_dataset,
    load_dataset,
    save_dataset,
)
from .evaluation import (
    DEFAULT_VIEW_COUNTS,
    evaluate,
    occlusion_csv,
    occlusion_markdown,
    occlusion_sweep,
    report_csv,
    report_markdown,
)
from .model import MultiViewReconstructor
from .rollout import attention_rollout, save_rollout_maps
from .training import loss_curve_csv, train
from .voxels import DEFAULT_THRESHOLD
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


def _write_run_manifest(run_dir: str, cfg_text: str, seed: int,
                        outputs: dict[str, str]) -> None:
    lines = ["# mvrecon run", f"git {_git_describe()}", f"seed {seed}", ""]
    lines += ["# outputs"] + [f"{k} {v}" for k, v in outputs.items()]
    lines += ["", "# config"] + cfg_text.strip().splitlines()
    with open(os.path.join(run_dir, "run.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


# --- synth ---

def cmd_synth(args) -> int:
    categories = tuple(args.categories.split(",")) if args.categories else CATEGORIES
    for c in categories:
        if c not in CATEGORIES:
            raise SystemExit(f"unknown category {c!r} (choose from {CATEGORIES})")
    dataset = build_dataset(args.objects, args.voxel_side, args.image_size,
                            seed=args.seed, categories=categories,
                            n_views=args.views)
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
    try:
        return config_from_text("\n".join([text, *args.set]))
    except ValueError as exc:
        raise SystemExit(f"bad config: {exc}") from None


def cmd_train(args) -> int:
    cfg = _train_config(args)
    dataset = load_dataset(args.data)
    if dataset.voxel_side != cfg.model.voxel_side:
        raise SystemExit(
            f"dataset voxels {dataset.voxel_side}^3 vs model "
            f"{cfg.model.voxel_side}^3; pass --set model.voxel_side=N or a matching config")
    if dataset.image_size != cfg.model.image_size:
        raise SystemExit(
            f"dataset images {dataset.image_size}px vs model "
            f"{cfg.model.image_size}px; pass --set model.image_size=N or a matching config")
    os.makedirs(args.out, exist_ok=True)
    model = MultiViewReconstructor(cfg.model, seed=cfg.seed)
    print(f"training {model.num_params():,} parameters "
          f"on {len(dataset.split('train'))} objects (loss={cfg.loss_mode}, "
          f"refiner={'on' if cfg.model.use_refiner else 'off'})")

    def progress(it, loss, lr):
        print(f"  iter {it:6d}  lr {lr:.2e}  loss {loss:.5f}")

    result = train(model, dataset, cfg, log_every=args.log_every,
                   progress=progress)
    ckpt_path = os.path.join(args.out, "checkpoint.ckpt")
    save_checkpoint(ckpt_path, model, epoch=result.epochs_run,
                    iteration=result.iterations_run, rng_state=result.rng_state)
    with open(os.path.join(args.out, "loss_curve.csv"), "w") as fh:
        fh.write(loss_curve_csv(result))
    cfg_text = config_to_text(cfg)
    with open(os.path.join(args.out, "config.txt"), "w") as fh:
        fh.write(cfg_text)
    _write_run_manifest(args.out, cfg_text, cfg.seed, {
        "checkpoint": "checkpoint.ckpt",
        "loss_curve": "loss_curve.csv",
        "final_loss": f"{result.losses[-1]:.6f}" if result.losses else "nan",
        "iterations": str(result.iterations_run),
    })
    print(f"done: {result.iterations_run} iterations, "
          f"final loss {result.losses[-1]:.5f} -> {ckpt_path}")
    return 0


# --- shared checkpoint loading ---

def _load_model(checkpoint_path: str, config_path: str | None) -> MultiViewReconstructor:
    if config_path is None:
        config_path = os.path.join(os.path.dirname(checkpoint_path), "config.txt")
    if not os.path.exists(config_path):
        raise SystemExit(f"config file {config_path!r} not found; pass --config")
    with open(config_path) as fh:
        cfg = config_from_text(fh.read())
    model = MultiViewReconstructor(cfg.model, seed=cfg.seed)
    load_checkpoint(checkpoint_path, model)
    return model


# --- eval ---

def cmd_eval(args) -> int:
    model = _load_model(args.checkpoint, args.config)
    dataset = load_dataset(args.data)
    view_counts = _ints(args.view_counts) if args.view_counts else DEFAULT_VIEW_COUNTS
    report = evaluate(model, dataset, split=args.split, view_counts=view_counts,
                      threshold=args.threshold, tau=args.tau)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "eval.csv"), "w") as fh:
        fh.write(report_csv(report))
    md = report_markdown(report)
    with open(os.path.join(args.out, "eval.md"), "w") as fh:
        fh.write(md)
    print(md)
    return 0


# --- occlusion ---

def cmd_occlusion(args) -> int:
    model = _load_model(args.checkpoint, args.config)
    dataset = load_dataset(args.data)
    sizes = _ints(args.sizes) if args.sizes else OCCLUSION_BOX_SIZES
    results = occlusion_sweep(model, dataset, sizes=sizes, split=args.split,
                              n_views=args.views, threshold=args.threshold,
                              tau=args.tau)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "occlusion.csv"), "w") as fh:
        fh.write(occlusion_csv(results))
    md = occlusion_markdown(results, args.views)
    with open(os.path.join(args.out, "occlusion.md"), "w") as fh:
        fh.write(md + "\n")
    print(md)
    return 0


# --- rollout ---

def cmd_rollout(args) -> int:
    model = _load_model(args.checkpoint, args.config)
    dataset = load_dataset(args.data)
    matches = [o for o in dataset.objects if o.object_id == args.object]
    if not matches:
        raise SystemExit(f"object {args.object!r} not in dataset")
    views = matches[0].views[:args.views]
    maps = attention_rollout(model, views)
    paths = save_rollout_maps(maps, args.out, prefix=args.object)
    print(f"wrote {len(paths)} rollout maps to {args.out}")
    return 0


# --- reconstruct ---

def cmd_reconstruct(args) -> int:
    if len(args.images) % 2 != 0:
        raise SystemExit("--images expects silhouette/depth PGM pairs")
    model = _load_model(args.checkpoint, args.config)
    views = []
    for i in range(0, len(args.images), 2):
        with open(args.images[i], "rb") as fh:
            sil = read_pgm(fh.read())
        with open(args.images[i + 1], "rb") as fh:
            dep = read_pgm(fh.read())
        views.append(np.stack([sil, dep]))
    grid = model.reconstruct(np.stack(views))
    binary = grid.binarize(args.threshold)
    with open(args.out, "wb") as fh:
        fh.write(write_binvox(binary))
    print(f"reconstructed {binary.occupancy()} occupied voxels -> {args.out}")
    return 0


# --- parser ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvrecon",
        description="Multi-view voxel reconstruction with coarse-to-fine attention")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic multi-view dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--objects", type=int, default=64)
    p.add_argument("--voxel-side", type=int, default=16)
    p.add_argument("--image-size", type=int, default=64)
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

    p = sub.add_parser("eval", help="metric tables for a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--view-counts", default="",
                   help="comma-separated, default 1,2,3,4,5,8,12,18,20")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--tau", type=float, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("occlusion", help="occlusion-robustness sweep")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--views", type=int, default=12)
    p.add_argument("--sizes", default="", help="comma-separated box sizes")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--tau", type=float, default=None)
    p.set_defaults(func=cmd_occlusion)

    p = sub.add_parser("rollout", help="attention-rollout heatmaps as PGM")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--object", required=True)
    p.add_argument("--views", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("reconstruct", help="silhouette/depth PGMs -> binvox")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--images", nargs="+", required=True,
                   help="alternating silhouette and depth PGM paths")
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.set_defaults(func=cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
