import os

import numpy as np
import pytest

from mvrecon.cli import main
from mvrecon.datagen import load_dataset
from mvrecon.voxio import read_binvox


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train once, shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    run = str(root / "run")
    assert main(["synth", "--out", data, "--objects", "12", "--voxel-side", "8",
                 "--image-size", "32", "--views", "8", "--seed", "3",
                 "--categories", "box,table,ring"]) == 0
    assert main(["train", "--data", data, "--out", run, "--preset", "tiny",
                 "--set", "train.max_iterations=4", "--set", "train.epochs=50",
                 "--set", "train.batch_size=4", "--set", "train.views_per_sample=3",
                 "--set", "train.seed=1"]) == 0
    return {"data": data, "run": run, "root": root}


def test_synth_outputs(workspace):
    data = workspace["data"]
    assert os.path.exists(os.path.join(data, "manifest.txt"))
    ds = load_dataset(data)
    assert len(ds.objects) == 12
    assert ds.objects[0].views.shape == (8, 2, 32, 32)


def test_synth_roundtrips_renders(workspace):
    from mvrecon.datagen import build_dataset
    ds_disk = load_dataset(workspace["data"])
    ds_mem = build_dataset(12, 8, 32, seed=3, categories=("box", "table", "ring"),
                           n_views=8)
    for a, b in zip(ds_disk.objects, ds_mem.objects):
        assert a.object_id == b.object_id and a.split == b.split
        np.testing.assert_array_equal(a.grid, b.grid)
        np.testing.assert_array_equal(a.views, b.views)


def test_train_outputs(workspace):
    run = workspace["run"]
    for name in ("checkpoint.ckpt", "loss_curve.csv", "config.txt", "run.txt"):
        assert os.path.exists(os.path.join(run, name)), name
    curve = open(os.path.join(run, "loss_curve.csv")).read().strip().splitlines()
    assert len(curve) == 5  # header + 4 iterations
    run_txt = open(os.path.join(run, "run.txt")).read()
    assert "seed 1" in run_txt and "# config" in run_txt
    config = open(os.path.join(run, "config.txt")).read()
    assert "train.batch_size = 4" in config and "model.voxel_side = 8" in config


def test_eval_command(workspace, tmp_path):
    out = str(tmp_path / "eval")
    assert main(["eval", "--checkpoint", os.path.join(workspace["run"], "checkpoint.ckpt"),
                 "--data", workspace["data"], "--out", out,
                 "--view-counts", "1,4,8"]) == 0
    csv = open(os.path.join(out, "eval.csv")).read()
    assert csv.splitlines()[0] == "view_count,category,iou,fscore"
    md = open(os.path.join(out, "eval.md")).read()
    assert "| Metric | 1 | 4 | 8 |" in md


def test_occlusion_command(workspace, tmp_path):
    out = str(tmp_path / "occ")
    assert main(["occlusion", "--checkpoint",
                 os.path.join(workspace["run"], "checkpoint.ckpt"),
                 "--data", workspace["data"], "--out", out,
                 "--views", "8", "--sizes", "0,20,40"]) == 0
    csv = open(os.path.join(out, "occlusion.csv")).read().strip().splitlines()
    assert len(csv) == 4


def test_rollout_command(workspace, tmp_path):
    out = str(tmp_path / "roll")
    assert main(["rollout", "--checkpoint",
                 os.path.join(workspace["run"], "checkpoint.ckpt"),
                 "--data", workspace["data"], "--object", "obj0000",
                 "--views", "4", "--out", out]) == 0
    files = sorted(os.listdir(out))
    assert len(files) == 3 * 4  # blocks x views
    assert files[0].startswith("obj0000_block1_view1")


def test_reconstruct_command(workspace, tmp_path):
    data = workspace["data"]
    views_dir = os.path.join(data, "views", "obj0001")
    images = []
    for k in range(2):
        images += [os.path.join(views_dir, f"v{k:02d}_sil.pgm"),
                   os.path.join(views_dir, f"v{k:02d}_dep.pgm")]
    out = str(tmp_path / "recon.binvox")
    assert main(["reconstruct", "--checkpoint",
                 os.path.join(workspace["run"], "checkpoint.ckpt"),
                 "--images"] + images + ["--out", out]) == 0
    grid = read_binvox(open(out, "rb").read())
    assert grid.side == 8


def test_train_rejects_mismatched_geometry(workspace, tmp_path):
    with pytest.raises(SystemExit, match="--set model.voxel_side="):
        main(["train", "--data", workspace["data"], "--out", str(tmp_path / "r"),
              "--preset", "desk", "--set", "train.max_iterations=1"])


@pytest.mark.parametrize("override", ["train.views_pool=8", "model.voxel_side=x",
                                      "voxel_side=8", "train.max_iterations"])
def test_train_rejects_bad_set(workspace, tmp_path, override):
    with pytest.raises(SystemExit, match="bad config"):
        main(["train", "--data", workspace["data"], "--out", str(tmp_path / "r"),
              "--preset", "tiny", "--set", override])
