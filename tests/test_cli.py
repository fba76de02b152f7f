import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from mvrecon.checkpoint import load_model, save_checkpoint
from mvrecon.cli import build_parser, main
from mvrecon.config import MODEL_PRESETS
from mvrecon.datagen import load_dataset
from mvrecon.model import MultiViewReconstructor
from mvrecon.voxels import DEFAULT_THRESHOLD
from mvrecon.voxio import read_binvox, write_pgm

from modelutil import WEIGHT_FAULTS


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
    curve = Path(run, "loss_curve.csv").read_text().strip().splitlines()
    assert len(curve) == 5  # header + 4 iterations
    run_txt = Path(run, "run.txt").read_text()
    assert "seed 1" in run_txt and "checkpoint checkpoint.ckpt" in run_txt
    assert "model." not in run_txt  # the config lives in config.txt and the checkpoint
    config = Path(run, "config.txt").read_text()
    assert "train.batch_size = 4" in config and "model.voxel_side = 8" in config


def test_eval_command(workspace, tmp_path):
    out = str(tmp_path / "eval")
    assert main(["eval", "--checkpoint", os.path.join(workspace["run"], "checkpoint.ckpt"),
                 "--data", workspace["data"], "--out", out,
                 "--view-counts", "1,4,8"]) == 0
    csv = Path(out, "eval.csv").read_text()
    assert csv.splitlines()[0] == "view_count,category,iou,fscore,n_empty"
    md = Path(out, "eval.md").read_text()
    assert "| Metric | 1 | 4 | 8 |" in md


def test_occlusion_command(workspace, tmp_path):
    out = str(tmp_path / "occ")
    assert main(["occlusion", "--checkpoint",
                 os.path.join(workspace["run"], "checkpoint.ckpt"),
                 "--data", workspace["data"], "--out", out,
                 "--views", "8", "--sizes", "0,20,40"]) == 0
    csv = Path(out, "occlusion.csv").read_text().strip().splitlines()
    assert csv[0] == "box_size,category,iou,fscore,n_empty"
    # per box: one overall line, then one line per test-split category
    categories = {o.category for o in load_dataset(workspace["data"]).split("test")}
    assert len(csv) == 1 + 3 * (1 + len(categories))
    assert [line.split(",")[:2] for line in csv[1::1 + len(categories)]] == [
        ["0", "overall"], ["20", "overall"], ["40", "overall"]]
    md = Path(out, "occlusion.md").read_text()
    assert "| Metric | 0x0 | 20x20 | 40x40 |" in md


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
    grid = read_binvox(Path(out).read_bytes())
    assert grid.shape == (8, 8, 8)


def test_reconstruct_command_matches_the_model_on_the_dataset_views(workspace, tmp_path,
                                                                   monkeypatch):
    views_dir = os.path.join(workspace["data"], "views", "obj0002")
    images = [os.path.join(views_dir, f"v{k:02d}_{tag}.pgm")
              for k in range(3) for tag in ("sil", "dep")]
    ckpt = os.path.join(workspace["run"], "checkpoint.ckpt")
    out = str(tmp_path / "recon.binvox")
    volumes = []
    reconstruct = MultiViewReconstructor.reconstruct

    def recording(self, views):
        grid = reconstruct(self, views)
        volumes.append(grid.values)
        return grid

    monkeypatch.setattr(MultiViewReconstructor, "reconstruct", recording)
    assert main(["reconstruct", "--checkpoint", ckpt, "--images", *images, "--out", out]) == 0
    monkeypatch.undo()
    obj = load_dataset(workspace["data"]).objects[2]
    expected = load_model(ckpt).reconstruct(obj.first_views(3)).values
    assert len(volumes) == 1 and volumes[0].tobytes() == expected.tobytes()
    occupied = (expected >= DEFAULT_THRESHOLD).astype(np.float32)
    assert np.array_equal(read_binvox(Path(out).read_bytes()), occupied)


def test_train_rejects_mismatched_geometry(workspace, tmp_path):
    with pytest.raises(SystemExit, match="--set model.voxel_side="):
        main(["train", "--data", workspace["data"], "--out", str(tmp_path / "r"),
              "--preset", "desk", "--set", "train.max_iterations=1"])


@pytest.mark.parametrize("override", ["train.views_pool=8", "model.voxel_side=x",
                                      "voxel_side=8", "train.max_iterations",
                                      "model.mlp_ratio=4", "model.max_views=24",
                                      "model.image_channels=2", "model.backbone_stages=4",
                                      "model.use_positional_embeddings=true",
                                      "model.refiner_input_residual=false",
                                      "train.loss_mode=total",
                                      "train.aux_coarse_weight=0.5"])
def test_train_rejects_bad_set(workspace, tmp_path, override):
    with pytest.raises(SystemExit, match="bad config"):
        main(["train", "--data", workspace["data"], "--out", str(tmp_path / "r"),
              "--preset", "tiny", "--set", override])


def test_synth_defaults_fit_the_default_train_preset():
    synth = build_parser().parse_args(["synth", "--out", "d"])
    train = build_parser().parse_args(["train", "--data", "d", "--out", "r"])
    cfg = MODEL_PRESETS[train.preset]()
    assert (synth.voxel_side, synth.image_size) == (cfg.voxel_side, cfg.image_size)


def test_synth_rejects_small_voxel_side(tmp_path):
    with pytest.raises(SystemExit, match="^bad config: voxel side 4"):
        main(["synth", "--out", str(tmp_path / "d"), "--objects", "10",
              "--voxel-side", "4"])


@pytest.mark.parametrize("objects,views,message", [
    ("10", "0", "^bad config: 0 views per object"),
    ("2", "2", "^error: split 'val' would be empty$"),
])
def test_synth_bad_request_is_one_line_error(tmp_path, objects, views, message):
    with pytest.raises(SystemExit, match=message):
        main(["synth", "--out", str(tmp_path / "d"), "--objects", objects,
              "--voxel-side", "8", "--image-size", "16", "--views", views])


def test_eval_beyond_the_dataset_views_is_one_line_error(workspace, tmp_path):
    with pytest.raises(SystemExit, match="^error: asked for 30 views"):
        main(["eval", "--checkpoint", os.path.join(workspace["run"], "checkpoint.ckpt"),
              "--data", workspace["data"], "--out", str(tmp_path / "eval"),
              "--view-counts", "1,30"])


def test_eval_needs_only_the_checkpoint(workspace, tmp_path):
    alone = tmp_path / "elsewhere"
    alone.mkdir()
    shutil.copy(os.path.join(workspace["run"], "checkpoint.ckpt"), alone)
    assert main(["eval", "--checkpoint", str(alone / "checkpoint.ckpt"),
                 "--data", workspace["data"], "--out", str(tmp_path / "eval"),
                 "--view-counts", "1,4"]) == 0


@pytest.mark.parametrize("command", [["eval", "--data", "d"], ["occlusion", "--data", "d"],
                                     ["rollout", "--data", "d", "--object", "o"],
                                     ["reconstruct", "--images", "s.pgm", "d.pgm"]],
                         ids=["eval", "occlusion", "rollout", "reconstruct"])
def test_checkpoint_commands_take_no_config_flag(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--checkpoint", "c.ckpt", "--out", str(tmp_path),
              "--config", "c.txt"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config c.txt" in capsys.readouterr().err


def test_train_on_missing_data_is_one_line_error(tmp_path):
    with pytest.raises(SystemExit, match="^error: .*No such file.*manifest.txt"):
        main(["train", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "r"),
              "--preset", "tiny"])


def test_eval_on_missing_checkpoint_is_one_line_error(workspace, tmp_path):
    with pytest.raises(SystemExit, match="^error: .*No such file.*missing.ckpt"):
        main(["eval", "--checkpoint", os.path.join(workspace["run"], "missing.ckpt"),
              "--data", workspace["data"], "--out", str(tmp_path / "eval")])


@pytest.mark.parametrize("fault", WEIGHT_FAULTS)
def test_eval_on_a_non_finite_checkpoint_is_one_line_error(workspace, tmp_path, fault):
    model = load_model(os.path.join(workspace["run"], "checkpoint.ckpt"))
    fault(model)
    ckpt = str(tmp_path / "faulty.ckpt")
    save_checkpoint(ckpt, model)
    with pytest.raises(SystemExit, match="^error: the model produced non-finite values$"):
        main(["eval", "--checkpoint", ckpt, "--data", workspace["data"],
              "--out", str(tmp_path / "eval"), "--view-counts", "1,8"])


@pytest.mark.parametrize("flags", [["eval", "--view-counts", "1,x"],
                                   ["occlusion", "--sizes", "10,a"],
                                   ["occlusion", "--sizes", ","]])
def test_bad_int_list_is_a_usage_error(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main([flags[0], "--checkpoint", "c.ckpt", "--data", "d", "--out", str(tmp_path),
              *flags[1:]])
    assert exc.value.code == 2
    assert f"argument {flags[1]}: invalid" in capsys.readouterr().err


# Each bad value ends where it enters: one line, ``bad config:`` for a config
# or synth request, ``error:`` for a request the data or images cannot meet.
_TRAIN = ["train", "--data", "{data}", "--out", "{out}", "--preset", "tiny", "--set"]
_CKPT = ["--checkpoint", "{ckpt}", "--data", "{data}", "--out", "{out}"]
_SYNTH = ["synth", "--out", "{out}", "--objects", "10", "--voxel-side", "8"]
# eval and occlusion requests the 8-view workspace can serve, but for the flag under test
_EVAL = ["eval", *_CKPT, "--view-counts=1"]
_OCCL = ["occlusion", *_CKPT, "--views=8"]
_RECON = ["reconstruct", "--checkpoint", "{ckpt}", "--out", "{out}/r.binvox", "--images"]


@pytest.mark.parametrize("argv,prefix", [
    (_TRAIN + ["train.epochs=0"], "bad config: train.epochs = 0"),
    (_TRAIN + ["train.batch_size=0"], "bad config: train.batch_size = 0"),
    (_TRAIN + ["train.lr_decay_epochs=0"], "bad config: train.lr_decay_epochs = 0"),
    (_TRAIN + ["train.lr_init=nan"], "bad config: train.lr_init = nan"),
    (["eval", *_CKPT, "--view-counts=-1,8"], "error: asked for -1 views"),
    (["occlusion", *_CKPT, "--views=-1"], "error: asked for -1 views"),
    (["rollout", *_CKPT, "--object", "obj0000", "--views=-2"], "error: asked for -2 views"),
    (["rollout", *_CKPT, "--object", "obj0000", "--views=30"], "error: asked for 30 views"),
    (_RECON + ["{sil32}", "{dep16}"], "error: {dep16} is (16, 16), {sil32} is (32, 32)"),
    (_RECON + ["{sil32}", "{dep32}", "{sil16}", "{dep16}"], "error: {sil16} is (16, 16)"),
    (_RECON + ["{sil16}", "{dep16}"], "error: embed expects [B, N, 2, 32, 32]"),
    (_OCCL + ["--sizes=-5,0"], "bad config: box size -5 is negative"),
    (_EVAL + ["--threshold", "nan"], "bad config: threshold nan is outside (0, 1]"),
    (_EVAL + ["--tau=-1"], "bad config: tau -1.0 is not a positive finite distance"),
    (_OCCL + ["--threshold", "0"], "bad config: threshold 0.0 is outside"),
    (_OCCL + ["--tau", "inf"], "bad config: tau inf is not a positive"),
    (["reconstruct", "--checkpoint", "{ckpt}", "--out", "{sil32}.binvox", "--images",
      "{sil32}", "{dep32}", "--threshold", "1.5"], "bad config: threshold 1.5 is outside (0, 1]"),
    (_SYNTH + ["--seed=-1"], "bad config: seed -1 is negative"),
    (_SYNTH + ["--image-size=0"], "bad config: image size 0 px"),
    (_SYNTH + ["--image-size=-3"], "bad config: image size -3 px"),
    (_SYNTH + ["--categories=box,nope"], "bad config: categories ('box', 'nope') are not"),
    (_TRAIN + ["model.refiner_cube=3"],
     "bad config: model.refiner_cube = 3 must divide voxel side 8 and be a multiple of 2"),
    (_TRAIN + ["train.views_per_sample=25"], "bad config: train.views_per_sample = 25 exceeds 24"),
    (_RECON + ["{empty}", "{empty}"], "error: PGM size 0x0 holds no pixel"),
    (_TRAIN + ["model.voxel_side=16"],
     "bad config: dataset voxel_side 8 vs model 16; pass --set model.voxel_side=N"),
    (["rollout", *_CKPT, "--object", "nope"], "error: object 'nope' not in dataset"),
    (_RECON + ["{sil32}", "{dep32}", "{sil32}"],
     "bad config: --images expects silhouette/depth PGM pairs"),
], ids=["epochs-0", "batch-0", "decay-0", "lr-nan", "eval-views-neg", "occlusion-views-neg",
        "rollout-views-neg", "rollout-views-beyond", "pgm-pair-sizes", "pgm-pairs-sizes",
        "pgm-model-size", "occlusion-box-neg", "eval-threshold-nan", "eval-tau-neg",
        "occlusion-threshold-0", "occlusion-tau-inf", "reconstruct-threshold-above-1",
        "synth-seed-neg", "synth-image-0", "synth-image-neg", "synth-category-unknown",
        "refiner-cube-3", "views-per-sample-beyond", "pgm-pair-empty", "train-size-mismatch",
        "rollout-object-unknown", "pgm-count-odd"])
def test_bad_input_is_one_line_error(workspace, tmp_path, capsys, argv, prefix):
    paths = {"data": workspace["data"], "out": str(tmp_path / "out"),
             "ckpt": os.path.join(workspace["run"], "checkpoint.ckpt")}
    for tag in ("sil", "dep"):
        for side in (16, 32):
            paths[f"{tag}{side}"] = path = str(tmp_path / f"{tag}{side}.pgm")
            with open(path, "wb") as fh:
                fh.write(write_pgm(np.zeros((side, side), dtype=np.float32)))
    paths["empty"] = str(tmp_path / "empty.pgm")
    with open(paths["empty"], "wb") as fh:
        fh.write(b"P5\n0 0\n255\n")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(prefix.format(**paths))
    assert "Traceback" not in capsys.readouterr().err
