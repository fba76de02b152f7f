"""Fast tests of the benchmark: its statistics, self-time arithmetic and
independent references on hand-computed grids, and tiny smoke runs of
every workload.

    python3 -m pytest -q benchmark/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import reference
import tracing
from mvrecon import voxels

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# --- statistics and self time ---

def test_median_and_quartiles_hand_computed():
    assert reference.median([3.0, 1.0, 2.0]) == 2.0
    assert reference.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    # exclusive method: positions (n + 1) * p = 1.25, 2.5, 3.75
    assert reference.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert reference.quartiles([10.0, 20.0, 30.0]) == (10.0, 20.0, 30.0)
    assert reference.relative_spread([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)


def test_self_time_subtracts_direct_children_only():
    spans = [(0.0, 10.0, -1),   # root
             (1.0, 4.0, 0),     # child of root
             (2.0, 3.0, 1),     # grandchild
             (5.0, 6.0, 0)]     # second child of root
    assert reference.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(reference.self_times(spans)) == 10.0


# --- independent references ---

def test_iou_hand_computed():
    truth = np.zeros((2, 2, 2), bool)
    pred = np.zeros((2, 2, 2), bool)
    truth[0, 0, :] = True          # two voxels
    pred[0, :, 0] = True           # two voxels, one shared
    assert reference.iou(truth, pred) == pytest.approx(1 / 3)
    assert reference.iou(pred & False, truth & False) == 1.0


def test_fscore_hand_computed():
    truth = np.zeros((4, 4, 4), bool)
    pred = np.zeros((4, 4, 4), bool)
    truth[0, 0, 0] = True
    pred[0, 0, 1] = True           # one pitch away: matched at tau = 1/4
    pred[3, 3, 3] = True           # far: unmatched
    # precision 1/2, recall 1, F = 2 * 0.5 * 1 / 1.5
    assert reference.fscore(truth, pred, 0.25) == pytest.approx(2 / 3)
    assert reference.fscore(truth, pred, 0.2) == 0.0
    assert reference.fscore(truth, pred & False, 0.25) == 0.0


def test_total_loss_hand_computed():
    y = np.ones((1, 2, 2, 2))
    p = np.full((1, 2, 2, 2), 0.5)
    # MSE 0.25; both volumes flat, so SSIM = (2*1*0.5 + c1) / (1 + 0.25 + c1)
    ssim = (1.0 + 0.01) / (1.25 + 0.01)
    assert reference.total_loss(y, p) == pytest.approx(0.25 + 1.0 - ssim, abs=1e-15)


def test_references_agree_with_the_program_in_float64():
    rng = np.random.default_rng(0)
    y = (rng.random((3, 8, 8, 8)) < 0.3).astype(np.float64)
    p = rng.random((3, 8, 8, 8))
    assert reference.total_loss(y, p) == pytest.approx(
        voxels.loss_total(y, p).item(), rel=1e-12)
    for truth, pred in zip(y > 0.5, p >= 0.3):
        assert reference.iou(truth, pred) == voxels.metric_iou(truth, pred)
        assert reference.fscore(truth, pred, 1 / 8) == voxels.metric_fscore(
            truth, pred, tau=1 / 8)


def test_benchmark_json_lists_every_per_layer_metric():
    listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert listed == tracing.PER_LAYER
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "op_ms", "items_per_s", "peak_rss_mb"]


# --- smoke runs ---

def _run(workload, seed=5, trace=0, cwd=ROOT, ops=2):
    cmd = [sys.executable, os.path.join(cwd, "benchmark", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--ops", str(ops), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _digest(stdout):
    return [line for line in stdout.splitlines() if line.startswith("# outputs sha256")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_its_checks_and_repeats_bitwise(workload):
    first, second = _run(workload), _run(workload)
    assert first.returncode == 0, first.stderr
    result = json.loads(first.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in result["metrics"].values())
    # same seed, separate processes: identical losses, scores or files
    assert _digest(first.stdout) and _digest(first.stdout) == _digest(second.stdout)


def test_traced_run_reports_every_per_layer_metric():
    done = _run("train-desk", trace=1, ops=3)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert list(result["metrics"]) == list(tracing.PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["autodiff.backward_ms"] > 0
    assert metrics["layers.attention_calls"] > 0
    assert metrics["evaluation.reconstruct_ms"] == 0  # does not run in training


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("train-desk", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
