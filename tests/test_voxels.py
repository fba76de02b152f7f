import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvrecon
from mvrecon.autodiff import Tensor
from mvrecon.errors import ShapeMismatch
from mvrecon.voxels import (
    assemble_tokens,
    loss_mse,
    loss_ssim3d,
    loss_total,
    metric_fscore,
    metric_iou,
    partition_tokens,
)

from fd import central_diff, rel_err


def random_grid(seed, side=8, binary=False, dtype=np.float64):
    rng = np.random.default_rng(seed)
    if binary:
        return (rng.random((side,) * 3) < 0.4).astype(np.float32)
    return rng.random((side,) * 3).astype(dtype)


def zeros(side):
    return np.zeros((side,) * 3, dtype=np.float32)


# --- oracles ---

def mse_loop(y, p):
    total = 0.0
    v = y.shape[0]
    for x in range(v):
        for yy in range(v):
            for z in range(v):
                d = y[x, yy, z] - p[x, yy, z]
                total += d * d
    return total / v ** 3


def ssim_loss_direct(y, p, c1=0.01, c2=0.03):
    mu_y, mu_p = y.mean(), p.mean()
    var_y, var_p = y.var(), p.var()
    cov = ((y - mu_y) * (p - mu_p)).mean()
    ssim = ((2 * mu_y * mu_p + c1) * (2 * cov + c2)) / \
        ((mu_y ** 2 + mu_p ** 2 + c1) * (var_y + var_p + c2))
    return 1.0 - ssim


def iou_loop(a, b):
    inter = union = 0
    v = a.shape[0]
    for x in range(v):
        for y in range(v):
            for z in range(v):
                pa, pb = bool(a[x, y, z]), bool(b[x, y, z])
                inter += pa and pb
                union += pa or pb
    return 1.0 if union == 0 else inter / union


def fscore_allpairs(true, pred, tau2):
    """F-score of two boolean grids over all pairs of voxel centres.

    Centres are in voxel pitches, so every squared distance is an exact
    integer and ``tau2`` (the squared cutoff in pitches) draws an exact line.
    """
    def hits(src, dst):
        d2 = ((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        return np.count_nonzero(d2 <= tau2) / len(src)

    true_pts, pred_pts = np.argwhere(true) + 0.5, np.argwhere(pred) + 0.5
    precision = hits(pred_pts, true_pts)
    recall = hits(true_pts, pred_pts)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# --- partitioning ---

def partition(values, cube):
    """partition_tokens on one [V, V, V] grid -> [(V/c)^3, c^3] array."""
    return partition_tokens(Tensor(values[None]), cube).data[0]


def assemble(tokens, cube, side):
    return assemble_tokens(Tensor(tokens[None]), cube, side).data[0]


def test_partition_paper_scale_counts():
    g = random_grid(0, side=32)
    assert partition(g, 4).shape == (512, 64)
    assert partition(g, 8).shape == (64, 512)


def test_partition_single_cube_is_flat_grid():
    g = random_grid(1, side=4)
    tokens = partition(g, 4)
    assert tokens.shape == (1, 64)
    np.testing.assert_array_equal(tokens[0], g.reshape(-1))


def test_partition_non_divisible():
    with pytest.raises(ShapeMismatch, match="cube side 3 does not divide grid side 8"):
        partition(random_grid(2, side=8), 3)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(32, 4), (32, 8), (8, 2), (16, 4)]))
@settings(max_examples=20, deadline=None)
def test_assemble_inverts_partition(seed, vc):
    side, cube = vc
    g = random_grid(seed, side=side)
    assert np.array_equal(assemble(partition(g, cube), cube, side), g)


def test_token_zero_maps_to_corner_cube():
    tokens = partition(np.zeros((8, 8, 8)), 4)
    tokens[0] = 1.0
    out = assemble(tokens, 4, 8)
    changed = np.argwhere(out != 0)
    assert changed.size > 0
    assert changed.max() < 4  # every changed voxel inside cube (0,0,0)
    assert np.count_nonzero(out) == 64


def test_cube_index_ordering_by_enumeration():
    side, cube = 8, 4
    vals = np.arange(side ** 3, dtype=np.float64).reshape(side, side, side)
    tokens = partition(vals, cube)
    n = side // cube
    for ci in range(n):
        for cj in range(n):
            for ck in range(n):
                token = tokens[(ci * n + cj) * n + ck]
                block = vals[ci * cube:(ci + 1) * cube,
                             cj * cube:(cj + 1) * cube,
                             ck * cube:(ck + 1) * cube]
                np.testing.assert_array_equal(token, block.reshape(-1))


def test_tensor_partition_matches_numpy():
    # a batch partitions item by item, each as numpy slicing would cut it
    vals = np.stack([random_grid(7 + i, side=8) for i in range(3)])
    tok = partition_tokens(Tensor(vals, dtype=np.float64), 2)
    assert tok.shape == (3, 64, 8)
    for b in range(3):
        for index in range(64):
            ci, cj, ck = np.unravel_index(index, (4, 4, 4))
            block = vals[b, 2 * ci:2 * ci + 2, 2 * cj:2 * cj + 2, 2 * ck:2 * ck + 2]
            np.testing.assert_array_equal(tok.data[b, index], block.reshape(-1))
    np.testing.assert_array_equal(assemble_tokens(tok, 2, 8).data, vals)


# --- losses (on a batch of one unless the test says otherwise) ---

def test_mse_identical_is_zero():
    g = random_grid(3)[None]
    assert loss_mse(g, g).item() == 0.0


def test_mse_ones_vs_zeros():
    side = 6
    assert loss_mse(np.ones((1,) + (side,) * 3),
                    zeros(side)[None]).item() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_mse_matches_loop_oracle(seed):
    y, p = random_grid(seed), random_grid(seed + 100)
    assert abs(loss_mse(y[None], p[None]).item() - mse_loop(y, p)) < 1e-12


def test_ssim_identical_is_zero():
    g = random_grid(4)[None]
    assert abs(loss_ssim3d(g, g).item()) < 1e-12


def test_ssim_equal_constants_is_zero():
    side = 6
    half = np.full((1,) + (side,) * 3, 0.5)
    assert abs(loss_ssim3d(half, half).item()) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_ssim_matches_direct_oracle(seed):
    y, p = random_grid(seed), random_grid(seed + 50)
    assert abs(loss_ssim3d(y[None], p[None]).item() - ssim_loss_direct(y, p)) < 1e-10


def test_ssim_range():
    for seed in range(10):
        y, p = random_grid(seed)[None], random_grid(seed + 30)[None]
        val = loss_ssim3d(y, p).item()
        assert 0.0 <= val <= 2.0


def test_total_is_sum_of_parts():
    y, p = random_grid(5)[None], random_grid(15)[None]
    total = loss_total(y, p).item()
    assert total == pytest.approx(loss_mse(y, p).item() + loss_ssim3d(y, p).item(),
                                  abs=1e-15)


def test_total_identical_is_zero():
    g = random_grid(6)[None]
    assert abs(loss_total(g, g).item()) < 1e-12


def test_total_gradient_vs_fd():
    rng = np.random.default_rng(12)
    side = 4
    y = rng.random((1,) + (side,) * 3)
    p = rng.random((1,) + (side,) * 3)
    pred = Tensor(p, requires_grad=True)
    loss_total(y, pred).backward()
    numeric = central_diff(lambda: loss_total(y, Tensor(p)).item(), p)
    assert rel_err(pred.grad, numeric) < 1e-4


def test_batched_losses_average_per_volume():
    y = np.stack([random_grid(i) for i in range(3)])
    p = np.stack([random_grid(i + 9) for i in range(3)])
    batched = loss_ssim3d(Tensor(y), Tensor(p)).item()
    singles = [loss_ssim3d(Tensor(y[i:i + 1]), Tensor(p[i:i + 1])).item() for i in range(3)]
    assert batched == pytest.approx(np.mean(singles), abs=1e-6)


def test_loss_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        loss_mse(random_grid(0, side=4)[None], random_grid(0, side=8)[None])


@pytest.mark.parametrize("loss", [loss_mse, loss_ssim3d, loss_total])
def test_unbatched_volume_rejected(loss):
    g = random_grid(0)
    with pytest.raises(ShapeMismatch, match=r"expected \[B,V,V,V\], got \(8, 8, 8\)"):
        loss(g, g)


# --- IoU ---

def test_iou_exact_match():
    g = random_grid(8, binary=True)
    pred = g * 0.9  # binarizes back to g
    assert metric_iou(g, pred, threshold=0.5) == 1.0


def test_iou_disjoint():
    side = 4
    a = zeros(side)
    b = zeros(side)
    a[0, 0, 0] = 1
    b[1, 1, 1] = 1
    assert metric_iou(a, b, 0.5) == 0.0


def test_iou_small_enumeration():
    side = 4
    a = zeros(side)
    b = zeros(side)
    a[0, 0, 0] = a[0, 0, 1] = 1
    b[0, 0, 1] = b[0, 0, 2] = 1
    assert metric_iou(a, b, 0.5) == pytest.approx(1 / 3)
    assert metric_iou(a, b, 0.5) == pytest.approx(iou_loop(a, b))


def test_iou_empty_vs_empty_convention():
    side = 4
    assert metric_iou(zeros(side), zeros(side), 0.5) == 1.0


@pytest.mark.parametrize("seed", range(5))
def test_iou_matches_loop_and_symmetry(seed):
    a = random_grid(seed, side=6, binary=True)
    b = random_grid(seed + 77, side=6, binary=True)
    got = metric_iou(a, b, 0.5)
    assert got == pytest.approx(iou_loop(a, b))
    assert got == pytest.approx(metric_iou(b, a, 0.5))


def test_iou_self_is_one_for_any_threshold():
    g = random_grid(21, binary=True)
    for t in (0.1, 0.3, 0.5, 0.9):
        assert metric_iou(g, g.copy(), t) == 1.0


# --- F-score ---

def test_fscore_identical():
    g = random_grid(9, binary=True)
    assert metric_fscore(g, g.copy(), threshold=0.5) == 1.0


def test_fscore_far_apart_is_zero():
    side = 16
    a = zeros(side)
    b = zeros(side)
    a[0, 0, 0] = 1
    b[15, 15, 15] = 1
    assert metric_fscore(a, b, 0.5, tau=1.0 / side) == 0.0


# squared cutoffs in voxel pitches: sub-pitch, face, face diagonal, two
# pitches, three pitches, and the whole unit cube (tau = sqrt(3))
ALLPAIRS_TAU2 = [0.25, 1, 2, 4, 9, "cube"]


@pytest.mark.parametrize("side", range(4, 9))
@pytest.mark.parametrize("tau2", ALLPAIRS_TAU2)
def test_fscore_equals_allpairs_on_voxel_centres(side, tau2):
    rng = np.random.default_rng(side)
    tau = math.sqrt(3) if tau2 == "cube" else math.sqrt(tau2) / side
    tau2 = 3 * side ** 2 if tau2 == "cube" else tau2
    for occupancy in (0.02, 0.1, 0.4):
        a = rng.random((side,) * 3) < occupancy
        b = rng.random((side,) * 3) < occupancy
        a[0, 0, 0] = b[side - 1, side - 1, side - 1] = True
        assert metric_fscore(a, b, 0.5, tau) == fscore_allpairs(a, b, tau2)


@pytest.mark.parametrize("side", [24, 49])
def test_fscore_counts_a_tie_at_exactly_tau(side):
    # float centres (i + 0.5) / V put some of these pairs an ulp beyond tau;
    # each case is (offset at tau, tau, offset just beyond it)
    diagonal, two = math.sqrt(2) / side, 2 / side
    cases = [((1, 0, 0), None, (1, 1, 0)), ((0, 1, 0), None, (0, 1, 1)),
             ((0, 0, 1), None, (1, 0, 1)), ((1, 1, 0), diagonal, (1, 1, 1)),
             ((0, 1, 1), diagonal, (1, 1, 1)), ((1, 0, 1), diagonal, (1, 1, 1)),
             ((2, 0, 0), two, (2, 1, 0)), ((0, 0, 2), two, (0, 1, 2))]
    for near, tau, far in cases:
        for offset, want in ((near, 1.0), (far, 0.0)):
            for i in range(side - max(offset)):
                a, b = zeros(side), zeros(side)
                a[i, i, i] = 1
                b[i + offset[0], i + offset[1], i + offset[2]] = 1
                assert metric_fscore(a, b, 0.5, tau) == want, (offset, i)


@pytest.mark.parametrize("tau", [2.0, 1e300])
def test_fscore_tau_over_the_unit_cube_matches_everything(tau):
    side = 8
    a, b = zeros(side), zeros(side)
    a[0, 0, 0] = b[side - 1, side - 1, side - 1] = 1
    assert metric_fscore(a, b, 0.5, tau) == 1.0
    for seed in range(3):
        g, h = random_grid(seed, side, binary=True), random_grid(seed + 7, side, binary=True)
        assert metric_fscore(g, h, 0.5, tau) == 1.0


@pytest.mark.parametrize("pitches", [1e-300, 0.3, 0.999])
def test_fscore_below_one_pitch_matches_only_the_same_voxel(pitches):
    side = 6
    a, b = random_grid(3, side, binary=True), random_grid(4, side, binary=True)
    want = fscore_allpairs(a, b, 0)
    assert 0.0 < want < 1.0
    assert metric_fscore(a, b, 0.5, pitches / side) == want


def test_fscore_negative_tau_matches_nothing():
    g = random_grid(5, binary=True)
    assert metric_fscore(g, g.copy(), 0.5, -1.0) == 0.0


def test_import_leaves_out_the_kd_tree():
    # scipy.spatial also loads scipy.sparse and scipy.linalg: ~12 MB of RSS
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mvrecon.__file__)))
    script = "import sys, mvrecon.cli; sys.exit('scipy.spatial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "mvrecon.cli imported scipy.spatial"


@pytest.mark.parametrize("seed", range(5))
def test_fscore_symmetric(seed):
    a = random_grid(seed, side=6, binary=True)
    b = random_grid(seed + 13, side=6, binary=True)
    if not a.any() or not b.any():
        pytest.skip("degenerate draw")
    f_ab = metric_fscore(a, b, 0.5)
    f_ba = metric_fscore(b, a, 0.5)
    assert f_ab == pytest.approx(f_ba)


def test_fscore_needs_two_cubic_grids():
    with pytest.raises(ShapeMismatch):
        metric_fscore(zeros(4), zeros(8))
    flat = np.ones((4, 4, 8), dtype=np.float32)
    with pytest.raises(ShapeMismatch, match="not two"):
        metric_fscore(flat, flat.copy())


def test_fscore_of_an_empty_grid_is_zero():
    side = 4
    empty = zeros(side)
    full = np.ones((side,) * 3, dtype=np.float32)
    assert metric_fscore(full, empty, 0.5) == 0.0
    assert metric_fscore(empty, full, 0.5) == 0.0
    assert metric_fscore(empty, empty.copy(), 0.5) == 0.0
