import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvrecon.autodiff import Tensor
from mvrecon.errors import EmptyVolume, NonDivisibleCube, ShapeMismatch
from mvrecon.voxels import (
    BINARY,
    CONTINUOUS,
    VoxelGrid,
    assemble_tokens,
    fscore_points,
    loss_mse,
    loss_ssim3d,
    loss_total,
    metric_fscore,
    metric_iou,
    occupied_points,
    partition_tokens,
)

from fd import central_diff, rel_err


def random_grid(seed, side=8, kind=CONTINUOUS, dtype=np.float64):
    rng = np.random.default_rng(seed)
    if kind == BINARY:
        return VoxelGrid(side, (rng.random((side,) * 3) < 0.4).astype(np.float32), BINARY)
    return VoxelGrid(side, rng.random((side,) * 3).astype(dtype), CONTINUOUS)


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


def fscore_allpairs(pred_pts, true_pts, tau):
    def hits(src, dst):
        count = 0
        for s in src:
            best = min(np.linalg.norm(s - d) for d in dst)
            count += best <= tau
        return count / len(src)

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
    assert partition(g.values, 4).shape == (512, 64)
    assert partition(g.values, 8).shape == (64, 512)


def test_partition_single_cube_is_flat_grid():
    g = random_grid(1, side=4)
    tokens = partition(g.values, 4)
    assert tokens.shape == (1, 64)
    np.testing.assert_array_equal(tokens[0], g.values.reshape(-1))


def test_partition_non_divisible():
    with pytest.raises(NonDivisibleCube):
        partition(random_grid(2, side=8).values, 3)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(32, 4), (32, 8), (8, 2), (16, 4)]))
@settings(max_examples=20, deadline=None)
def test_assemble_inverts_partition(seed, vc):
    side, cube = vc
    g = random_grid(seed, side=side)
    assert np.array_equal(assemble(partition(g.values, cube), cube, side), g.values)


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
    vals = np.stack([random_grid(7 + i, side=8).values for i in range(3)])
    tok = partition_tokens(Tensor(vals, dtype=np.float64), 2)
    assert tok.shape == (3, 64, 8)
    for b in range(3):
        for index in range(64):
            ci, cj, ck = np.unravel_index(index, (4, 4, 4))
            block = vals[b, 2 * ci:2 * ci + 2, 2 * cj:2 * cj + 2, 2 * ck:2 * ck + 2]
            np.testing.assert_array_equal(tok.data[b, index], block.reshape(-1))
    np.testing.assert_array_equal(assemble_tokens(tok, 2, 8).data, vals)


# --- losses ---

def test_mse_identical_is_zero():
    g = random_grid(3)
    assert loss_mse(g, g).item() == 0.0


def test_mse_ones_vs_zeros():
    side = 6
    ones = VoxelGrid(side, np.ones((side,) * 3), CONTINUOUS)
    zeros = VoxelGrid.zeros(side)
    assert loss_mse(ones, zeros).item() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_mse_matches_loop_oracle(seed):
    y, p = random_grid(seed), random_grid(seed + 100)
    assert abs(loss_mse(y, p).item() - mse_loop(y.values, p.values)) < 1e-12


def test_ssim_identical_is_zero():
    g = random_grid(4)
    assert abs(loss_ssim3d(g, g).item()) < 1e-12


def test_ssim_equal_constants_is_zero():
    side = 6
    half = VoxelGrid(side, np.full((side,) * 3, 0.5), CONTINUOUS)
    assert abs(loss_ssim3d(half, half).item()) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_ssim_matches_direct_oracle(seed):
    y, p = random_grid(seed), random_grid(seed + 50)
    assert abs(loss_ssim3d(y, p).item() - ssim_loss_direct(y.values, p.values)) < 1e-10


def test_ssim_range():
    for seed in range(10):
        y, p = random_grid(seed), random_grid(seed + 30)
        val = loss_ssim3d(y, p).item()
        assert 0.0 <= val <= 2.0


def test_total_is_sum_of_parts():
    y, p = random_grid(5), random_grid(15)
    total = loss_total(y, p).item()
    assert total == pytest.approx(loss_mse(y, p).item() + loss_ssim3d(y, p).item(),
                                  abs=1e-15)


def test_total_identical_is_zero():
    g = random_grid(6)
    assert abs(loss_total(g, g).item()) < 1e-12


def test_total_gradient_vs_fd():
    rng = np.random.default_rng(12)
    side = 4
    y = rng.random((side,) * 3)
    p = rng.random((side,) * 3)
    pred = Tensor(p, requires_grad=True)
    loss_total(y, pred).backward()
    numeric = central_diff(lambda: loss_total(y, Tensor(p)).item(), p)
    assert rel_err(pred.grad, numeric) < 1e-4


def test_batched_losses_average_per_volume():
    y = np.stack([random_grid(i).values for i in range(3)])
    p = np.stack([random_grid(i + 9).values for i in range(3)])
    batched = loss_ssim3d(Tensor(y), Tensor(p)).item()
    singles = [loss_ssim3d(Tensor(y[i]), Tensor(p[i])).item() for i in range(3)]
    assert batched == pytest.approx(np.mean(singles), abs=1e-6)


def test_loss_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        loss_mse(random_grid(0, side=4), random_grid(0, side=8))


# --- IoU ---

def test_iou_exact_match():
    g = random_grid(8, kind=BINARY)
    pred = VoxelGrid(g.side, g.values * 0.9, CONTINUOUS)  # binarizes back to g
    assert metric_iou(g, pred, threshold=0.5) == 1.0


def test_iou_disjoint():
    side = 4
    a = VoxelGrid.zeros(side, BINARY)
    b = VoxelGrid.zeros(side, BINARY)
    a.values[0, 0, 0] = 1
    b.values[1, 1, 1] = 1
    assert metric_iou(a, b, 0.5) == 0.0


def test_iou_small_enumeration():
    side = 4
    a = VoxelGrid.zeros(side, BINARY)
    b = VoxelGrid.zeros(side, BINARY)
    a.values[0, 0, 0] = a.values[0, 0, 1] = 1
    b.values[0, 0, 1] = b.values[0, 0, 2] = 1
    assert metric_iou(a, b, 0.5) == pytest.approx(1 / 3)
    assert metric_iou(a, b, 0.5) == pytest.approx(iou_loop(a.values, b.values))


def test_iou_empty_vs_empty_convention():
    side = 4
    assert metric_iou(VoxelGrid.zeros(side, BINARY), VoxelGrid.zeros(side), 0.5) == 1.0


@pytest.mark.parametrize("seed", range(5))
def test_iou_matches_loop_and_symmetry(seed):
    a = random_grid(seed, side=6, kind=BINARY)
    b = random_grid(seed + 77, side=6, kind=BINARY)
    got = metric_iou(a, b, 0.5)
    assert got == pytest.approx(iou_loop(a.values, b.values))
    assert got == pytest.approx(metric_iou(b, a, 0.5))


def test_iou_self_is_one_for_any_threshold():
    g = random_grid(21, kind=BINARY)
    for t in (0.1, 0.3, 0.5, 0.9):
        assert metric_iou(g, VoxelGrid(g.side, g.values.astype(np.float32)), t) == 1.0


# --- F-score ---

def test_fscore_identical():
    g = random_grid(9, kind=BINARY)
    assert metric_fscore(g, VoxelGrid(g.side, g.values.astype(np.float32)),
                         threshold=0.5) == 1.0


def test_fscore_far_apart_is_zero():
    side = 16
    a = VoxelGrid.zeros(side, BINARY)
    b = VoxelGrid.zeros(side, BINARY)
    a.values[0, 0, 0] = 1
    b.values[15, 15, 15] = 1
    assert metric_fscore(a, b, 0.5, tau=1.0 / side) == 0.0


def test_fscore_three_point_toy_vs_allpairs():
    pred = np.array([[0.1, 0.1, 0.1], [0.5, 0.5, 0.5], [0.9, 0.9, 0.9]])
    true = np.array([[0.1, 0.1, 0.12], [0.52, 0.5, 0.5], [0.2, 0.8, 0.4]])
    for tau in (0.03, 0.1, 0.25):
        assert fscore_points(pred, true, tau) == fscore_allpairs(pred, true, tau)


@pytest.mark.parametrize("seed", range(5))
def test_fscore_symmetric(seed):
    a = random_grid(seed, side=6, kind=BINARY)
    b = random_grid(seed + 13, side=6, kind=BINARY)
    if a.occupancy() == 0 or b.occupancy() == 0:
        pytest.skip("degenerate draw")
    f_ab = metric_fscore(a, VoxelGrid(b.side, b.values.astype(np.float32)), 0.5)
    f_ba = metric_fscore(b, VoxelGrid(a.side, a.values.astype(np.float32)), 0.5)
    assert f_ab == pytest.approx(f_ba)


def test_fscore_empty_is_error():
    side = 4
    empty = VoxelGrid.zeros(side, BINARY)
    full = VoxelGrid(side, np.ones((side,) * 3, dtype=np.float32), BINARY)
    with pytest.raises(EmptyVolume):
        metric_fscore(full, empty, 0.5)
    with pytest.raises(EmptyVolume):
        metric_fscore(empty, full, 0.5)


def test_occupied_points_are_voxel_centers():
    side = 4
    g = VoxelGrid.zeros(side, BINARY)
    g.values[1, 2, 3] = 1
    np.testing.assert_allclose(occupied_points(g.values),
                               [[1.5 / 4, 2.5 / 4, 3.5 / 4]])


# --- grid validation ---

def test_grid_rejects_bad_values():
    with pytest.raises(ValueError):
        VoxelGrid(2, np.full((2, 2, 2), 1.5), CONTINUOUS)
    with pytest.raises(ValueError):
        VoxelGrid(2, np.full((2, 2, 2), 0.5), BINARY)
    with pytest.raises(ShapeMismatch):
        VoxelGrid(3, np.zeros((2, 2, 2)))
