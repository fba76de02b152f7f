import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvrecon import autodiff as ad
from mvrecon.autodiff import Tensor
from mvrecon.errors import (
    DivideByZero,
    NotScalar,
    NumericalOverflow,
    ShapeMismatch,
)

from fd import central_diff, rel_err

SEEDS = range(10)


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def check_op_grads(build, arrays, tol=1e-6, h=1e-5):
    """FD-check a scalar-valued op composition against backward().

    The tensors share buffers with ``arrays``, so the finite-difference
    oracle perturbs the arrays in place and re-runs the forward pass.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    build(*tensors).backward()
    for t, a in zip(tensors, arrays):
        numeric = central_diff(lambda: build(*tensors).item(), a, h=h)
        assert t.grad is not None
        assert rel_err(t.grad, numeric) < tol, f"gradient mismatch for {t}"


# --- matmul ---

def test_matmul_identity():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal((a @ b).data, b.data)


def test_matmul_hand_case():
    out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_grad_hand_case():
    a = t64([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = t64([[1.0, 1.0], [1.0, 1.0]])
    (a @ b).sum().backward()
    np.testing.assert_allclose(a.grad, [[2.0, 2.0], [2.0, 2.0]], atol=1e-12)


def test_matmul_shape_error():
    with pytest.raises(ShapeMismatch):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_grad_fd(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    check_op_grads(lambda x, y: (x @ y).sum(), [a, b])


def test_matmul_batched_broadcast_grad():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((4, 5))
    check_op_grads(lambda x, y: (x @ y).sum(), [a, b])


# --- elementwise suite ---

def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(0.0)).item() == 0.5


def test_sigmoid_extreme_is_finite():
    out = ad.sigmoid(Tensor(np.array([-1000.0, 1000.0])))
    assert np.all(np.isfinite(out.data))


def test_gelu_at_zero():
    assert ad.gelu(Tensor(0.0)).item() == 0.0


def test_sigmoid_grad_hand_value():
    x = t64(1.0, requires_grad=True)
    ad.sigmoid(x).backward()
    s = 1.0 / (1.0 + math.exp(-1.0))
    assert abs(float(x.grad) - s * (1 - s)) < 1e-12
    assert abs(float(x.grad) - 0.19661) < 1e-5


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "gelu", "sigmoid", "scale"])
def test_elementwise_grads_fd(op, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 3)) + 3.0  # keep denominators away from 0
    if op == "add":
        check_op_grads(lambda x, y: ad.add(x, y).sum(), [a, b])
    elif op == "sub":
        check_op_grads(lambda x, y: ad.sub(x, y).sum(), [a, b])
    elif op == "mul":
        check_op_grads(lambda x, y: ad.mul(x, y).sum(), [a, b])
    elif op == "div":
        check_op_grads(lambda x, y: ad.div(x, y).sum(), [a, b])
    elif op == "gelu":
        check_op_grads(lambda x: ad.gelu(x).sum(), [a])
    elif op == "sigmoid":
        check_op_grads(lambda x: ad.sigmoid(x).sum(), [a])
    elif op == "scale":
        check_op_grads(lambda x: ad.scale(x, 1.7).sum(), [a])


def test_leading_axis_broadcast_grad():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((4,))
    check_op_grads(lambda x, y: ad.add(x, y).sum(), [a, b])
    check_op_grads(lambda x, y: ad.mul(x, y).sum(), [a, b])


def test_inner_broadcast_rejected():
    with pytest.raises(ShapeMismatch):
        ad.add(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 1, 4))))


def test_div_by_zero():
    with pytest.raises(DivideByZero):
        ad.div(Tensor(np.ones(3)), Tensor(np.array([1.0, 0.0, 2.0])))


def test_overflow_is_an_error():
    big = Tensor(np.full((2, 2), 1e300, dtype=np.float64))
    with pytest.raises(NumericalOverflow):
        ad.mul(big, big)


# --- softmax ---

def test_softmax_uniform():
    out = ad.softmax(Tensor(np.zeros(3)), axis=-1)
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-7)


def test_softmax_large_inputs_stable():
    out = ad.softmax(Tensor(np.array([1000.0, 1000.0])), axis=-1)
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)


def test_softmax_reference_values():
    out = ad.softmax(t64([1.0, 2.0, 3.0]), axis=-1)
    e = np.exp([1.0, 2.0, 3.0])
    np.testing.assert_allclose(out.data, e / e.sum(), atol=1e-12)
    np.testing.assert_allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)


@pytest.mark.parametrize("extreme", [0.0, 1e4, -1e4])
def test_softmax_rows_sum_to_one(extreme):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 6)) + extreme
    out = ad.softmax(Tensor(x), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_grad_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 5))
    w = rng.standard_normal((2, 5))  # weight the outputs to make the loss generic
    wt = Tensor(w)
    check_op_grads(lambda t: ad.mul(ad.softmax(t, axis=-1), wt).sum(), [x])


# --- layer_norm ---

def test_layer_norm_constant_input():
    x = t64([1.0, 1.0, 1.0])
    out = ad.layer_norm(x, t64(np.ones(3)), t64(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-6)


def test_layer_norm_reference_values():
    x = t64([1.0, 2.0, 3.0])
    out = ad.layer_norm(x, t64(np.ones(3)), t64(np.zeros(3)), eps=1e-12)
    np.testing.assert_allclose(out.data, [-1.22474, 0.0, 1.22474], atol=1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_norm_grad_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    gain = rng.standard_normal(4)
    bias = rng.standard_normal(4)
    w = Tensor(rng.standard_normal((3, 4)))
    check_op_grads(
        lambda a, g, b: ad.mul(ad.layer_norm(a, g, b), w).sum(), [x, gain, bias])


# --- movement ops ---

def test_concat_last_axis():
    out = ad.concat([Tensor([[1.0], [2.0]]), Tensor([[3.0], [4.0]])], axis=-1)
    np.testing.assert_array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])


def test_concat_width_sum():
    parts = [Tensor(np.zeros((1, w))) for w in (768, 384, 192)]
    assert ad.concat(parts, axis=-1).shape == (1, 1344)


def test_concat_shape_error():
    with pytest.raises(ShapeMismatch):
        ad.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=-1)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_split_concat_roundtrip(seed, w1, w2):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((3, w1)))
    b = Tensor(rng.standard_normal((3, w2)))
    joined = ad.concat([a, b], axis=-1)
    np.testing.assert_array_equal(ad.narrow(joined, -1, 0, w1).data, a.data)
    np.testing.assert_array_equal(ad.narrow(joined, -1, w1, w2).data, b.data)


def test_reshape_transpose_inverses():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 4))
    t = Tensor(x)
    np.testing.assert_array_equal(t.reshape(4, 6).reshape(2, 3, 4).data, x)
    np.testing.assert_array_equal(t.transpose(2, 0, 1).transpose(1, 2, 0).data, x)


def test_concat_split_grads_fd():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 2))
    w = Tensor(rng.standard_normal((2, 5)))

    def build(x, y):
        joined = ad.concat([x, y], axis=-1)
        left, right = ad.narrow(joined, -1, 0, 3), ad.narrow(joined, -1, 3, 2)
        return ad.mul(ad.concat([right, left], axis=-1), w).sum()

    check_op_grads(build, [a, b])


def test_expand_grad_fd():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((1, 3))
    w = Tensor(rng.standard_normal((4, 2, 3)))
    check_op_grads(lambda x: ad.mul(x.expand(4, 2, 3), w).sum(), [a])


def test_sum_mean_grads_fd():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 3, 4))
    check_op_grads(lambda x: x.sum(axis=(1, 2)).sum(), [a])
    check_op_grads(lambda x: x.mean(axis=0, keepdims=True).sum(), [a])
    check_op_grads(lambda x: x.mean(), [a])


def test_im2col_grad_fd():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((1, 2, 6, 6))
    w = Tensor(rng.standard_normal((1, 3, 3, 2 * 3 * 3)))
    check_op_grads(
        lambda x: ad.mul(ad.im2col(x, 3, stride=2, padding=1), w).sum(), [a])


# --- backward contract ---

def test_backward_sum_gives_ones():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 2)))


def test_backward_square_analytic():
    x = t64([1.0, 2.0], requires_grad=True)
    ad.mul(x, x).sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(NotScalar):
        ad.mul(x, x).backward()


def test_backward_twice_bitwise_identical():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)

    def run():
        x.grad = None
        w.grad = None
        ad.gelu(x @ w).sum().backward()
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_grad_accumulates_over_reuse():
    x = t64([3.0], requires_grad=True)
    y = ad.add(x, x).sum()  # dy/dx = 2
    y.backward()
    np.testing.assert_allclose(x.grad, [2.0], atol=1e-12)


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y._vjp is None and not y.requires_grad


# --- sgd_step ---

def test_sgd_step_basic():
    p = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    ad.sgd_step([p], [np.array([2.0])], lr=0.1)
    np.testing.assert_allclose(p.data, [0.8], atol=1e-15)


def test_sgd_step_zero_lr():
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    before = p.data.copy()
    ad.sgd_step([p], [np.ones(2, dtype=np.float32)], lr=0.0)
    np.testing.assert_array_equal(p.data, before)


def test_sgd_two_steps_vs_summed_identical_grads():
    # dyadic values make the float arithmetic exact
    g = np.array([0.25], dtype=np.float64)
    p1 = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    p2 = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    ad.sgd_step([p1], [g], lr=0.5)
    ad.sgd_step([p1], [g], lr=0.5)
    ad.sgd_step([p2], [g + g], lr=0.5)
    np.testing.assert_array_equal(p1.data, p2.data)


def test_sgd_shape_error():
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        ad.sgd_step([p], [np.ones(4)], lr=0.1)
