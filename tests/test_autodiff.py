import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvrecon import autodiff as ad
from mvrecon.autodiff import Tensor
from mvrecon.errors import GraphReleased, ShapeMismatch
from mvrecon.layers import Conv2d, Linear
from mvrecon.training import sgd_step

from fd import central_diff, rel_err
from modelutil import erf, naive_conv, seeded_init

SEEDS = range(10)


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def check_op_grads(build, arrays, tol=1e-6, h=1e-5, constant=()):
    """FD-check a scalar-valued op composition against backward().

    The tensors share buffers with ``arrays``, so the finite-difference
    oracle perturbs the arrays in place and re-runs the forward pass.  The
    arrays at the ``constant`` indices do not require grad and must get
    no gradient.
    """
    tensors = [Tensor(a, requires_grad=i not in constant) for i, a in enumerate(arrays)]
    build(*tensors).backward()
    for t, a in zip(tensors, arrays):
        if not t.requires_grad:
            assert t.grad is None
            continue
        numeric = central_diff(lambda: build(*tensors).item(), a, h=h)
        assert t.grad is not None
        assert rel_err(t.grad, numeric) < tol, f"gradient mismatch for {t}"


# --- matmul ---

def test_matmul_identity():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).data, b.data)


def test_matmul_hand_case():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_grad_hand_case():
    a = t64([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = t64([[1.0, 1.0], [1.0, 1.0]])
    ad.matmul(a, b).sum().backward()
    np.testing.assert_allclose(a.grad, [[2.0, 2.0], [2.0, 2.0]], atol=1e-12)


def test_matmul_shape_error():
    with pytest.raises(ShapeMismatch):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_grad_fd(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    check_op_grads(lambda x, y: ad.matmul(x, y).sum(), [a, b])


def test_matmul_batched_broadcast_grad():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((4, 5))
    check_op_grads(lambda x, y: ad.matmul(x, y).sum(), [a, b])
    # the right operand is a matrix or one batch of them; more axes are rejected
    with pytest.raises(ShapeMismatch, match="needs >=2-D @ 2-D"):
        ad.matmul(Tensor(np.ones((1, 3, 4))), Tensor(np.ones((2, 2, 4, 5))))


# x as a Linear sees it on a batch, on tokens, and on a [B, H, W, C] image
BIAS_X_SHAPES = [(3, 4), (2, 3, 4), (2, 2, 3, 4)]


@pytest.mark.parametrize("x_shape", BIAS_X_SHAPES)
def test_matmul_bias_grad_fd(x_shape):
    rng = np.random.default_rng(len(x_shape))
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(5)
    # random output weights, so that no gradient is a plain count
    c = Tensor(rng.standard_normal(x_shape[:-1] + (5,)))
    check_op_grads(lambda x, w, b: ad.mul(ad.matmul(x, w, b), c).sum(), [x, w, b])


@pytest.mark.parametrize("x_shape", BIAS_X_SHAPES)
def test_matmul_bias_equals_matmul_then_add(x_shape):
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(x_shape), dtype=np.float32)
    w = Tensor(rng.standard_normal((4, 5)), dtype=np.float32)
    b = Tensor(rng.standard_normal(5), dtype=np.float32)
    fused = ad.matmul(x, w, b)
    assert np.array_equal(fused.data, ad.add(ad.matmul(x, w), b).data)


def test_matmul_bias_shape_errors():
    x = Tensor(np.ones((2, 3, 4)))
    with pytest.raises(ShapeMismatch):
        ad.matmul(x, Tensor(np.ones((4, 5))), Tensor(np.ones(4)))
    with pytest.raises(ShapeMismatch):
        ad.matmul(x, Tensor(np.ones((2, 4, 5))), Tensor(np.ones(4)))


@pytest.mark.parametrize("with_bias", [False, True])
def test_matmul_3d_grad_fd(with_bias):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 4, 5))
    c = Tensor(rng.standard_normal((2, 3, 5)))
    if with_bias:
        check_op_grads(lambda x, y, z: ad.mul(ad.matmul(x, y, z), c).sum(),
                       [a, b, rng.standard_normal(5)])
    else:
        check_op_grads(lambda x, y: ad.mul(ad.matmul(x, y), c).sum(), [a, b])


def test_matmul_3d_is_one_gemm_per_batch():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 2, 4))
    b = rng.standard_normal((3, 4, 5))
    bias = rng.standard_normal(5)
    out = ad.matmul(Tensor(a), Tensor(b), Tensor(bias)).data
    for i in range(3):
        np.testing.assert_allclose(out[i], a[i] @ b[i] + bias, rtol=1e-12)


@pytest.mark.parametrize("a_shape, b_shape, bias_shape, match", [
    ((2, 3, 4), (3, 4, 5), None, "batch extents differ"),
    ((2, 3, 4), (2, 3, 5), None, "inner extents differ"),
    ((2, 3, 4), (2, 4, 5), (2, 5), "does not fit"),
    ((3, 4), (2, 4, 5), None, "needs"),
])
def test_matmul_3d_shape_errors(a_shape, b_shape, bias_shape, match):
    bias = None if bias_shape is None else Tensor(np.ones(bias_shape))
    with pytest.raises(ShapeMismatch, match=match):
        ad.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)), bias)


def test_linear_and_conv_are_one_node_each():
    init = seeded_init(0)
    lin = Linear(init, 4, 5)
    y = lin(Tensor(np.ones((2, 3, 4)), requires_grad=True, dtype=np.float32))
    assert y._op == "matmul" and y._parents[2] is lin.bias
    conv = Conv2d(init, 2, 3)
    x = Tensor(np.ones((1, 6, 6, 2)), requires_grad=True, dtype=np.float32)
    y = conv(x)
    assert y._op == "conv2d" and y._parents == (x, conv.weight, conv.bias)


# --- elementwise suite ---

def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(0.0)).item() == 0.5


def test_sigmoid_extreme_is_finite():
    out = ad.sigmoid(Tensor(np.array([-1000.0, 1000.0])))
    assert np.all(np.isfinite(out.data))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_stays_in_the_unit_interval(dtype):
    # 1/(1+e) with e >= 0, or e/(1+e) with e <= 1: no volume needs a clip
    big = np.finfo(dtype).max
    x = np.array([-big, -1e4, -50.0, 0.0, 50.0, 1e4, big], dtype=dtype)
    out = ad.sigmoid(Tensor(x)).data
    assert out.dtype == dtype
    assert out.min() == 0.0 and out.max() == 1.0
    assert np.all(np.diff(out) >= 0)


def test_gelu_at_zero():
    assert ad.gelu(Tensor(0.0)).item() == 0.0


def test_gelu_in_place_is_bitwise_the_plain_formula():
    rng = np.random.default_rng(3)
    x = (rng.standard_normal((4, 5, 6)) * 3).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    t = Tensor(x, requires_grad=True)
    out = ad.gelu(t)
    ad.mul(out, Tensor(g)).sum().backward()
    phi = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))).astype(np.float32))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    assert out.dtype == t.grad.dtype == np.float32
    assert np.array_equal(out.data, x * phi)
    assert np.array_equal(t.grad, g * (phi + x * pdf))
    with ad.no_grad():
        assert np.array_equal(ad.gelu(t).data, x * phi)
    assert np.array_equal(ad.gelu(Tensor(x)).data, x * phi)


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
        check_op_grads(lambda x: ad.mul(x, 1.7).sum(), [a])


def test_leading_axis_broadcast_grad():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((4,))
    check_op_grads(lambda x, y: ad.add(x, y).sum(), [a, b])
    check_op_grads(lambda x, y: ad.mul(x, y).sum(), [a, b])


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
@pytest.mark.parametrize("shapes", [((4, 2, 3), (1, 3)), ((3, 4, 4, 4), (3, 1, 1, 1))],
                         ids=["inner", "per-volume"])
def test_size_one_broadcast_grad_fd(op, shapes):
    # a size-1 axis stretched on either side, as the SSIM loss centres each volume
    rng = np.random.default_rng(4)
    a, b = (rng.uniform(0.5, 1.5, shape) for shape in shapes)
    w = Tensor(rng.standard_normal(shapes[0]))
    check_op_grads(lambda x, y: ad.mul(op(x, y), w).sum(), [a, b])
    check_op_grads(lambda x, y: ad.mul(op(y, x), w).sum(), [a, b])


def test_shapes_numpy_cannot_broadcast_are_rejected():
    with pytest.raises(ShapeMismatch, match=r"add: shapes \(2, 3, 4\) and \(2, 2, 4\)"):
        ad.add(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 2, 4))))


@pytest.mark.parametrize("constant", [lambda: 1.7, lambda: t64(1.7)], ids=["number", "tensor"])
def test_a_constant_operand_gets_no_gradient(constant):
    x = t64([[1.0, -2.0, 0.5]], requires_grad=True)
    y = ad.mul(x, constant())
    gx, gc = y._vjp(np.ones(y.shape))
    assert gc is None
    np.testing.assert_array_equal(gx, np.full(x.shape, 1.7))


@pytest.mark.parametrize("op", [
    lambda: ad.div(Tensor(np.ones(3)), Tensor(np.array([1.0, 0.0, 2.0]))),
    lambda: ad.div(Tensor(np.zeros(3)), Tensor(np.array([1.0, 0.0, 2.0]))),
    lambda: ad.mul(*[Tensor(np.full((2, 2), 1e300))] * 2),
    lambda: ad.attention(*[Tensor(np.full((2, 5, 6), 1e30, dtype=np.float32))] * 3, 2),
], ids=["div-by-zero", "zero-by-zero", "mul-overflow", "attention-overflow"])
def test_a_non_finite_result_propagates_without_a_warning(op):
    # finiteness is checked where a value leaves the graph, not by each op
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = op()
    assert not np.all(np.isfinite(out.data))


# --- softmax ---

def test_softmax_uniform():
    out = ad.softmax(Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-7)


def test_softmax_large_inputs_stable():
    out = ad.softmax(Tensor(np.array([1000.0, 1000.0])))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)


def test_softmax_reference_values():
    out = ad.softmax(t64([1.0, 2.0, 3.0]))
    e = np.exp([1.0, 2.0, 3.0])
    np.testing.assert_allclose(out.data, e / e.sum(), atol=1e-12)
    np.testing.assert_allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)


@pytest.mark.parametrize("extreme", [0.0, 1e4, -1e4])
def test_softmax_rows_sum_to_one(extreme):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 6)) + extreme
    out = ad.softmax(Tensor(x))
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_grad_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 5))
    w = rng.standard_normal((2, 5))  # weight the outputs to make the loss generic
    wt = Tensor(w)
    check_op_grads(lambda t: ad.mul(ad.softmax(t), wt).sum(), [x])


# --- layer_norm ---

def test_layer_norm_constant_input():
    x = t64([1.0, 1.0, 1.0])
    out = ad.layer_norm(x)
    np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-6)


def test_layer_norm_reference_values():
    x = t64([1.0, 2.0, 3.0])
    out = ad.layer_norm(x)
    np.testing.assert_allclose(out.data, [-1.22474, 0.0, 1.22474], atol=1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_norm_grad_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    w = Tensor(rng.standard_normal((3, 4)))
    check_op_grads(lambda a: ad.mul(ad.layer_norm(a), w).sum(), [x])


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


@pytest.mark.parametrize("tensors, axis", [
    ([], -1),
    ([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3, 1)))], -1),
    ([Tensor(np.ones((2, 3)))], 5),
], ids=["empty", "rank-mismatch", "axis-out-of-range"])
def test_concat_errors_are_shape_mismatch(tensors, axis):
    with pytest.raises(ShapeMismatch):
        ad.concat(tensors, axis=axis)


def test_narrow_axis_out_of_range():
    with pytest.raises(ShapeMismatch):
        ad.narrow(Tensor(np.ones((2, 3))), 5, 0, 1)


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


# --- attention ---

def attention_np(q, k, v, heads):
    """The unfused composition: split heads, scaled scores, softmax, mix,
    merge.  Returns the output and the [B, heads, Nq, Nk] probabilities."""
    def split(x):
        return x.reshape(x.shape[0], x.shape[1], heads, -1).transpose(0, 2, 1, 3)

    scores = split(q) @ split(k).transpose(0, 1, 3, 2) / math.sqrt(q.shape[-1] // heads)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    out = (probs @ split(v)).transpose(0, 2, 1, 3).reshape(q.shape)
    return out, probs


def qkv(seed, n_q, n_k, width=6, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((2, n, width)).astype(dtype) for n in (n_q, n_k, n_k)]


@pytest.mark.parametrize("seed", range(3))
def test_self_attention_grad_fd(seed):
    x, _, _ = qkv(seed, 5, 5)
    w = Tensor(np.random.default_rng(seed + 10).standard_normal(x.shape))
    check_op_grads(lambda t: ad.mul(ad.attention(t, t, t, 2), w).sum(), [x])


@pytest.mark.parametrize("seed", range(3))
def test_cross_attention_grad_fd(seed):
    arrays = qkv(seed, 3, 5)
    w = Tensor(np.random.default_rng(seed + 10).standard_normal(arrays[0].shape))
    check_op_grads(lambda q, k, v: ad.mul(ad.attention(q, k, v, 3), w).sum(), arrays)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 2e-6)])
@pytest.mark.parametrize("n_q,n_k", [(5, 5), (3, 7)])
def test_attention_matches_unfused_composition(dtype, tol, n_q, n_k):
    arrays = qkv(4, n_q, n_k, width=8, dtype=dtype)
    trace = []
    out = ad.attention(*(Tensor(a) for a in arrays), 4, trace=trace)
    want, want_probs = attention_np(*(a.astype(np.float64) for a in arrays), 4)
    assert out.dtype == dtype and out.shape == (2, n_q, 8)
    np.testing.assert_allclose(out.data, want, rtol=tol, atol=tol)
    (probs,) = trace
    assert probs.shape == (2, 4, n_q, n_k)
    np.testing.assert_allclose(probs, want_probs, rtol=tol, atol=tol)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=tol)


@pytest.mark.parametrize("shapes,heads", [
    (((2, 3, 6), (2, 4, 6), (2, 5, 6)), 2),   # k and v differ
    (((2, 3, 6), (1, 4, 6), (1, 4, 6)), 2),   # batch differs
    (((2, 3, 6), (2, 4, 4), (2, 4, 4)), 2),   # width differs
    (((2, 3, 6), (2, 4, 6), (2, 4, 6)), 4),   # heads do not divide the width
    (((3, 6), (4, 6), (4, 6)), 2),            # no batch axis
])
def test_attention_shape_errors(shapes, heads):
    with pytest.raises(ShapeMismatch, match="attention"):
        ad.attention(*(Tensor(np.ones(s)) for s in shapes), heads)


# --- conv2d ---

CONV_CASES = [(2, 1), (1, 0)]  # (stride, padding)


@pytest.mark.parametrize("stride,padding", CONV_CASES)
@pytest.mark.parametrize("constant", [(), (0,)], ids=["input-grad", "no-input-grad"])
def test_conv2d_grad_fd(stride, padding, constant):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 5, 6, 3))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    oh, ow = (5 + 2 * padding - 3) // stride + 1, (6 + 2 * padding - 3) // stride + 1
    c = Tensor(rng.standard_normal((2, oh, ow, 4)))
    check_op_grads(lambda x, w, b: ad.mul(ad.conv2d(x, w, b, stride, padding), c).sum(),
                   [x, w, b], constant=constant)


def test_conv2d_returns_no_gradient_for_a_constant_input():
    rng = np.random.default_rng(14)
    w, b = t64(rng.standard_normal((4, 3, 3, 3)), True), t64(np.zeros(4), True)
    for requires_grad in (False, True):
        y = ad.conv2d(t64(rng.standard_normal((1, 4, 4, 3)), requires_grad), w, b, 2, 1)
        gx, gw, gb = y._vjp(np.ones(y.shape))
        assert (gx is None) != requires_grad
        assert gw.shape == w.shape and gb.shape == b.shape


@pytest.mark.parametrize("stride,padding", CONV_CASES)
def test_conv2d_matches_naive_conv(stride, padding):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 3, 7, 6))  # [B, C, H, W]
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    out = ad.conv2d(t64(x.transpose(0, 2, 3, 1)), t64(w), t64(b), stride, padding).data
    for i in range(2):
        want = naive_conv(x[i], w, b, stride=stride, pad=padding)
        np.testing.assert_allclose(out[i].transpose(2, 0, 1), want, atol=1e-12)


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
    with pytest.raises(ShapeMismatch, match="backward: loss has 4 elements"):
        ad.mul(x, x).backward()
    with pytest.raises(ShapeMismatch, match=r"item\(\) on tensor of shape \(2, 2\)"):
        x.item()


def test_backward_rejects_a_gradient_of_the_wrong_shape():
    x = Tensor(np.ones(3), requires_grad=True)
    y = ad._make(x.data * 2, "misshapen", (x,), lambda g: (np.ones(4),))
    with pytest.raises(ShapeMismatch, match=r"misshapen: gradient shape \(4,\) vs \(3,\)"):
        y.sum().backward()


def test_backward_twice_bitwise_identical():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)

    def run():
        x.grad = None
        w.grad = None
        ad.gelu(ad.matmul(x, w)).sum().backward()
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_backward_releases_the_graph():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4))
    x = t64(a, requires_grad=True)
    root = ad.gelu(x).sum()
    hidden = weakref.ref(root._parents[0].data)  # the gelu output
    root.backward()
    assert hidden() is None
    pdf = np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    expected = 0.5 * (1.0 + erf(a / math.sqrt(2.0))) + a * pdf
    np.testing.assert_allclose(x.grad, expected, atol=1e-12)
    with pytest.raises(GraphReleased):
        root.backward()


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
    p.grad = np.array([2.0])
    sgd_step([p], lr=0.1)
    np.testing.assert_allclose(p.data, [0.8], atol=1e-15)


def test_sgd_step_zero_lr():
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    before = p.data.copy()
    p.grad = np.ones(2, dtype=np.float32)
    sgd_step([p], lr=0.0)
    np.testing.assert_array_equal(p.data, before)


def test_sgd_two_steps_vs_summed_identical_grads():
    # dyadic values make the float arithmetic exact
    g = np.array([0.25], dtype=np.float64)
    p1 = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    p2 = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    p1.grad, p2.grad = g, g + g
    sgd_step([p1], lr=0.5)
    sgd_step([p1], lr=0.5)
    sgd_step([p2], lr=0.5)
    np.testing.assert_array_equal(p1.data, p2.data)


def test_sgd_step_keeps_a_parameter_without_gradient():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    sgd_step([p], lr=0.1)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
