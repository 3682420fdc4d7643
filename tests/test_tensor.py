import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from hgformer.construct import IncidenceMatrix
from hgformer.tensor import (
    ConfigError,
    NumericalError,
    ShapeError,
    Tape,
    Tensor,
    add,
    attention_mix,
    attention_scores,
    cross_entropy_logits,
    depthwise_conv2d,
    edge_gather_mean,
    extract_patches,
    gelu,
    grid_to_tokens,
    layer_norm,
    matmul,
    mean_rows,
    mul,
    node_scatter_mean,
    pad_spatial,
    reshape,
    scale,
    softmax_rows,
    sum_all,
    tokens_to_grid,
    zero_grads,
)

from conftest import numeric_grad, rel_err_max


def t64(arr, grad=True):
    return Tensor(np.asarray(arr), requires_grad=grad, dtype=np.float64)


def tape_grad(build_loss, *tensors):
    with Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    return [p.grad for p in tensors]


# --------------------------------------------------------------------------
# matmul


def test_matmul_bias_must_broadcast_over_the_product():
    with pytest.raises(ShapeError, match="bias"):
        matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2))), Tensor(np.ones(3)))


def test_matmul_identity_bitwise():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    out = matmul(eye, Tensor(a))
    assert out.data.tobytes() == a.tobytes()


def test_matmul_projector():
    p = Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    npt.assert_array_equal(matmul(p, b).data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_gradient_matches_finite_differences(rng):
    a = t64(rng.uniform(-1, 1, (3, 4)))
    b = t64(rng.uniform(-1, 1, (4, 2)))

    def loss():
        return float(matmul(a, b).data.sum())

    (ga, gb) = tape_grad(lambda: sum_all(matmul(a, b)), a, b)
    assert rel_err_max(ga, numeric_grad(loss, a)) < 1e-6
    assert rel_err_max(gb, numeric_grad(loss, b)) < 1e-6


def test_matmul_shape_error_mentions_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


# --------------------------------------------------------------------------
# softmax


def test_softmax_uniform_row():
    out = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
    npt.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-7)


def test_softmax_extreme_logits_stay_finite():
    out = softmax_rows(Tensor([[1000.0, 0.0]], dtype=np.float64))
    npt.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)


def test_softmax_123_matches_direct_evaluation():
    # oracle: direct exp / sum(exp)
    e = [math.exp(v) for v in (1.0, 2.0, 3.0)]
    expected = [v / sum(e) for v in e]
    npt.assert_allclose(expected, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)
    out = softmax_rows(Tensor([[1.0, 2.0, 3.0]], dtype=np.float64))
    npt.assert_allclose(out.data[0], [0.0900, 0.2447, 0.6652], atol=1e-4)


@given(st.integers(1, 6), st.integers(1, 6), st.floats(-50, 50), st.integers(0, 2**31 - 1))
def test_softmax_rows_sum_to_one_and_shift_invariant(m, n, c, seed):
    x = np.random.default_rng(seed).uniform(-5, 5, (m, n))
    y = softmax_rows(Tensor(x, dtype=np.float64)).data
    npt.assert_allclose(y.sum(axis=1), np.ones(m), atol=1e-6)
    y2 = softmax_rows(Tensor(x + c, dtype=np.float64)).data
    npt.assert_allclose(y, y2, atol=1e-6)


# --------------------------------------------------------------------------
# layer norm


def test_layer_norm_constant_row_collapses_to_zero():
    x = Tensor([[3.0, 3.0, 3.0]])
    out = layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
    npt.assert_allclose(out.data, 0.0, atol=1e-7)


def test_layer_norm_symmetric_row_eps_zero():
    out = layer_norm(Tensor([[1.0, 3.0]], dtype=np.float64), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)
    npt.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-12)


def test_layer_norm_normalizes_rows(rng):
    x = Tensor(rng.uniform(-2, 2, (5, 8)), dtype=np.float64)
    out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
    npt.assert_allclose(out.mean(axis=1), 0.0, atol=1e-5)
    npt.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)


def test_layer_norm_gradient(rng):
    x = t64(rng.uniform(-1, 1, (3, 5)))
    gamma = t64(rng.uniform(0.5, 1.5, 5))
    beta = t64(rng.uniform(-0.5, 0.5, 5))
    w = Tensor(rng.uniform(-1, 1, (3, 5)), dtype=np.float64)

    def build():
        return sum_all(mul(layer_norm(x, gamma, beta), w))

    def loss():
        return float(mul(layer_norm(x, gamma, beta), w).data.sum())

    for t, g in zip((x, gamma, beta), tape_grad(build, x, gamma, beta)):
        assert rel_err_max(g, numeric_grad(loss, t)) < 1e-5


# --------------------------------------------------------------------------
# gelu


def test_gelu_values():
    assert gelu(Tensor([0.0])).data[0] == 0.0
    npt.assert_allclose(gelu(Tensor([100.0], dtype=np.float64)).data[0], 100.0, rtol=1e-12)
    npt.assert_allclose(gelu(Tensor([-100.0], dtype=np.float64)).data[0], 0.0, atol=1e-12)
    # Phi(1) from the erf oracle
    phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    npt.assert_allclose(gelu(Tensor([1.0], dtype=np.float64)).data[0], 1.0 * phi1, atol=1e-12)
    npt.assert_allclose(gelu(Tensor([1.0], dtype=np.float64)).data[0], 0.84134, atol=1e-4)


# --------------------------------------------------------------------------
# depthwise conv


def test_conv_delta_kernel_is_identity(rng):
    x = Tensor(rng.uniform(-1, 1, (2, 4, 5)))
    k = np.zeros((2, 3, 3), dtype=np.float32)
    k[:, 1, 1] = 1.0
    npt.assert_array_equal(depthwise_conv2d(x, Tensor(k)).data, x.data)


def test_conv_ones_kernel_counts_neighbors():
    x = Tensor(np.ones((1, 5, 5)))
    k = Tensor(np.ones((1, 3, 3)))
    out = depthwise_conv2d(x, k).data[0]
    assert out[2, 2] == 9.0
    assert out[0, 0] == 4.0
    assert out[0, 2] == 6.0


def test_conv_rejects_non_3x3_kernel():
    with pytest.raises(ConfigError):
        depthwise_conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((2, 5, 5))))


def recorded_backward(op, inputs, g):
    """Run the one backward ``op`` records on the upstream gradient ``g`` as given."""
    with Tape() as tape:
        op(*inputs)
    ((_, bwd),) = tape._records
    got = {}
    bwd(g, lambda t, arr: got.__setitem__(id(t), arr))
    return [got[id(t)] for t in inputs]


def conv_backward_loop_reference(x, k, g):
    """The per-tap loop on ``g`` in whatever layout it arrives: dx, dk and the bias sum."""
    c, h, w = x.shape
    pad = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    dk = np.empty_like(k)
    dpad = np.zeros_like(pad)
    for i in range(3):
        for j in range(3):
            dk[:, i, j] = (g * pad[:, i : i + h, j : j + w]).sum(axis=(1, 2))
            dpad[:, i : i + h, j : j + w] += k[:, i, j, None, None] * g
    return dpad[:, 1 : 1 + h, 1 : 1 + w], dk, g.sum(axis=(1, 2))


@pytest.mark.parametrize("layout", ["c_order", "channel_last"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "shape", [(2, 4, 5), (64, 8, 8), (16, 14, 14), (320, 2, 2), (512, 1, 1)], ids=lambda s: "x".join(map(str, s))
)
def test_conv_backward_byte_equal_to_loop_for_either_gradient_layout(shape, dtype, layout):
    c, h, w = shape
    rng = np.random.default_rng(c * 1000 + h)
    x = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    k = Tensor(rng.normal(size=(c, 3, 3)).astype(dtype), requires_grad=True)
    b = Tensor(rng.normal(size=c).astype(dtype), requires_grad=True)
    if layout == "c_order":
        g = rng.normal(size=shape).astype(dtype)
    else:
        # the gradient grid_to_tokens hands on for C-ordered (N, C) token rows
        g_tok = rng.normal(size=(h * w, c)).astype(dtype)
        (g,) = recorded_backward(grid_to_tokens, [x], g_tok)
        assert g.strides == g_tok.T.reshape(c, h, w).strides
    got = recorded_backward(depthwise_conv2d, [x, k, b], g)
    for arr, ref in zip(got, conv_backward_loop_reference(x.data, k.data, g)):
        assert arr.dtype == ref.dtype
        assert arr.tobytes() == ref.tobytes()


# --------------------------------------------------------------------------
# backward contracts


def test_backward_of_sum_is_ones(rng):
    x = t64(rng.uniform(-1, 1, (3, 4)))
    (g,) = tape_grad(lambda: sum_all(x), x)
    npt.assert_array_equal(g, np.ones((3, 4)))


def test_backward_of_sum_of_squares_is_2x(rng):
    x = t64(rng.uniform(-1, 1, (3, 4)))
    (g,) = tape_grad(lambda: sum_all(mul(x, x)), x)
    npt.assert_allclose(g, 2 * x.data, rtol=1e-12)


def test_backward_requires_scalar_loss():
    x = t64(np.ones((2, 2)))
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(NumericalError):
        tape.backward(y)


def test_repeated_backward_accumulates():
    x = t64(np.ones(3))
    with Tape() as tape:
        loss = sum_all(x)
    tape.backward(loss)
    tape.backward(loss)
    npt.assert_array_equal(x.grad, 2 * np.ones(3))
    zero_grads([x])
    assert x.grad is None


def test_ops_outside_tape_do_not_record():
    x = t64(np.ones(3))
    with Tape() as tape:
        pass
    sum_all(x)
    assert len(tape) == 0


# --------------------------------------------------------------------------
# finite-difference property over every differentiable op


def _op_cases(rng):
    n_nodes = 6
    h = IncidenceMatrix(n_nodes=n_nodes, members=np.array([[0, 2, 4], [1, 2, 5]]), centers=np.array([2, 5]))
    return [
        ("matmul", (rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (4, 2))), lambda a, b: matmul(a, b)),
        (
            "matmul_bias_row",
            (rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (2,))),
            matmul,
        ),
        (
            "attention_scores",
            (rng.uniform(-1, 1, (3, 6)), rng.uniform(-1, 1, (4, 6))),
            lambda q, k: attention_scores(q, k, 2),
        ),
        (
            "attention_mix",
            (rng.uniform(0, 1, (6, 4)), rng.uniform(-1, 1, (4, 6))),
            lambda w, v: attention_mix(w, v, 2),
        ),
        ("add_same", (rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (3, 4))), add),
        ("add_row", (rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (4,))), add),
        ("add_row2d", (rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (1, 4))), add),
        ("add_col", (rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (3, 1))), add),
        ("mul", (rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (3, 4))), mul),
        ("scale", (rng.uniform(-1, 1, (3, 4)),), lambda a: scale(a, -2.5)),
        ("mean_rows", (rng.uniform(-1, 1, (5, 3)),), mean_rows),
        ("softmax", (rng.uniform(-1, 1, (3, 5)),), softmax_rows),
        (
            "layer_norm",
            (rng.uniform(-1, 1, (3, 5)), rng.uniform(0.5, 1.5, 5), rng.uniform(-0.5, 0.5, 5)),
            layer_norm,
        ),
        ("gelu", (rng.uniform(-1, 1, (3, 4)),), gelu),
        ("reshape", (rng.uniform(-1, 1, (3, 4)),), lambda a: reshape(a, (2, 6))),
        ("tokens_to_grid", (rng.uniform(-1, 1, (6, 4)),), lambda a: tokens_to_grid(a, (2, 3))),
        ("grid_to_tokens", (rng.uniform(-1, 1, (4, 2, 3)),), grid_to_tokens),
        ("pad_spatial", (rng.uniform(-1, 1, (2, 2, 3)),), lambda a: pad_spatial(a, 4, 4)),
        ("extract_patches", (rng.uniform(-1, 1, (2, 4, 6)),), lambda a: extract_patches(a, 2)),
        (
            "depthwise_conv2d",
            (rng.uniform(-1, 1, (2, 4, 5)), rng.uniform(-1, 1, (2, 3, 3)), rng.uniform(-1, 1, 2)),
            depthwise_conv2d,
        ),
        ("edge_gather_mean", (rng.uniform(-1, 1, (n_nodes, 4)),), lambda v: edge_gather_mean(v, h)),
        (
            "node_scatter_mean",
            (rng.uniform(-1, 1, (2, 4)),),
            lambda e: node_scatter_mean(e, h),
        ),
        ("cross_entropy", (rng.uniform(-1, 1, (1, 5)),), lambda a: cross_entropy_logits(a, 2)),
    ]


@pytest.mark.parametrize("name", [c[0] for c in _op_cases(np.random.default_rng(0))])
def test_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(0)
    cases = {c[0]: c for c in _op_cases(rng)}
    _, arrays, fn = cases[name]
    tensors = [t64(a) for a in arrays]
    w_rng = np.random.default_rng(99)

    out0 = fn(*tensors)
    w = Tensor(w_rng.uniform(-1, 1, out0.shape), dtype=np.float64)

    def build():
        out = fn(*tensors)
        return sum_all(mul(out, w))

    def loss():
        out = fn(*tensors)
        return float((out.data * w.data).sum())

    grads = tape_grad(build, *tensors)
    for t, g in zip(tensors, grads):
        assert g is not None, f"{name}: missing gradient"
        assert rel_err_max(g, numeric_grad(loss, t)) < 1e-4, f"{name}: gradient mismatch"


# --------------------------------------------------------------------------
# hypergraph gather / scatter against the np.add.at formulation


def add_at_reference(members, n_nodes, v, e, g_nodes, g_edges):
    """Edge-gather backward, node-scatter forward and backward, accumulated with np.add.at."""
    ne, k = members.shape
    node_ids = members.ravel()
    edge_ids = np.repeat(np.arange(ne), k)
    denom = np.maximum(np.bincount(node_ids, minlength=n_nodes), 1).astype(e.dtype)
    dv = np.zeros_like(v)
    np.add.at(dv, node_ids, np.repeat(g_edges / k, k, axis=0))
    out = np.zeros((n_nodes, e.shape[1]), dtype=e.dtype)
    np.add.at(out, node_ids, e[edge_ids])
    out /= denom[:, None]
    de = np.zeros_like(e)
    np.add.at(de, edge_ids, g_nodes[node_ids] / denom[node_ids, None])
    return dv, out, de


@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 30),
    st.integers(1, 6),
    st.sampled_from([np.float32, np.float64]),
)
def test_gather_scatter_byte_equal_to_add_at(seed, n_nodes, channels, dtype):
    rng = np.random.default_rng(seed)
    # members come from a proper subset of the nodes, so some have degree 0
    pool = np.sort(rng.choice(n_nodes, int(rng.integers(1, n_nodes)), replace=False))
    ne, k = int(rng.integers(1, 9)), int(rng.integers(1, pool.size + 1))
    members = np.sort(np.stack([rng.choice(pool, k, replace=False) for _ in range(ne)]), axis=1)
    h = IncidenceMatrix(n_nodes=n_nodes, members=members, centers=members[:, 0])
    assert (h.d_v == 0).any()

    def draw(rows):
        x = rng.normal(size=(rows, channels)).astype(dtype)
        x[rng.random(x.shape) < 0.2] = -0.0
        return x

    v_data, e_data, g_nodes, g_edges = draw(n_nodes), draw(ne), draw(n_nodes), draw(ne)
    ref_dv, ref_out, ref_de = add_at_reference(members, n_nodes, v_data, e_data, g_nodes, g_edges)

    v = Tensor(v_data, requires_grad=True)
    e = Tensor(e_data, requires_grad=True)
    with Tape() as tape:
        pooled = edge_gather_mean(v, h)
        out = node_scatter_mean(e, h)
        loss = add(sum_all(mul(pooled, Tensor(g_edges))), sum_all(mul(out, Tensor(g_nodes))))
    tape.backward(loss)
    for got, ref in ((out.data, ref_out), (v.grad, ref_dv), (e.grad, ref_de)):
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


# --------------------------------------------------------------------------
# numerical guards


def test_non_finite_output_raises():
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        mul(Tensor([1e300], dtype=np.float64), Tensor([1e300], dtype=np.float64))


def test_layer_norm_eps_zero_constant_row_raises():
    x = Tensor([[2.0, 2.0]], dtype=np.float64)
    with pytest.raises(NumericalError):
        layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)


@given(st.integers(0, 2**31 - 1))
def test_ops_stay_finite_for_bounded_inputs(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1e3, 1e3, (3, 4)), dtype=np.float64)
    y = Tensor(rng.uniform(-1e3, 1e3, (4, 3)), dtype=np.float64)
    for out in (
        softmax_rows(x),
        gelu(x),
        layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))),
        matmul(x, y),
        cross_entropy_logits(Tensor(rng.uniform(-1e3, 1e3, (1, 7)), dtype=np.float64), 3),
    ):
        assert np.isfinite(out.data).all()


def test_add_rejects_general_broadcast():
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros(4)))


def test_extract_patches_rejects_indivisible():
    with pytest.raises(ConfigError):
        extract_patches(Tensor(np.zeros((1, 5, 4))), 2)
