import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st
from scipy.special import erf

from hgformer.construct import IncidenceMatrix, TokenSet, cs_knn
from hgformer.messaging import (
    DropPath,
    HgaParams,
    feed_forward,
    hga_e2n,
    hga_n2e,
    hgconv_e2n,
    hgconv_n2e,
    apply_norm,
    attention_core,
    init_hga_params,
    linear,
    multi_head_attention,
)
from hgformer.tensor import (
    FlopCounter,
    Tape,
    Tensor,
    add,
    cross_entropy_logits,
    edge_gather_mean,
    matmul,
    mul,
    node_scatter_mean,
    sum_all,
)

from conftest import attention_audit, numeric_grad, rel_err_max


def t64(arr):
    return Tensor(np.asarray(arr), requires_grad=True, dtype=np.float64)


def gelu_np(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def random_incidence(rng, n, ne, k):
    members = np.stack([np.sort(rng.choice(n, size=k, replace=False)) for _ in range(ne)])
    centers = members[np.arange(ne), rng.integers(0, k, ne)]
    return IncidenceMatrix(n_nodes=n, members=members, centers=centers)


def params64(rng, c, heads=1, with_ffn=False):
    return init_hga_params(c, heads, rng, dtype=np.float64, with_ffn=with_ffn)


def linear_n2e(v, h, w):
    """hgconv_n2e without its GELU: member mean, then the linear map."""
    return matmul(edge_gather_mean(v, h), w)


def linear_e2n(e, h, w):
    """hgconv_e2n without its GELU: incident-edge mean, then the linear map."""
    return matmul(node_scatter_mean(e, h), w)


# --------------------------------------------------------------------------
# hgconv closed forms


def test_hgconv_n2e_single_edge_is_mean():
    v = t64([[1.0, 1.0], [3.0, 3.0]])
    h = IncidenceMatrix(n_nodes=2, members=np.array([[0, 1]]), centers=np.array([0]))
    eye = Tensor(np.eye(2), dtype=np.float64)
    out = linear_n2e(v, h, eye)
    npt.assert_allclose(out.data, [[2.0, 2.0]], atol=1e-12)


def test_hgconv_identity_pattern_roundtrip(rng):
    n = 5
    v = t64(rng.uniform(-1, 1, (n, 3)))
    h = IncidenceMatrix(
        n_nodes=n, members=np.arange(n)[:, None], centers=np.arange(n)
    )
    eye = Tensor(np.eye(3), dtype=np.float64)
    e = linear_n2e(v, h, eye)
    npt.assert_allclose(e.data, v.data, atol=1e-12)
    back = linear_e2n(e, h, eye)
    npt.assert_allclose(back.data, v.data, atol=1e-12)


def test_hgconv_e2n_zero_degree_row_is_gelu_zero(rng):
    h = IncidenceMatrix(n_nodes=4, members=np.array([[0, 2], [0, 2]]), centers=np.array([0, 2]))
    e = t64(rng.uniform(-1, 1, (2, 3)))
    w = t64(rng.uniform(-1, 1, (3, 3)))
    out = hgconv_e2n(e, h, w)
    npt.assert_array_equal(out.data[1], np.zeros(3))
    npt.assert_array_equal(out.data[3], np.zeros(3))


def test_double_hgconv_single_edge_is_global_mean_smoother(rng):
    # complete one-hyperedge topology with identity weights and no activation
    # maps every node to the global mean: the smoothing the attention
    # refinement exists to counteract
    n = 6
    v = t64(rng.uniform(-1, 1, (n, 4)))
    h = IncidenceMatrix(n_nodes=n, members=np.arange(n)[None, :], centers=np.array([0]))
    eye = Tensor(np.eye(4), dtype=np.float64)
    e = linear_n2e(v, h, eye)
    out = linear_e2n(e, h, eye)
    mean = v.data.mean(axis=0)
    npt.assert_allclose(out.data, np.tile(mean, (n, 1)), atol=1e-12)
    again = linear_e2n(linear_n2e(out, h, eye), h, eye)
    npt.assert_allclose(again.data, out.data, atol=1e-12)


# --------------------------------------------------------------------------
# dense-formula oracle


def dense_n2e(v, h, w):
    hd = h.dense()
    de_inv = np.diag(1.0 / hd.sum(axis=0))
    return gelu_np(de_inv @ hd.T @ v @ w)


def dense_e2n(e, h, w):
    hd = h.dense()
    dv = hd.sum(axis=1)
    dv_inv = np.diag(np.where(dv > 0, 1.0 / np.maximum(dv, 1), 0.0))
    return gelu_np(dv_inv @ hd @ e @ w)


@given(st.integers(0, 2**31 - 1))
def test_hgconv_sparse_matches_dense_formula(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 33))
    ne = int(rng.integers(1, 9))
    k = int(rng.integers(1, n + 1))
    h = random_incidence(rng, n, ne, k)
    v = t64(rng.uniform(-1, 1, (n, 5)))
    w = t64(rng.uniform(-1, 1, (5, 5)))
    e_sparse = hgconv_n2e(v, h, w)
    npt.assert_allclose(e_sparse.data, dense_n2e(v.data, h, w.data), atol=1e-6)
    e = t64(rng.uniform(-1, 1, (ne, 5)))
    v_sparse = hgconv_e2n(e, h, w)
    npt.assert_allclose(v_sparse.data, dense_e2n(e.data, h, w.data), atol=1e-6)


# --------------------------------------------------------------------------
# attention


def test_single_key_attention_weight_is_one(rng):
    c = 4
    p = params64(rng, c)
    q_src = t64(rng.uniform(-1, 1, (3, c)))
    kv = t64(rng.uniform(-1, 1, (1, c)))
    with attention_audit() as audit:
        out = multi_head_attention(q_src, kv, p)
    assert all(dev < 1e-12 for dev, _ in audit)
    # pre-projection content is exactly the single value row; check by making
    # the output projection the identity
    p.out.weight = Tensor(np.eye(c), dtype=np.float64)
    p.out.bias = Tensor(np.zeros(c), dtype=np.float64)
    out = multi_head_attention(q_src, kv, p)
    kv_n = (kv.data - kv.data.mean()) / np.sqrt(kv.data.var() + 1e-5)
    value_row = kv_n @ p.v.weight.data + p.v.bias.data
    npt.assert_allclose(out.data, np.tile(value_row, (3, 1)), atol=1e-9)


def test_zero_query_key_weights_give_uniform_attention(rng):
    c, n = 4, 6
    p = params64(rng, c)
    p.q.weight = Tensor(np.zeros((c, c)), dtype=np.float64)
    p.q.bias = Tensor(np.zeros(c), dtype=np.float64)
    p.k.weight = Tensor(np.zeros((c, c)), dtype=np.float64)
    p.k.bias = Tensor(np.zeros(c), dtype=np.float64)
    p.out.weight = Tensor(np.eye(c), dtype=np.float64)
    p.out.bias = Tensor(np.zeros(c), dtype=np.float64)
    q_src = t64(rng.uniform(-1, 1, (2, c)))
    kv = t64(rng.uniform(-1, 1, (n, c)))
    out = multi_head_attention(q_src, kv, p)
    mu = kv.data.mean(axis=1, keepdims=True)
    kv_n = (kv.data - mu) / np.sqrt(kv.data.var(axis=1, keepdims=True) + 1e-5)
    values = kv_n @ p.v.weight.data + p.v.bias.data
    npt.assert_allclose(out.data, np.tile(values.mean(axis=0), (2, 1)), atol=1e-9)


@given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 8))
def test_attention_rows_sum_to_one(seed, m, n):
    rng = np.random.default_rng(seed)
    p = init_hga_params(8, 2, rng, dtype=np.float64)
    with attention_audit() as audit:
        multi_head_attention(t64(rng.uniform(-1, 1, (m, 8))), t64(rng.uniform(-1, 1, (n, 8))), p)
    assert audit, "no attention recorded"
    assert max(dev for dev, _ in audit) <= 1e-6


def test_attention_invariant_to_kv_row_permutation(rng):
    c = 8
    p = params64(rng, c, heads=2)
    q_src = t64(rng.uniform(-1, 1, (3, c)))
    kv = rng.uniform(-1, 1, (7, c))
    out1 = multi_head_attention(q_src, Tensor(kv, dtype=np.float64), p)
    perm = rng.permutation(7)
    out2 = multi_head_attention(q_src, Tensor(kv[perm], dtype=np.float64), p)
    npt.assert_allclose(out1.data, out2.data, atol=1e-6)


# --------------------------------------------------------------------------
# full directions


def test_hga_n2e_output_shape(rng):
    n, ne, c = 10, 3, 8
    p = params64(rng, c, heads=2)
    v = t64(rng.uniform(-1, 1, (n, c)))
    h = random_incidence(rng, n, ne, 4)
    out = hga_n2e(v, h, p)
    assert out.shape == (ne, c)


def test_hga_e2n_output_shape_and_single_edge(rng):
    n, c = 6, 4
    p = params64(rng, c, with_ffn=True)
    h = IncidenceMatrix(n_nodes=n, members=np.arange(n)[None, :], centers=np.array([0]))
    e = t64(rng.uniform(-1, 1, (1, c)))
    with attention_audit() as audit:
        out = hga_e2n(e, h, (2, 3), p)
    assert out.shape == (n, c)
    assert max(dev for dev, _ in audit) < 1e-12  # every node attends to the one edge token


def test_minimal_single_token_gradcheck(rng):
    c = 4
    p = params64(rng, c)
    v = t64(rng.uniform(-1, 1, (1, c)))
    h = IncidenceMatrix(n_nodes=1, members=np.array([[0]]), centers=np.array([0]))
    w = Tensor(rng.uniform(-1, 1, (1, c)), dtype=np.float64)

    def build():
        return sum_all(mul(hga_n2e(v, h, p), w))

    def loss():
        return float((hga_n2e(v, h, p).data * w.data).sum())

    with Tape() as tape:
        out = build()
    tape.backward(out)
    assert rel_err_max(v.grad, numeric_grad(loss, v)) < 1e-4


def test_roundtrip_all_parameter_gradients(rng):
    n, ne, k, c = 8, 3, 4, 4
    pn = params64(rng, c)
    pe = params64(rng, c, with_ffn=True)
    v = t64(rng.uniform(-1, 1, (n, c)))
    h = random_incidence(rng, n, ne, k)
    w = Tensor(rng.uniform(-1, 1, (n, c)), dtype=np.float64)

    def forward():
        e1 = hga_n2e(v, h, pn)
        return hga_e2n(e1, h, (2, 4), pe)

    with Tape() as tape:
        out = sum_all(mul(forward(), w))
    tape.backward(out)

    def loss():
        return float((forward().data * w.data).sum())

    tensors = {"v": v}
    for tag, p in (("n2e", pn), ("e2n", pe)):
        tensors[f"{tag}.w_conv"] = p.w_conv
        tensors[f"{tag}.q.weight"] = p.q.weight
        tensors[f"{tag}.v.bias"] = p.v.bias
        tensors[f"{tag}.norm_kv.gamma"] = p.norm_kv.gamma
    tensors["e2n.ffn.fc1.weight"] = pe.ffn.fc1.weight
    tensors["e2n.ffn.dw_kernel"] = pe.ffn.dw_kernel
    for name, t in tensors.items():
        assert t.grad is not None, name
        assert rel_err_max(t.grad, numeric_grad(loss, t)) < 1e-4, name


def test_single_stage_update_means_incident_edges(rng):
    # the single-stage ablation arm's node update is this plain mean broadcast
    h = IncidenceMatrix(n_nodes=4, members=np.array([[0, 1], [1, 2]]), centers=np.array([0, 2]))
    e = t64([[2.0, 0.0], [4.0, 2.0]])
    out = node_scatter_mean(e, h)
    npt.assert_allclose(out.data, [[2, 0], [3, 1], [4, 2], [0, 0]], atol=1e-12)


# --------------------------------------------------------------------------
# node-permutation equivariance of the full pipeline (linear FFN mode)


def test_pipeline_node_permutation_equivariance(rng):
    n, c = 9, 4
    pn = params64(rng, c)
    pe = params64(rng, c, with_ffn=True)
    # without its depthwise kernel the feedforward is linear per token
    pe = dataclasses.replace(pe, ffn=dataclasses.replace(pe.ffn, dw_kernel=None, dw_bias=None))
    nodes = rng.uniform(-1, 1, (n, c))
    cls = rng.uniform(-1, 1, (1, c))

    def run(node_arr):
        ts = TokenSet(nodes=Tensor(node_arr, dtype=np.float64), class_token=Tensor(cls, dtype=np.float64), grid=(3, 3))
        h = cs_knn(ts, n_edges=3, k=4)
        e1 = hga_n2e(ts.nodes, h, pn)
        return hga_e2n(e1, h, (3, 3), pe).data

    out = run(nodes)
    perm = rng.permutation(n)
    out_p = run(nodes[perm])
    npt.assert_allclose(out[perm], out_p, atol=1e-6)


# --------------------------------------------------------------------------
# drop path


def test_drop_path_eval_is_identity(rng):
    t = t64(rng.uniform(-1, 1, (3, 3)))
    assert DropPath(0.7, training=False, rng=np.random.default_rng(0))(t) is t


def test_drop_path_rate_one_zeroes_branch(rng):
    t = t64(rng.uniform(-1, 1, (3, 3)))
    out = DropPath(1.0, training=True, rng=np.random.default_rng(0))(t)
    npt.assert_array_equal(out.data, np.zeros((3, 3)))


def test_drop_path_rescales_kept_branch(rng):
    t = t64(np.ones((2, 2)))
    out = DropPath(0.5, training=True, rng=np.random.default_rng(3))(t)
    assert np.all(out.data == 0.0) or np.allclose(out.data, 2.0)


# --------------------------------------------------------------------------
# interaction-term flop linearity


def _core_count(m, n, c, heads):
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.standard_normal((rows, c))) for rows in (m, n, n))
    with FlopCounter() as counter:
        attention_core(q, k, v, heads)
    return counter.total


def test_attention_core_flops_linear_in_each_size():
    base = _core_count(8, 32, 64, 2)
    # doubling one axis at a time roughly doubles the interaction count
    for grow, args in (
        ("kv", (8, 64, 64, 2)),
        ("queries", (16, 32, 64, 2)),
        ("channels", (8, 32, 128, 4)),
    ):
        grown = _core_count(*args)
        ratio = grown / base
        assert 1.7 < ratio < 2.3, (grow, ratio)


# --------------------------------------------------------------------------
# stacked heads against a loop over heads


def per_head_reference(q, k, v, n_heads, g_out):
    """The attention core one head at a time, on contiguous copies of each head's columns.

    Returns the joined head outputs and the gradients of ``q``, ``k`` and
    ``v`` for the upstream gradient ``g_out``. With several heads each
    per-head gradient is zero-padded to full width and the padded arrays are
    summed, last head first; ``k``'s gradient is that of ``Kᵀ`` transposed
    back (a view when there is one head).
    """
    nq, c = q.shape
    d = c // n_heads
    inv = 1.0 / math.sqrt(d)
    outs, grads = [], [None, None, None]
    for h in reversed(range(n_heads)):
        cols = slice(h * d, (h + 1) * d)
        qs, ks, vs = (np.ascontiguousarray(x[:, cols]) for x in (q, k, v))
        kt = np.ascontiguousarray(ks.T)
        s = (qs @ kt) * inv
        e = np.exp(s - s.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        outs.insert(0, w @ vs)
        g = g_out[:, cols]
        dw = g @ vs.T
        ds = (w * (dw - (dw * w).sum(axis=1, keepdims=True))) * inv
        for i, (x, part) in enumerate(((q, ds @ kt.T), (k, (qs.T @ ds).T), (v, w.T @ g))):
            if n_heads > 1:
                full = np.zeros_like(x)
                full[:, cols] = part
                part = full
            grads[i] = part if grads[i] is None else grads[i] + part
    return np.concatenate(outs, axis=1), grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "nq,nk,c,heads", [(8, 64, 16, 1), (4, 16, 32, 1), (98, 196, 160, 5), (49, 49, 256, 8), (4, 1, 80, 2), (1, 1, 128, 4)]
)
def test_stacked_heads_byte_equal_to_per_head_loop(nq, nk, c, heads, dtype):
    rng = np.random.default_rng(nq * 1000 + nk + c + heads)
    p = init_hga_params(c, heads, rng, dtype=dtype, std=0.3)
    query_src = Tensor(rng.standard_normal((nq, c)), dtype=dtype)
    kv_src = Tensor(rng.standard_normal((nk, c)), dtype=dtype)
    g_out = rng.standard_normal((nq, c)).astype(dtype)

    # the full attention call against the loop on its own projections
    kv_n = apply_norm(kv_src, p.norm_kv)
    q_all, k_all, v_all = linear(apply_norm(query_src, p.norm_q), p.q).data, linear(kv_n, p.k).data, linear(kv_n, p.v).data
    ref_out, ref_grads = per_head_reference(q_all, k_all, v_all, heads, g_out)
    with attention_audit() as audit:
        out = multi_head_attention(query_src, kv_src, p)
    assert out.data.tobytes() == (ref_out @ p.out.weight.data + p.out.bias.data).tobytes()
    assert [n_rows for _, n_rows in audit] == [heads * nq]

    # the attention core alone, for the gradients of q_all, k_all and v_all
    leaves = [Tensor(x, requires_grad=True) for x in (q_all, k_all, v_all)]
    q, k, v = leaves
    with Tape() as tape:
        mixed = attention_core(q, k, v, heads)
        loss = sum_all(mul(mixed, Tensor(g_out)))
    tape.backward(loss)
    assert mixed.data.tobytes() == ref_out.tobytes()
    for name, t, ref in zip("qkv", leaves, ref_grads):
        assert t.grad.dtype == ref.dtype, name
        assert t.grad.tobytes() == ref.tobytes(), name
        # downstream matmuls take their kernel from the layout, so it must match too
        assert t.grad.strides == ref.strides, name
