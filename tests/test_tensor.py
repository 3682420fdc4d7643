import math
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st
from scipy.special import erf

from hgformer.construct import IncidenceMatrix
from hgformer.messaging import attention_core
from hgformer.model import HGFormer, variant
from hgformer.training import AdamW, _sample_pass
from hgformer.tensor import (
    ConfigError,
    FlopCounter,
    NumericalError,
    ShapeError,
    Tape,
    Tensor,
    add,
    attention_mix,
    attention_scores,
    checkpoint,
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
    section,
    softmax_rows,
    sum_all,
    tokens_to_grid,
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


def test_gelu_rule_captures_one_array_shaped_like_x(rng):
    # the rule keeps the derivative Phi(x) + x * pdf(x), not x and Phi(x)
    x = Tensor(rng.uniform(-3, 3, (5, 7)), requires_grad=True)
    with Tape() as tape:
        gelu(x)
    ((_, rule),) = tape._records
    arrays = [c.cell_contents for c in rule.__closure__ if isinstance(c.cell_contents, np.ndarray)]
    assert [a.shape for a in arrays] == [x.shape]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_gradient_bytes_match_phi_plus_x_pdf(dtype):
    # the kept derivative is formed in the order of g * (phi + x * pdf), so
    # gradients keep their bytes, for zeros and subnormals too
    rng = np.random.default_rng(3)
    tiny = np.finfo(dtype).smallest_subnormal
    xd = np.concatenate([rng.normal(0, 3, 200), [0.0, -0.0, tiny, -tiny, 7 * tiny, 40.0, -40.0]]).astype(dtype)
    g = rng.normal(size=xd.shape).astype(dtype)
    x = Tensor(xd, requires_grad=True)
    with Tape() as tape:
        y = gelu(x)
        loss = sum_all(mul(y, Tensor(g)))
    tape.backward(loss)
    phi = 0.5 * (1.0 + erf(xd * xd.dtype.type(1.0 / np.sqrt(2.0))))
    pdf = np.exp(-0.5 * xd * xd) * float(1.0 / np.sqrt(2.0 * np.pi))
    assert y.data.tobytes() == (xd * phi).tobytes()
    assert x.grad.tobytes() == (g * (phi + xd * pdf)).tobytes()


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
    # passes accumulate across tapes; backward consumes its tape, so a second
    # call on it raises instead of adding nothing or adding the pass again
    x = t64(np.ones(3))
    for _ in range(2):
        with Tape() as tape:
            loss = sum_all(x)
        tape.backward(loss)
    npt.assert_array_equal(x.grad, 2 * np.ones(3))
    assert len(tape) == 0
    with pytest.raises(RuntimeError, match="already ran"):
        tape.backward(loss)
    npt.assert_array_equal(x.grad, 2 * np.ones(3))
    AdamW({"x": x}).zero_grad()
    assert x.grad is None


def test_leaf_read_twice_accumulates_each_contribution_into_grad_in_turn():
    # backward adds each contribution into grad as its rule runs, the op
    # recorded last first: (T + c1) + c2, which differs from T + (c1 + c2) here
    x = Tensor(np.ones(3), requires_grad=True)

    def one_pass():
        with Tape() as tape:
            loss = add(sum_all(scale(x, 0.1)), sum_all(scale(x, 0.2)))
        tape.backward(loss)

    one_pass()
    first = np.full(3, 0.2) + 0.1
    assert x.grad.tobytes() == first.tobytes()
    one_pass()
    expected = (first + 0.2) + 0.1
    assert expected.tobytes() != (first + (np.full(3, 0.2) + 0.1)).tobytes()
    assert x.grad.tobytes() == expected.tobytes()


def test_add_gives_each_leaf_a_gradient_buffer_of_its_own():
    # add hands one g to both inputs; a grad that aliased it would carry an
    # in-place add into one leaf over to the other
    x, y = t64(np.ones(3)), t64(np.ones(3))
    tape_grad(lambda: sum_all(add(x, y)), x, y)
    assert not np.shares_memory(x.grad, y.grad)
    tape_grad(lambda: sum_all(scale(x, 2.0)), x)
    npt.assert_array_equal(x.grad, np.full(3, 3.0))
    npt.assert_array_equal(y.grad, np.ones(3))


def test_mean_rows_leaf_gradient_is_writeable_and_accumulates():
    # mean_rows hands on a read-only broadcast view; grad owns a copy of it
    x = t64(np.ones((4, 3)))
    tape_grad(lambda: sum_all(mean_rows(x)), x)
    assert x.grad.flags.writeable and x.grad.flags.owndata
    tape_grad(lambda: sum_all(mean_rows(x)), x)
    npt.assert_array_equal(x.grad, np.full((4, 3), 0.5))


@pytest.mark.parametrize("first, second", [(np.float32, np.float64), (np.float64, np.float32)])
def test_mixed_precision_contributions_keep_the_out_of_place_dtype_and_bytes(first, second):
    # a float64 contribution into a float32 grad promotes as grad + c does;
    # a float32 one into a float64 grad adds in place with the same bytes
    rng = np.random.default_rng(7)
    data = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
    weights = {dt: Tensor(rng.uniform(-1, 1, (4, 2)), dtype=dt) for dt in (np.float32, np.float64)}

    def contribution(leaf, dt):
        return tape_grad(lambda: sum_all(matmul(leaf, weights[dt])), leaf)[0]

    c1 = contribution(Tensor(data, requires_grad=True), first)
    c2 = contribution(Tensor(data, requires_grad=True), second)
    assert (c1.dtype, c2.dtype) == (np.dtype(first), np.dtype(second))
    x = Tensor(data, requires_grad=True)
    contribution(x, first)
    contribution(x, second)
    expected = c1 + c2
    assert x.grad.dtype == expected.dtype and x.grad.tobytes() == expected.tobytes()


def test_backward_seeds_a_loss_that_is_a_leaf():
    x = Tensor(np.array(2.0), requires_grad=True)
    with Tape() as tape:
        pass
    tape.backward(x)
    assert x.grad.tobytes() == np.ones_like(x.data).tobytes()


def test_ops_outside_tape_do_not_record():
    x = t64(np.ones(3))
    with Tape() as tape:
        pass
    sum_all(x)
    assert len(tape) == 0


# --------------------------------------------------------------------------
# checkpoint


def _attention_inputs(dtype, projected):
    """Leaves and a builder of q, k, v of width 64: the leaves themselves, or matmul projections of leaf tokens."""
    rng = np.random.default_rng(11)
    x, kv = (Tensor(rng.standard_normal((n, 64)), requires_grad=True, dtype=dtype) for n in (6, 20))
    if not projected:
        v = Tensor(rng.standard_normal((20, 64)), requires_grad=True, dtype=dtype)
        return [x, kv, v], lambda: (x, kv, v)
    ws = [Tensor(rng.normal(0.0, 0.3, (64, 64)), requires_grad=True, dtype=dtype) for _ in range(3)]
    return [x, kv, *ws], lambda: (matmul(x, ws[0]), matmul(kv, ws[1]), matmul(kv, ws[2]))


@pytest.mark.parametrize("projected", [False, True])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpointed_attention_core_gradients_byte_equal_to_the_unwrapped_ops(dtype, heads, projected):
    g_out = Tensor(np.random.default_rng(12).standard_normal((6, 64)), dtype=dtype)
    runs = []
    for wrapped in (False, True):
        leaves, inputs = _attention_inputs(dtype, projected)
        with Tape() as tape:
            q, k, v = inputs()
            if wrapped:
                out = checkpoint(lambda q, k, v: attention_core(q, k, v, heads), q, k, v)
            else:
                out = attention_core(q, k, v, heads)
            loss = sum_all(mul(out, g_out))
        tape.backward(loss)
        runs.append((out.data, [t.grad for t in leaves]))
    (ref_out, ref_grads), (out, grads) = runs
    assert out.tobytes() == ref_out.tobytes()
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert g.dtype == ref.dtype and g.tobytes() == ref.tobytes(), i
        # downstream matmuls take their kernel from the layout, so it must match too
        assert g.strides == ref.strides, i


def test_checkpoint_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    a, b = t64(rng.uniform(-1, 1, (3, 4))), t64(rng.uniform(-1, 1, (4, 5)))
    gamma, beta = t64(rng.uniform(0.5, 1.5, 5)), t64(rng.uniform(-0.5, 0.5, 5))
    w = Tensor(rng.uniform(-1, 1, (3, 5)), dtype=np.float64)

    def composite(a, b):
        return softmax_rows(layer_norm(gelu(matmul(a, b)), gamma, beta))

    def loss():
        return float((composite(a, b).data * w.data).sum())

    # gamma and beta are leaves read inside the composite, not inputs: the
    # recompute's inner tape adds into their grad directly
    leaves = (a, b, gamma, beta)
    grads = tape_grad(lambda: sum_all(mul(checkpoint(composite, a, b), w)), *leaves)
    for t, g in zip(leaves, grads):
        assert rel_err_max(g, numeric_grad(loss, t)) < 1e-6


def test_checkpoint_without_a_tape_is_a_plain_call():
    rng = np.random.default_rng(14)
    q, k, v = (t64(rng.standard_normal((n, 64))) for n in (5, 9, 9))

    def core(q, k, v):
        return attention_core(q, k, v, 2)

    with Tape() as tape:
        pass
    out = checkpoint(core, q, k, v)
    assert len(tape) == 0 and out.key is None
    assert out.data.tobytes() == core(q, k, v).data.tobytes()
    with Tape() as tape:
        recorded = checkpoint(core, q, k, v)
    assert len(tape) == 1 and recorded.data.tobytes() == out.data.tobytes()


def test_consumed_tape_with_a_checkpoint_still_raises_on_second_backward():
    x = t64(np.linspace(-1.0, 1.0, 6).reshape(2, 3))
    with Tape() as tape:
        loss = sum_all(checkpoint(lambda x: gelu(scale(x, 2.0)), x))
    tape.backward(loss)
    first = x.grad.copy()
    assert len(tape) == 0
    with pytest.raises(RuntimeError, match="already ran"):
        tape.backward(loss)
    assert x.grad.tobytes() == first.tobytes()


def test_micro_training_pass_calls_tape_backward_once(monkeypatch):
    # the recompute consumes its inner tape through Tape._backward, so a
    # wrapper over the public method counts one call and one tape per pass
    model = HGFormer(variant("Micro", n_classes=4), seed=0)
    image = np.random.default_rng(0).uniform(0, 1, (3, 32, 32)).astype(np.float32)
    calls = []
    backward = Tape.backward

    def counted(tape, loss):
        calls.append(len(tape))
        return backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", counted)
    _sample_pass(model, image, 1, False, (0,))
    assert calls == [143]  # 142 forward records and the loss
    assert all(p.grad is not None for p in model.named_parameters().values())


# --------------------------------------------------------------------------
# recorder


def test_nested_counters_see_only_what_ran_inside(monkeypatch):
    # each clock read takes the next reading, so every section's length is known
    clock = iter([0.0, 2.0, 10.0, 13.0, 20.0, 24.0])
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    a = Tensor(np.ones((2, 3)))
    scale(a, 2.0)
    with FlopCounter() as outer:
        with section("x"):
            scale(a, 2.0)
        with FlopCounter() as inner:
            with section("y"):
                add(a, a)
                mul(a, a)
        with section("y"):
            sum_all(a)
    scale(a, 2.0)
    with section("z"):  # no counter active: reads no clock
        pass
    assert inner.total == 12 and inner.seconds == {"y": 3.0}
    assert outer.total == 24 and outer.seconds == {"x": 2.0, "y": 7.0}


def test_forward_reads_no_clock_without_a_counter(monkeypatch):
    m = HGFormer(variant("Micro", n_classes=4), seed=0)
    img = np.random.default_rng(0).uniform(0, 1, (3, 32, 32)).astype(np.float32)

    def no_clock():
        raise AssertionError("clock read with no counter active")

    with monkeypatch.context() as mp:
        mp.setattr(time, "perf_counter", no_clock)
        m.forward(img)
    with FlopCounter() as counter:
        m.forward(img)
    assert sorted(counter.seconds) == ["construction", "embed", "head", "messaging"]
    assert all(s > 0 for s in counter.seconds.values())


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
    """Edge-gather forward and backward, node-scatter forward and backward, accumulated with np.add.at."""
    ne, k = members.shape
    node_ids = members.ravel()
    edge_ids = np.repeat(np.arange(ne), k)
    pooled = np.zeros((ne, v.shape[1]), dtype=v.dtype)
    np.add.at(pooled, edge_ids, v[node_ids])
    pooled /= k
    denom = np.maximum(np.bincount(node_ids, minlength=n_nodes), 1).astype(e.dtype)
    dv = np.zeros_like(v)
    np.add.at(dv, node_ids, np.repeat(g_edges / k, k, axis=0))
    out = np.zeros((n_nodes, e.shape[1]), dtype=e.dtype)
    np.add.at(out, node_ids, e[edge_ids])
    out /= denom[:, None]
    de = np.zeros_like(e)
    np.add.at(de, edge_ids, g_nodes[node_ids] / denom[node_ids, None])
    return pooled, dv, out, de


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
    ref_pooled, ref_dv, ref_out, ref_de = add_at_reference(members, n_nodes, v_data, e_data, g_nodes, g_edges)

    v = Tensor(v_data, requires_grad=True)
    e = Tensor(e_data, requires_grad=True)
    with Tape() as tape:
        pooled = edge_gather_mean(v, h)
        out = node_scatter_mean(e, h)
        loss = add(sum_all(mul(pooled, Tensor(g_edges))), sum_all(mul(out, Tensor(g_nodes))))
    tape.backward(loss)
    # the forward gather adds members in order for every C, also C = 1, where a
    # mean over the (Ne, K, C) gather would sum pairwise
    for got, ref in ((pooled.data, ref_pooled), (out.data, ref_out), (v.grad, ref_dv), (e.grad, ref_de)):
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


# --------------------------------------------------------------------------
# one buffer per forward op


def _stage0_incidence(rng, n_nodes=3136, n_edges=392, k=128):
    members = np.sort(np.stack([rng.choice(n_nodes, k, replace=False) for _ in range(n_edges)]), axis=1)
    h = IncidenceMatrix(n_nodes=n_nodes, members=members, centers=members[:, 0])
    h.sparse_t  # built once per incidence, before any op runs on it
    return h


def _on_tape(call):
    with Tape():
        return call()


def _budget_cases(rng):
    """T stage-0 shapes: (392, 3136) scores, (392, 32) / (3136, 32) queries and keys, (3136, 128) hidden."""

    def f32(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32))

    scores, q, k, hidden = f32(392, 3136), f32(392, 32), f32(3136, 32), f32(3136, 128)
    gamma, beta, w, bias = f32(128), f32(128), f32(128, 128), f32(128)
    hidden_tracked = Tensor(hidden.data, requires_grad=True)
    h = _stage0_incidence(rng)
    # (call, bytes of the arrays its backward keeps besides the output)
    return {
        "softmax_rows": (lambda: softmax_rows(scores), 0),
        "attention_scores": (lambda: attention_scores(q, k, 1), q.data.nbytes + k.data.nbytes),
        "layer_norm": (lambda: layer_norm(hidden, gamma, beta), hidden.data.nbytes),
        "gelu": (lambda: gelu(hidden), 0),
        "gelu_taped": (lambda: _on_tape(lambda: gelu(hidden_tracked)), hidden.data.nbytes),
        "matmul_bias": (lambda: matmul(hidden, w, bias), 0),
        "edge_gather_mean": (lambda: edge_gather_mean(k, h), 0),
    }


@pytest.mark.parametrize("name", sorted(_budget_cases(np.random.default_rng(0))))
def test_forward_op_allocates_only_its_output_and_what_backward_keeps(name):
    call, kept = _budget_cases(np.random.default_rng(0))[name]
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the output, the finite check's bool mask, the kept arrays, and 64 KiB for
    # row vectors and the op's Python objects
    budget = out.data.nbytes + out.size + kept + 65536
    assert peak <= budget, f"{name}: peak {peak} bytes over the budget of {budget}"


def _old_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    xhat = xc * (1.0 / np.sqrt(var + eps))
    return xhat * gamma.reshape(1, -1) + beta.reshape(1, -1)


def _old_depthwise(x, kernel, bias):
    c, h, w = x.shape
    pad = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    y = np.zeros_like(x)
    for i in range(3):
        for j in range(3):
            y += kernel[:, i, j, None, None] * pad[:, i : i + h, j : j + w]
    return y + bias.reshape(c, 1, 1)


@pytest.mark.parametrize("act, par", [(np.float32, np.float64), (np.float64, np.float32)])
def test_in_place_ops_keep_the_dtype_and_bytes_of_mixed_precision(act, par):
    # an in-place add into a float32 buffer would round a float64 sum twice
    rng = np.random.default_rng(7)
    x, x3 = rng.standard_normal((5, 6)).astype(act), rng.standard_normal((4, 5, 6)).astype(act)
    w, v6, v4 = (rng.standard_normal(s).astype(par) for s in ((6, 3), (6,), (4,)))
    kernel, v3 = rng.standard_normal((4, 3, 3)).astype(par), rng.standard_normal(3).astype(par)
    cases = (
        (matmul(Tensor(x), Tensor(w), Tensor(v3)).data, x @ w + v3),
        (layer_norm(Tensor(x), Tensor(v6), Tensor(v6[::-1])).data, _old_layer_norm(x, v6, v6[::-1])),
        (depthwise_conv2d(Tensor(x3), Tensor(kernel), Tensor(v4)).data, _old_depthwise(x3, kernel, v4)),
    )
    for got, ref in cases:
        assert got.dtype == ref.dtype == np.float64
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
