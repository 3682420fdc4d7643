import dataclasses
import gc
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import hgformer.model as model_mod
from hgformer.construct import TokenSet
from hgformer.model import (
    HGFormer,
    block_forward,
    init_network_params,
    network_forward,
    patch_embed,
    scaled_k_schedule,
    single_stage_variant,
    vanilla_attention_variant,
    variant,
)
from hgformer.messaging import DropPath
from hgformer.tensor import ConfigError, FlopCounter, Tape, Tensor, cross_entropy_logits, mul, sum_all

from conftest import attention_audit, numeric_grad, rel_err_max


def micro(n_classes=4, **kw):
    return variant("Micro", n_classes=n_classes, **kw)


# --------------------------------------------------------------------------
# configs and variants


def test_variant_table():
    t = variant("T")
    assert t.base_channels == 32 and t.depths == (1, 2, 4, 2) and t.drop_path_rate == 0.05
    assert variant("S").base_channels == 64
    assert variant("B").drop_path_rate == 0.15
    assert variant("micro").name == "Micro"
    assert t.k_schedule == (128, 64, 32, 8) and micro().k_schedule == (3, 2, 1, 1)
    assert micro(k_schedule=(16, 8, 4, 2)).k_schedule == (16, 8, 4, 2)
    with pytest.raises(ConfigError):
        variant("XL")


def test_stage_channels_and_heads():
    stages = variant("T").stages()
    assert [s.channels for s in stages] == [32, 64, 160, 256]
    assert [s.n_heads for s in stages] == [1, 2, 5, 8]
    assert all(s.channels // s.n_heads == 32 for s in stages)
    assert [s.downsample for s in stages] == [4, 2, 2, 2]


def test_parameter_count_window_and_ordering():
    counts = {name: HGFormer(variant(name)).parameter_count() for name in ("T", "S", "B")}
    assert 4_500_000 <= counts["T"] <= 5_500_000
    assert counts["T"] < counts["S"] < counts["B"]


def test_ablation_variants_share_parameter_budget():
    base = micro()
    n_full = HGFormer(base).parameter_count()
    n_vanilla = HGFormer(vanilla_attention_variant(base)).parameter_count()
    n_single = HGFormer(single_stage_variant(base)).parameter_count()
    assert abs(n_vanilla - n_full) / n_full < 0.05
    assert abs(n_single - n_full) / n_full < 0.05


# --------------------------------------------------------------------------
# patch embed


def test_patch_embed_stage1_arithmetic(rng):
    params = init_network_params(micro(), seed=0)
    img = Tensor(rng.uniform(0, 1, (3, 32, 32)).astype(np.float32))
    tokens = patch_embed(img, params.stages[0].embed)
    assert tokens.n_tokens == 64
    assert tokens.grid == (8, 8)
    assert tokens.channels == 16


def test_patch_embed_constant_image_gives_constant_tokens():
    params = init_network_params(micro(), seed=0)
    img = Tensor(np.full((3, 32, 32), 0.7, dtype=np.float32))
    tokens = patch_embed(img, params.stages[0].embed)
    assert np.abs(tokens.nodes.data - tokens.nodes.data[0]).max() < 1e-6


def test_patch_embed_rejects_indivisible():
    params = init_network_params(micro(), seed=0)
    with pytest.raises(ConfigError):
        patch_embed(Tensor(np.zeros((3, 33, 33), dtype=np.float32)), params.stages[0].embed)


def test_patch_embed_gradients(rng):
    params = init_network_params(micro(), seed=0, dtype=np.float64)
    embed = params.stages[0].embed
    img = Tensor(rng.uniform(-1, 1, (3, 8, 8)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.uniform(-1, 1, (4, 16)), dtype=np.float64)

    def build():
        return sum_all(mul(patch_embed(img, embed).nodes, w))

    def loss():
        return float((patch_embed(img, embed).nodes.data * w.data).sum())

    with Tape() as tape:
        out = build()
    tape.backward(out)
    for t in (img, embed.weight, embed.bias):
        assert rel_err_max(t.grad, numeric_grad(loss, t)) < 1e-4


# --------------------------------------------------------------------------
# class token


@pytest.mark.parametrize(
    "cfg, size, training",
    [(micro(), 32, False), (variant("T", n_classes=10, drop_path_rate=0.3, k_schedule=scaled_k_schedule(64)), 64, True)],
    ids=["micro32", "t64-droppath0.3"],
)
def test_construction_scores_against_the_mean_of_the_block_input(monkeypatch, cfg, size, training):
    block_inputs, scored = [], []
    orig_block, orig_build = model_mod.block_forward, model_mod.build_incidence

    def block_spy(tokens, *args, **kwargs):
        block_inputs.append(tokens.nodes)
        return orig_block(tokens, *args, **kwargs)

    def build_spy(tokens, *args, **kwargs):
        scored.append(tokens)
        return orig_build(tokens, *args, **kwargs)

    monkeypatch.setattr(model_mod, "block_forward", block_spy)
    monkeypatch.setattr(model_mod, "build_incidence", build_spy)
    img = np.random.default_rng(0).uniform(0, 1, (3, size, size)).astype(np.float32)
    HGFormer(cfg, seed=0).forward(img, training=training, rng=np.random.default_rng(1))
    assert len(scored) == len(block_inputs) == sum(cfg.depths)
    for nodes, tokens in zip(block_inputs, scored):
        assert tokens.nodes is nodes
        npt.assert_array_equal(tokens.class_token.data, nodes.data.mean(axis=0, keepdims=True))


# --------------------------------------------------------------------------
# blocks


def _stage0_setup(cfg, seed=0, n=16, dtype=np.float32):
    params = init_network_params(cfg, seed=seed, dtype=dtype)
    stage = cfg.stages()[0]
    rng = np.random.default_rng(7)
    nodes = Tensor(rng.uniform(-1, 1, (n, stage.channels)).astype(dtype))
    tokens = TokenSet.from_nodes(nodes, (4, n // 4))
    return stage, params.stages[0].blocks[0], tokens


@pytest.mark.parametrize("mode_kw", [{}, {"attention_mode": "vanilla"}, {"messaging_mode": "single"}])
def test_block_preserves_shape(mode_kw):
    cfg = micro(**mode_kw)
    stage, bp, tokens = _stage0_setup(cfg)
    out = block_forward(tokens, stage, bp, cfg)
    assert out.nodes.shape == tokens.nodes.shape
    assert out.grid == tokens.grid


def test_block_eval_deterministic_bitwise():
    cfg = micro()
    stage, bp, tokens = _stage0_setup(cfg)
    out1 = block_forward(tokens, stage, bp, cfg)
    out2 = block_forward(tokens, stage, bp, cfg)
    assert out1.nodes.data.tobytes() == out2.nodes.data.tobytes()


@pytest.mark.parametrize("mode_kw", [{}, {"attention_mode": "vanilla"}, {"messaging_mode": "single"}])
def test_block_drop_rate_one_is_identity(mode_kw):
    cfg = micro(drop_path_rate=1.0, **mode_kw)
    stage, bp, tokens = _stage0_setup(cfg)
    drop = DropPath(1.0, training=True, rng=np.random.default_rng(0))
    out = block_forward(tokens, stage, bp, cfg, drop=drop)
    assert out.nodes.data.tobytes() == tokens.nodes.data.tobytes()


def test_vanilla_block_builds_no_incidence(monkeypatch):
    calls = []
    orig = model_mod.build_incidence

    def spy(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(model_mod, "build_incidence", spy)
    cfg = micro(attention_mode="vanilla")
    stage, bp, tokens = _stage0_setup(cfg)
    block_forward(tokens, stage, bp, cfg)
    assert calls == []
    cfg2 = micro()
    stage, bp, tokens = _stage0_setup(cfg2)
    block_forward(tokens, stage, bp, cfg2)
    assert calls == [1]


def _built_neighborhoods(monkeypatch, cfg, image_size):
    """(N, K) of every hypergraph built during one eval forward."""
    built = []
    orig = model_mod.build_incidence

    def spy(tokens, algo, n_edges, k, **kwargs):
        built.append((tokens.n_tokens, k))
        return orig(tokens, algo, n_edges, k, **kwargs)

    monkeypatch.setattr(model_mod, "build_incidence", spy)
    img = np.random.default_rng(0).uniform(0, 1, (3, image_size, image_size)).astype(np.float32)
    HGFormer(cfg, seed=0).forward(img)
    return built


def test_micro_at_32_selects_proper_neighborhoods(monkeypatch):
    # K == N would put every token in every hyperedge, leaving CS-KNN nothing to select
    built = _built_neighborhoods(monkeypatch, micro(), 32)
    assert [n for n, _ in built] == [64, 16, 4, 1]
    assert all(k < n for n, k in built if n > 1)


def test_t_at_224_keeps_reference_neighbor_schedule(monkeypatch):
    built = _built_neighborhoods(monkeypatch, variant("T"), 224)
    assert built == [(3136, 128)] + [(784, 64)] * 2 + [(196, 32)] * 4 + [(49, 8)] * 2


def test_single_stage_block_differs_from_full(rng):
    stage, bp, tokens = _stage0_setup(micro())
    out_full = block_forward(tokens, stage, bp, micro())
    out_single = block_forward(tokens, stage, bp, micro(messaging_mode="single"))
    assert not np.allclose(out_full.nodes.data, out_single.nodes.data)


# --------------------------------------------------------------------------
# network


def test_micro_grid_progression_and_logit_shape(rng):
    cfg = micro()
    m = HGFormer(cfg, seed=0)
    grids = []
    orig = model_mod.block_forward

    def spy(tokens, *args, **kwargs):
        grids.append(tokens.grid)
        return orig(tokens, *args, **kwargs)

    model_mod_block = model_mod.block_forward
    try:
        model_mod.network_forward.__globals__["block_forward"] = spy
        logits = m.forward(rng.uniform(0, 1, (3, 32, 32)).astype(np.float32))
    finally:
        model_mod.network_forward.__globals__["block_forward"] = model_mod_block
    assert grids == [(8, 8), (4, 4), (2, 2), (1, 1)]
    assert logits.shape == (4,)


def test_network_eval_deterministic(rng):
    m = HGFormer(micro(), seed=0)
    img = rng.uniform(0, 1, (3, 32, 32)).astype(np.float32)
    a = m.forward(img).data
    b = m.forward(img).data
    assert a.tobytes() == b.tobytes()


def test_network_8x8_degenerates_gracefully(rng):
    m = HGFormer(micro(n_classes=2), seed=0)
    logits = m.forward(rng.uniform(-1, 1, (3, 8, 8)).astype(np.float32))
    assert logits.shape == (2,)
    assert np.isfinite(logits.data).all()


def test_full_network_gradient_check(rng):
    cfg = micro(n_classes=2)
    m = HGFormer(cfg, seed=0, dtype=np.float64)
    img = rng.uniform(-1, 1, (3, 8, 8))

    def loss():
        return cross_entropy_logits(m.forward(Tensor(img, dtype=np.float64)), 1).data.item()

    with Tape() as tape:
        out = cross_entropy_logits(m.forward(Tensor(img, dtype=np.float64)), 1)
    tape.backward(out)
    named = m.named_parameters()
    probe = np.random.default_rng(0)
    picks = probe.choice(sorted(named), size=6, replace=False)
    for name in picks:
        p = named[name]
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        idx = probe.integers(0, p.size)
        orig = p.data.ravel()[idx]
        h = 1e-5
        p.data.ravel()[idx] = orig + h
        fp = loss()
        p.data.ravel()[idx] = orig - h
        fm = loss()
        p.data.ravel()[idx] = orig
        fd = (fp - fm) / (2 * h)
        an = grad.ravel()[idx]
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) < 1e-4, name


def test_training_mode_with_drop_rate_uses_rng(rng):
    cfg = micro(drop_path_rate=0.5)
    m = HGFormer(cfg, seed=0)
    img = rng.uniform(0, 1, (3, 32, 32)).astype(np.float32)
    a = m.forward(img, training=True, rng=np.random.default_rng(1)).data
    b = m.forward(img, training=True, rng=np.random.default_rng(1)).data
    c = m.forward(img, training=True, rng=np.random.default_rng(2)).data
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_checkpoint_roundtrip_restores_logits(tmp_path, rng):
    m1 = HGFormer(micro(), seed=0)
    img = rng.uniform(0, 1, (3, 32, 32)).astype(np.float32)
    ref = m1.forward(img).data
    m1.save(tmp_path / "m.ckpt")
    m2 = HGFormer(micro(), seed=99)
    assert not np.allclose(m2.forward(img).data, ref)
    m2.load(tmp_path / "m.ckpt")
    npt.assert_array_equal(m2.forward(img).data, ref)


def test_training_forward_rejects_drop_path_without_rng():
    # DropPath draws from the rng on every branch; without one it ended in an
    # AttributeError on None deep inside the first block
    m = HGFormer(micro(drop_path_rate=0.5), seed=0)
    img = np.zeros((3, 32, 32), dtype=np.float32)
    with pytest.raises(ConfigError, match="needs an rng"):
        m.forward(img, training=True)
    m.forward(img)  # eval draws nothing
    HGFormer(micro(), seed=0).forward(img, training=True)  # rate 0 draws nothing


def _retention_model(name):
    """Micro@32, or T@64 / T@224 with drop-path 0.3, and a seeded image of its size."""
    size = {"Micro": 32, "T": 64, "T@224": 224}[name]
    cfg = micro() if name == "Micro" else variant("T", n_classes=4, drop_path_rate=0.3, k_schedule=scaled_k_schedule(size))
    image = np.random.default_rng(0).uniform(0, 1, (3, size, size)).astype(np.float32)
    return HGFormer(cfg, seed=0), Tensor(image)


@pytest.mark.parametrize("name, records", [("Micro", 142), ("T@224", 333)])
def test_training_forward_tape_length(name, records):
    # an attention call records its norms, its projections and one checkpoint
    # rule for the core, which was 3 rules (scores, softmax, mixing): Micro@32
    # recorded 158 and T@224 369; a separate scale op, per-head ops or an
    # unbiased linear plus add would lengthen the tape again
    m, image = _retention_model(name)
    with Tape() as tape:
        m.forward(image, training=True, rng=np.random.default_rng(0))
    assert len(tape) == records


@pytest.mark.parametrize("name", ["Micro", "T"])
def test_backward_rules_capture_no_op_output(name):
    # a rule keeps the arrays it reads and gradient keys; an op's output in a
    # closure would keep every array it holds alive until backward
    m, image = _retention_model(name)
    leaves = {id(p) for p in m.named_parameters().values()} | {id(image)}
    with Tape() as tape:
        m.forward(image, training=True, rng=np.random.default_rng(0))
    captured = [cell.cell_contents for _, rule in tape._records for cell in rule.__closure__ or ()]
    assert [v.shape for v in captured if isinstance(v, Tensor) and id(v) not in leaves] == []


def _training_forward_held(name):
    """tracemalloc bytes alive after a training forward, with tape and logits kept."""
    m, image = _retention_model(name)
    m.forward(image)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            logits = m.forward(image, training=True, rng=np.random.default_rng(0))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(tape) > 0 and logits.requires_grad
    return held


def test_t64_training_forward_holds_under_5_5_mib():
    # tracemalloc bytes alive after the forward, with tape and logits kept, are
    # the arrays backward reads (4.0 MiB); a tape that kept every op output
    # alive would hold 7.7 MiB
    assert _training_forward_held("T") < 5.5 * 2**20


def test_t64_training_forward_holds_under_4_3_mib():
    # GELU's rule keeps its derivative, one array; keeping x and Phi(x) held 4.6 MiB
    assert _training_forward_held("T") < 4.3 * 2**20


def test_t224_training_forward_holds_under_45_mib():
    # the checkpointed attention core keeps q, k and v, not its (H*Nq, Nk)
    # probabilities (41.6 MiB held); keeping them for backward held 58.9 MiB
    assert _training_forward_held("T@224") < 45 * 2**20


def _forward_loss(m, image):
    with Tape() as tape:
        loss = cross_entropy_logits(m.forward(image, training=True, rng=np.random.default_rng(0)), 1)
    return tape, loss


def _backward_peak_with_gradients_present(name, from_forward=False):
    """tracemalloc peak of a sample's backward over its start, after a first pass.

    Traced from the end of the forward, the peak counts every array backward
    allocates and credits none it frees; traced from the start of the forward
    (``from_forward``), it also credits the forward's arrays backward frees.
    """
    m, image = _retention_model(name)
    tape, loss = _forward_loss(m, image)
    tape.backward(loss)
    gc.collect()
    if from_forward:
        tracemalloc.start()
    try:
        tape, loss = _forward_loss(m, image)
        if not from_forward:
            gc.collect()
            tracemalloc.start()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_t64_backward_with_gradients_present_peaks_under_30_mib():
    # each parameter gradient goes into Tensor.grad as its rule runs; holding
    # the pass's gradients until backward ends, next to the ones already in
    # Tensor.grad, peaked at 36 MiB
    assert _backward_peak_with_gradients_present("T") < 30 * 2**20


def test_t64_backward_with_gradients_present_peaks_under_2_mib():
    # with gradients present backward allocates only transients (1.0 MiB): it
    # adds into each Tensor.grad in place, where a new array per pass peaked
    # at 18.4 MiB
    assert _backward_peak_with_gradients_present("T") < 2 * 2**20


def test_t224_backward_with_gradients_present_peaks_under_2_mib():
    # 1.3 MiB over its start: a recomputed stage-0 core allocates its 4.7 MiB
    # probabilities and their gradient again (uncredited, the peak reads 15.7
    # MiB, 10.6 when the forward kept them), but by then backward has freed
    # more of what the forward held
    assert _backward_peak_with_gradients_present("T@224", from_forward=True) < 2 * 2**20


def test_t64_backward_consumes_its_tape_and_frees_what_the_forward_held():
    # tape and loss stay referenced, yet every record and the arrays its rule
    # captured are gone once backward ends, and the gradients already present
    # are updated in place, so the traced bytes return to the pre-forward base
    m, image = _retention_model("T")
    tape, loss = _forward_loss(m, image)
    tape.backward(loss)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape, loss = _forward_loss(m, image)
        tape.backward(loss)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(tape) == 0 and loss.size == 1
    assert abs(held) < 0.5 * 2**20


def test_attention_rows_audited_across_full_forward(rng):
    m = HGFormer(micro(), seed=0)
    img = rng.uniform(0, 1, (3, 32, 32)).astype(np.float32)
    with attention_audit() as audit:
        m.forward(img)
    assert len(audit) >= 8  # two attentions per block, four blocks
    assert max(dev for dev, _ in audit) <= 1e-6


# rows of each attention softmax in a Micro@32 forward, in call order
MICRO_ATTENTION_ROWS = [8, 64, 4, 16, 4, 8, 4, 4]


def test_attention_audit_sees_each_forward_softmax_once_and_the_recompute_in_backward():
    # the checkpointed core calls messaging.softmax_rows in the forward and
    # again when backward recomputes it, last attention call first
    m = HGFormer(micro(), seed=0)
    img = Tensor(np.random.default_rng(0).uniform(0, 1, (3, 32, 32)).astype(np.float32))
    with attention_audit() as audit:
        m.forward(img)
    assert [n for _, n in audit] == MICRO_ATTENTION_ROWS
    with attention_audit() as audit:
        tape, loss = _forward_loss(m, img)
    assert [n for _, n in audit] == MICRO_ATTENTION_ROWS
    with attention_audit() as audit:
        tape.backward(loss)
    assert [n for _, n in audit] == MICRO_ATTENTION_ROWS[::-1]
    assert max(dev for dev, _ in audit) <= 1e-6


def test_flop_counter_counts_the_forward_and_not_the_recompute():
    # a training forward counts the checkpointed core once, as eval does;
    # backward rules count no flops, the recompute included
    m = HGFormer(micro(), seed=0)
    img = Tensor(np.random.default_rng(0).uniform(0, 1, (3, 32, 32)).astype(np.float32))
    with FlopCounter() as evaluation:
        m.forward(img)
    with Tape() as tape:
        with FlopCounter() as forward:
            logits = m.forward(img, training=True, rng=np.random.default_rng(0))
        loss = cross_entropy_logits(logits, 1)
    with FlopCounter() as backward:
        tape.backward(loss)
    assert evaluation.total == forward.total == 3_056_084
    assert backward.total == 0 and backward.seconds == {}
    assert all(p.grad is not None for p in m.named_parameters().values())
