"""Each benchmark check passes the program's real output and rejects a corrupted copy;
a short run reports exactly the metrics BENCHMARK.json names.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from hgformer import Tensor, TokenSet, cs_knn, hgconv_e2n, hgconv_n2e
from hgformer.tensor import softmax_rows
from workloads import TrainToy


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(3)
    nodes = rng.standard_normal((64, 16)).astype(np.float32)
    tokens = TokenSet(nodes=Tensor(nodes), class_token=Tensor(rng.standard_normal((1, 16))), grid=(8, 8))
    return tokens, cs_knn(tokens, n_edges=8, k=6)


def test_topk_rejects_a_member_swapped_for_a_non_member(graph):
    tokens, h = graph
    nodes, cls = tokens.nodes.data, tokens.class_token.data
    assert checks.check_topk(nodes, cls, h.members, h.centers, 8, 6) == []

    members = h.members.copy()
    j, ctr = 0, h.centers[0]
    sims = nodes.astype(np.float64) @ nodes[ctr].astype(np.float64)
    best = max((m for m in members[j] if m != ctr), key=lambda m: sims[m])
    worst = min((n for n in range(64) if n not in members[j]), key=lambda n: sims[n])
    members[j][members[j] == best] = worst
    members[j].sort()
    assert checks.check_topk(nodes, cls, members, h.centers, 8, 6)


def test_topk_rejects_a_centre_outside_its_hyperedge(graph):
    tokens, h = graph
    centers = h.centers.copy()
    outside = next(n for n in range(64) if n not in h.members[0] and n not in centers)
    centers[0] = outside
    assert checks.check_topk(tokens.nodes.data, tokens.class_token.data, h.members, np.sort(centers), 8, 6)


@pytest.mark.parametrize("direction", ["n2e", "e2n"])
def test_hgconv_rejects_one_perturbed_row(graph, direction):
    tokens, h = graph
    rng = np.random.default_rng(4)
    w = Tensor(rng.normal(0.0, 0.3, (16, 16)).astype(np.float32))
    if direction == "n2e":
        x = tokens.nodes
        out = hgconv_n2e(x, h, w).data

        def check(o):
            return checks.check_hgconv_n2e(x.data, h.members, w.data, o)
    else:
        x = Tensor(rng.standard_normal((h.n_edges, 16)).astype(np.float32))
        out = hgconv_e2n(x, h, w).data

        def check(o):
            return checks.check_hgconv_e2n(x.data, h.members, h.n_nodes, w.data, o)

    assert check(out) == []
    row = int(np.flatnonzero(np.abs(out).sum(axis=1) > 0)[0])
    bad = out.copy()
    bad[row] += 1e-3 * np.abs(out).max()
    assert check(bad)


def test_attention_rows_reject_a_row_that_is_not_a_distribution():
    w = softmax_rows(Tensor(np.random.default_rng(5).standard_normal((12, 40)).astype(np.float32))).data
    assert checks.check_attention_rows(w) == []
    bad = w.copy()
    bad[3] *= 1.001
    assert checks.check_attention_rows(bad)


def test_logits_reject_a_rerun_that_differs_in_one_bit():
    z = np.linspace(-1.0, 1.0, 10, dtype=np.float32)
    assert checks.check_logits(z, z.copy()) == []
    again = z.copy()
    again[4] = np.nextafter(again[4], np.float32(2.0))
    assert checks.check_logits(z, again)
    assert checks.check_logits(np.full(3, np.nan, np.float32), np.full(3, np.nan, np.float32))


def test_losses_must_be_finite():
    assert checks.check_losses_finite([1.2, 0.9]) == []
    assert checks.check_losses_finite([1.2, math.nan])


@pytest.fixture(scope="module")
def first_step(tmp_path_factory):
    wl = TrainToy("Micro", image_size=32, samples_per_class=3, batch_size=4)
    wl.setup(seed=11)
    return wl, wl._capture_first_step(tmp_path_factory.mktemp("ckpt"))


def test_gradient_scaled_by_1_01_fails_the_finite_difference(first_step):
    wl, cap = first_step
    names = wl.downstream_names(cap["before"])
    grad = {n: cap["merged"][n] for n in names}

    def loss_at(shifts):
        return wl.batch_loss64(cap, shifts)

    assert checks.check_directional_derivative(grad, loss_at, np.random.default_rng(0)) == []
    scaled = {n: g * np.float32(1.01) for n, g in grad.items()}
    assert checks.check_directional_derivative(scaled, loss_at, np.random.default_rng(0))


def test_gradient_scaled_by_1_01_fails_the_clip_check(first_step):
    _, cap = first_step
    applied = {k: g for k, g in cap["applied"].items() if g is not None}
    assert checks.check_clipped_gradient(cap["merged"], applied, 1.0) == []
    scaled = {k: g * np.float32(1.01) for k, g in applied.items()}
    assert checks.check_clipped_gradient(cap["merged"], scaled, 1.0)
    over = {k: g * np.float32(2.0 / np.sqrt(sum(float((a * a).sum()) for a in applied.values())))
            for k, g in applied.items()}
    assert any("exceeds" in f for f in checks.check_clipped_gradient(over, over, 1.0))


def test_wrong_optimizer_update_fails(first_step):
    wl, cap = first_step
    lr, wd = wl.first_lr(), wl.tcfg.weight_decay
    assert cap["lr"] == pytest.approx(lr, rel=1e-12)
    assert checks.check_first_adamw_step(cap["before"], cap["applied"], cap["after"], lr, wd) == []

    # the same step without weight decay
    no_decay = dict(cap["after"])
    for name, g in cap["applied"].items():
        if g is not None:
            p = cap["before"][name]
            no_decay[name] = (p - lr * (g / (np.abs(g) + 1e-8))).astype(np.float32)
    assert checks.check_first_adamw_step(cap["before"], cap["applied"], no_decay, lr, wd)
    # a learning rate 1% off
    assert checks.check_first_adamw_step(cap["before"], cap["applied"], cap["after"], 1.01 * lr, wd)


@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_run_reports_every_metric_benchmark_json_names(tmp_path, trace, kind):
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    result = workloads.run("train-micro32", seed=1, seconds=0.01, trace=trace, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0, result["_messages"]
    assert result["attempted"] == (20 if trace else 10)
    units = {m["name"]: m["unit"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
