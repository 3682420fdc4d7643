"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py``. The slow criteria (toy
learning, ablation orderings) together take several minutes on 2-4 CPU cores.
"""

import dataclasses
import time

import numpy as np

import hgformer as hg
from hgformer.ablation import ablation_arms, run_ablation
from hgformer.bench import attention_complexity_scan
from hgformer.cli import main as cli_main
from hgformer.construct import IncidenceMatrix, TokenSet, cs_knn
from hgformer.gradcheck import grad_check_suite
from hgformer.messaging import hgconv_e2n, hgconv_n2e
from hgformer.model import HGFormer, block_forward, init_network_params, variant
from hgformer.tensor import Tensor, edge_gather_mean, matmul
from hgformer.training import TrainConfig, train

from conftest import attention_audit
from test_construct import oracle_cs_knn
from test_messaging import dense_e2n, dense_n2e, random_incidence


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[ACCEPT] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


# --------------------------------------------------------------------------


def test_gradient_gate():
    t0 = time.perf_counter()
    rep = grad_check_suite(image_size=8, n_classes=2, batch=2, seed=7)
    elapsed = time.perf_counter() - t0
    report(
        "gradient-gate",
        rep.passed and elapsed < 60.0,
        f"max_rel_err={rep.max_rel_err:.2e} over {rep.n_params} params in {elapsed:.1f}s",
    )


def test_cs_knn_brute_force_oracle():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        c = int(rng.integers(1, 9))
        ne = int(rng.integers(1, min(n, 8) + 1))
        k = int(rng.integers(1, min(n, 16) + 1))
        nodes = rng.uniform(-1, 1, (n, c))
        cls = rng.uniform(-1, 1, c)
        ts = TokenSet.from_nodes(Tensor(nodes, dtype=np.float64), (1, n), Tensor(cls.reshape(1, -1), dtype=np.float64))
        h = cs_knn(ts, ne, k)
        centers, edges = oracle_cs_knn(nodes.tolist(), cls.tolist(), ne, k)
        if h.centers.tolist() != centers or h.members.tolist() != edges:
            mismatches += 1
    # tie fixtures: duplicated vectors force exact score/distance ties
    dup = np.array([[1.0, 0.0]] * 3 + [[0.25, 0.0]] * 2)
    ts = TokenSet.from_nodes(Tensor(dup, dtype=np.float64), (1, 5), Tensor(np.array([[1.0, 0.0]]), dtype=np.float64))
    h = cs_knn(ts, 2, 3)
    tie_ok = h.centers.tolist() == [0, 1] and h.members.tolist() == [[0, 1, 2], [0, 1, 2]]
    report("cs-knn-oracle", mismatches == 0 and tie_ok, f"200 random instances, {mismatches} mismatches; tie fixture ok={tie_ok}")


def test_hgconv_dense_sparse_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    saw_zero_degree = False
    for _ in range(100):
        n = int(rng.integers(2, 33))
        ne = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        h = random_incidence(rng, n, ne, k)
        saw_zero_degree = saw_zero_degree or bool((h.d_v == 0).any())
        v = Tensor(rng.uniform(-1, 1, (n, 5)), dtype=np.float64)
        w = Tensor(rng.uniform(-1, 1, (5, 5)), dtype=np.float64)
        e = Tensor(rng.uniform(-1, 1, (ne, 5)), dtype=np.float64)
        d1 = np.abs(hgconv_n2e(v, h, w).data - dense_n2e(v.data, h, w.data)).max()
        d2 = np.abs(hgconv_e2n(e, h, w).data - dense_e2n(e.data, h, w.data)).max()
        worst = max(worst, float(d1), float(d2))
    report(
        "hgconv-dense-sparse",
        worst < 1e-6 and saw_zero_degree,
        f"max deviation {worst:.2e} over 100 instances (zero-degree rows covered: {saw_zero_degree})",
    )


def test_degenerate_closed_forms():
    rng = np.random.default_rng(11)
    n, c = 7, 4
    v = Tensor(rng.uniform(-1, 1, (n, c)), dtype=np.float64)
    eye = Tensor(np.eye(c), dtype=np.float64)
    single = IncidenceMatrix(n_nodes=n, members=np.arange(n)[None, :], centers=np.array([0]))
    e1 = matmul(edge_gather_mean(v, single), eye)
    dev_mean = float(np.abs(e1.data - v.data.mean(axis=0)).max())
    ident = IncidenceMatrix(n_nodes=n, members=np.arange(n)[:, None], centers=np.arange(n))
    e2 = matmul(edge_gather_mean(v, ident), eye)
    dev_ident = float(np.abs(e2.data - v.data).max())
    report("degenerate-closed-forms", dev_mean < 1e-6 and dev_ident < 1e-6, f"mean dev {dev_mean:.2e}, identity dev {dev_ident:.2e}")


def test_attention_normalization_across_micro_forward():
    m = HGFormer(variant("Micro", n_classes=4), seed=0)
    img = np.random.default_rng(0).uniform(0, 1, (3, 32, 32)).astype(np.float32)
    with attention_audit() as audit:
        m.forward(img)
    worst = max(dev for dev, _ in audit)
    rows = sum(r for _, r in audit)
    report("attention-row-sums", worst <= 1e-6 and len(audit) >= 8, f"{len(audit)} softmaxes / {rows} rows, worst |sum-1| {worst:.2e}")


def test_permutation_equivariance_block():
    rng = np.random.default_rng(5)
    cfg = variant("Micro", n_classes=4)
    params = init_network_params(cfg, seed=0, dtype=np.float64)
    stage = cfg.stages()[0]
    bp = params.stages[0].blocks[0]
    # without its depthwise kernel the e2n feedforward is linear per token
    ffn = dataclasses.replace(bp.e2n.ffn, dw_kernel=None, dw_bias=None)
    bp = dataclasses.replace(bp, e2n=dataclasses.replace(bp.e2n, ffn=ffn))
    n = 16
    nodes = rng.uniform(-1, 1, (n, stage.channels))

    def run(arr):
        ts = TokenSet.from_nodes(Tensor(arr, dtype=np.float64), (4, 4))
        return block_forward(ts, stage, bp, cfg).nodes.data

    out = run(nodes)
    perm = rng.permutation(n)
    out_perm = run(nodes[perm])
    dev = float(np.abs(out[perm] - out_perm).max())
    report("permutation-equivariance", dev < 1e-6, f"max deviation {dev:.2e} (grid FFN disabled, fp64)")


TOY_BUDGET_S = 300.0


def test_toy_learning_three_seeds():
    ds = hg.make_toy_dataset(hg.ToyDatasetSpec(n_classes=4, samples_per_class=100, image_size=32, noise_std=0.05, seed=0))
    results = []
    losses_decline = True
    for seed in (0, 1, 2):
        cfg = TrainConfig(epochs=50, batch_size=32, base_lr=1e-3, warmup_epochs=2, seed=seed, early_stop_val_acc=0.95)
        t0 = time.perf_counter()
        rep = train(variant("Micro", n_classes=4), ds, cfg)
        dt = time.perf_counter() - t0
        losses = [e.train_loss for e in rep.epochs]
        losses_decline &= losses[min(9, len(losses) - 1)] < losses[0]
        results.append((seed, rep.final_acc, rep.best_epoch, dt))
    ok = all(acc >= 0.95 and dt < TOY_BUDGET_S for _, acc, _, dt in results) and losses_decline
    detail = "; ".join(f"seed {s}: {a:.3f}@ep{e} in {t:.0f}s" for s, a, e, t in results)
    report("toy-learning", ok, detail + f"; early-loss decline={losses_decline}")


ABLATION_TOL = 0.005


def _ablation_train_cfg(seed=0):
    return TrainConfig(epochs=14, batch_size=16, base_lr=1e-3, warmup_epochs=1, seed=seed)


def test_ablation_direction_architecture():
    ds = hg.make_toy_dataset(hg.ToyDatasetSpec(n_classes=4, samples_per_class=50, image_size=32, noise_std=0.05, seed=0))
    arms = ablation_arms("architecture", variant("Micro", n_classes=4))
    table = run_ablation(arms, ds, _ablation_train_cfg(), n_seeds=3)
    s = table.summary()
    full, vanilla, single = (s[k]["mean_acc"] for k in ("full", "vanilla_attention", "single_stage"))
    ok = full >= vanilla - ABLATION_TOL and full >= single - ABLATION_TOL
    report(
        "ablation-architecture",
        ok,
        f"full {full:.3f} vs vanilla {vanilla:.3f} vs single-stage {single:.3f} (tol {ABLATION_TOL})",
    )


def test_ablation_direction_construction():
    # noise-augmented task; the explicit neighbor schedule keeps K < N in the
    # first two stages (K = 16/8 for N = 64/16), so the two constructors build
    # different topologies there
    ds = hg.make_toy_dataset(hg.ToyDatasetSpec(n_classes=4, samples_per_class=75, image_size=32, noise_std=0.35, seed=0))
    base = variant("Micro", n_classes=4, k_schedule=(16, 8, 4, 2))
    arms = [a for a in ablation_arms("construction", base) if a[0] in ("cs_knn", "knn")]
    table = run_ablation(arms, ds, TrainConfig(epochs=16, batch_size=16, base_lr=1e-3, warmup_epochs=1, seed=0), n_seeds=3)
    s = table.summary()
    ok = s["cs_knn"]["mean_acc"] >= s["knn"]["mean_acc"] - ABLATION_TOL
    report(
        "ablation-construction",
        ok,
        f"cs_knn {s['cs_knn']['mean_acc']:.3f} vs knn {s['knn']['mean_acc']:.3f} on noise-augmented task (tol {ABLATION_TOL})",
    )


def test_complexity_fit():
    scan = attention_complexity_scan()
    residuals = {axis: scan[axis]["max_residual"] for axis in ("n_tokens", "n_hyperedges", "channels")}
    ok = all(r < 0.10 for r in residuals.values())
    report("complexity-fit", ok, ", ".join(f"{k} residual {v:.3f}" for k, v in residuals.items()))


def test_parameter_count_window():
    counts = {name: HGFormer(variant(name)).parameter_count() for name in ("T", "S", "B")}
    in_window = 4_500_000 <= counts["T"] <= 5_500_000
    ordered = counts["T"] < counts["S"] < counts["B"]
    report(
        "parameter-count",
        in_window and ordered,
        f"T={counts['T']/1e6:.2f}M S={counts['S']/1e6:.2f}M B={counts['B']/1e6:.2f}M",
    )


def _strip_wall_column(csv_text: str) -> str:
    lines = csv_text.strip().split("\n")
    return "\n".join(",".join(ln.split(",")[:3]) for ln in lines)


def test_cli_reproducibility(tmp_path):
    """Seeded subcommands rerun byte-identically (wall-clock sidecars aside)."""
    checks = []

    def rerun(name, args, outputs, transform=None):
        dirs = []
        for tag in ("r1", "r2"):
            out = tmp_path / name / tag
            full = [str(a).replace("@OUT@", str(out)) for a in args]
            assert cli_main(full) == 0, (name, full)
            dirs.append(out)
        for rel in outputs:
            b1 = (dirs[0] / rel).read_bytes() if (dirs[0] / rel).is_file() else None
            b2 = (dirs[1] / rel).read_bytes()
            if transform is not None:
                b1 = transform(b1.decode()).encode()
                b2 = transform(b2.decode()).encode()
            checks.append((f"{name}/{rel}", b1 == b2))

    rerun("topology", ["topology", "--ne", 4, "--k", 8, "--seed", 5, "--out", "@OUT@/topo.json"], ["topo.json"])
    rerun("forward", ["forward", "--image-size", 16, "--seed", 5, "--out", "@OUT@/fwd.json"], ["fwd.json"])
    rerun(
        "gradcheck",
        ["gradcheck", "--batch", 1, "--seed", 5, "--out", "@OUT@/report.json"],
        ["report.json"],
    )
    rerun(
        "train",
        ["train", "--epochs", 1, "--samples-per-class", 4, "--image-size", 16, "--n-classes", 2,
         "--batch-size", 4, "--seed", 5, "--out", "@OUT@"],
        ["run_report.json", "best.ckpt"],
    )
    rerun(
        "ablate",
        ["ablate", "--arms", "architecture", "--seeds", 1, "--epochs", 1, "--samples-per-class", 3,
         "--image-size", 16, "--n-classes", 2, "--batch-size", 4, "--seed", 5, "--out", "@OUT@"],
        ["ablation_summary.json", "ablation_det.csv"],
    )
    rerun(
        "ablate-csv",
        ["ablate", "--arms", "architecture", "--seeds", 1, "--epochs", 1, "--samples-per-class", 3,
         "--image-size", 16, "--n-classes", 2, "--batch-size", 4, "--seed", 5, "--out", "@OUT@"],
        ["ablation.csv"],
        transform=_strip_wall_column,
    )
    rerun(
        "bench",
        ["bench", "--image-size", 16, "--batch", 1, "--warmup-iters", 0, "--timed-iters", 1,
         "--seed", 5, "--out", "@OUT@"],
        ["bench.json"],
    )
    bad = [name for name, ok in checks if not ok]
    report("cli-reproducibility", not bad, f"{len(checks)} artifacts byte-compared" + (f"; mismatches: {bad}" if bad else ""))
