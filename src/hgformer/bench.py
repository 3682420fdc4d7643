"""Throughput measurement and operation-count scaling fits.

Throughput is the median over timed iterations after warmup, with a
per-image wall-time breakdown of construction vs messaging vs the rest. The
scaling fits use the deterministic flop counters: the attention interaction
term must grow linearly in the token count, the channel width, and the
hyperedge count independently, and construction work tracks tokens x
hyperedges.
"""

from __future__ import annotations

import time

import numpy as np

from .construct import TokenSet, cs_knn
from .messaging import attention_core
from .model import HGFormer, NetworkConfig
from .tensor import ConfigError, FlopCounter, Tensor


def fit_linear(xs, ys) -> dict:
    """Least-squares line with intercept; residual is max |pred - obs| / obs."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    a_mat = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(a_mat, y, rcond=None)
    pred = a_mat @ coef
    resid = float(np.max(np.abs(pred - y) / np.maximum(np.abs(y), 1e-12)))
    return {"slope": float(coef[0]), "intercept": float(coef[1]), "max_residual": resid, "x": x.tolist(), "y": y.tolist()}


def _attention_core_count(n_queries: int, n_kv: int, channels: int, seed: int = 0) -> int:
    rng = np.random.default_rng(seed)
    q, k, v = (Tensor(rng.standard_normal((n, channels)).astype(np.float32)) for n in (n_queries, n_kv, n_kv))
    with FlopCounter() as c:
        attention_core(q, k, v, max(1, channels // 32))
    return c.total


def attention_complexity_scan(
    n_values=(16, 32, 64, 128),
    ne_values=(4, 8, 16, 32),
    c_values=(32, 64, 96, 128),
    base_n: int = 64,
    base_ne: int = 8,
    base_c: int = 64,
) -> dict:
    """Interaction-term flop counts swept along each axis, with linear fits."""
    scan = {}
    counts = [_attention_core_count(base_ne, n, base_c) for n in n_values]
    scan["n_tokens"] = fit_linear(n_values, counts)
    counts = [_attention_core_count(ne, base_n, base_c) for ne in ne_values]
    scan["n_hyperedges"] = fit_linear(ne_values, counts)
    counts = [_attention_core_count(base_ne, base_n, c) for c in c_values]
    scan["channels"] = fit_linear(c_values, counts)
    return scan


def _construction_count(n_tokens: int, n_edges: int, channels: int = 32, seed: int = 0) -> int:
    rng = np.random.default_rng(seed)
    side = int(np.sqrt(n_tokens))
    assert side * side == n_tokens, "scan sizes must be square"
    nodes = Tensor(rng.standard_normal((n_tokens, channels)).astype(np.float32))
    tokens = TokenSet.from_nodes(nodes, (side, side))
    with FlopCounter() as c:
        cs_knn(tokens, n_edges, min(16, n_tokens))
    return c.total


def construction_complexity_scan(
    n_values=(64, 144, 256, 400),
    ne_values=(16, 32, 64, 128),
    base_n: int = 400,
    base_ne: int = 32,
) -> dict:
    """Construction flop counts: linear in N with Ne fixed and vice versa."""
    scan = {}
    counts = [_construction_count(n, base_ne) for n in n_values]
    scan["n_tokens"] = fit_linear(n_values, counts)
    counts = [_construction_count(base_n, ne) for ne in ne_values]
    scan["n_hyperedges"] = fit_linear(ne_values, counts)
    product = [n * base_ne for n in n_values] + [base_n * ne for ne in ne_values]
    totals = scan["n_tokens"]["y"] + scan["n_hyperedges"]["y"]
    scan["tokens_x_hyperedges"] = fit_linear(product, totals)
    return scan


def bench_throughput(
    net_cfg: NetworkConfig,
    image_size: int = 32,
    batch: int = 4,
    warmup_iters: int = 2,
    timed_iters: int = 5,
    seed: int = 0,
) -> dict:
    """Eval-mode images/s plus per-section wall time and per-image flops.

    ``per_op_s`` gives seconds per image for each section and for ``other``,
    the rest of the timed wall time: each section's total over the timed
    iterations divided by ``timed_iters * batch``, so its entries sum to the
    mean wall time per image.

    Returns ``{"deterministic": ..., "timing": ...}``; only the second half
    varies between runs, so seeded outputs stay byte-stable.
    """
    if batch < 1 or timed_iters < 1:
        raise ConfigError(f"bench needs batch and timed_iters of at least 1, got {batch} and {timed_iters}")
    if image_size < 1 or warmup_iters < 0:
        raise ConfigError(f"bench needs image_size >= 1 and warmup_iters >= 0, got {image_size} and {warmup_iters}")
    model = HGFormer(net_cfg, seed=seed)
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 1.0, (batch, 3, image_size, image_size)).astype(np.float32)

    def run_batch():
        for i in range(batch):
            model.forward(Tensor(images[i]))

    for _ in range(warmup_iters):
        run_batch()
    durations = []
    with FlopCounter() as timed:
        for _ in range(timed_iters):
            t0 = time.perf_counter()
            run_batch()
            durations.append(time.perf_counter() - t0)

    with FlopCounter() as flops:
        model.forward(Tensor(images[0]))

    median = float(np.median(durations))
    total = float(sum(durations))
    other = max(0.0, total - sum(timed.seconds.values()))
    n_images = timed_iters * batch
    breakdown = {k: float(v) / n_images for k, v in sorted(timed.seconds.items())}
    breakdown["other"] = other / n_images
    return {
        "deterministic": {
            "variant": net_cfg.name,
            "image_size": image_size,
            "batch": batch,
            "warmup_iters": warmup_iters,
            "timed_iters": timed_iters,
            "param_count": model.parameter_count(),
            "flops_per_image": flops.total,
        },
        "timing": {
            "images_per_s": batch / median if median > 0 else 0.0,
            "seconds_per_iter_median": median,
            "per_op_s": breakdown,
        },
    }
