import time

import numpy as np
import pytest

from hgformer.bench import (
    attention_complexity_scan,
    bench_throughput,
    construction_complexity_scan,
    fit_linear,
)
from hgformer.model import variant
from hgformer.tensor import ConfigError


def test_fit_linear_recovers_exact_line():
    fit = fit_linear([1, 2, 3, 4], [3, 5, 7, 9])
    assert fit["slope"] == pytest.approx(2.0)
    assert fit["intercept"] == pytest.approx(1.0)
    assert fit["max_residual"] < 1e-12


def test_attention_core_counts_linear_in_each_axis():
    scan = attention_complexity_scan()
    for axis in ("n_tokens", "n_hyperedges", "channels"):
        assert scan[axis]["max_residual"] < 0.10, (axis, scan[axis])
        assert scan[axis]["slope"] > 0


def test_construction_counts_track_tokens_times_hyperedges():
    scan = construction_complexity_scan()
    assert scan["n_tokens"]["max_residual"] < 0.15
    assert scan["n_hyperedges"]["max_residual"] < 0.15
    assert scan["tokens_x_hyperedges"]["max_residual"] < 0.15


def test_bench_reports_structure_and_batch_band():
    cfg = variant("Micro", n_classes=4)
    r1 = bench_throughput(cfg, image_size=16, batch=1, warmup_iters=1, timed_iters=3, seed=0)
    r4 = bench_throughput(cfg, image_size=16, batch=4, warmup_iters=1, timed_iters=3, seed=0)
    for r in (r1, r4):
        det, tim = r["deterministic"], r["timing"]
        assert det["param_count"] > 0 and det["flops_per_image"] > 0
        assert tim["images_per_s"] > 0
        for key in ("construction", "messaging", "embed", "head", "other"):
            assert key in tim["per_op_s"]
    per_image_1 = 1.0 / r1["timing"]["images_per_s"]
    per_image_4 = 1.0 / r4["timing"]["images_per_s"]
    ratio = max(per_image_1, per_image_4) / min(per_image_1, per_image_4)
    assert ratio < 4.0


def test_per_op_seconds_are_per_image(monkeypatch):
    # a clock that advances one second per reading makes every timed span an
    # exact integer, so the per-image breakdown must add up exactly
    ticks = iter(range(10**9))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    cfg = variant("Micro", n_classes=4)
    r = bench_throughput(cfg, image_size=16, batch=3, warmup_iters=1, timed_iters=2, seed=0)
    per_op = r["timing"]["per_op_s"]
    # every forward opens one embed section per stage, one construction and
    # one messaging section per block and one head section: 2 ticks each
    sections_per_forward = len(cfg.depths) + 2 * sum(cfg.depths) + 1
    per_iter = 3 * 2 * sections_per_forward + 1
    assert r["timing"]["seconds_per_iter_median"] == per_iter
    assert sum(per_op.values()) == pytest.approx(2 * per_iter / (2 * 3), rel=1e-12)
    assert per_op["head"] == 1.0 and per_op["embed"] == len(cfg.depths)


@pytest.mark.parametrize("kw", [{"batch": 0}, {"timed_iters": 0}])
def test_bench_rejects_empty_measurement(kw):
    with pytest.raises(ConfigError):
        bench_throughput(variant("Micro", n_classes=4), image_size=16, **kw)


def test_bench_deterministic_half_is_seed_stable():
    cfg = variant("Micro", n_classes=4)
    a = bench_throughput(cfg, image_size=16, batch=1, warmup_iters=0, timed_iters=1, seed=3)
    b = bench_throughput(cfg, image_size=16, batch=1, warmup_iters=0, timed_iters=1, seed=3)
    assert a["deterministic"] == b["deterministic"]


def test_messaging_time_dominated_by_channel_growth():
    # doubling channels should roughly double the interaction flops at fixed sizes
    scan = attention_complexity_scan(c_values=(32, 64), n_values=(32, 64), ne_values=(4, 8))
    xs, ys = scan["channels"]["x"], scan["channels"]["y"]
    assert ys[1] / ys[0] == pytest.approx(xs[1] / xs[0], rel=0.1)
