"""Instrumentation: attention audits, timing sections, core flops.

Everything here is inert unless a collector context is active, so the hot
path pays only an attribute lookup.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np


_audits: list[list] = []
_timers: list[dict] = []
_core_flops: list[list] = []


@contextmanager
def attention_audit():
    """Collect per-softmax row-sum deviations from 1 while active.

    Yields a list that receives ``(max_abs_deviation, n_rows)`` per attention
    weight matrix computed inside the context.
    """
    rec: list[tuple[float, int]] = []
    _audits.append(rec)
    try:
        yield rec
    finally:
        _audits.pop()


def record_attention_weights(weights: np.ndarray) -> None:
    if _audits:
        dev = float(np.abs(weights.sum(axis=1) - 1.0).max())
        for rec in _audits:
            rec.append((dev, weights.shape[0]))


@contextmanager
def collect_timings():
    """Accumulate wall time per named section into the yielded dict."""
    acc: dict[str, float] = {}
    _timers.append(acc)
    try:
        yield acc
    finally:
        _timers.pop()


@contextmanager
def section(name: str):
    if not _timers:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        for acc in _timers:
            acc[name] = acc.get(name, 0.0) + dt


@contextmanager
def collect_core_flops():
    """Collect the interaction-term flop counts of each attention call.

    The interaction term (logits, softmax, value mixing) is the part whose
    cost scales as tokens x channels x hyperedges; projections and
    feedforwards are excluded here and measured by the general counter.
    """
    rec: list[int] = []
    _core_flops.append(rec)
    try:
        yield rec
    finally:
        _core_flops.pop()


def record_core_flops(n: int) -> None:
    for rec in _core_flops:
        rec.append(n)
