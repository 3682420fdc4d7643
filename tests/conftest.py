from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import hgformer.messaging as messaging

settings.register_profile(
    "hgf",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("hgf")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rel_err_max(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def numeric_grad(f, tensor, h=1e-5):
    """Central-difference gradient of scalar ``f()`` wrt every entry of ``tensor``."""
    g = np.zeros_like(tensor.data)
    flat = tensor.data.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


@contextmanager
def attention_audit():
    """Record ``(max |row sum - 1|, n_rows)`` of every attention softmax run inside the block.

    Wraps ``hgformer.messaging.softmax_rows``, the op the attention core looks
    up, so each call records once over the stacked rows of all its heads.
    """
    audit: list[tuple[float, int]] = []
    softmax = messaging.softmax_rows

    def recorded(x):
        w = softmax(x)
        audit.append((float(np.abs(w.data.sum(axis=1) - 1.0).max()), w.shape[0]))
        return w

    messaging.softmax_rows = recorded
    try:
        yield audit
    finally:
        messaging.softmax_rows = softmax
