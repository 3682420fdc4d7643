"""Finite-difference gate over every named parameter of a network.

Each parameter tensor is probed with a central difference (step 1e-5) along a
random unit direction plus a few individual entries, in float64, against the
tape gradient of a fixed random batch. The report covers 100% of the named
parameters; any relative error at or above the tolerance fails the gate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .model import HGFormer, NetworkConfig, variant
from .tensor import ConfigError, Tape, Tensor, add, cross_entropy_logits, scale

DEFAULT_TOL = 1e-4
DEFAULT_STEP = 1e-5


@dataclass
class GradCheckReport:
    per_param: dict[str, float]
    max_rel_err: float
    tol: float
    n_params: int
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def offenders(self) -> list[str]:
        return sorted(name for name, err in self.per_param.items() if err >= self.tol)

    def to_dict(self) -> dict:
        """Seed-deterministic report payload (wall time stays out of files)."""
        return {
            "passed": self.passed,
            "tol": self.tol,
            "max_rel_err": self.max_rel_err,
            "n_params": self.n_params,
            "offenders": self.offenders(),
            "per_param": {k: self.per_param[k] for k in sorted(self.per_param)},
        }


def _rel_err(fd: float, an: float) -> float:
    return abs(fd - an) / max(abs(fd), abs(an), 1e-6)


def grad_check_suite(
    config: NetworkConfig | None = None,
    image_size: int = 8,
    n_classes: int = 2,
    batch: int = 2,
    seed: int = 7,
    tol: float = DEFAULT_TOL,
    entry_probes: int = 2,
) -> GradCheckReport:
    """Check tape gradients of a float64 model against central differences."""
    if batch < 1:
        raise ConfigError(f"gradcheck batch must be at least 1, got {batch}")
    if image_size < 1:
        raise ConfigError(f"gradcheck image size must be at least 1, got {image_size}")
    if not 0 < tol < math.inf:
        raise ConfigError(f"gradcheck tolerance must be finite and positive, got {tol}")
    t0 = time.perf_counter()
    cfg = config if config is not None else variant("Micro", n_classes=n_classes)
    model = HGFormer(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    images = rng.uniform(-1.0, 1.0, (batch, 3, image_size, image_size))
    labels = rng.integers(0, cfg.n_classes, batch)

    def batch_loss() -> float:
        total = 0.0
        for img, lab in zip(images, labels):
            total += cross_entropy_logits(model.forward(Tensor(img, dtype=np.float64)), int(lab)).data.item()
        return total / batch

    with Tape() as tape:
        acc = None
        for img, lab in zip(images, labels):
            term = cross_entropy_logits(model.forward(Tensor(img, dtype=np.float64)), int(lab))
            acc = term if acc is None else add(acc, term)
        loss = scale(acc, 1.0 / batch)
    tape.backward(loss)

    h = DEFAULT_STEP
    probe_rng = np.random.default_rng(seed + 1)
    per_param: dict[str, float] = {}
    for name, p in model.named_parameters().items():
        if p.dtype != np.float64:
            raise ConfigError("grad_check_suite needs a float64 model")
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        worst = 0.0
        # random unit direction
        v = probe_rng.standard_normal(p.data.shape)
        v /= np.linalg.norm(v.ravel()) or 1.0
        original = p.data.copy()
        p.data = original + h * v
        f_plus = batch_loss()
        p.data = original - h * v
        f_minus = batch_loss()
        p.data = original
        worst = max(worst, _rel_err((f_plus - f_minus) / (2 * h), float((grad * v).sum())))
        # a few single entries
        flat_n = p.data.size
        for idx in probe_rng.choice(flat_n, size=min(entry_probes, flat_n), replace=False):
            base = original.ravel()[idx]
            p.data.ravel()[idx] = base + h
            f_plus = batch_loss()
            p.data.ravel()[idx] = base - h
            f_minus = batch_loss()
            p.data.ravel()[idx] = base
            worst = max(worst, _rel_err((f_plus - f_minus) / (2 * h), float(grad.ravel()[idx])))
        per_param[name] = worst

    return GradCheckReport(
        per_param=per_param,
        max_rel_err=max(per_param.values()),
        tol=tol,
        n_params=len(per_param),
        elapsed_s=time.perf_counter() - t0,
    )
