"""Training loop: decoupled-weight-decay Adam, linear warmup then cosine decay.

Each image builds its own hypergraph, so a batch runs one sample at a time,
each on its own tape, and every backward pass adds into ``Tensor.grad`` in
sample order. The step scales those buffers in place to the batch average and
clips it to a global L2 norm of ``GRAD_CLIP_NORM`` before every optimizer
step; a non-finite norm aborts the run before the step. After the step,
``zero_grad`` releases the batch's gradients before the next batch starts:
nothing in ``train`` still refers to them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .data import ToyDataset, ToyDatasetSpec
from .model import HGFormer, NetworkConfig
from .tensor import ConfigError, NumericalError, Tape, Tensor, cross_entropy_logits

# global gradient-norm clip of the standard ViT training recipe
GRAD_CLIP_NORM = 1.0


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    base_lr: float = 1e-3
    weight_decay: float = 0.05
    warmup_epochs: int = 2
    seed: int = 0
    early_stop_val_acc: float | None = None

    def __post_init__(self):
        if not 0 <= self.base_lr < math.inf:
            raise ConfigError(f"base_lr must be finite and nonnegative, got {self.base_lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and nonnegative, got {self.weight_decay}")
        if self.warmup_epochs < 0:
            raise ConfigError(f"warmup_epochs must be nonnegative, got {self.warmup_epochs}")
        if self.early_stop_val_acc is not None and math.isnan(self.early_stop_val_acc):
            raise ConfigError("early_stop_val_acc must be a number, got nan")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    lr: float


@dataclass
class RunReport:
    variant: str
    seed: int
    param_count: int
    config_hash: str
    epochs: list[EpochStats]
    final_acc: float
    best_epoch: int
    wall_time_s: float
    images_per_s: float

    def deterministic_dict(self) -> dict:
        return {
            "variant": self.variant,
            "seed": self.seed,
            "param_count": self.param_count,
            "config_hash": self.config_hash,
            "final_acc": self.final_acc,
            "best_epoch": self.best_epoch,
            "epochs": [dataclasses.asdict(e) for e in self.epochs],
        }

    def timing_dict(self) -> dict:
        return {"wall_time_s": self.wall_time_s, "images_per_s": self.images_per_s}


def run_config_hash(net: NetworkConfig, train: TrainConfig, spec: ToyDatasetSpec) -> str:
    blob = json.dumps(
        {
            "network": dataclasses.asdict(net),
            "train": dataclasses.asdict(train),
            "dataset": dataclasses.asdict(spec),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class AdamW:
    """Adam with decoupled weight decay applied directly to the parameters."""

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.05, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.weight_decay = weight_decay
        self.betas = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.betas
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * (g * g)
            update = (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - lr * update

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Rescale each array of ``grads`` in place to a global L2 norm of at most ``max_norm``.

    Returns the norm before clipping. A non-finite norm leaves the gradients
    untouched, so the failure surfaces downstream with its own diagnostics.
    """
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if np.isfinite(norm) and norm > max_norm:
        coef = max_norm / norm
        for g in grads.values():
            g *= coef
    return norm


def lr_at(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear warmup to ``base_lr``, then cosine decay to zero."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, (step - warmup_steps) / span)
    return 0.5 * base_lr * (1.0 + np.cos(np.pi * progress))


def _sample_pass(model: HGFormer, image: np.ndarray, label: int, flip: bool, rng_seed: tuple) -> tuple[float, bool]:
    """Forward and backward of one sample; its gradients add into ``Tensor.grad``."""
    if flip:
        image = image[:, :, ::-1]
    with Tape() as tape:
        logits = model.forward(Tensor(image), training=True, rng=np.random.default_rng(rng_seed))
        loss = cross_entropy_logits(logits, int(label))
    tape.backward(loss)
    return loss.data.item(), int(np.argmax(logits.data)) == int(label)


def _mean_and_clip(named: dict[str, Tensor], batch_size: int) -> float:
    """Scale each ``Tensor.grad`` in place from the batch sum to the batch mean, then clip.

    Returns the norm before clipping. The gradient arrays are named only by
    this function's locals, so once the step's ``zero_grad`` has run nothing
    keeps them alive into the next batch, the val pass or the checkpoint write.
    """
    inv_b = 1.0 / batch_size
    grads = {name: p.grad for name, p in named.items() if p.grad is not None}
    for g in grads.values():
        g *= inv_b
    return clip_grad_norm(grads, GRAD_CLIP_NORM)


def evaluate(model: HGFormer, images: np.ndarray, labels: np.ndarray) -> float:
    """Classification accuracy in eval mode."""
    n = labels.shape[0]
    hits = sum(int(np.argmax(model.forward(Tensor(images[i])).data)) == int(labels[i]) for i in range(n))
    return float(hits) / n


def train(
    net_cfg: NetworkConfig,
    dataset: ToyDataset,
    cfg: TrainConfig,
    out_dir=None,
    log=None,
) -> RunReport:
    """Train from scratch; returns the report and optionally writes a checkpoint.

    The checkpoint (``best.ckpt`` under ``out_dir``) tracks the best
    validation accuracy. A non-finite loss or gradient norm aborts with the
    last learning rate and gradient norm in the error message.
    """
    model = HGFormer(net_cfg, seed=cfg.seed)
    optimizer = AdamW(model.named_parameters(), weight_decay=cfg.weight_decay)
    named = model.named_parameters()

    n_train = dataset.n_train
    steps_per_epoch = (n_train + cfg.batch_size - 1) // cfg.batch_size
    total_steps = steps_per_epoch * cfg.epochs
    warmup_steps = steps_per_epoch * cfg.warmup_epochs

    shuffle_rng = np.random.default_rng(cfg.seed)
    # horizontal flip is a fixed per-sample coin (the only augmentation); keyed
    # by sample, not epoch, so a frozen optimizer sees identical epochs
    flips = np.random.default_rng((cfg.seed, 0xF11B)).random(n_train) < 0.5

    stats: list[EpochStats] = []
    best_acc, best_epoch = -1.0, -1
    last_lr, last_gnorm = 0.0, 0.0
    step = 0
    images_done = 0
    t_start = time.perf_counter()

    def aborted(reason) -> NumericalError:
        return NumericalError(
            f"training aborted at epoch {epoch} step {step}: {reason}; "
            f"last_lr={last_lr:.6g} last_grad_norm={last_gnorm:.6g}"
        )

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n_train)
        ep_loss, ep_hits = 0.0, 0
        for b0 in range(0, n_train, cfg.batch_size):
            idxs = order[b0 : b0 + cfg.batch_size]
            for i in idxs:
                try:
                    loss_val, hit = _sample_pass(
                        model, dataset.train_images[i], dataset.train_labels[i], flips[i], (cfg.seed, epoch, int(i))
                    )
                except NumericalError as exc:
                    raise aborted(exc) from exc
                ep_loss += loss_val
                ep_hits += hit
            last_gnorm = _mean_and_clip(named, len(idxs))
            if not np.isfinite(last_gnorm):
                raise aborted("non-finite gradient norm")
            last_lr = lr_at(step, total_steps, warmup_steps, cfg.base_lr)
            optimizer.step(last_lr)
            optimizer.zero_grad()
            step += 1
            images_done += len(idxs)
        val_acc = evaluate(model, dataset.val_images, dataset.val_labels)
        st = EpochStats(
            epoch=epoch,
            train_loss=ep_loss / n_train,
            train_acc=ep_hits / n_train,
            val_acc=val_acc,
            lr=last_lr,
        )
        stats.append(st)
        if log:
            log(f"epoch {epoch:3d}  loss {st.train_loss:.4f}  train {st.train_acc:.3f}  val {st.val_acc:.3f}")
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            if out_dir is not None:
                os.makedirs(str(out_dir), exist_ok=True)
                model.save(os.path.join(str(out_dir), "best.ckpt"))
        if cfg.early_stop_val_acc is not None and val_acc >= cfg.early_stop_val_acc:
            break
    wall = time.perf_counter() - t_start
    return RunReport(
        variant=net_cfg.name,
        seed=cfg.seed,
        param_count=model.parameter_count(),
        config_hash=run_config_hash(net_cfg, cfg, dataset.spec),
        epochs=stats,
        final_acc=best_acc,
        best_epoch=best_epoch,
        wall_time_s=wall,
        images_per_s=images_done / wall if wall > 0 else 0.0,
    )
