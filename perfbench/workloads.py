"""The benchmark's workloads, each a closed loop driving ``hgformer``'s public calls.

One caller sends the next image (eval) or starts the next ``train()`` call
(training) only after the previous one returns. Inputs are made from the
workload seed alone. A run attempts whole rounds: every image of the eval
pool, or one complete ``train()`` call, so the failed share of attempted
operations does not depend on the run length.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import hgformer
from hgformer import HGFormer, Tape, Tensor, ToyDatasetSpec, TrainConfig, make_toy_dataset, train, variant
from hgformer.tensor import cross_entropy_logits

import checks
from tracing import Recorder, patched

SETUP_REPEATS = 3
SRC = os.path.dirname(os.path.dirname(os.path.abspath(hgformer.__file__)))  # the sources under test
CLIP_NORM = 1.0  # the gradient-clip norm the standard ViT recipe uses
N_CLASSES_TOY = 4


@dataclass
class Phase:
    """What one timed phase did: operations, per-round throughput, per-image latencies."""

    attempted: int = 0
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)
    round_images_per_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.round_images_per_s)

    def images_per_s(self) -> float:
        return statistics.median(self.round_images_per_s)

    def note(self, msg: str) -> None:
        if len(self.errors) < 3:
            self.errors.append(msg)


class EvalT224:
    """HGFormer-T at 224x224, 1000 classes, uniform images one at a time, no tape."""

    POOL = 8  # images per round
    # (hyperedges, neighbours) per block: ceil(ratio * N) for ratios 1/8, 1/4,
    # 1/2, 1 of N = 56^2, 28^2, 14^2, 7^2 tokens, K = 128/64/32/8, depths 1/2/4/2
    GRAPHS = [(392, 128)] + [(196, 64)] * 2 + [(98, 32)] * 4 + [(49, 8)] * 2

    def setup(self, seed: int) -> float:
        """Make the images, build the model and warm it up; no toy dataset (0 s)."""
        self.images = np.random.default_rng(seed).uniform(0.0, 1.0, (self.POOL, 3, 224, 224)).astype(np.float32)
        self.model = HGFormer(variant("T", n_classes=1000), seed=seed)
        self.model.forward(Tensor(self.images[0]))  # warm-up
        self.first_logits: dict[int, np.ndarray] = {}
        return 0.0

    def phase(self, seconds: float, out_dir, rec: Recorder | None = None) -> Phase:
        ph = Phase()
        clock = time.perf_counter
        deadline = clock() + seconds
        while True:
            start = clock()
            for i in range(self.POOL):
                t0 = clock()
                try:
                    logits = self.model.forward(Tensor(self.images[i])).data
                except Exception as exc:  # the op fails; the loop goes on
                    logits = None
                    ph.note(f"{type(exc).__name__}: {exc}")
                ph.latencies_s.append(clock() - t0)
                ph.attempted += 1
                ref = self.first_logits.setdefault(i, logits) if logits is not None else None
                if logits is None or not np.isfinite(logits).all() or ref.tobytes() != logits.tobytes():
                    ph.failed += 1
            ph.round_images_per_s.append(self.POOL / (clock() - start))
            if clock() >= deadline:
                break
        return ph

    def check(self, out_dir) -> list[str]:
        """Per block of image 0: top-k, dense hgconv formulas, attention rows; then logits."""
        model_mod = sys.modules["hgformer.model"]
        msg_mod = sys.modules["hgformer.messaging"]
        build, n2e, e2n, softmax = (model_mod.build_incidence, msg_mod.hgconv_n2e,
                                    msg_mod.hgconv_e2n, msg_mod.softmax_rows)
        fails: list[str] = []
        graphs: list[tuple[int, int]] = []
        n_attention = 0

        def build_w(tokens, algo, n_edges, k, *a, **kw):
            h = build(tokens, algo, n_edges, k, *a, **kw)
            graphs.append((h.n_edges, h.k))
            fails.extend(f"block {len(graphs) - 1}: {f}" for f in checks.check_topk(
                tokens.nodes.data, tokens.class_token.data, h.members, h.centers, n_edges, k))
            return h

        def n2e_w(v, h, w_conv):
            out = n2e(v, h, w_conv)
            fails.extend(checks.check_hgconv_n2e(v.data, h.members, w_conv.data, out.data))
            return out

        def e2n_w(e, h, w_conv):
            out = e2n(e, h, w_conv)
            fails.extend(checks.check_hgconv_e2n(e.data, h.members, h.n_nodes, w_conv.data, out.data))
            return out

        def softmax_w(x):
            nonlocal n_attention
            out = softmax(x)
            n_attention += 1
            fails.extend(checks.check_attention_rows(out.data))
            return out

        with patched([(model_mod, "build_incidence", build_w), (msg_mod, "hgconv_n2e", n2e_w),
                      (msg_mod, "hgconv_e2n", e2n_w), (msg_mod, "softmax_rows", softmax_w)]):
            again = self.model.forward(Tensor(self.images[0])).data
        if graphs != self.GRAPHS:
            fails.append(f"hypergraph sizes {graphs} differ from the schedule {self.GRAPHS}")
        if n_attention == 0:
            fails.append("no attention matrix was computed")
        if 0 not in self.first_logits:
            return fails + ["image 0 never ran in the timed loop"]
        return fails + checks.check_logits(self.first_logits[0], again)


class _FirstStepTaken(Exception):
    """Stops the capture run of ``train()`` right after its first optimizer step."""


class TrainToy:
    """``train()`` on the toy dataset; each round is one complete one-epoch call."""

    EPOCHS = 1

    def __init__(self, name: str, image_size: int, samples_per_class: int, batch_size: int):
        self.name = name
        self.image_size = image_size
        self.samples_per_class = samples_per_class
        self.batch_size = batch_size

    def setup(self, seed: int) -> float:
        """Make the dataset, build a model and warm it up; returns the dataset time."""
        t0 = time.perf_counter()
        self.dataset = make_toy_dataset(ToyDatasetSpec(
            n_classes=N_CLASSES_TOY, samples_per_class=self.samples_per_class,
            image_size=self.image_size, seed=seed))
        data_s = time.perf_counter() - t0
        self.cfg = variant(self.name, n_classes=N_CLASSES_TOY)
        self.tcfg = TrainConfig(epochs=self.EPOCHS, batch_size=self.batch_size, seed=seed)
        model = HGFormer(self.cfg, seed=seed)
        ds = self.dataset
        with Tape() as tape:
            logits = model.forward(Tensor(ds.train_images[0]), training=True, rng=np.random.default_rng(seed))
            loss = cross_entropy_logits(logits, int(ds.train_labels[0]))
        tape.backward(loss)
        model.forward(Tensor(ds.val_images[0]))
        self.reference = None
        self.seed = seed
        return data_s

    @property
    def steps_per_epoch(self) -> int:
        return math.ceil(self.dataset.n_train / self.batch_size)

    def phase(self, seconds: float, out_dir, rec: Recorder | None = None) -> Phase:
        ph = Phase()
        training_mod = sys.modules["hgformer.training"]
        sample_pass = training_mod._sample_pass
        clock = time.perf_counter

        def timed_pass(*a, **kw):
            t0 = clock()
            try:
                return sample_pass(*a, **kw)
            finally:
                ph.latencies_s.append(clock() - t0)

        deadline = clock() + seconds
        with patched([(training_mod, "_sample_pass", timed_pass)]):
            while True:
                ckpt_dir = tempfile.mkdtemp(prefix="round-", dir=out_dir)
                try:
                    with rec.span("training.train") if rec else nullcontext():
                        t0 = clock()
                        try:
                            report = train(self.cfg, self.dataset, self.tcfg, out_dir=ckpt_dir)
                        except Exception as exc:  # the round's steps fail; the loop goes on
                            report = None
                            ph.note(f"{type(exc).__name__}: {exc}")
                        wall = clock() - t0
                finally:
                    shutil.rmtree(ckpt_dir, ignore_errors=True)
                ph.round_images_per_s.append(self.dataset.n_train * self.EPOCHS / wall)
                steps = self.steps_per_epoch * self.EPOCHS
                ph.attempted += steps
                if not self._round_ok(report, ph):
                    ph.failed += steps
                if clock() >= deadline:
                    break
        return ph

    def _round_ok(self, report, ph: Phase) -> bool:
        """Every epoch's loss is finite and the seeded outputs repeat exactly."""
        if report is None:
            return False
        bad = checks.check_losses_finite([e.train_loss for e in report.epochs])
        det = report.deterministic_dict()
        if self.reference is None:
            self.reference = det
        elif det != self.reference:
            bad.append("a rerun with the same seed gave different training results")
        for msg in bad:
            ph.note(msg)
        return not bad

    def _capture_first_step(self, out_dir) -> dict:
        """Run ``train()`` up to its first optimizer step, keeping what the checks need."""
        training_mod = sys.modules["hgformer.training"]
        model_mod = sys.modules["hgformer.model"]
        sample_pass, build, clip = training_mod._sample_pass, model_mod.build_incidence, training_mod.clip_grad_norm
        step = training_mod.AdamW.step
        cap: dict = {"samples": [], "graphs": []}

        def pass_w(model, image, label, flip, rng_seed):
            cap["samples"].append((image, int(label), bool(flip), rng_seed))
            cap["graphs"].append([])
            return sample_pass(model, image, label, flip, rng_seed)

        def build_w(*a, **kw):
            h = build(*a, **kw)
            cap["graphs"][-1].append(h)
            return h

        def clip_w(grads, max_norm):
            cap["merged"] = {k: g.copy() for k, g in grads.items()}
            return clip(grads, max_norm)

        def step_w(opt, lr):
            cap["lr"] = lr
            cap["before"] = {k: p.data.copy() for k, p in opt.params.items()}
            cap["applied"] = {k: None if p.grad is None else p.grad.copy() for k, p in opt.params.items()}
            step(opt, lr)
            cap["after"] = {k: p.data.copy() for k, p in opt.params.items()}
            raise _FirstStepTaken

        ckpt_dir = tempfile.mkdtemp(prefix="check-", dir=out_dir)
        try:
            with patched([(training_mod, "_sample_pass", pass_w), (model_mod, "build_incidence", build_w),
                          (training_mod, "clip_grad_norm", clip_w), (training_mod.AdamW, "step", step_w)]):
                train(self.cfg, self.dataset, self.tcfg, out_dir=ckpt_dir)
        except _FirstStepTaken:
            return cap
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        raise RuntimeError("train() returned without taking an optimizer step")

    def downstream_names(self, names) -> list[str]:
        """Parameters after the last construction: the last block's e2n and the head."""
        last = f"net.stages.{len(self.cfg.depths) - 1}.blocks.{self.cfg.depths[-1] - 1}.e2n."
        return sorted(n for n in names if n.startswith(last) or n.startswith("net.head."))

    def batch_loss64(self, cap: dict, shifts: dict[str, np.ndarray]) -> float:
        """Float64 mean loss of the captured first batch, its hypergraphs replayed.

        The model holds the parameters the first step started from, each named
        one shifted by ``shifts``; drop-path draws and flips repeat the run's.
        """
        model_mod = sys.modules["hgformer.model"]
        model = HGFormer(self.cfg, seed=0, dtype=np.float64)
        for name, p in model.named_parameters().items():
            p.data = cap["before"][name].astype(np.float64) + shifts.get(name, 0.0)
        total = 0.0
        for (image, label, flip, rng_seed), graphs in zip(cap["samples"], cap["graphs"]):
            replay = iter(graphs)

            def replay_w(*a, **kw):
                h = next(replay, None)
                if h is None:
                    raise RuntimeError("more constructions than the captured pass made")
                return h

            x = image[:, :, ::-1] if flip else image
            with patched([(model_mod, "build_incidence", replay_w)]):
                logits = model.forward(Tensor(x, dtype=np.float64), training=True,
                                       rng=np.random.default_rng(rng_seed))
            total += checks.cross_entropy64(logits.data, label)
        return total / len(cap["samples"])

    def first_lr(self) -> float:
        """Linear warm-up gives base_lr / warm-up steps at step 0."""
        warmup = self.steps_per_epoch * self.tcfg.warmup_epochs
        return self.tcfg.base_lr / warmup if warmup else self.tcfg.base_lr

    def check(self, out_dir) -> list[str]:
        cap = self._capture_first_step(out_dir)
        fails = []
        if len(cap["samples"]) != min(self.batch_size, self.dataset.n_train):
            fails.append(f"first step saw {len(cap['samples'])} samples, expected a batch of {self.batch_size}")
        names = self.downstream_names(cap["before"])
        missing = [n for n in names if n not in cap["merged"]]
        if missing:
            return fails + [f"no gradient for {missing[:3]}"]
        fails += checks.check_directional_derivative(
            {n: cap["merged"][n] for n in names}, lambda shifts: self.batch_loss64(cap, shifts),
            np.random.default_rng((self.seed, 0xFD)))
        applied = {k: g for k, g in cap["applied"].items() if g is not None}
        fails += checks.check_clipped_gradient(cap["merged"], applied, CLIP_NORM)
        lr = self.first_lr()
        if not math.isclose(cap["lr"], lr, rel_tol=1e-12):
            fails.append(f"first learning rate {cap['lr']!r}, expected {lr!r}")
        fails += checks.check_first_adamw_step(cap["before"], cap["applied"], cap["after"], lr,
                                               self.tcfg.weight_decay)
        return fails


WORKLOADS = {
    "train-micro32": lambda: TrainToy("Micro", image_size=32, samples_per_class=100, batch_size=32),
    "eval-t224": EvalT224,
    "train-t224": lambda: TrainToy("T", image_size=224, samples_per_class=5, batch_size=8),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def import_seconds() -> float:
    """Median wall time for a fresh interpreter to start and import hgformer."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hgformer"], env=dict(os.environ, PYTHONPATH=SRC), check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(name: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    """Set up, measure, check; returns the result object the command prints.

    ``setup_s`` is the median import time of a fresh interpreter plus the
    median of three in-process set-ups (inputs, model init, warm-up).
    """
    wl = WORKLOADS[name]()
    import_s = import_seconds()
    setup_s, data_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        data_s.append(wl.setup(seed))
        setup_s.append(time.perf_counter() - t0)

    if not trace:
        ph = wl.phase(seconds, out_dir)
        rss = peak_rss_mb()
        p50, p90 = np.percentile(np.asarray(ph.latencies_s) * 1e3, [50, 90])
        metrics = {
            "setup_s": (import_s + statistics.median(setup_s), "s"),
            "images_per_s": (ph.images_per_s(), "images/s"),
            "ms_per_image_p50": (float(p50), "ms"),
            "ms_per_image_p90": (float(p90), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        phases = [ph]
    else:
        plain = wl.phase(seconds / 2, out_dir)
        rec = Recorder()
        with patched(rec.replacements()):
            traced = wl.phase(seconds / 2, out_dir, rec)
        overhead = 100.0 * (plain.images_per_s() / traced.images_per_s() - 1.0)
        metrics = rec.per_layer(statistics.median(data_s), traced.rounds, overhead)
        rec.write(out_dir / f"trace-{name}-seed{seed}.json")
        phases = [plain, traced]
    fails = wl.check(out_dir)
    errors = [e for p in phases for e in p.errors]
    return {
        "correct": not fails,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "_messages": fails + errors,
    }
