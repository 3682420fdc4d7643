"""Spans around the program's public functions, recorded from outside it.

``Recorder.replacements()`` gives, for each listed function, a wrapper that
records a span (name, start, end, parent); ``patched`` installs them for a
block and puts the originals back on exit. Wrappers go on the attribute the
caller looks up (``hgformer.model.hga_n2e`` for the call inside
``block_forward``, and so on), so the program itself is unchanged. Spans stay
in memory until ``Recorder.write`` at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name); the module is the one whose code makes the call
_SPANS = [
    ("hgformer.model", "build_incidence", "construct.build_incidence"),
    ("hgformer.construct", "score_tokens", "construct.score_tokens"),
    ("hgformer.construct", "sample_centers", "construct.sample_centers"),
    ("hgformer.construct", "knn_assign", "construct.knn_assign"),
    ("hgformer.construct", "similarity", "construct.similarity"),
    ("hgformer.model", "hga_n2e", "messaging.hga_n2e"),
    ("hgformer.model", "hga_e2n", "messaging.hga_e2n"),
    ("hgformer.messaging", "hgconv_n2e", "messaging.hgconv_n2e"),
    ("hgformer.messaging", "hgconv_e2n", "messaging.hgconv_e2n"),
    ("hgformer.messaging", "multi_head_attention", "messaging.multi_head_attention"),
    ("hgformer.messaging", "feed_forward", "messaging.feed_forward"),
    ("hgformer.training", "clip_grad_norm", "training.clip_grad_norm"),
    ("hgformer.model", "save_tensors", "checkpoint.save"),
]
# spans whose forward flops are counted with a FlopCounter
_FLOPS = {"model.forward", "construct.build_incidence", "messaging.hga_n2e", "messaging.hga_e2n"}

STAGES = 4

PER_IMAGE = [
    "model.forward", "model.patch_embed", *(f"model.stage{i}" for i in range(STAGES)),
    "construct.build_incidence", "construct.score_tokens", "construct.sample_centers",
    "construct.knn_assign", "construct.similarity",
    "messaging.hga_n2e", "messaging.hga_e2n", "messaging.hgconv_n2e", "messaging.hgconv_e2n",
    "messaging.multi_head_attention", "messaging.feed_forward",
]


@contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Recorder:
    """Spans in parallel lists; a span's parent is the span open when it began."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.flops: dict[str, int] = {}
        self.tape_records = 0
        self.val_images = 0
        self.stage = -1
        self._open: list[int] = []
        self._step: int | None = None

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._open[-1] if self._open else -1)
        self._open.append(i)
        return i

    def close(self, i: int) -> None:
        now = time.perf_counter()
        while self._open:  # spans left open by an exception end with their parent
            j = self._open.pop()
            self.ends[j] = now
            if j == i:
                break
        if self._step is not None and self.ends[self._step]:
            self._step = None

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def _wrap(self, name, fn, counted=False):
        from hgformer.tensor import FlopCounter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                if counted:
                    with FlopCounter() as fc:
                        out = fn(*args, **kwargs)
                    self.flops[name] = self.flops.get(name, 0) + fc.total
                    return out
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapper

    def replacements(self):
        """The wrappers to install: ``(owner, attr, wrapper)`` triples."""
        from hgformer.model import HGFormer
        from hgformer.tensor import Tape
        from hgformer.training import AdamW

        model_mod = sys.modules["hgformer.model"]
        training_mod = sys.modules["hgformer.training"]
        out = []
        for mod, attr, name in _SPANS:
            owner = sys.modules[mod]
            out.append((owner, attr, self._wrap(name, getattr(owner, attr), name in _FLOPS)))
        forward = self._wrap("model.forward", HGFormer.forward, counted=True)
        embed = self._wrap("model.patch_embed", model_mod.patch_embed)
        evaluate = self._wrap("training.evaluate", training_mod.evaluate)
        block = model_mod.block_forward
        sample_pass = training_mod._sample_pass
        backward = Tape.backward
        step = AdamW.step

        def forward_w(*a, **kw):
            self.stage = -1
            return forward(*a, **kw)

        def embed_w(*a, **kw):
            self.stage += 1
            return embed(*a, **kw)

        def block_w(*a, **kw):
            with self.span(f"model.stage{self.stage}"):
                return block(*a, **kw)

        def evaluate_w(model, images, labels, *a, **kw):
            self.val_images += len(labels)
            return evaluate(model, images, labels, *a, **kw)

        def backward_w(tape, *a, **kw):
            self.tape_records += len(tape)
            with self.span("tensor.backward"):
                return backward(tape, *a, **kw)

        # an optimizer step has no function of its own: its span opens at the
        # batch's first sample pass and closes when AdamW.step returns
        def sample_pass_w(*a, **kw):
            if self._step is None:
                self._step = self.open("training.step")
            with self.span("training.sample_pass"):
                return sample_pass(*a, **kw)

        def step_w(*a, **kw):
            try:
                with self.span("training.adamw_step"):
                    return step(*a, **kw)
            finally:
                if self._step is not None:
                    self.close(self._step)

        return out + [
            (HGFormer, "forward", forward_w),
            (model_mod, "patch_embed", embed_w),
            (model_mod, "block_forward", block_w),
            (training_mod, "evaluate", evaluate_w),
            (Tape, "backward", backward_w),
            (training_mod, "_sample_pass", sample_pass_w),
            (AdamW, "step", step_w),
        ]

    # ------------------------------------------------------------------
    # aggregation

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Inclusive seconds, call counts and self seconds per span name."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child: list[float] = [0.0] * len(self.names)
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            total[name] = total.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            if self.parents[i] >= 0:
                child[self.parents[i]] += d
        self_s: dict[str, float] = {}
        for i, name in enumerate(self.names):
            self_s[name] = self_s.get(name, 0.0) + (self.ends[i] - self.starts[i]) - child[i]
        return total, calls, self_s

    def per_layer(self, make_toy_dataset_s: float, rounds: int, overhead_pct: float) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``; absent layers read 0."""
        total, calls, self_s = self.totals()
        images = calls.get("model.forward", 0)
        steps = calls.get("training.adamw_step", 0)

        def per(x, n):
            return x / n if n else 0.0

        def ms(name, n, times=total):
            return per(1e3 * times.get(name, 0.0), n), "ms"

        m = {f"{name}.ms_per_image": ms(name, images) for name in PER_IMAGE}
        m["construct.calls_per_image"] = (per(calls.get("construct.build_incidence", 0), images), "count")
        m["construct.flops_per_image"] = (per(self.flops.get("construct.build_incidence", 0), images), "flop")
        m["messaging.flops_per_image"] = (
            per(self.flops.get("messaging.hga_n2e", 0) + self.flops.get("messaging.hga_e2n", 0), images), "flop")
        backwards = calls.get("tensor.backward", 0)
        m["tensor.tape_records_per_image"] = (per(self.tape_records, backwards), "count")
        m["tensor.backward.ms_per_image"] = ms("tensor.backward", backwards)
        fwd_flops = per(self.flops.get("model.forward", 0), images)
        m["tensor.flops_per_image"] = (fwd_flops, "flop")
        m["tensor.gflop_per_s"] = (per(fwd_flops / 1e9, per(total.get("model.forward", 0.0), images)), "GFLOP/s")
        m["training.sample_pass.ms_per_image"] = ms("training.sample_pass", calls.get("training.sample_pass", 0))
        m["training.clip_grad_norm.ms_per_step"] = ms("training.clip_grad_norm", steps)
        m["training.adamw_step.ms_per_step"] = ms("training.adamw_step", steps)
        m["training.step_self.ms_per_step"] = ms("training.step", steps, self_s)
        m["training.evaluate.ms_per_image"] = ms("training.evaluate", self.val_images)
        m["checkpoint.save.ms_per_call"] = ms("checkpoint.save", calls.get("checkpoint.save", 0))
        m["checkpoint.save.calls"] = (per(calls.get("checkpoint.save", 0), rounds), "count")
        m["data.make_toy_dataset.ms"] = (1e3 * make_toy_dataset_s, "ms")
        m["trace.overhead_pct"] = (overhead_pct, "%")
        return m

    def write(self, path) -> None:
        """Spans as ``{"names": [...], "spans": [[name, start_us, end_us, parent], ...]}``."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        t0 = min(self.starts, default=0.0)
        spans = [
            [index[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as f:
            json.dump({"names": names, "spans": spans}, f, separators=(",", ":"))
