import weakref

import numpy as np
import numpy.testing as npt
import pytest

import hgformer.training as training_mod
from hgformer.data import ToyDataset, ToyDatasetSpec, make_toy_dataset
from hgformer.model import HGFormer, variant
from hgformer.tensor import ConfigError, NumericalError, scale
from hgformer.training import (
    GRAD_CLIP_NORM,
    AdamW,
    TrainConfig,
    clip_grad_norm,
    evaluate,
    lr_at,
    train,
)


def tiny_dataset(n_classes=2, spc=5, size=16, seed=0, noise=0.0):
    return make_toy_dataset(
        ToyDatasetSpec(n_classes=n_classes, samples_per_class=spc, image_size=size, noise_std=noise, seed=seed)
    )


def test_lr_schedule_shape():
    assert lr_at(0, 100, 10, 1.0) == pytest.approx(0.1)
    assert lr_at(9, 100, 10, 1.0) == pytest.approx(1.0)
    assert lr_at(10, 100, 10, 1.0) == pytest.approx(1.0)
    assert lr_at(100, 100, 10, 1.0) == pytest.approx(0.0, abs=1e-9)
    mid = lr_at(55, 100, 10, 1.0)
    assert 0.4 < mid < 0.6


def test_zero_lr_leaves_parameters_unchanged():
    ds = tiny_dataset()
    cfg = TrainConfig(epochs=2, batch_size=4, base_lr=0.0, weight_decay=0.0, warmup_epochs=0, seed=0)
    model_ref = HGFormer(variant("Micro", n_classes=2), seed=0)
    before = {k: p.data.copy() for k, p in model_ref.named_parameters().items()}
    report = train(variant("Micro", n_classes=2), ds, cfg)
    # loss stays constant across epochs up to fp noise
    losses = [e.train_loss for e in report.epochs]
    assert abs(losses[0] - losses[-1]) < 1e-6
    # rebuild with the same seed: training with lr=0 must not have moved anything
    model_after = HGFormer(variant("Micro", n_classes=2), seed=0)
    for k, p in model_after.named_parameters().items():
        npt.assert_array_equal(p.data, before[k])


def test_single_sample_overfit_within_200_steps():
    spec = ToyDatasetSpec(n_classes=2, samples_per_class=3, image_size=16, noise_std=0.0, seed=1)
    base = make_toy_dataset(spec)
    ds = ToyDataset(
        spec=spec,
        train_images=base.train_images[:4],
        train_labels=base.train_labels[:4],
        val_images=base.val_images,
        val_labels=base.val_labels,
    )
    cfg = TrainConfig(epochs=200, batch_size=4, base_lr=2e-3, weight_decay=0.0, warmup_epochs=1, seed=0)
    report = train(variant("Micro", n_classes=2), ds, cfg)
    # one step per epoch here, so epochs == steps
    hit = [e.epoch for e in report.epochs if e.train_acc == 1.0]
    assert hit and hit[0] <= 200


def test_seeded_runs_identical():
    ds = tiny_dataset()
    cfg = TrainConfig(epochs=2, batch_size=4, base_lr=1e-3, seed=5)
    r1 = train(variant("Micro", n_classes=2), ds, cfg)
    r2 = train(variant("Micro", n_classes=2), ds, cfg)
    assert r1.final_acc == r2.final_acc
    assert [e.train_loss for e in r1.epochs] == [e.train_loss for e in r2.epochs]
    assert r1.deterministic_dict() == r2.deterministic_dict()


class _StopTraining(Exception):
    pass


def test_step_gradient_is_the_sample_order_mean_of_isolated_gradients(monkeypatch):
    # each sample's gradient is recomputed alone, on a fresh model holding the
    # step's parameters; a gradient left over from an earlier sample or step
    # would break the bit-for-bit match
    ds = tiny_dataset()
    net = variant("Micro", n_classes=2)
    batch = 4
    orig_pass = training_mod._sample_pass
    orig_clip = training_mod.clip_grad_norm
    isolated: list[dict[str, np.ndarray]] = []
    merged: list[dict[str, np.ndarray]] = []

    def spy_pass(model, image, label, flip, rng_seed):
        alone = HGFormer(net, seed=0)
        for name, p in alone.named_parameters().items():
            p.data = model.named_parameters()[name].data.copy()
        orig_pass(alone, image, label, flip, rng_seed)
        isolated.append({k: p.grad for k, p in alone.named_parameters().items() if p.grad is not None})
        return orig_pass(model, image, label, flip, rng_seed)

    def spy_clip(grads, max_norm):
        merged.append({k: g.copy() for k, g in grads.items()})
        if len(merged) == 2:
            raise _StopTraining
        return orig_clip(grads, max_norm)

    monkeypatch.setattr(training_mod, "_sample_pass", spy_pass)
    monkeypatch.setattr(training_mod, "clip_grad_norm", spy_clip)
    with pytest.raises(_StopTraining):
        train(net, ds, TrainConfig(epochs=1, batch_size=batch, seed=3))
    for step, got in enumerate(merged):
        expected: dict[str, np.ndarray] = {}
        for sample in isolated[step * batch : (step + 1) * batch]:
            for name, g in sample.items():
                expected[name] = expected[name] + g if name in expected else g
        assert list(got) == [k for k in HGFormer(net, seed=0).named_parameters() if k in expected]
        for name, g in expected.items():
            want = g * (1.0 / batch)
            assert got[name].dtype == want.dtype and got[name].tobytes() == want.tobytes(), (step, name)


def test_non_finite_gradient_aborts_before_the_step(monkeypatch):
    ds = tiny_dataset()
    orig_pass = training_mod._sample_pass
    orig_step = AdamW.step
    passes, steps = [], []

    def poisoned_pass(model, image, label, flip, rng_seed):
        out = orig_pass(model, image, label, flip, rng_seed)
        passes.append(1)
        if len(passes) == 5:  # first sample of step 1
            p = model.named_parameters()["net.head.fc.weight"]
            p.grad = p.grad.copy()
            p.grad.flat[0] = np.inf
        return out

    def spy_step(self, lr):
        orig_step(self, lr)
        steps.append({k: p.data.copy() for k, p in self.params.items()})

    monkeypatch.setattr(training_mod, "_sample_pass", poisoned_pass)
    monkeypatch.setattr(AdamW, "step", spy_step)
    with pytest.raises(NumericalError) as err:
        train(variant("Micro", n_classes=2), ds, TrainConfig(epochs=1, batch_size=4, seed=0))
    msg = str(err.value)
    assert "epoch 0 step 1:" in msg and "non-finite gradient norm" in msg
    assert "last_lr=" in msg and "last_grad_norm=inf" in msg
    assert len(steps) == 1
    assert all(np.isfinite(v).all() for v in steps[0].values())


def test_step_releases_the_batch_gradients_before_the_next_pass_and_the_val_pass(monkeypatch):
    # a name in train() that still refers to a step's gradient arrays keeps
    # them alive while the next batch's backward allocates a fresh set
    ds = tiny_dataset()
    orig_pass, orig_step, orig_eval = training_mod._sample_pass, AdamW.step, training_mod.evaluate
    refs: list[weakref.ref] = []
    alive: dict[str, list[int]] = {"pass": [], "evaluate": []}

    def spy_step(self, lr):
        orig_step(self, lr)
        refs[:] = [weakref.ref(p.grad) for p in self.params.values() if p.grad is not None]

    def spy_pass(*args):
        if refs:
            alive["pass"].append(sum(r() is not None for r in refs))
        return orig_pass(*args)

    def spy_eval(*args):
        alive["evaluate"].append(sum(r() is not None for r in refs))
        return orig_eval(*args)

    monkeypatch.setattr(AdamW, "step", spy_step)
    monkeypatch.setattr(training_mod, "_sample_pass", spy_pass)
    monkeypatch.setattr(training_mod, "evaluate", spy_eval)
    train(variant("Micro", n_classes=2), ds, TrainConfig(epochs=2, batch_size=4, seed=0))
    assert refs
    assert alive["pass"] == [0] * (3 * 4)  # every pass after the first step
    assert alive["evaluate"] == [0, 0]


def test_nan_loss_aborts_with_diagnostics():
    # normalization layers shrug off merely-large weights, so push the update
    # far enough that squared activations overflow to inf
    ds = tiny_dataset()
    cfg = TrainConfig(epochs=3, batch_size=4, base_lr=1e200, weight_decay=0.0, warmup_epochs=0, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="last_lr"):
        train(variant("Micro", n_classes=2), ds, cfg)


def test_large_gradient_is_clipped_and_reported_unclipped(monkeypatch):
    # one full-batch step on a loss scaled far up, then a forced abort on the
    # next step so the error message reports the step's gradient norm
    ds = tiny_dataset()
    forward_calls = []
    orig_loss = training_mod.cross_entropy_logits

    def scaled_loss(logits, target):
        forward_calls.append(1)
        if len(forward_calls) > ds.n_train:
            raise NumericalError("forced")
        return scale(orig_loss(logits, target), 1e4)

    reported, applied = [], []
    orig_clip = training_mod.clip_grad_norm
    orig_step = AdamW.step

    def spy_clip(grads, max_norm):
        reported.append(orig_clip(grads, max_norm))
        return reported[-1]

    def spy_step(self, lr):
        grads = [p.grad.astype(np.float64) for p in self.params.values() if p.grad is not None]
        applied.append(np.sqrt(sum(float((g * g).sum()) for g in grads)))
        orig_step(self, lr)

    monkeypatch.setattr(training_mod, "cross_entropy_logits", scaled_loss)
    monkeypatch.setattr(training_mod, "clip_grad_norm", spy_clip)
    monkeypatch.setattr(AdamW, "step", spy_step)
    cfg = TrainConfig(epochs=2, batch_size=ds.n_train, warmup_epochs=0, seed=0)
    with pytest.raises(NumericalError) as err:
        train(variant("Micro", n_classes=2), ds, cfg)
    assert len(applied) == 1
    assert reported[0] > 100 * GRAD_CLIP_NORM
    assert applied[0] <= GRAD_CLIP_NORM * (1 + 1e-5)
    assert f"last_grad_norm={reported[0]:.6g}" in str(err.value)


def test_clip_grad_norm_keeps_small_and_non_finite_gradients():
    small = {"a": np.array([0.375, 0.5], dtype=np.float32)}
    assert clip_grad_norm(small, 1.0) == 0.625
    npt.assert_array_equal(small["a"], [0.375, 0.5])
    bad = {"a": np.array([np.inf, 1.0], dtype=np.float32)}
    assert clip_grad_norm(bad, 1.0) == np.inf
    npt.assert_array_equal(bad["a"], [np.inf, 1.0])


def test_checkpoint_written_at_best(tmp_path):
    ds = tiny_dataset()
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
    train(variant("Micro", n_classes=2), ds, cfg, out_dir=tmp_path)
    assert (tmp_path / "best.ckpt").exists()
    m = HGFormer(variant("Micro", n_classes=2), seed=1)
    m.load(tmp_path / "best.ckpt")  # shape-compatible by construction


def test_early_stop(tmp_path):
    ds = tiny_dataset()
    cfg = TrainConfig(epochs=50, batch_size=4, seed=0, early_stop_val_acc=0.0)
    report = train(variant("Micro", n_classes=2), ds, cfg)
    assert len(report.epochs) == 1


def test_report_fields():
    ds = tiny_dataset()
    report = train(variant("Micro", n_classes=2), ds, TrainConfig(epochs=1, batch_size=4, seed=0))
    d = report.deterministic_dict()
    assert d["param_count"] > 0
    assert len(d["config_hash"]) == 16
    assert 0.0 <= d["final_acc"] <= 1.0
    assert [e["epoch"] for e in d["epochs"]] == list(range(len(d["epochs"])))
    t = report.timing_dict()
    assert t["wall_time_s"] > 0 and t["images_per_s"] > 0


def test_adamw_decoupled_decay_moves_weights_toward_zero():
    from hgformer.tensor import Tensor

    p = Tensor(np.ones(4), requires_grad=True)
    opt = AdamW({"p": p}, weight_decay=0.1)
    p.grad = np.zeros(4, dtype=np.float32)
    opt.step(lr=0.5)
    assert np.all(p.data < 1.0)
    assert np.all(p.data > 0.9)


def test_evaluate_counts_correct():
    ds = tiny_dataset()
    model = HGFormer(variant("Micro", n_classes=2), seed=0)
    acc = evaluate(model, ds.val_images, ds.val_labels)
    assert 0.0 <= acc <= 1.0


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(base_lr=-1.0)
