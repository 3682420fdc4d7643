import dataclasses

import pytest

from hgformer.ablation import AblationTable, ablation_arms, run_ablation
from hgformer.data import ToyDatasetSpec, make_toy_dataset
from hgformer.model import variant
from hgformer.tensor import ConfigError
from hgformer.training import TrainConfig


def tiny_setup():
    ds = make_toy_dataset(ToyDatasetSpec(n_classes=2, samples_per_class=4, image_size=16, noise_std=0.0, seed=0))
    cfg = TrainConfig(epochs=1, batch_size=4, base_lr=1e-3, seed=0)
    return ds, cfg


def test_arm_groups_have_expected_members():
    base = variant("Micro", n_classes=2)
    assert [n for n, _ in ablation_arms("construction", base)] == ["cs_knn", "knn", "kmeans", "dpc_knn"]
    assert [n for n, _ in ablation_arms("distance", base)] == ["dot", "cosine", "euclidean"]
    assert [n for n, _ in ablation_arms("architecture", base)] == ["full", "vanilla_attention", "single_stage"]
    with pytest.raises(ConfigError):
        ablation_arms("widths", base)


def test_arms_differ_only_in_factor_under_test():
    base = variant("Micro", n_classes=2)
    for group in ("construction", "distance", "architecture"):
        arms = ablation_arms(group, base)
        base_dict = dataclasses.asdict(arms[0][1])
        for _, cfg in arms[1:]:
            diff = {k for k, v in dataclasses.asdict(cfg).items() if base_dict[k] != v}
            assert len(diff) <= 1 or group == "architecture"


def test_identical_arms_give_zero_mean_difference():
    ds, cfg = tiny_setup()
    base = variant("Micro", n_classes=2)
    table = run_ablation([("a", base), ("b", base)], ds, cfg, n_seeds=2)
    s = table.summary()
    assert s["a"]["mean_acc"] == s["b"]["mean_acc"]
    assert "std_acc" in s["a"]
    assert len(table.rows) == 4


def test_row_count_matches_arms_times_seeds():
    ds, cfg = tiny_setup()
    arms = ablation_arms("architecture", variant("Micro", n_classes=2))
    table = run_ablation(arms, ds, cfg, n_seeds=1)
    assert len(table.rows) == len(arms)
    assert table.arm_names() == [n for n, _ in arms]


def test_csv_format():
    ds, cfg = tiny_setup()
    base = variant("Micro", n_classes=2)
    table = run_ablation([("a", base), ("b", base)], ds, cfg, n_seeds=1)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "arm,seed,final_acc,wall_s"
    assert len(lines) == 3
    det = table.deterministic_csv().strip().split("\n")
    assert det[0] == "arm,seed,final_acc"


def test_mixed_factor_arms_rejected():
    ds, cfg = tiny_setup()
    base = variant("Micro", n_classes=2)
    import dataclasses as dc

    bad = dc.replace(base, construct_algo="knn", distance="cosine")
    with pytest.raises(ConfigError, match="factor"):
        run_ablation([("base", base), ("bad", bad)], ds, cfg, n_seeds=1)


def test_single_arm_rejected():
    ds, cfg = tiny_setup()
    with pytest.raises(ConfigError):
        run_ablation([("only", variant("Micro", n_classes=2))], ds, cfg)
