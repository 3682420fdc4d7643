"""Ablation runner: trains factor arms over shared seeds and tabulates accuracy."""

from __future__ import annotations

import dataclasses
import io
from dataclasses import dataclass, replace

import numpy as np

from .construct import CONSTRUCT_ALGOS, DISTANCE_KINDS
from .data import ToyDataset
from .model import NetworkConfig, single_stage_variant, vanilla_attention_variant
from .tensor import ConfigError
from .training import RunReport, TrainConfig, train

ARM_GROUPS = ("construction", "distance", "architecture")

# keys an arm set is allowed to vary, per factor under test
_FACTOR_KEYS = {
    "construction": {"construct_algo"},
    "distance": {"distance"},
    "architecture": {"attention_mode", "messaging_mode"},
}


def ablation_arms(group: str, base: NetworkConfig) -> list[tuple[str, NetworkConfig]]:
    """The configured arms of one factor group, derived from a base config."""
    if group == "construction":
        return [(algo, replace(base, construct_algo=algo)) for algo in CONSTRUCT_ALGOS]
    if group == "distance":
        return [(d, replace(base, distance=d)) for d in DISTANCE_KINDS]
    if group == "architecture":
        return [
            ("full", base),
            ("vanilla_attention", vanilla_attention_variant(base)),
            ("single_stage", single_stage_variant(base)),
        ]
    raise ConfigError(f"unknown ablation group {group!r}; expected one of {ARM_GROUPS}")


def _assert_single_factor(arms: list[tuple[str, NetworkConfig]]) -> None:
    """Arms must differ from each other in exactly one declared factor."""
    dicts = [dataclasses.asdict(cfg) for _, cfg in arms]
    differing: set[str] = set()
    base = dicts[0]
    for other in dicts[1:]:
        differing |= {k for k in base if base[k] != other[k]}
    if not differing:
        return  # identical arms are legal (control comparisons)
    for keys in _FACTOR_KEYS.values():
        if differing <= keys:
            return
    raise ConfigError(f"ablation arms differ in {sorted(differing)}, not a single factor")


@dataclass
class AblationRow:
    arm: str
    seed: int
    final_acc: float
    wall_s: float


@dataclass
class AblationTable:
    rows: list[AblationRow]
    reports: list[RunReport]

    def arm_names(self) -> list[str]:
        seen = []
        for r in self.rows:
            if r.arm not in seen:
                seen.append(r.arm)
        return seen

    def summary(self) -> dict[str, dict[str, float]]:
        out = {}
        for arm in self.arm_names():
            accs = np.array([r.final_acc for r in self.rows if r.arm == arm])
            out[arm] = {"mean_acc": float(accs.mean()), "std_acc": float(accs.std()), "n_seeds": int(accs.size)}
        return out

    def mean_acc(self, arm: str) -> float:
        return self.summary()[arm]["mean_acc"]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("arm,seed,final_acc,wall_s\n")
        for r in self.rows:
            buf.write(f"{r.arm},{r.seed},{r.final_acc:.6f},{r.wall_s:.3f}\n")
        return buf.getvalue()

    def deterministic_csv(self) -> str:
        """The CSV minus its wall-clock column, for byte-stability checks."""
        buf = io.StringIO()
        buf.write("arm,seed,final_acc\n")
        for r in self.rows:
            buf.write(f"{r.arm},{r.seed},{r.final_acc:.6f}\n")
        return buf.getvalue()


def run_ablation(
    arms: list[tuple[str, NetworkConfig]],
    dataset: ToyDataset,
    train_cfg: TrainConfig,
    n_seeds: int = 3,
    log=None,
) -> AblationTable:
    """Train every arm ``n_seeds`` times on the shared dataset and seed set."""
    if len(arms) < 2:
        raise ConfigError("need at least two ablation arms")
    if n_seeds < 1:
        raise ConfigError(f"need at least one seed per arm, got {n_seeds}")
    _assert_single_factor(arms)
    rows: list[AblationRow] = []
    reports: list[RunReport] = []
    for arm_name, cfg in arms:
        for i in range(n_seeds):
            run_cfg = replace(train_cfg, seed=train_cfg.seed + i)
            report = train(cfg, dataset, run_cfg)
            rows.append(AblationRow(arm=arm_name, seed=run_cfg.seed, final_acc=report.final_acc, wall_s=report.wall_time_s))
            reports.append(report)
            if log:
                log(f"arm {arm_name:18s} seed {run_cfg.seed}: acc {report.final_acc:.3f} ({report.wall_time_s:.1f}s)")
    return AblationTable(rows=rows, reports=reports)
