"""Command-line entry point.

Subcommands: ``topology``, ``forward``, ``gradcheck``, ``train``, ``ablate``,
``bench``. Exit codes: 0 success, 1 validation error (bad flags, malformed
files, unwritable output paths), 2 numerical failure (gradient gate,
non-finite loss).

Every stochastic subcommand takes ``--seed`` and its primary output files are
byte-identical across reruns; wall-clock measurements go to separate
``*timing*`` files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .ablation import ARM_GROUPS, ablation_arms, check_ablation, run_ablation
from .bench import attention_complexity_scan, bench_throughput, check_bench_args, construction_complexity_scan
from .checkpoint import load_tensors
from .construct import (
    CONSTRUCT_ALGOS,
    DISTANCE_KINDS,
    TokenSet,
    build_incidence,
    score_tokens,
    topology_dump_json,
)
from .data import ToyDatasetSpec, make_toy_dataset
from .gradcheck import grad_check_suite
from .model import HGFormer, variant
from .tensor import ConfigError, NumericalError, ShapeError, Tensor
from .training import TrainConfig, train

_ALGO_FLAGS = tuple(algo.replace("_", "-") for algo in CONSTRUCT_ALGOS)
_VARIANT_FLAGS = ("T", "S", "B", "Micro")


class CliParser(argparse.ArgumentParser):
    """Argument parser that exits 1 (validation) instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _write_text(path, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _write_json(path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _load_input_tensor(path, expect_rank: int) -> tuple[np.ndarray, dict]:
    entries = load_tensors(path)
    if "input" not in entries:
        raise ConfigError(f"{path}: container has no entry named 'input'")
    arr = entries["input"]
    if arr.ndim != expect_rank:
        raise ConfigError(f"{path}: entry 'input' must have rank {expect_rank}, got {arr.ndim}")
    return arr, entries


def _synthetic_tokens(grid: tuple[int, int], channels: int, seed: int) -> np.ndarray:
    if min(grid) < 1 or channels < 1:
        raise ConfigError(f"synthetic tokens need grid dimensions and channels of at least 1, got {grid} and {channels}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((grid[0] * grid[1], channels)).astype(np.float32)


def _synthetic_image(size: int, seed: int) -> np.ndarray:
    if size < 1:
        raise ConfigError(f"image size must be at least 1, got {size}")
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (3, size, size)).astype(np.float32)


# --------------------------------------------------------------------------
# subcommands


def cmd_topology(args) -> int:
    class_token = None
    if args.input == "synthetic":
        grid = tuple(args.grid) if args.grid is not None else (8, 8)
        nodes = _synthetic_tokens(grid, args.channels, args.seed)
    else:
        nodes, entries = _load_input_tensor(args.input, expect_rank=2)
        if "class_token" in entries:
            class_token = Tensor(entries["class_token"].reshape(1, -1))
        n = nodes.shape[0]
        if args.grid is not None:
            grid = tuple(args.grid)
        else:
            side = int(np.sqrt(n))
            if side * side != n:
                raise ConfigError(f"{n} tokens are not square; pass --grid H W")
            grid = (side, side)
    tokens = TokenSet.from_nodes(Tensor(nodes), grid, class_token=class_token)
    algo = args.algo.replace("-", "_")
    h = build_incidence(tokens, algo, args.ne, args.k, seed=args.seed, distance=args.distance)
    scores = score_tokens(tokens, args.distance)
    _write_text(args.out, topology_dump_json(tokens, h, scores))
    print(f"wrote {args.out}: {h.n_edges} hyperedges of {h.k} members over {h.n_nodes} nodes")
    return 0


def cmd_forward(args) -> int:
    cfg = variant(args.variant, n_classes=args.n_classes)
    model = HGFormer(cfg, seed=args.seed)
    if args.checkpoint:
        model.load(args.checkpoint)
    if args.input == "synthetic":
        image = _synthetic_image(args.image_size, args.seed)
    else:
        image, _ = _load_input_tensor(args.input, expect_rank=3)
    logits = model.forward(Tensor(image))
    payload = {
        "variant": cfg.name,
        "n_classes": cfg.n_classes,
        "argmax": int(np.argmax(logits.data)),
        "logits": [float(v) for v in logits.data],
    }
    _write_json(args.out, payload)
    print(f"wrote {args.out}: argmax={payload['argmax']}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = variant(args.variant, n_classes=args.n_classes)
    report = grad_check_suite(
        cfg,
        image_size=args.image_size,
        n_classes=args.n_classes,
        batch=args.batch,
        seed=args.seed,
        tol=args.tol,
    )
    if args.out:
        _write_json(args.out, report.to_dict())
    status = "PASS" if report.passed else "FAIL"
    print(
        f"gradcheck {cfg.name}: {status}  max_rel_err={report.max_rel_err:.3e} "
        f"tol={report.tol:.0e} params={report.n_params} elapsed={report.elapsed_s:.1f}s"
    )
    if not report.passed:
        for name in report.offenders():
            print(f"  offender: {name} rel_err={report.per_param[name]:.3e}")
        return 2
    return 0


def _dataset_from_args(args) -> ToyDatasetSpec:
    return ToyDatasetSpec(
        n_classes=args.n_classes,
        samples_per_class=args.samples_per_class,
        image_size=args.image_size,
        noise_std=args.noise_std,
        seed=args.seed,
    )


def cmd_train(args) -> int:
    net_cfg = variant(args.variant, n_classes=args.n_classes)
    train_cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        base_lr=args.lr,
        weight_decay=args.weight_decay,
        warmup_epochs=args.warmup_epochs,
        seed=args.seed,
        early_stop_val_acc=args.early_stop_acc,
    )
    dataset = make_toy_dataset(_dataset_from_args(args))
    os.makedirs(args.out, exist_ok=True)  # an unwritable path fails before training
    report = train(net_cfg, dataset, train_cfg, out_dir=args.out, log=print)
    _write_json(os.path.join(args.out, "run_report.json"), report.deterministic_dict())
    _write_json(os.path.join(args.out, "timing.json"), report.timing_dict())
    print(
        f"final val acc {report.final_acc:.3f} (best at epoch {report.best_epoch}); "
        f"{report.images_per_s:.1f} images/s"
    )
    return 0


def cmd_ablate(args) -> int:
    base = variant(args.variant, n_classes=args.n_classes)
    arms = ablation_arms(args.arms, base)
    train_cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        base_lr=args.lr,
        weight_decay=args.weight_decay,
        warmup_epochs=args.warmup_epochs,
        seed=args.seed,
        early_stop_val_acc=args.early_stop_acc,
    )
    dataset = make_toy_dataset(_dataset_from_args(args))
    check_ablation(arms, args.seeds)
    os.makedirs(args.out, exist_ok=True)  # an unwritable path fails before training
    table = run_ablation(arms, dataset, train_cfg, n_seeds=args.seeds, log=print)
    _write_text(os.path.join(args.out, "ablation.csv"), table.to_csv())
    _write_text(os.path.join(args.out, "ablation_det.csv"), table.deterministic_csv())
    _write_json(os.path.join(args.out, "ablation_summary.json"), table.summary())
    for arm, s in table.summary().items():
        print(f"{arm:18s} acc {s['mean_acc']:.3f} +/- {s['std_acc']:.3f} over {s['n_seeds']} seeds")
    return 0


def cmd_bench(args) -> int:
    cfg = variant(args.variant, n_classes=args.n_classes)
    check_bench_args(args.image_size, args.batch, args.warmup_iters, args.timed_iters)
    os.makedirs(args.out, exist_ok=True)  # an unwritable path fails before timing
    result = bench_throughput(
        cfg,
        image_size=args.image_size,
        batch=args.batch,
        warmup_iters=args.warmup_iters,
        timed_iters=args.timed_iters,
        seed=args.seed,
    )
    deterministic = dict(result["deterministic"])
    deterministic["attention_scaling"] = attention_complexity_scan()
    deterministic["construction_scaling"] = construction_complexity_scan()
    _write_json(os.path.join(args.out, "bench.json"), deterministic)
    _write_json(os.path.join(args.out, "bench_timing.json"), result["timing"])
    print(
        f"{cfg.name}@{args.image_size}: {result['timing']['images_per_s']:.2f} images/s; "
        f"breakdown {result['timing']['per_op_s']}"
    )
    return 0


# --------------------------------------------------------------------------
# parser


def _add_common(p, seed_default: int = 0):
    p.add_argument("--seed", type=int, default=seed_default, help="random seed; reruns are byte-identical")


def _add_train_flags(p, epochs: int, samples: int, batch_size: int):
    p.add_argument("--variant", choices=_VARIANT_FLAGS, default="Micro", help="network variant")
    p.add_argument("--n-classes", type=int, default=4, help="number of toy classes")
    p.add_argument("--samples-per-class", type=int, default=samples, help="dataset size per class")
    p.add_argument("--image-size", type=int, default=32, help="square image side")
    p.add_argument("--noise-std", type=float, default=0.05, help="background noise level")
    p.add_argument("--epochs", type=int, default=epochs, help="training epochs")
    p.add_argument("--batch-size", type=int, default=batch_size, help="minibatch size")
    p.add_argument("--lr", type=float, default=1e-3, help="base learning rate")
    p.add_argument("--weight-decay", type=float, default=0.05, help="decoupled weight decay")
    p.add_argument("--warmup-epochs", type=int, default=2, help="linear warmup epochs")
    p.add_argument("--early-stop-acc", type=float, default=None, help="stop once val accuracy reaches this")


def build_parser() -> CliParser:
    parser = CliParser(prog="hgformer", description="Hypergraph-attention backbone toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("topology", help="construct a hypergraph and dump it as JSON")
    p.add_argument(
        "--input",
        default="synthetic",
        help="tensor container with entry 'input' (optional 'class_token'), or 'synthetic'",
    )
    p.add_argument("--grid", type=int, nargs=2, metavar=("H", "W"), default=None, help="token grid (synthetic default 8 8)")
    p.add_argument("--channels", type=int, default=16, help="synthetic token channels")
    p.add_argument("--ne", type=int, required=True, help="number of hyperedges (knn ignores it and makes one per node)")
    p.add_argument("--k", type=int, required=True, help="members per hyperedge")
    p.add_argument("--algo", choices=_ALGO_FLAGS, default="cs-knn", help="construction algorithm")
    p.add_argument("--distance", choices=DISTANCE_KINDS, default="dot", help="similarity function")
    p.add_argument("--out", required=True, help="output JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("forward", help="run one image through a network, dump logits")
    p.add_argument("--variant", choices=_VARIANT_FLAGS, default="Micro", help="network variant")
    p.add_argument("--input", default="synthetic", help="tensor container with entry 'input', or 'synthetic'")
    p.add_argument("--image-size", type=int, default=32, help="synthetic image side")
    p.add_argument("--n-classes", type=int, default=4, help="classifier width")
    p.add_argument("--checkpoint", default=None, help="load parameters from this checkpoint")
    p.add_argument("--out", required=True, help="output JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("gradcheck", help="finite-difference gate over all parameters")
    p.add_argument("--variant", choices=_VARIANT_FLAGS, default="Micro", help="network variant")
    p.add_argument("--image-size", type=int, default=8, help="probe image side")
    p.add_argument("--n-classes", type=int, default=2, help="classifier width")
    p.add_argument("--batch", type=int, default=2, help="probe batch size")
    p.add_argument("--tol", type=float, default=1e-4, help="relative error tolerance")
    p.add_argument("--out", default=None, help="optional report JSON path")
    _add_common(p, seed_default=7)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train on the toy dataset, write reports + checkpoint")
    _add_train_flags(p, epochs=50, samples=100, batch_size=32)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="train ablation arms and tabulate accuracy")
    p.add_argument("--arms", choices=ARM_GROUPS, required=True, help="factor to ablate")
    p.add_argument("--seeds", type=int, default=3, help="seeds per arm")
    _add_train_flags(p, epochs=15, samples=50, batch_size=16)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("bench", help="measure throughput and op-count scaling")
    p.add_argument("--variant", choices=_VARIANT_FLAGS, default="Micro", help="network variant")
    p.add_argument("--n-classes", type=int, default=4, help="classifier width")
    p.add_argument("--image-size", type=int, default=32, help="input image side")
    p.add_argument("--batch", type=int, default=4, help="images per timed iteration")
    p.add_argument("--warmup-iters", type=int, default=2, help="untimed warmup iterations")
    p.add_argument("--timed-iters", type=int, default=5, help="timed iterations")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
