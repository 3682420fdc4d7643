import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from hgformer.checkpoint import save_tensors
from hgformer.cli import build_parser, main

DATA = Path(__file__).parent / "data"


def run(args):
    return main([str(a) for a in args])


def test_help_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    parser = build_parser()
    parts = [parser.format_help()]
    for name in ("topology", "forward", "gradcheck", "train", "ablate", "bench"):
        sub = parser._subparsers._group_actions[0].choices[name]
        parts.append(f"\n{'=' * 20} {name} {'=' * 20}\n")
        parts.append(sub.format_help())
    assert "".join(parts) == (DATA / "cli_help.txt").read_text()


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        run(["topology", "--ne", 8, "--k", 4, "--out", "/tmp/x.json", "--frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        run(["topology", "--ne", 8, "--k", 4])
    assert exc.value.code == 1


def test_topology_synthetic_invariant_echo(tmp_path):
    out = tmp_path / "topo.json"
    assert run(["topology", "--ne", 8, "--k", 16, "--out", out]) == 0
    d = json.loads(out.read_text())
    assert d["n_nodes"] == 64 and d["n_edges"] == 8 and d["k"] == 16
    assert d["grid"] == [8, 8]
    assert len(d["edges"]) == 8
    assert all(len(e) == 16 and e == sorted(e) for e in d["edges"])
    assert len(d["scores"]) == 64


def test_topology_algos_differ_in_centers(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["topology", "--ne", 8, "--k", 4, "--algo", "cs-knn", "--seed", 3, "--out", a])
    run(["topology", "--ne", 8, "--k", 4, "--algo", "knn", "--seed", 3, "--out", b])
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert da["centers"] != db["centers"]
    assert db["n_edges"] == 64  # knn forces one hyperedge per node


def test_topology_four_token_fixture(tmp_path):
    src = tmp_path / "tokens.ckpt"
    save_tensors(
        src,
        {
            "input": np.array([[2, 0], [0, 2], [1.9, 0.1], [-1, 0]], dtype=np.float32),
            "class_token": np.array([[1.0, 0.0]], dtype=np.float32),
        },
    )
    out = tmp_path / "topo.json"
    assert run(["topology", "--input", src, "--grid", 1, 4, "--ne", 2, "--k", 2, "--out", out]) == 0
    d = json.loads(out.read_text())
    assert d["centers"] == [0, 2]
    assert d["edges"] == [[0, 2], [0, 2]]


def test_topology_malformed_input_exits_1(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage-not-a-container")
    assert run(["topology", "--input", bad, "--ne", 2, "--k", 2, "--out", tmp_path / "x.json"]) == 1


@pytest.mark.parametrize(
    "body",
    [
        struct.pack("<H", 5) + b"input" + struct.pack("<BQ", 1, 2**40),
        struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<BQ", 1, 1) + b"\x00" * 4,
    ],
    ids=["huge-dims", "bad-utf8"],
)
def test_forward_malformed_input_exits_1_with_one_line(tmp_path, capsys, body):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"HGFW" + struct.pack("<II", 1, 1) + body)
    assert run(["forward", "--input", bad, "--out", tmp_path / "x.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["forward", "--image-size", 0],
        ["forward", "--image-size", -4],
        ["gradcheck", "--batch", 0],
        ["ablate", "--arms", "architecture", "--seeds", 0, "--samples-per-class", 3, "--image-size", 16, "--n-classes", 2],
    ],
    ids=["forward-empty-image", "forward-negative-size", "gradcheck-batch-0", "ablate-seeds-0"],
)
def test_zero_size_run_exits_1_with_one_line(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert run(args + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("shape", [(3, 0, 0), (3, 0, 16), (0, 16, 16)])
def test_forward_empty_input_image_exits_1_with_one_line(tmp_path, capsys, shape):
    image = tmp_path / "empty.ckpt"
    save_tensors(image, {"input": np.zeros(shape, np.float32)})
    out = tmp_path / "x.json"
    assert run(["forward", "--input", image, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expected a non-empty (C,H,W) image") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args",
    [["--grid", -2, -3], ["--channels", -3], ["--grid", 0, 0], ["--input", "six.ckpt", "--grid", -2, -3]],
    ids=["negative-grid", "negative-channels", "zero-grid", "file-negative-grid"],
)
def test_topology_bad_grid_or_channels_exits_1_with_one_line(tmp_path, capsys, args):
    save_tensors(tmp_path / "six.ckpt", {"input": np.ones((6, 4), np.float32)})
    args = [tmp_path / a if a == "six.ckpt" else a for a in args]
    out = tmp_path / "x.json"
    assert run(["topology", "--ne", 2, "--k", 2, *args, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_topology_seeded_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["topology", "--ne", 4, "--k", 8, "--seed", 11, "--out", a])
    run(["topology", "--ne", 4, "--k", 8, "--seed", 11, "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_forward_writes_logits(tmp_path):
    out = tmp_path / "fwd.json"
    assert run(["forward", "--variant", "Micro", "--image-size", 16, "--seed", 2, "--out", out]) == 0
    d = json.loads(out.read_text())
    assert d["variant"] == "Micro" and len(d["logits"]) == 4
    assert 0 <= d["argmax"] < 4


def test_forward_checkpoint_roundtrip(tmp_path):
    from hgformer.model import HGFormer, variant

    m = HGFormer(variant("Micro", n_classes=4), seed=5)
    ckpt = tmp_path / "m.ckpt"
    m.save(ckpt)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["forward", "--image-size", 16, "--seed", 9, "--out", out1, "--checkpoint", ckpt])
    run(["forward", "--image-size", 16, "--seed", 9, "--out", out2, "--checkpoint", ckpt])
    assert out1.read_bytes() == out2.read_bytes()


def test_gradcheck_cli_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["gradcheck", "--variant", "Micro", "--batch", 1, "--out", out])
    assert code == 0
    d = json.loads(out.read_text())
    assert d["passed"] is True
    assert d["max_rel_err"] < d["tol"]
    assert d["offenders"] == []


def test_train_cli_writes_reports(tmp_path):
    out = tmp_path / "run"
    code = run(
        ["train", "--epochs", 1, "--samples-per-class", 4, "--image-size", 16, "--n-classes", 2,
         "--batch-size", 4, "--out", out]
    )
    assert code == 0
    report = json.loads((out / "run_report.json").read_text())
    assert "final_acc" in report and len(report["epochs"]) == 1
    assert (out / "timing.json").exists()
    assert (out / "best.ckpt").exists()


def test_train_cli_rerun_byte_identical(tmp_path):
    args = ["train", "--epochs", 1, "--samples-per-class", 4, "--image-size", 16,
            "--n-classes", 2, "--batch-size", 4, "--seed", 3]
    run(args + ["--out", tmp_path / "r1"])
    run(args + ["--out", tmp_path / "r2"])
    assert (tmp_path / "r1/run_report.json").read_bytes() == (tmp_path / "r2/run_report.json").read_bytes()
    assert (tmp_path / "r1/best.ckpt").read_bytes() == (tmp_path / "r2/best.ckpt").read_bytes()


def test_train_numerical_failure_exits_2(tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(
            ["train", "--epochs", 2, "--samples-per-class", 4, "--image-size", 16, "--n-classes", 2,
             "--batch-size", 4, "--lr", "1e200", "--weight-decay", 0, "--warmup-epochs", 0,
             "--out", tmp_path / "r"]
        )
    assert code == 2


def test_ablate_cli_architecture_csv(tmp_path):
    out = tmp_path / "abl"
    code = run(
        ["ablate", "--arms", "architecture", "--seeds", 1, "--epochs", 1, "--samples-per-class", 4,
         "--image-size", 16, "--n-classes", 2, "--batch-size", 4, "--out", out]
    )
    assert code == 0
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert lines[0] == "arm,seed,final_acc,wall_s"
    assert len(lines) == 4  # header + 3 arms x 1 seed
    summary = json.loads((out / "ablation_summary.json").read_text())
    assert set(summary) == {"full", "vanilla_attention", "single_stage"}


def test_ablate_construction_writes_four_arm_csv(tmp_path):
    out = tmp_path / "abl"
    code = run(
        ["ablate", "--arms", "construction", "--seeds", 1, "--epochs", 1, "--samples-per-class", 3,
         "--image-size", 16, "--n-classes", 2, "--batch-size", 4, "--out", out]
    )
    assert code == 0
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert len(lines) == 5  # header + 4 arms
    assert [ln.split(",")[0] for ln in lines[1:]] == ["cs_knn", "knn", "kmeans", "dpc_knn"]


def test_ablate_deterministic_csv_stable(tmp_path):
    args = ["ablate", "--arms", "architecture", "--seeds", 1, "--epochs", 1, "--samples-per-class", 3,
            "--image-size", 16, "--n-classes", 2, "--batch-size", 4]
    run(args + ["--out", tmp_path / "a"])
    run(args + ["--out", tmp_path / "b"])
    assert (tmp_path / "a/ablation_det.csv").read_bytes() == (tmp_path / "b/ablation_det.csv").read_bytes()
    assert (tmp_path / "a/ablation_summary.json").read_bytes() == (tmp_path / "b/ablation_summary.json").read_bytes()


def test_bench_cli_outputs(tmp_path):
    out = tmp_path / "bench"
    code = run(
        ["bench", "--variant", "Micro", "--image-size", 16, "--batch", 1, "--warmup-iters", 0,
         "--timed-iters", 1, "--out", out]
    )
    assert code == 0
    det = json.loads((out / "bench.json").read_text())
    assert det["flops_per_image"] > 0
    assert det["attention_scaling"]["channels"]["max_residual"] < 0.10
    tim = json.loads((out / "bench_timing.json").read_text())
    assert tim["images_per_s"] > 0


def test_bench_deterministic_output_stable(tmp_path):
    args = ["bench", "--variant", "Micro", "--image-size", 16, "--batch", 1,
            "--warmup-iters", 0, "--timed-iters", 1, "--seed", 4]
    run(args + ["--out", tmp_path / "a"])
    run(args + ["--out", tmp_path / "b"])
    assert (tmp_path / "a/bench.json").read_bytes() == (tmp_path / "b/bench.json").read_bytes()
