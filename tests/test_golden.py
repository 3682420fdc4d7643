"""Cross-version goldens: seeded ``hgformer forward`` logits and the SHA-256 of
every parameter gradient after one or two seeded training sample passes,
compared byte for byte.

Every other determinism test compares two runs of one source tree. These
files were written by an earlier tree, so a change that moves any logit or
any gradient by one rounding step fails here. Regenerate the files only for a
change meant to move the numbers, with

    PYTHONPATH=src python tests/test_golden.py

which rewrites all five from the same child-process commands, with the same
one-thread environment, that the tests compare.

The golden pins the numpy and OpenBLAS it was made with: numpy 2.4.6 and
OpenBLAS 0.3.31 on x86-64, one BLAS thread. The T@224 logits change with the
BLAS thread count, so each run happens in a child process with one thread.
Another numpy or BLAS build may round differently and fail this test with
no fault in the program.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import hgformer

DATA = Path(__file__).parent / "data"
SRC = Path(hgformer.__file__).resolve().parents[1]
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


FORWARD_CASES = {
    "micro32": ("forward_logits_micro32.json", ["--variant", "Micro"]),
    "t224": ("forward_logits_t224.json", ["--variant", "T", "--image-size", "224"]),
}
CLI = "import sys; from hgformer.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_one_thread(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``python argv...`` on this source tree in a child with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **ONE_THREAD)
    return subprocess.run([sys.executable, *argv], env=env, check=True, capture_output=True)


def forward_logits_bytes(args: list[str], tmp_dir: Path) -> bytes:
    out = Path(tmp_dir) / "logits.json"
    _run_one_thread(["-c", CLI, "forward", *args, "--seed", "0", "--out", str(out)])
    return out.read_bytes()


@pytest.mark.parametrize("golden, args", FORWARD_CASES.values(), ids=FORWARD_CASES.keys())
def test_forward_logits_match_golden_bytes(tmp_path, golden, args):
    assert forward_logits_bytes(args, tmp_path) == (DATA / golden).read_bytes()


# prints {parameter name: SHA-256 of its gradient, or null for a parameter the
# passes do not reach} as one JSON document; a golden is this script's stdout
# for its case's arguments (variant, image size, drop-path rate, passes). Pass
# i draws its image from one seeded generator and uses label 3 + i, so a
# second pass adds a second sample's gradients into the first one's
GRAD_HASHES = """
import hashlib, json, sys
import numpy as np
from hgformer.model import HGFormer, scaled_k_schedule, variant
from hgformer.training import _sample_pass
name, size, rate, passes = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
model = HGFormer(variant(name, n_classes=10, drop_path_rate=rate, k_schedule=scaled_k_schedule(size)), seed=0)
rng = np.random.default_rng(0)
for i in range(passes):
    image = rng.uniform(0.0, 1.0, (3, size, size)).astype(np.float32)
    _sample_pass(model, image, 3 + i, False, (0, i))
grads = {n: p.grad if p.grad is None else hashlib.sha256(p.grad.tobytes()).hexdigest()
         for n, p in model.named_parameters().items()}
print(json.dumps(grads, indent=1))
"""


GRAD_CASES = {
    "micro32": ("grad_sha256_micro32.json", ["Micro", "32", "0.0", "1"]),
    "t64-droppath0.3": ("grad_sha256_t64_droppath03.json", ["T", "64", "0.3", "1"]),
    "t64-droppath0.3-two-passes": ("grad_sha256_t64_droppath03_two_passes.json", ["T", "64", "0.3", "2"]),
}


def grad_hashes_bytes(args: list[str]) -> bytes:
    return _run_one_thread(["-c", GRAD_HASHES, *args]).stdout


@pytest.mark.parametrize("golden, args", GRAD_CASES.values(), ids=GRAD_CASES.keys())
def test_sample_pass_gradients_match_golden_bytes(golden, args):
    assert grad_hashes_bytes(args) == (DATA / golden).read_bytes()


def regenerate() -> None:
    """Rewrite every golden file from the current tree."""
    with tempfile.TemporaryDirectory() as tmp:
        for golden, args in FORWARD_CASES.values():
            (DATA / golden).write_bytes(forward_logits_bytes(args, Path(tmp)))
            print(f"wrote {DATA / golden}")
    for golden, args in GRAD_CASES.values():
        (DATA / golden).write_bytes(grad_hashes_bytes(args))
        print(f"wrote {DATA / golden}")


if __name__ == "__main__":
    regenerate()
