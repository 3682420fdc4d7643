"""Cross-version golden: seeded ``hgformer forward`` logits, compared byte for byte.

Every other determinism test compares two runs of one source tree. These
files were written by an earlier tree, so a change that moves any logit by
one rounding step fails here. Regenerate a file only for a change meant to
move the numbers, with the command in its case below and the BLAS thread
variables set to 1.

The golden pins the numpy and OpenBLAS it was made with: numpy 2.4.6 and
OpenBLAS 0.3.31 on x86-64, one BLAS thread. The T@224 logits change with the
BLAS thread count, so the run happens in a child process with one thread.
Another numpy or BLAS build may round differently and fail this test with
no fault in the program.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hgformer

DATA = Path(__file__).parent / "data"
SRC = Path(hgformer.__file__).resolve().parents[1]
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@pytest.mark.parametrize(
    "golden, args",
    [
        ("forward_logits_micro32.json", ["--variant", "Micro"]),
        ("forward_logits_t224.json", ["--variant", "T", "--image-size", "224"]),
    ],
    ids=["micro32", "t224"],
)
def test_forward_logits_match_golden_bytes(tmp_path, golden, args):
    out = tmp_path / golden
    cmd = [sys.executable, "-c", "import sys; from hgformer.cli import main; sys.exit(main(sys.argv[1:]))"]
    env = dict(os.environ, PYTHONPATH=str(SRC), **ONE_THREAD)
    subprocess.run(cmd + ["forward", *args, "--seed", "0", "--out", str(out)], env=env, check=True, capture_output=True)
    assert out.read_bytes() == (DATA / golden).read_bytes()
