import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from hgformer.checkpoint import MAGIC, load_tensors, save_tensors
from hgformer.tensor import ConfigError


def test_roundtrip_bit_exact(tmp_path, rng):
    path = tmp_path / "t.ckpt"
    named = {
        "a.weight": rng.standard_normal((3, 4)).astype(np.float32),
        "b.bias": np.array([0.0, -0.0, 1e-40, np.float32(1.1754944e-38)], dtype=np.float32),
        "scalarish": np.float32(3.25).reshape(()),
        "deep.kernel": rng.standard_normal((2, 3, 3)).astype(np.float32),
    }
    save_tensors(path, named)
    loaded = load_tensors(path)
    assert list(loaded) == list(named)
    for k in named:
        assert np.asarray(named[k]).tobytes() == loaded[k].tobytes(), k
        assert np.asarray(named[k]).shape == loaded[k].shape


def test_resave_is_byte_identical(tmp_path, rng):
    named = {"w": rng.standard_normal((5, 2)).astype(np.float32)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_tensors(p1, named)
    save_tensors(p2, load_tensors(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "t.ckpt"
    save_tensors(path, {"x": np.zeros((2, 2), dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    version, count = struct.unpack("<II", raw[4:12])
    assert version == 1 and count == 1
    (nlen,) = struct.unpack("<H", raw[12:14])
    assert raw[14 : 14 + nlen] == b"x"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigError, match="magic"):
        load_tensors(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", 9, 0))
    with pytest.raises(ConfigError, match="version"):
        load_tensors(path)


def test_truncation_rejected(tmp_path, rng):
    path = tmp_path / "t.ckpt"
    save_tensors(path, {"w": rng.standard_normal((4, 4)).astype(np.float32)})
    (tmp_path / "cut.ckpt").write_bytes(path.read_bytes()[:-7])
    with pytest.raises(ConfigError, match="truncated"):
        load_tensors(tmp_path / "cut.ckpt")


def test_float64_input_stored_as_f32(tmp_path):
    path = tmp_path / "t.ckpt"
    save_tensors(path, {"w": np.array([1.0, 2.0], dtype=np.float64)})
    loaded = load_tensors(path)
    assert loaded["w"].dtype == np.float32
    npt.assert_array_equal(loaded["w"], [1.0, 2.0])


def _entry(name: bytes, dims: tuple, payload: bytes = b"") -> bytes:
    return struct.pack("<H", len(name)) + name + struct.pack(f"<B{len(dims)}Q", len(dims), *dims) + payload


@pytest.mark.parametrize(
    "body",
    [
        _entry(b"w", (2**40,)),  # payload far beyond the file
        _entry(b"w", (2**63, 4)),  # item count beyond int64
        _entry(b"w", (2**62, 4)),  # byte count wraps a 64-bit product
        _entry(b"w", (0, 2**63)),  # empty payload, shape numpy cannot hold
        _entry(b"\xff\xfe", (1,), b"\x00" * 4),  # name is not UTF-8
        _entry(b"w", (1,), b"\x00" * 4) + b"\x00",  # trailing byte
    ],
    ids=["huge-payload", "count-overflow", "byte-overflow", "zero-size-huge-dim", "bad-utf8", "trailing"],
)
def test_malformed_container_is_a_config_error(tmp_path, body):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", 1, 1) + body)
    with pytest.raises(ConfigError, match="bad.ckpt"):
        load_tensors(path)


def _load_or_config_error(path):
    try:
        load_tensors(path)
    except ConfigError:
        pass


@given(st.binary(max_size=64))
def test_any_bytes_load_or_raise_config_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "x.ckpt"
    path.write_bytes(raw)
    _load_or_config_error(path)


@given(st.data())
def test_mutated_container_loads_or_raises_config_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("mut") / "x.ckpt"
    save_tensors(path, {"a.w": np.arange(6, dtype=np.float32).reshape(2, 3), "s": np.float32(2.0).reshape(())})
    raw = bytearray(path.read_bytes())
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["flip", "cut", "insert"]))
        i = data.draw(st.integers(0, len(raw)))
        if op == "flip" and i < len(raw):
            raw[i] = data.draw(st.integers(0, 255))
        elif op == "cut":
            del raw[i : i + data.draw(st.integers(1, 8))]
        else:
            raw[i:i] = data.draw(st.binary(min_size=1, max_size=8))
    path.write_bytes(bytes(raw))
    _load_or_config_error(path)
