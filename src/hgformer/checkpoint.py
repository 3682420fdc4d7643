"""Binary container for named float32 tensors.

Layout (all little-endian): magic ``HGFW``, u32 version, u32 entry count,
then per entry: u16 name length, UTF-8 name, u8 rank, u64 dims, raw f32
payload. Round-trips are bit-exact for float32 data. The same container is
reused for single-tensor CLI inputs (one entry named ``input``).
"""

from __future__ import annotations

import math
import os
import struct
from collections import OrderedDict
from typing import Mapping

import numpy as np

from .tensor import ConfigError

MAGIC = b"HGFW"
VERSION = 1


def save_tensors(path, named: Mapping[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(named)))
        for name, arr in named.items():
            a = np.asarray(arr, dtype="<f4")  # ascontiguousarray would promote rank 0
            if a.ndim and not a.flags.c_contiguous:
                a = np.ascontiguousarray(a)
            nb = name.encode("utf-8")
            if len(nb) > 0xFFFF:
                raise ConfigError(f"tensor name too long: {name!r}")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", a.ndim))
            if a.ndim:
                f.write(struct.pack(f"<{a.ndim}Q", *a.shape))
            f.write(a.tobytes())


def load_tensors(path) -> "OrderedDict[str, np.ndarray]":
    """Read a container; any malformed content raises :class:`ConfigError`.

    Every declared size is checked against the bytes left in the file before
    it is read, and bytes after the last entry are rejected.
    """
    out: OrderedDict[str, np.ndarray] = OrderedDict()
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n: int) -> bytes:
            buf = f.read(n) if n <= size - f.tell() else b""
            if len(buf) != n:
                raise ConfigError(f"{path}: truncated tensor container")
            return buf

        if read(4) != MAGIC:
            raise ConfigError(f"{path}: not a tensor container (bad magic)")
        version, count = struct.unpack("<II", read(8))
        if version != VERSION:
            raise ConfigError(f"{path}: unsupported container version {version}")
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read(2))
            try:
                name = read(nlen).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: tensor name is not valid UTF-8") from exc
            (rank,) = struct.unpack("<B", read(1))
            dims = struct.unpack(f"<{rank}Q", read(8 * rank))
            payload = read(4 * math.prod(dims))
            try:
                out[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
            except ValueError as exc:
                raise ConfigError(f"{path}: entry {name!r} has unsupported shape {dims}") from exc
        trailing = size - f.tell()
        if trailing:
            raise ConfigError(f"{path}: {trailing} trailing bytes after the last entry")
    return out
