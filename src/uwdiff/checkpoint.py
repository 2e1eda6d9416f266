"""Binary checkpoint files: magic, version, config echo, named float64 tensors.

Layout (little-endian throughout):
  magic  6 bytes  b"UWCKPT"
  version  uint16
  config echo  uint32 length + UTF-8 bytes
  tensor count  uint32
  per tensor: name (uint16 length + UTF-8), rank (uint32),
              dims (uint64 * rank), row-major float64 data
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import TruncatedFileError, UnsupportedFormatError
from .imageio import write_atomic

MAGIC = b"UWCKPT"
VERSION = 1


def write_checkpoint(path, tensors: dict[str, np.ndarray], config_echo: str = "") -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<H", VERSION)
    echo = config_echo.encode("utf-8")
    blob += struct.pack("<I", len(echo)) + echo
    blob += struct.pack("<I", len(tensors))
    for name, array in tensors.items():
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim:  # ascontiguousarray would promote rank-0 to rank-1
            arr = np.ascontiguousarray(arr)
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
        blob += arr.astype("<f8").tobytes()
    write_atomic(path, bytes(blob))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path
        self.part = "header"  # what is being read, for the truncation message

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.blob):
            raise TruncatedFileError(f"checkpoint {self.path!r} ends inside its {self.part}")
        out = self.blob[self.pos : self.pos + count]
        self.pos += count
        return out

    def text(self, count: int) -> str:
        try:
            return self.take(count).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UnsupportedFormatError(f"checkpoint {self.path!r} has non-UTF-8 text in its {self.part}") from exc

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), os.fspath(path))
    if reader.take(len(MAGIC)) != MAGIC:
        raise UnsupportedFormatError(f"{reader.path!r} is not a toolkit checkpoint (bad magic)")
    (version,) = reader.unpack("<H")
    if version != VERSION:
        raise UnsupportedFormatError(f"checkpoint {reader.path!r} has unsupported version {version}")
    reader.part = "config echo"
    (echo_len,) = reader.unpack("<I")
    echo = reader.text(echo_len)
    (count,) = reader.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        reader.part = "tensor table"
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len)
        reader.part = f"tensor {name!r}"
        (rank,) = reader.unpack("<I")
        dims = reader.unpack(f"<{rank}Q") if rank else ()
        size = math.prod(dims)  # exact, so huge declared dims cannot wrap to a small size
        data = np.frombuffer(reader.take(size * 8), dtype="<f8").reshape(dims)
        tensors[name] = data.copy()
    return tensors, echo
