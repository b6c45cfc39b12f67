"""Binary checkpoint format for named parameter tensors.

Layout: magic "ABKT", format version u32, then one record per tensor:
[name-length u32][UTF-8 name][rank u32][dims u32 ...][row-major float32 LE].
Records are written in sorted name order so identical parameters always
produce identical bytes. Training precision is float64; files carry the
float32 export.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .autodiff import Tensor
from .fileio import RecordReader, atomic_write

MAGIC = b"ABKT"
VERSION = 1
_HEADER_BYTES = 8   # magic, version


class CheckpointError(ValueError):
    """Raised on malformed or incompatible checkpoint files."""


def save_checkpoint(params: dict[str, Tensor], path: str) -> None:
    with atomic_write(path, binary=True) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        for name in sorted(params):
            data = params[name].data.astype("<f4")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                f.write(struct.pack("<I", dim))
            f.write(data.tobytes(order="C"))


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a checkpoint into float64 arrays keyed by parameter path."""
    reader = RecordReader(path, MAGIC, VERSION, _HEADER_BYTES, CheckpointError)
    out: dict[str, np.ndarray] = {}
    while not reader.at_end():
        name = reader.text(reader.u32("name length"), "parameter name")
        dims = reader.block("<u4", reader.u32(f"rank of {name!r}"), f"dims of {name!r}").tolist()
        values = reader.block("<f4", math.prod(dims), f"values of {name!r}")
        if name in out:
            raise reader.fail(f"duplicate parameter {name!r}")
        try:
            out[name] = values.reshape(dims).astype(np.float64)
        except ValueError as e:   # more axes than numpy takes, or a 0 among huge dims
            raise reader.fail(f"dims {dims} of {name!r}: {e}") from None
    return out


def checkpoint_fingerprint(path: str) -> bytes:
    """SHA-256 of the raw checkpoint bytes (32 bytes)."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            digest.update(chunk)
    return digest.digest()
