"""Binary checkpoint format for named parameter tensors.

Layout: magic "ABKT", format version u32, then one record per tensor:
[name-length u32][UTF-8 name][rank u32][dims u32 ...][row-major float32 LE].
Records are written in sorted name order so identical parameters always
produce identical bytes. Training precision is float64; files carry the
float32 export.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .autodiff import Tensor
from .fileio import atomic_write

MAGIC = b"ABKT"
VERSION = 1


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
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < 8:
        raise CheckpointError(f"{path}: truncated header of {len(blob)} bytes")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    out: dict[str, np.ndarray] = {}
    offset = 8
    while offset < len(blob):
        try:
            (name_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}I", blob, offset)
            offset += 4 * rank
            count = int(np.prod(dims)) if rank else 1
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
            offset += 4 * count
        except (struct.error, ValueError) as e:
            raise CheckpointError(f"{path}: truncated or corrupt record: {e}") from e
        if name in out:
            raise CheckpointError(f"{path}: duplicate parameter {name!r}")
        out[name] = arr.reshape(dims).astype(np.float64)
    return out


def checkpoint_fingerprint(path: str) -> bytes:
    """SHA-256 of the raw checkpoint bytes (32 bytes)."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            digest.update(chunk)
    return digest.digest()
