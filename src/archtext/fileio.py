"""File I/O shared by every format.

Atomic file writes: the bytes go to a temp file beside the target, are
flushed to disk, and then replace the target in one rename, so a reader sees
the old file or the whole new one, never a torn one. Binary formats are read
back through one bounds-checked record reader."""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager

import numpy as np


@contextmanager
def atomic_write(path: str, binary: bool = False):
    """Open a temp file in `path`'s directory for writing. On a clean exit it
    is synced and replaces `path`; on an error it is removed and `path` is
    left as it was."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    # O_EXCL: a name already in use is an error, never a file two writers
    # share; the mode is the one a plain open() gives, umask applied
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") if binary else open(fd, "w", encoding="utf-8") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class RecordReader:
    """A binary file read field by field: little-endian values in turn, each
    checked against the bytes left, with sizes counted in Python ints. A
    corrupt length or count raises `error` naming the file and the field,
    never a raw `struct.error` or an overflowed numpy count."""

    def __init__(self, path: str, magic: bytes, version: int, header_bytes: int,
                 error: type[Exception]):
        """Read the file whole and check its magic, its header of
        `header_bytes` and then its u32 format version."""
        with open(path, "rb") as f:
            self.blob = f.read()
        self.path, self.error, self.offset = path, error, len(magic)
        if self.blob[:len(magic)] != magic:
            raise self.fail(f"bad magic {self.blob[:len(magic)]!r}, expected {magic!r}")
        if len(self.blob) < header_bytes:
            raise self.fail(f"truncated header of {len(self.blob)} bytes")
        found = self.u32("version")
        if found != version:
            raise self.fail(f"unsupported format version {found}")

    def fail(self, message: str) -> Exception:
        return self.error(f"{self.path}: {message}")

    def _take(self, size: int, what: str) -> int:
        start, left = self.offset, len(self.blob) - self.offset
        if size > left:
            raise self.fail(f"truncated {what}: {size} bytes needed at offset {start}, "
                            f"{left} left")
        self.offset += size
        return start

    def raw(self, size: int, what: str) -> bytes:
        start = self._take(size, what)
        return self.blob[start:self.offset]

    def text(self, size: int, what: str) -> str:
        try:
            return self.raw(size, what).decode("utf-8")
        except UnicodeDecodeError as e:
            raise self.fail(f"{what} is not UTF-8: {e}") from None

    def u32(self, what: str) -> int:
        start = self._take(4, what)
        return int.from_bytes(self.blob[start:self.offset], "little")

    def block(self, dtype: str, count: int, what: str) -> np.ndarray:
        """`count` values of a little-endian numpy dtype such as "<u4" or
        "<f4", as a read-only view of the bytes."""
        size = np.dtype(dtype).itemsize
        return np.frombuffer(self.blob, dtype=dtype, count=count,
                             offset=self._take(size * count, what))

    def at_end(self) -> bool:
        return self.offset == len(self.blob)

    def end(self, what: str) -> None:
        """Refuse bytes left after the last field."""
        if not self.at_end():
            raise self.fail(f"{len(self.blob) - self.offset} trailing bytes after {what}")
