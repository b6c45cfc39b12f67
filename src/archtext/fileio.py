"""Atomic file writes: the bytes go to a temp file beside the target, are
flushed to disk, and then replace the target in one rename, so a reader sees
the old file or the whole new one, never a torn one."""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager


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
