import re
import struct

import numpy as np
import pytest

from archtext.autodiff import Tensor
from archtext.checkpoint import (
    CheckpointError,
    checkpoint_fingerprint,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture
def params(rng):
    return {
        "a.w": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
        "a.b": Tensor(rng.standard_normal((1, 4)), requires_grad=True),
        "z.emb": Tensor(rng.standard_normal((5, 2)), requires_grad=True),
    }


def test_round_trip_is_float32_exact(tmp_path, params):
    path = tmp_path / "m.abkt"
    save_checkpoint(params, str(path))
    loaded = load_checkpoint(str(path))
    assert set(loaded) == set(params)
    for name, arr in loaded.items():
        np.testing.assert_array_equal(arr, params[name].data.astype(np.float32).astype(np.float64))


def test_bytes_deterministic(tmp_path, params):
    p1, p2 = tmp_path / "a.abkt", tmp_path / "b.abkt"
    save_checkpoint(params, str(p1))
    save_checkpoint(params, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_and_version(tmp_path, params):
    path = tmp_path / "m.abkt"
    save_checkpoint(params, str(path))
    blob = path.read_bytes()
    assert blob[:4] == b"ABKT"
    assert int.from_bytes(blob[4:8], "little") == 1


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.abkt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(path))


def test_short_header_rejected(tmp_path):
    path = tmp_path / "short.abkt"
    path.write_bytes(b"ABKT\x01")
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(path))


def test_truncated_rejected(tmp_path, params):
    path = tmp_path / "m.abkt"
    save_checkpoint(params, str(path))
    clipped = tmp_path / "c.abkt"
    clipped.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(clipped))


def test_fingerprint_changes_with_content(tmp_path, params, rng):
    p1, p2 = tmp_path / "a.abkt", tmp_path / "b.abkt"
    save_checkpoint(params, str(p1))
    params["a.w"].data = params["a.w"].data + 1.0
    save_checkpoint(params, str(p2))
    f1, f2 = checkpoint_fingerprint(str(p1)), checkpoint_fingerprint(str(p2))
    assert len(f1) == 32
    assert f1 != f2


def _record(name: bytes, dims, values: bytes = b"") -> bytes:
    """One checkpoint record: name, rank, dims, then float32 values."""
    return (struct.pack("<I", len(name)) + name + struct.pack(f"<I{len(dims)}I", len(dims), *dims)
            + values)


@pytest.mark.parametrize("records, expect", [
    (_record(b"a.w", [1], b"\x00" * 4) * 2, "duplicate parameter 'a.w'"),
    # more axes than numpy takes
    (_record(b"a.w", [1] * 65, b"\x00" * 4), "dims [1, 1, 1, 1, 1"),
    # no values, but dims too large for any array
    (_record(b"a.w", [0, 2 ** 32 - 1, 2 ** 32 - 1]), "dims [0, 4294967295, 4294967295] of 'a.w'"),
], ids=["duplicate", "rank-65", "zero-among-huge"])
def test_bad_record_rejected_naming_the_file(tmp_path, records, expect):
    path = tmp_path / "bad.abkt"
    path.write_bytes(b"ABKT" + struct.pack("<I", 1) + records)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: {expect}")):
        load_checkpoint(str(path))


def test_overflowing_dims_rejected_naming_the_file(tmp_path):
    # (2**32-1)**2 elements overflow an int64 product to a negative count
    path = tmp_path / "huge.abkt"
    name = b"a.w"
    path.write_bytes(b"ABKT" + struct.pack("<II", 1, len(name)) + name
                     + struct.pack("<III", 2, 2 ** 32 - 1, 2 ** 32 - 1) + b"\x00" * 64)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: truncated values of 'a.w'")):
        load_checkpoint(str(path))
