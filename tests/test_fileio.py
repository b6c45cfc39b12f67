"""Checkpoint, index and bundle files are replaced whole or not at all."""

import os
import struct

import numpy as np
import pytest

from archtext import checkpoint, cli, fileio, index
from archtext.autodiff import Tensor
from archtext.graph import NodeVocab
from archtext.model import Model, ModelConfig
from archtext.text import TextVocab


def _raise_on_call(n, real):
    """A stand-in for `real` that fails on its n-th call, after earlier
    calls have written part of the file."""
    calls = [0]

    def fake(*args, **kwargs):
        calls[0] += 1
        if calls[0] == n:
            raise OSError("disk full")
        return real(*args, **kwargs)

    return fake


def _save_checkpoint(tmp_path):
    path = tmp_path / "m.abkt"
    rng = np.random.default_rng(0)

    def save(scale):
        checkpoint.save_checkpoint({f"p{i}": Tensor(scale * rng.standard_normal((3, 4)))
                                    for i in range(4)}, str(path))

    return path, save, (checkpoint.struct, "pack", struct.pack)


def _save_index(tmp_path):
    path = tmp_path / "i.abix"

    def save(scale):
        vectors = scale * np.eye(4)
        index.save_index(index.EmbeddingIndex(d=4, ids=["a", "b", "c", "d"], vectors=vectors,
                                              fingerprint=bytes(32)), str(path))

    return path, save, (index.struct, "pack", struct.pack)


def _save_bundle(tmp_path):
    out = tmp_path / "bundle"
    tv, nv = TextVocab(["alpha", "beta"]), NodeVocab(["conv2d", "relu"])
    cfg = ModelConfig(node_vocab_size=len(nv), text_vocab_size=len(tv), d=8, gat_heads=2,
                      cross_heads=2, dec_heads=2, max_nodes=4, max_tokens=6)

    def save(scale):
        log = [{"step": i, "l_total": scale * i} for i in range(5)]
        cli.save_bundle(str(out), Model.initialized(cfg, seed=int(scale)), tv, nv, log)

    # the loss log is the bundle's last file, written one json.dumps per line
    return out / cli.LOG_FILE, save, (cli.json, "dumps", cli.json.dumps)


@pytest.mark.parametrize("writer", [_save_checkpoint, _save_index, _save_bundle])
def test_failed_write_leaves_old_file(tmp_path, monkeypatch, writer):
    path, save, (owner, name, real) = writer(tmp_path)
    save(1.0)
    before = path.read_bytes()
    listing = sorted(os.listdir(path.parent))
    monkeypatch.setattr(owner, name, _raise_on_call(3, real))
    with pytest.raises(OSError, match="disk full"):
        save(2.0)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(os.listdir(path.parent)) == listing   # no temp file left behind
    save(2.0)
    assert path.read_bytes() != before
    assert sorted(os.listdir(path.parent)) == listing


def test_synced_before_rename_with_plain_open_mode(tmp_path, monkeypatch):
    calls = []
    real_fsync, real_replace = fileio.os.fsync, fileio.os.replace
    monkeypatch.setattr(fileio.os, "fsync", lambda fd: (calls.append("fsync"), real_fsync(fd)))
    monkeypatch.setattr(fileio.os, "replace",
                        lambda a, b: (calls.append("replace"), real_replace(a, b)))
    with fileio.atomic_write(str(tmp_path / "new.txt")) as f:
        f.write("x")
    assert calls == ["fsync", "replace"]
    (tmp_path / "plain.txt").write_text("x")
    assert (tmp_path / "new.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode
