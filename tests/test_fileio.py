"""Checkpoint, index, bundle, dataset and CLI output files are replaced
whole or not at all, and a damaged checkpoint, index, dataset record or
bundle config is refused by name."""

import copy
import dataclasses
import json
import os
import struct
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archtext import checkpoint, cli, datagen, fileio, index
from archtext.autodiff import Tensor
from archtext.datagen import GenConfig
from archtext.graph import ArchGraph, NodeVocab, graph_to_obj
from archtext.model import Model, ModelConfig
from archtext.text import TextVocab, build_vocab


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

    return path, save, (checkpoint.struct, "pack", _raise_on_call(3, struct.pack))


def _save_index(tmp_path):
    path = tmp_path / "i.abix"

    def save(scale):
        vectors = scale * np.eye(4)
        index.save_index(index.EmbeddingIndex(d=4, ids=["a", "b", "c", "d"], vectors=vectors,
                                              fingerprint=bytes(32)), str(path))

    return path, save, (index.struct, "pack", _raise_on_call(3, struct.pack))


def _save_bundle(tmp_path):
    out = tmp_path / "bundle"
    tv, nv = TextVocab(["alpha", "beta"]), NodeVocab(["conv2d", "relu"])
    cfg = ModelConfig(node_vocab_size=len(nv), text_vocab_size=len(tv), d=8, gat_heads=2,
                      cross_heads=2, dec_heads=2, max_nodes=4, max_tokens=6)

    def save(scale):
        log = [{"step": i, "l_total": scale * i} for i in range(5)]
        cli.save_bundle(str(out), Model.initialized(cfg, seed=int(scale)), tv, nv, log)

    # the loss log is the bundle's last file, written one json.dumps per line
    return out / cli.LOG_FILE, save, (cli.json, "dumps", _raise_on_call(3, json.dumps))


_GEN = GenConfig(ops=("conv2d", "relu", "linear"), min_nodes=3, max_nodes=4)


def _dataset(path, scale):
    """A bi-modal JSONL file of one more architecture for each step of scale."""
    samples = datagen.gen_autonet(dataclasses.replace(_GEN, rng_seed=int(scale)),
                                  1 + int(scale), "train")
    datagen.write_jsonl(samples, _GEN.node_vocab(), str(path))
    return samples


def _write_jsonl(tmp_path):
    path = tmp_path / "d.jsonl"

    def save(scale):
        _dataset(path, scale)

    # one json.dumps per record
    return path, save, (datagen.json, "dumps", _raise_on_call(3, json.dumps))


def _cli_writer(tmp_path, out_name, argv_of):
    """A subcommand writing its --out file; `argv_of(tmp_path, scale)` gives
    the rest of its arguments. Its text is whole before the write, so the
    failure comes at the sync that follows."""
    path = tmp_path / out_name
    inputs = {scale: argv_of(tmp_path, scale) for scale in (1.0, 2.0)}

    def save(scale):
        args = cli.build_parser().parse_args([*inputs[scale], "--out", str(path)])
        args.func(args)

    return path, save, (fileio.os, "fsync", _raise_on_call(1, os.fsync))


def _data_file(tmp_path, scale):
    data = tmp_path / f"d{scale:g}.jsonl"
    return str(data), _dataset(data, scale)


def _stats_args(tmp_path, scale):
    return ["stats", _data_file(tmp_path, scale)[0]]


def _eval_args(tmp_path, scale):
    return ["eval", "--task", "ar", "--baseline", "--dataset", _data_file(tmp_path, scale)[0]]


def _viz_dot_args(tmp_path, scale):
    graph = tmp_path / f"g{scale:g}.json"
    graph.write_text(json.dumps(graph_to_obj(_dataset(tmp_path / "g.jsonl", scale)[0].graph,
                                             _GEN.node_vocab())))
    return ["viz", "dot", "--graph", str(graph)]


def _viz_pca_args(tmp_path, scale):
    data, samples = _data_file(tmp_path, scale)
    tv, nv = build_vocab([s.text for s in samples], 64), _GEN.node_vocab()
    cfg = ModelConfig(node_vocab_size=len(nv), text_vocab_size=len(tv), d=8, gat_heads=2,
                      cross_heads=2, dec_heads=2, max_nodes=4, max_tokens=16)
    bundle = tmp_path / f"bundle{scale:g}"
    cli.save_bundle(str(bundle), Model.initialized(cfg, seed=int(scale)), tv, nv, [])
    return ["viz", "pca", "--checkpoint", str(bundle), "--dataset", data]


def _eval_out(tmp_path):
    return _cli_writer(tmp_path, "m.json", _eval_args)


def _stats_out(tmp_path):
    return _cli_writer(tmp_path, "s.json", _stats_args)


def _viz_dot_out(tmp_path):
    return _cli_writer(tmp_path, "g.dot", _viz_dot_args)


def _viz_pca_out(tmp_path):
    return _cli_writer(tmp_path, "p.csv", _viz_pca_args)


@pytest.mark.parametrize("writer", [_save_checkpoint, _save_index, _save_bundle, _write_jsonl,
                                    _eval_out, _stats_out, _viz_dot_out, _viz_pca_out])
def test_failed_write_leaves_old_file(tmp_path, monkeypatch, writer):
    path, save, (owner, name, fake) = writer(tmp_path)
    save(1.0)
    before = path.read_bytes()
    listing = sorted(os.listdir(path.parent))
    monkeypatch.setattr(owner, name, fake)
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


# ---------------------------------------------------------------------------
# binary files read back: any damage is refused with an error naming the file


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A small valid checkpoint and index, each as (bytes, loader, error, path
    to write a damaged copy to)."""
    root = tmp_path_factory.mktemp("stored")
    rng = np.random.default_rng(3)
    ckpt, idx = root / "m.abkt", root / "i.abix"
    checkpoint.save_checkpoint({"a.w": Tensor(rng.standard_normal((2, 3))),
                                "b": Tensor(rng.standard_normal((1, 2)))}, str(ckpt))
    vectors = rng.standard_normal((2, 3))
    index.save_index(index.EmbeddingIndex(d=3, ids=["x", "yy"], vectors=vectors,
                                          fingerprint=bytes(range(32))), str(idx))
    return {"abkt": (ckpt.read_bytes(), checkpoint.load_checkpoint,
                     checkpoint.CheckpointError, root / "damaged.abkt"),
            "abix": (idx.read_bytes(), index.load_index, index.IndexError_,
                     root / "damaged.abix")}


@pytest.mark.parametrize("kind", ["abkt", "abix"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_file_loads_or_is_refused_by_name(stored, kind, data):
    blob, load, error, path = stored[kind]
    cut = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
    changed = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)).map(
        lambda c: blob[:c[0]] + bytes([(blob[c[0]] + c[1]) % 256]) + blob[c[0] + 1:])
    path.write_bytes(data.draw(st.one_of(cut, changed)))
    try:
        load(str(path))
    except error as e:   # anything else, struct.error or a bare ValueError, fails
        assert str(e).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# text files read back: a dataset record or a bundle's config.json with one
# field replaced or dropped, or cut short, loads well typed or is refused by name

_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


def _like(value):
    """Values of the JSON type of `value`, near the ranges a loader checks."""
    if type(value) is int:
        return st.integers(-3, 2 * value + 3)
    if type(value) is float:
        # 2**1024 is an integer past the float range
        return st.floats() | st.integers(-3, 3) | st.just(2 ** 1024)
    if type(value) is list:
        return st.lists(st.integers(-3, 60) | st.lists(st.integers(-3, 9), max_size=5),
                        max_size=4)
    return _ANY_JSON


# the declared type and range of every sample field
_FIELD_OK = {
    "graph": lambda v: type(v) is ArchGraph,
    "g1": lambda v: type(v) is ArchGraph,
    "g2": lambda v: type(v) is ArchGraph,
    "text": lambda v: type(v) is str,
    "question": lambda v: type(v) is str,
    "y": lambda v: type(v) is float and 0.0 <= v <= 1.0,
    "label": lambda v: type(v) is int and v in (0, 1),
    "answers": lambda v: (type(v) is frozenset and len(v) > 0
                          and all(type(a) is int and 0 <= a < 51 for a in v)),
}


def _damaged(data, doc: dict, dumps) -> str:
    """The text of `doc` with one field, or one field of a nested object,
    replaced by another JSON value or dropped; or `doc` replaced whole; or
    its text cut short."""
    how = data.draw(st.sampled_from(["replace", "drop", "cut", "whole"]))
    if how == "whole":
        return dumps(data.draw(_ANY_JSON))
    if how == "cut":
        text = dumps(doc)
        return text[:data.draw(st.integers(0, len(text) - 1))]
    doc = copy.deepcopy(doc)
    paths = [(doc, k) for k in doc] + [(v, k) for v in doc.values() if type(v) is dict
                                       for k in v]
    owner, key = data.draw(st.sampled_from(paths))
    if how == "drop":
        del owner[key]
    else:
        owner[key] = data.draw(_like(owner[key]) | _ANY_JSON)
    return dumps(doc)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """The first generated record of each dataset type, with its loader."""
    root = tmp_path_factory.mktemp("records")
    rng = np.random.default_rng(0)
    g = datagen.gen_architecture(_GEN, rng)
    datasets = {
        "bimodal": (datagen.gen_autonet(_GEN, 1, "train"), datagen.load_bimodal),
        "aqa": (datagen.gen_qa(g, _GEN, rng), datagen.load_aqa),
        "acd": (datagen.gen_acd_dataset(_GEN), datagen.load_acd),
        "bacd": (datagen.gen_bacd_dataset(_GEN), datagen.load_bacd),
        "ac": (datagen.captions(datagen.gen_autonet(_GEN, 1, "train")), datagen.load_ac),
    }
    out = {}
    for kind, (samples, load) in datasets.items():
        path = root / f"{kind}.jsonl"
        datagen.write_jsonl(samples[:1], _GEN.node_vocab(), str(path))
        out[kind] = (json.loads(path.read_text()), load, root / f"damaged-{kind}.jsonl")
    return out


@pytest.mark.parametrize("kind", ["bimodal", "aqa", "acd", "bacd", "ac"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_damaged_record_loads_or_is_refused_by_name(records, kind, data):
    record, load, path = records[kind]
    path.write_text(_damaged(data, record, json.dumps) + "\n", encoding="utf-8")
    try:
        samples = load(str(path), _GEN.node_vocab())
    except ValueError as e:   # anything else, a TypeError or an OverflowError, fails
        assert str(e).startswith(f"{path}:1: ")
    else:
        for s in samples:
            assert all(_FIELD_OK[f.name](getattr(s, f.name)) for f in dataclasses.fields(s))


@pytest.fixture(scope="module")
def bundle_config(tmp_path_factory):
    """A saved bundle's config.json, and a path to write a damaged copy to."""
    root = tmp_path_factory.mktemp("config")
    cli.save_bundle(str(root), Model.initialized(ModelConfig(node_vocab_size=5, text_vocab_size=7,
                                                             d=8, gat_heads=2, cross_heads=2,
                                                             dec_heads=2), seed=0),
                    TextVocab(["a", "b"]), NodeVocab(["conv2d", "relu"]), [])
    return json.loads((root / cli.CONFIG_FILE).read_text()), root / "damaged.json"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_bundle_config_loads_or_is_refused_by_name(bundle_config, data):
    config, path = bundle_config
    path.write_text(_damaged(data, config, lambda d: json.dumps(d, indent=2, sort_keys=True)),
                    encoding="utf-8")
    try:
        cfg = cli._load_model_config(str(path))
    except ValueError as e:
        assert str(e).startswith(f"{path}: ")
    else:
        hints = typing.get_type_hints(ModelConfig)
        for key, value in cfg.to_dict().items():
            assert type(value) in ((int, float) if hints[key] is float else (hints[key],))
            if hints[key] is int:
                assert value >= 0
        assert cfg.d >= 1 and cfg.max_tokens >= 3 and 0 < cfg.eps_cos < float("inf") and 0 < cfg.tau < 1
