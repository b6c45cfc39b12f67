import json
import struct
import tracemalloc

import numpy as np
import pytest

import archtext.model as model_mod
from archtext import datagen, evaluate, training
from archtext.checkpoint import load_checkpoint
from archtext.cli import load_bundle, load_config_file, run, save_bundle
from archtext.datagen import BACDSample, GenConfig
from archtext.graph import parse_graph
from archtext.index import load_index
from archtext.model import Model, ModelConfig
from archtext.text import TextVocab

TINY_CONFIG = """\
[gen]
rng_seed = 0
ops = conv2d,relu,maxpool2d,linear,gelu,avgpool2d,batchnorm2d
min_nodes = 3
max_nodes = 5
n_train_archs = 3
n_val_archs = 2
tvhf_families = 3
tvhf_variants = 2

[model]
d = 16
gat_layers = 1
gat_heads = 2
cross_layers = 1
cross_heads = 2
dec_heads = 2
max_nodes = 8
max_tokens = 16
shape_buckets = 8

[train]
lr = 0.005
batch_size = 8
epochs = 2
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG)
    return str(path)


@pytest.fixture
def finetune_cfg(tmp_path):
    """The tiny config's [train] section alone: a run from a bundle refuses
    [gen] and [model], since the bundle brings its own node vocabulary and
    model config."""
    path = tmp_path / "finetune.ini"
    path.write_text(TINY_CONFIG[TINY_CONFIG.index("[train]"):])
    return str(path)


@pytest.mark.parametrize("raw, value", [("1", True), ("True", True), ("yes", True), ("on", True),
                                        ("0", False), ("false", False), ("no", False),
                                        ("off", False)])
def test_config_boolean_spellings(tmp_path, raw, value):
    path = tmp_path / "b.ini"
    path.write_text(f"[model]\nno_shape = {raw}\n")
    assert load_config_file(str(path))["model"] == {"no_shape": value}


def _gen(tmp_path, cfg_file, task, name, extra=()):
    out = tmp_path / name
    code = run(["gen", "--task", task, "--config", cfg_file, "--seed", "7",
                "--out", str(out), *extra])
    assert code == 0, f"gen {task} failed"
    return out


class TestGen:
    def test_all_tasks_produce_files(self, tmp_path, cfg_file):
        for task in ("autonet", "aqa", "acd", "tvhf", "bacd"):
            out = _gen(tmp_path, cfg_file, task, f"{task}.jsonl")
            assert out.exists() and out.stat().st_size > 0

    def test_byte_identical_reruns(self, tmp_path, cfg_file):
        a = _gen(tmp_path, cfg_file, "autonet", "a.jsonl")
        b = _gen(tmp_path, cfg_file, "autonet", "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_val_split_differs(self, tmp_path, cfg_file):
        a = _gen(tmp_path, cfg_file, "autonet", "a.jsonl")
        b = _gen(tmp_path, cfg_file, "autonet", "v.jsonl", extra=("--split", "val"))
        assert a.read_bytes() != b.read_bytes()

    def test_tvhf_mine_alias(self, tmp_path, cfg_file):
        a = _gen(tmp_path, cfg_file, "tvhf", "t1.jsonl")
        b = _gen(tmp_path, cfg_file, "tvhf-mine", "t2.jsonl")
        assert a.read_bytes() == b.read_bytes()


class TestStats:
    def test_stats_reports_counts(self, tmp_path, cfg_file, capsys):
        data = _gen(tmp_path, cfg_file, "autonet", "d.jsonl")
        capsys.readouterr()
        assert run(["stats", str(data)]) == 0
        stats = json.loads(capsys.readouterr().out)
        # recompute the headline numbers independently from the file
        records = [json.loads(line) for line in data.read_text().splitlines()]
        names = {n for r in records for n in r["graph"]["nodes"]}
        assert stats["samples"] == len(records)
        assert stats["unique_nodes"] == len(names)
        assert stats["unique_nodes"] <= 7  # configured catalog coverage

    def test_missing_file_is_data_error(self):
        assert run(["stats", "/nonexistent/nope.jsonl"]) == 2

    @pytest.mark.parametrize("line, expect", [
        ('{"graph": 5, "text": "t", "y": 1.0}', "field 'graph': top-level value must be an object"),
        ("5", "record must be a JSON object, got 5"),
        ('{"graph": {"nodes": 5, "edges": [], "shapes": []}, "text": "t", "y": 1.0}',
         "field 'graph': field 'nodes' must be a list"),
        (b"\xff", "not UTF-8 text: invalid start byte"),
    ], ids=["graph-int", "line-int", "nodes-int", "line-not-utf8"])
    def test_invalid_record_is_data_error(self, tmp_path, cfg_file, capsys, line, expect):
        data = _gen(tmp_path, cfg_file, "autonet", "d.jsonl")
        lines = data.read_bytes().splitlines()
        lines[1] = line if isinstance(line, bytes) else line.encode()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        capsys.readouterr()
        assert run(["stats", str(bad)]) == 2
        assert f"{bad}:2: {expect}" in capsys.readouterr().err


def _fresh_bundle(tmp_path, cfg_file) -> str:
    """An untrained bundle over the config's ops, for commands that need one
    but fail before they run it."""
    out = tmp_path / "fresh"
    nv = GenConfig(**load_config_file(cfg_file)["gen"]).node_vocab()
    tv = TextVocab(["tiny", "words"])
    cfg = ModelConfig(node_vocab_size=len(nv), text_vocab_size=len(tv), d=8, gat_heads=2,
                      cross_heads=2, dec_heads=2, max_tokens=16)
    save_bundle(str(out), Model.initialized(cfg, seed=0), tv, nv, [])
    return str(out)


@pytest.fixture
def pretrained(tmp_path, cfg_file):
    data = _gen(tmp_path, cfg_file, "autonet", "train.jsonl")
    out = tmp_path / "ckpt"
    code = run(["train", "--task", "pretrain", "--config", cfg_file,
                "--dataset", str(data), "--out", str(out), "--seed", "1"])
    assert code == 0
    return data, out


class TestTrain:
    def test_bundle_files_written(self, pretrained):
        _, out = pretrained
        for name in ("model.abkt", "text_vocab.txt", "node_vocab.txt",
                     "config.json", "loss_log.jsonl"):
            assert (out / name).exists()

    def test_rerun_bit_identical(self, tmp_path, cfg_file, pretrained):
        data, out = pretrained
        out2 = tmp_path / "ckpt2"
        assert run(["train", "--task", "pretrain", "--config", cfg_file,
                    "--dataset", str(data), "--out", str(out2), "--seed", "1"]) == 0
        assert (out / "model.abkt").read_bytes() == (out2 / "model.abkt").read_bytes()
        assert (out / "loss_log.jsonl").read_bytes() == (out2 / "loss_log.jsonl").read_bytes()

    def test_finetune_aqa_from_checkpoint(self, tmp_path, cfg_file, finetune_cfg, pretrained):
        _, ckpt = pretrained
        qa = _gen(tmp_path, cfg_file, "aqa", "qa.jsonl")
        out = tmp_path / "aqa_ckpt"
        assert run(["train", "--task", "aqa", "--config", finetune_cfg, "--dataset", str(qa),
                    "--checkpoint", str(ckpt), "--out", str(out), "--seed", "2",
                    "--epochs", "1"]) == 0
        assert (out / "model.abkt").exists()

    def test_finetune_ac_from_checkpoint(self, tmp_path, finetune_cfg, pretrained):
        data, ckpt = pretrained
        out = tmp_path / "ac_ckpt"
        assert run(["train", "--task", "ac", "--config", finetune_cfg, "--dataset", str(data),
                    "--checkpoint", str(ckpt), "--out", str(out), "--epochs", "1",
                    "--batch-size", "3"]) == 0
        # a caption file's captions are its records with y = 1; --batch-size
        # overrides the config's 8
        captions = datagen.load_ac(str(data), load_bundle(str(ckpt))[2])
        log = (out / "loss_log.jsonl").read_text().splitlines()
        assert len(log) == -(-len(captions) // 3)

    def test_train_ac_fresh(self, tmp_path, cfg_file):
        data = _gen(tmp_path, cfg_file, "autonet", "cap.jsonl")
        out = tmp_path / "ac_ckpt"
        assert run(["train", "--task", "ac", "--config", cfg_file, "--dataset", str(data),
                    "--out", str(out), "--seed", "3", "--epochs", "1"]) == 0

    def test_no_mam_flag_zeroes_term(self, tmp_path, cfg_file):
        data = _gen(tmp_path, cfg_file, "autonet", "nm.jsonl")
        out = tmp_path / "nm_ckpt"
        assert run(["train", "--task", "pretrain", "--config", cfg_file,
                    "--dataset", str(data), "--out", str(out), "--seed", "1",
                    "--epochs", "1", "--no-mam"]) == 0
        for line in (out / "loss_log.jsonl").read_text().splitlines():
            rec = json.loads(line)
            assert rec["l_mam"] is None
            assert rec["l_total"] == pytest.approx(rec["l_sim"])

    def test_alpha_flag_weights_mam_term(self, tmp_path, cfg_file):
        data = _gen(tmp_path, cfg_file, "autonet", "al.jsonl")
        out = tmp_path / "al_ckpt"
        assert run(["train", "--task", "pretrain", "--config", cfg_file,
                    "--dataset", str(data), "--out", str(out), "--seed", "1",
                    "--epochs", "1", "--alpha", "0.5"]) == 0
        for line in (out / "loss_log.jsonl").read_text().splitlines():
            rec = json.loads(line)
            assert rec["l_total"] == pytest.approx(rec["l_sim"] + 0.5 * rec["l_mam"])


class TestEval:
    def test_eval_requires_checkpoint(self, tmp_path, cfg_file):
        data = _gen(tmp_path, cfg_file, "autonet", "e.jsonl")
        assert run(["eval", "--task", "ar", "--dataset", str(data)]) == 1

    def test_eval_ar_writes_metrics(self, tmp_path, cfg_file, pretrained):
        data, ckpt = pretrained
        out = tmp_path / "m.json"
        assert run(["eval", "--task", "ar", "--dataset", str(data),
                    "--checkpoint", str(ckpt), "--out", str(out)]) == 0
        metrics = json.loads(out.read_text())
        assert metrics["task"] == "ar"
        assert 0.0 <= metrics["f1"] <= 1.0

    def test_eval_deterministic_bytes(self, tmp_path, cfg_file, pretrained):
        data, ckpt = pretrained
        o1, o2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for o in (o1, o2):
            assert run(["eval", "--task", "ar", "--dataset", str(data),
                        "--checkpoint", str(ckpt), "--out", str(o)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_model_decides_at_the_bundle_tau(self, tmp_path, pretrained, capsys):
        data, ckpt = pretrained
        config = json.loads((ckpt / "config.json").read_text())
        config["tau"] = 0.3
        (ckpt / "config.json").write_text(json.dumps(config))

        def metrics(*tau):
            capsys.readouterr()
            assert run(["eval", "--task", "ar", "--dataset", str(data),
                        "--checkpoint", str(ckpt), *tau]) == 0
            return json.loads(capsys.readouterr().out)

        assert metrics() == metrics("--tau", "0.3")
        # the two thresholds decide differently on this data
        assert metrics() != metrics("--tau", "0.5")

    @pytest.mark.parametrize("task", ["acd", "bacd"])
    def test_eval_clone_tasks_with_checkpoint(self, tmp_path, cfg_file, pretrained, capsys, task):
        _, ckpt = pretrained
        data = _gen(tmp_path, cfg_file, task, f"{task}.jsonl")
        capsys.readouterr()
        assert run(["eval", "--task", task, "--dataset", str(data),
                    "--checkpoint", str(ckpt)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        pairs = len(data.read_text().splitlines())
        assert metrics["model"] == "archtext" and metrics["task"] == task
        assert metrics["tp"] + metrics["fp"] + metrics["tn"] + metrics["fn"] == pairs

    def test_baseline_acd_jaccard(self, tmp_path, cfg_file, capsys):
        data = _gen(tmp_path, cfg_file, "acd", "acd.jsonl")
        capsys.readouterr()
        assert run(["eval", "--task", "acd", "--dataset", str(data),
                    "--config", cfg_file, "--baseline"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["model"] == "baseline"

    def test_baseline_ar_name_match(self, tmp_path, cfg_file, capsys):
        data = _gen(tmp_path, cfg_file, "tvhf", "tv.jsonl")
        capsys.readouterr()
        assert run(["eval", "--task", "ar", "--dataset", str(data),
                    "--config", cfg_file, "--baseline"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert "f1" in metrics

    def test_eval_aqa_and_ac(self, tmp_path, cfg_file, pretrained, capsys):
        _, ckpt = pretrained
        qa = _gen(tmp_path, cfg_file, "aqa", "qa.jsonl")
        capsys.readouterr()
        assert run(["eval", "--task", "aqa", "--dataset", str(qa),
                    "--checkpoint", str(ckpt)]) == 0
        data = _gen(tmp_path, cfg_file, "autonet", "cap.jsonl")
        assert run(["eval", "--task", "ac", "--dataset", str(data),
                    "--checkpoint", str(ckpt), "--beam", "2"]) == 0


class TestSearchCli:
    def test_build_and_query(self, tmp_path, cfg_file, pretrained, capsys):
        data, ckpt = pretrained
        idx = tmp_path / "i.abix"
        assert run(["search", "build", "--checkpoint", str(ckpt),
                    "--dataset", str(data), "--out", str(idx)]) == 0
        capsys.readouterr()
        assert run(["search", "query", "--checkpoint", str(ckpt), "--index", str(idx),
                    "--query", "a network with max pooling", "--k", "2"]) == 0
        hits = json.loads(capsys.readouterr().out)
        assert len(hits) == 2
        assert hits[0]["score"] >= hits[1]["score"]

    def test_build_byte_identical(self, tmp_path, cfg_file, pretrained):
        data, ckpt = pretrained
        i1, i2 = tmp_path / "i1.abix", tmp_path / "i2.abix"
        for i in (i1, i2):
            assert run(["search", "build", "--checkpoint", str(ckpt),
                        "--dataset", str(data), "--out", str(i)]) == 0
        assert i1.read_bytes() == i2.read_bytes()

    def test_generated_ids_never_shadow_a_name(self, tmp_path, pretrained):
        data, ckpt = pretrained
        records = [json.loads(line) for line in data.read_text().splitlines()]
        a = records[0]
        b = next(r for r in records if r["graph"]["name"] != a["graph"]["name"])
        del a["graph"]["name"]
        b["graph"]["name"] = "arch00000"
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("".join(json.dumps(r) + "\n" for r in (a, b, a)))
        idx_path = tmp_path / "i.abix"
        assert run(["search", "build", "--checkpoint", str(ckpt),
                    "--dataset", str(mixed), "--out", str(idx_path)]) == 0
        idx = load_index(str(idx_path))
        # unnamed A once, under an id no name uses; named B kept
        assert idx.ids == ["arch00001", "arch00000"]
        assert not np.array_equal(idx.vectors[0], idx.vectors[1])

    def test_query_missing_index_is_usage_error(self, pretrained):
        _, ckpt = pretrained
        assert run(["search", "query", "--checkpoint", str(ckpt), "--query", "x"]) == 1


@pytest.fixture
def graph_file(tmp_path, cfg_file):
    data = _gen(tmp_path, cfg_file, "autonet", "g.jsonl")
    first = json.loads(data.read_text().splitlines()[0])
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(first["graph"]))
    return path


class TestOneOffs:
    def test_reason(self, tmp_path, cfg_file, pretrained, graph_file, capsys):
        _, ckpt = pretrained
        capsys.readouterr()
        assert run(["reason", "--checkpoint", str(ckpt), "--graph", str(graph_file),
                    "--text", "a network with pooling"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] in ("correct", "incorrect")

    def test_clone(self, tmp_path, cfg_file, pretrained, graph_file, capsys):
        _, ckpt = pretrained
        capsys.readouterr()
        assert run(["clone", "--checkpoint", str(ckpt), "--g1", str(graph_file),
                    "--g2", str(graph_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "similar"  # identical graphs

    def test_clone_with_text(self, tmp_path, cfg_file, pretrained, graph_file, capsys):
        _, ckpt = pretrained
        capsys.readouterr()
        assert run(["clone", "--checkpoint", str(ckpt), "--g1", str(graph_file),
                    "--g2", str(graph_file), "--text", "two conv nets"]) == 0
        out = json.loads(capsys.readouterr().out)
        model, text_vocab, node_vocab, _ = load_bundle(str(ckpt))
        g = parse_graph(graph_file.read_text(), node_vocab)
        sample = BACDSample(g1=g, g2=g, label=0, text="two conv nets")
        assert out["score"] == evaluate.bacd_score(model, sample, text_vocab)

    def test_checkpoint_may_name_the_weights_file(self, pretrained, graph_file, capsys):
        _, ckpt = pretrained
        outputs = []
        for path in (ckpt, ckpt / "model.abkt"):
            capsys.readouterr()
            assert run(["reason", "--checkpoint", str(path), "--graph", str(graph_file),
                        "--text", "a network with pooling"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_qa_without_a_likely_answer_picks_the_best(self, tmp_path, cfg_file, graph_file,
                                                       capsys):
        ckpt = _fresh_bundle(tmp_path, cfg_file)
        model, text_vocab, node_vocab, _ = load_bundle(ckpt)
        bias = np.full(model.params["head.aqa.fc2.b"].shape, -10.0)
        bias[0, 7] = -5.0
        model.params["head.aqa.fc2.b"].data = bias
        save_bundle(ckpt, model, text_vocab, node_vocab, [])
        capsys.readouterr()
        assert run(["qa", "--checkpoint", ckpt, "--graph", str(graph_file),
                    "--question", "which ops"]) == 0
        (answer,) = json.loads(capsys.readouterr().out)["answers"]
        assert answer["id"] == 7 and answer["prob"] < 0.5

    def test_answers_beyond_the_head_are_dropped(self, tmp_path, cfg_file, finetune_cfg,
                                                 graph_file, capsys):
        # a head of 3 slots, where the questions' answers range over the
        # catalog's 51: train, fine-tune and qa leave out the slots it lacks
        qa = _gen(tmp_path, cfg_file, "aqa", "qa.jsonl")
        assert any(max(json.loads(line)["answers"]) >= 3 for line in qa.read_text().splitlines())
        small = tmp_path / "small.ini"
        small.write_text(TINY_CONFIG.replace("[model]\n", "[model]\nn_answers = 3\n"))
        ckpt, tuned = tmp_path / "qa3", tmp_path / "qa3_tuned"
        assert run(["train", "--task", "aqa", "--config", str(small), "--dataset", str(qa),
                    "--out", str(ckpt), "--epochs", "1"]) == 0
        assert run(["train", "--task", "aqa", "--config", finetune_cfg, "--dataset", str(qa),
                    "--checkpoint", str(ckpt), "--out", str(tuned), "--epochs", "1"]) == 0
        capsys.readouterr()
        assert run(["qa", "--checkpoint", str(tuned), "--graph", str(graph_file),
                    "--question", "which ops"]) == 0
        answers = json.loads(capsys.readouterr().out)["answers"]
        assert answers and all(a["id"] < 3 for a in answers)

    def test_qa(self, tmp_path, cfg_file, pretrained, graph_file, capsys):
        _, ckpt = pretrained
        capsys.readouterr()
        assert run(["qa", "--checkpoint", str(ckpt), "--graph", str(graph_file),
                    "--question", "what type of pooling module has been used"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["answers"]

    def test_caption(self, tmp_path, cfg_file, pretrained, graph_file, capsys):
        _, ckpt = pretrained
        capsys.readouterr()
        assert run(["caption", "--checkpoint", str(ckpt), "--graph", str(graph_file),
                    "--beam", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "caption" in out


class TestViz:
    def test_dot_export(self, tmp_path, cfg_file, graph_file):
        out = tmp_path / "g.dot"
        assert run(["viz", "dot", "--graph", str(graph_file), "--config", cfg_file,
                    "--out", str(out)]) == 0
        assert out.read_text().startswith("digraph")

    def test_pca_csv(self, tmp_path, cfg_file, pretrained):
        data, ckpt = pretrained
        out = tmp_path / "pca.csv"
        assert run(["viz", "pca", "--checkpoint", str(ckpt), "--dataset", str(data),
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,x,y"
        assert len(lines) > 1


class TestLoadBundle:
    def test_loads_the_checkpoint_without_initializing(self, pretrained, monkeypatch):
        _, ckpt = pretrained

        def refuse(*args, **kwargs):
            raise AssertionError("load_bundle initialized a model")

        monkeypatch.setattr(model_mod, "init_params", refuse)
        model, _, _, path = load_bundle(str(ckpt))
        arrays = load_checkpoint(path)
        assert list(model.params) == [p.path for p in model_mod.param_table(model.cfg)]
        assert all(np.array_equal(p.data, arrays[name]) for name, p in model.params.items())


_ALL_SWITCHES = ("--tau=0.3", "--no-mam", "--no-cross-encoder", "--no-shape", "--no-edge",
                 "--text-only", "--arch-only")
_TRAINING_SWITCHES = ("--no-mam", "--text-only", "--arch-only")
_SEARCH_BUILD = ["search", "build", "--checkpoint", "ckpt", "--dataset", "d.jsonl",
                 "--out", "i.abix"]
_VIZ_PCA = ["viz", "pca", "--checkpoint", "ckpt", "--dataset", "d.jsonl"]
_VIZ_DOT = ["viz", "dot", "--graph", "g.json"]
_TRAIN_AC = ["train", "--task", "ac", "--dataset", "d.jsonl", "--out", "o"]
_TRAIN_AC_FROM = [*_TRAIN_AC, "--checkpoint", "ckpt"]
_TRAIN_AQA_FROM = ["train", "--task", "aqa", "--dataset", "d.jsonl", "--out", "o",
                   "--checkpoint", "ckpt"]
_EVAL_AC = ["eval", "--task", "ac", "--checkpoint", "ckpt", "--dataset", "d.jsonl"]
_EVAL_ACD_BASELINE = ["eval", "--task", "acd", "--baseline", "--dataset", "d.jsonl"]


def _unread(cases):
    """Parameters (argv, flag) for each (name, argv, flags) command line and
    each flag it must refuse, with ids `<flag>-<name>`. The name is given,
    not counted, so a case added anywhere leaves every other id as it is:
    the command lines listed first keep their old `argv<n>` names, and a new
    one is named after its command line. A repeated id is refused."""
    params = [pytest.param(argv, flag, id=f"{flag}-{name}")
              for name, argv, flags in cases for flag in flags]
    ids = [p.id for p in params]
    if len(set(ids)) != len(ids):
        raise ValueError(f"repeated test ids in {ids}")
    return params


class TestErrors:
    def test_unknown_config_key_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[gen]\nnot_a_key = 1\n")
        out = tmp_path / "x.jsonl"
        assert run(["gen", "--task", "autonet", "--config", str(bad),
                    "--out", str(out)]) == 2

    @pytest.mark.parametrize("key", ["mask_ratio", "alpha"])
    def test_training_knob_in_model_section_is_data_error(self, tmp_path, key):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[model]\n{key} = 0.3\n")
        assert run(["gen", "--task", "autonet", "--config", str(bad),
                    "--out", str(tmp_path / "x.jsonl")]) == 2

    @pytest.mark.parametrize("edit", ["unknown", "missing", "wrong-type", "gat-heads-0", "d-0",
                                      "max-tokens-negative", "enlarged", "text-and-arch-only",
                                      "eps-cos-0", "heads-split-d", "tau-1",
                                      "vocab-too-small"])
    def test_bad_bundle_config_is_data_error(self, tmp_path, pretrained, capsys, edit):
        data, ckpt = pretrained
        config = ckpt / "config.json"
        cfg = json.loads(config.read_text())
        where = "config.json"
        if edit == "enlarged":
            # a valid config the weights do not fit: refused by the parameter
            # table before a model of the config's size is made
            cfg.update(d=512, max_tokens=2048)
            where, expect = "model.abkt", "text.tok_emb: checkpoint shape"
        elif edit == "unknown":
            cfg["mask_ratio"] = 0.15
            expect = "unknown key 'mask_ratio'"
        elif edit == "missing":
            del cfg["d"]
            expect = "missing key 'd'"
        elif edit == "wrong-type":
            cfg["d"] = "16"
            expect = "key 'd' must be int"
        elif edit == "text-and-arch-only":
            cfg.update(text_only=True, arch_only=True)
            expect = "text_only and arch_only are mutually exclusive"
        elif edit == "eps-cos-0":
            cfg["eps_cos"] = 0.0
            expect = "eps_cos must be positive, got 0.0"
        elif edit == "heads-split-d":
            cfg["cross_heads"] = 3
            expect = "d=16 not divisible by head count 3"
        elif edit == "tau-1":
            cfg["tau"] = 1.0
            expect = "tau must lie in (0, 1)"
        elif edit == "vocab-too-small":
            cfg["node_vocab_size"] = 3
            expect = "vocabulary too small"
        else:
            # out of range: a zero width or head count divides by zero below the loader
            key, value = {"gat-heads-0": ("gat_heads", 0), "d-0": ("d", 0),
                          "max-tokens-negative": ("max_tokens", -5)}[edit]
            cfg[key] = value
            expect = f"{key} must be at least"
        config.write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            code = run(["eval", "--task", "ar", "--checkpoint", str(ckpt), "--dataset", str(data)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2 and peak < 5 * 2**20, (err, peak)
        assert where in err and expect in err, err

    @pytest.mark.parametrize("defect", ["text-vocab", "node-vocab", "non-finite",
                                        "vocab-reserved", "vocab-repeat", "vocab-utf8",
                                        "no-config", "no-weights"])
    def test_inconsistent_bundle_is_data_error(self, pretrained, capsys, defect):
        data, ckpt = pretrained
        vocab = ckpt / "text_vocab.txt"
        lines = vocab.read_text(encoding="utf-8").splitlines()
        if defect == "text-vocab":
            with open(vocab, "a", encoding="utf-8") as f:
                f.writelines(f"extra{i}\n" for i in range(500))
            expect = ("text_vocab.txt", "text_vocab_size")
        elif defect == "vocab-reserved":
            vocab.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
            expect = ("text_vocab.txt: text vocabulary file must start with",)
        elif defect == "vocab-repeat":
            vocab.write_text("\n".join(lines + [lines[6]]) + "\n", encoding="utf-8")
            expect = (f"text_vocab.txt:{len(lines) + 1}: {lines[6]!r} repeats line 7",)
        elif defect == "vocab-utf8":
            vocab.write_bytes(vocab.read_bytes() + b"\xff\n")
            expect = ("text_vocab.txt: not UTF-8 text",)
        elif defect in ("no-config", "no-weights"):
            name = "config.json" if defect == "no-config" else "model.abkt"
            (ckpt / name).unlink()
            expect = (f"checkpoint bundle incomplete: missing {ckpt / name}",)
        elif defect == "node-vocab":
            with open(ckpt / "node_vocab.txt", "a", encoding="utf-8") as f:
                f.write("extra_op\n")
            expect = ("node_vocab.txt", "node_vocab_size")
        else:
            # records are in name order, so the file ends in text.tok_emb's last weight
            blob = bytearray((ckpt / "model.abkt").read_bytes())
            blob[-4:] = struct.pack("<f", float("inf"))
            (ckpt / "model.abkt").write_bytes(bytes(blob))
            expect = ("model.abkt", "'text.tok_emb' has non-finite values")
        assert run(["eval", "--task", "ar", "--checkpoint", str(ckpt),
                    "--dataset", str(data)]) == 2
        err = capsys.readouterr().err
        assert all(part in err for part in expect), err

    @pytest.mark.parametrize("argv", [
        ["eval", "--task", "ar", "--checkpoint", "ckpt", "--dataset", "d.jsonl"],
        ["search", "build", "--checkpoint", "ckpt", "--dataset", "d.jsonl", "--out", "i.abix"],
    ])
    def test_alpha_outside_train_is_usage_error(self, argv, capsys):
        # only train reads the masked-node loss weight
        assert run([*argv, "--alpha", "7"]) == 1
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, switch", _unread([
        ("argv0", ["gen", "--task", "autonet", "--out", "d.jsonl"], _ALL_SWITCHES),
        ("argv1", _SEARCH_BUILD, _ALL_SWITCHES),
        # train alone reads the training switches; qa decides at 0.5, and
        # caption and viz pca decide nothing; viz dot runs no model
        ("argv2", ["eval", "--task", "ar", "--checkpoint", "ckpt", "--dataset", "d.jsonl"],
         _TRAINING_SWITCHES),
        ("argv3", ["reason", "--checkpoint", "ckpt", "--graph", "g.json", "--text", "conv"],
         _TRAINING_SWITCHES),
        ("argv4", ["clone", "--checkpoint", "ckpt", "--g1", "g.json", "--g2", "g.json"],
         _TRAINING_SWITCHES),
        ("argv5", ["qa", "--checkpoint", "ckpt", "--graph", "g.json", "--question", "which ops"],
         ("--tau=0.3", *_TRAINING_SWITCHES)),
        ("argv6", ["caption", "--checkpoint", "ckpt", "--graph", "g.json"],
         ("--tau=0.3", *_TRAINING_SWITCHES)),
        ("argv7", _VIZ_PCA, ("--tau=0.3", *_TRAINING_SWITCHES)),
        ("argv8", _VIZ_DOT, _ALL_SWITCHES),
        # --no-mam weights only pre-training's masked-node term; aqa decides
        # at 0.5 and ac decides nothing; a baseline runs no model, and the
        # name baseline decides at no threshold
        ("argv9", _TRAIN_AQA_FROM, ("--no-mam",)),
        ("argv10", _TRAIN_AC_FROM, ("--no-mam",)),
        ("argv11", _TRAIN_AC, ("--no-mam",)),
        ("argv12", ["eval", "--task", "aqa", "--checkpoint", "ckpt", "--dataset", "d.jsonl"],
         ("--tau=0.3",)),
        ("argv13", _EVAL_AC, ("--tau=0.3",)),
        ("argv14", _EVAL_ACD_BASELINE, ("--no-cross-encoder", "--no-shape", "--no-edge")),
        ("argv15", ["eval", "--task", "ar", "--baseline", "--dataset", "d.jsonl"], ("--tau=0.3",)),
        # a run trains the text side, the graph side or both, never neither
        ("argv16", [*_TRAIN_AC, "--text-only"], ("--arch-only",)),
        ("argv17", [*_TRAIN_AQA_FROM, "--arch-only"], ("--text-only",)),
    ]))
    def test_model_switch_where_unread_is_usage_error(self, argv, switch, capsys):
        # gen runs no model, and search runs the bundle's model as saved
        assert run([*argv, switch]) == 1
        assert switch.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", _unread([
        ("argv0", _SEARCH_BUILD,
         ("--config=c.ini", "--seed=5", "--index=i.abix", "--query=conv", "--k=3")),
        ("argv1", ["reason", "--checkpoint", "ckpt", "--graph", "g.json", "--text", "conv"],
         ("--config=c.ini", "--seed=5")),
        ("argv2", ["clone", "--checkpoint", "ckpt", "--g1", "g.json", "--g2", "g.json"],
         ("--config=c.ini", "--seed=5")),
        ("argv3", ["qa", "--checkpoint", "ckpt", "--graph", "g.json", "--question", "which ops"],
         ("--config=c.ini", "--seed=5")),
        ("argv4", ["caption", "--checkpoint", "ckpt", "--graph", "g.json"],
         ("--config=c.ini", "--seed=5")),
        # and each search or viz action reads only its own inputs
        ("argv5", _VIZ_PCA, ("--config=c.ini", "--seed=5", "--graph=g.json")),
        ("argv6",
         ["search", "query", "--checkpoint", "ckpt", "--index", "i.abix", "--query", "conv"],
         ("--dataset=d.jsonl", "--out=i.abix")),
        ("argv7", _VIZ_DOT, ("--checkpoint=ckpt", "--dataset=d.jsonl", "--seed=5")),
        # eval reads --beam for ac alone and --config only with --baseline; a
        # node vocabulary, all that eval and viz dot take from a config, draws
        # nothing, so neither reads --seed
        ("argv8", ["eval", "--task", "ar", "--checkpoint", "ckpt", "--dataset", "d.jsonl"],
         ("--config=c.ini", "--seed=5", "--beam=2", "--seed=0")),
        ("argv9", _EVAL_ACD_BASELINE, ("--checkpoint=ckpt", "--beam=2", "--seed=5")),
        # a bundle brings its own text vocabulary, and only pre-training reads --alpha
        ("argv10", _TRAIN_AQA_FROM, ("--alpha=9", "--vocab-size=3")),
        ("argv11", _TRAIN_AC_FROM, ("--alpha=9", "--vocab-size=3")),
        ("argv12", ["train", "--task", "pretrain", "--dataset", "d.jsonl", "--out", "o",
                    "--checkpoint", "ckpt"], ("--vocab-size=3",)),
        ("argv13", _TRAIN_AC, ("--alpha=9", "--alpha=0")),
        # a bundle brings its own model config and node vocabulary, so a
        # fine-tune refuses a config's [model] and [gen] sections
        ("argv14", _TRAIN_AQA_FROM, ("--config=model.ini",)),
        ("argv16", _TRAIN_AC_FROM, ("--config=gen.ini",)),
        # only ar and acd have a baseline
        ("argv15", ["eval", "--task", "bacd", "--dataset", "d.jsonl"], ("--baseline",)),
    ]))
    def test_config_or_seed_where_unread_is_usage_error(self, argv, flag, capsys, tmp_path,
                                                         monkeypatch):
        # each run refuses a flag it does not read, before it reads any file
        # but its config
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.ini").write_text("[model]\nno_shape = true\nd = 32\n")
        (tmp_path / "gen.ini").write_text("[gen]\nops = conv2d,relu\n")
        assert run([*argv, flag]) == 1
        assert flag.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["search", "query", "--checkpoint", "ckpt", "--index", "i.abix", "--query"], "--query"),
        (["reason", "--checkpoint", "ckpt", "--graph", "graph.json", "--text"], "--text"),
        (["clone", "--checkpoint", "ckpt", "--g1", "graph.json", "--g2", "graph.json",
          "--text"], "--text"),
        (["qa", "--checkpoint", "ckpt", "--graph", "graph.json", "--question"], "--question"),
    ], ids=["query", "reason", "clone", "qa"])
    @pytest.mark.parametrize("text", ["", " ?! "], ids=["empty", "punctuation"])
    def test_text_without_words_is_data_error(self, tmp_path, cfg_file, graph_file, capsys,
                                              argv, flag, text):
        # scored, it would be the bare [BOS] [EOS] sequence
        files = {"ckpt": _fresh_bundle(tmp_path, cfg_file), "i.abix": str(tmp_path / "i.abix"),
                 "graph.json": str(graph_file)}
        assert run(["search", "build", "--checkpoint", files["ckpt"], "--dataset",
                    str(tmp_path / "g.jsonl"), "--out", files["i.abix"]]) == 0
        capsys.readouterr()
        assert run([files.get(a, a) for a in argv] + [text]) == 2
        assert f"{flag} holds no word tokens: {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("task, field, value, expect", [
        # out of range and cyclic: an attention mask would wire -1 to the last node
        ("pretrain", "graph.edges", [[-1, 0], [1, 0], [0, 1]], "field 'graph': edge-range"),
        ("pretrain", "text", 5, "field 'text' must be a string, got 5"),
        ("pretrain", "y", "0.5", "field 'y' must be a number, got '0.5'"),
        ("pretrain", "y", True, "field 'y' must be a number, got True"),
        ("pretrain", "y", 2 ** 1024, "field 'y' is out of range"),
        ("aqa", "question", 5, "field 'question' must be a string"),
        ("aqa", "answers", [True], "field 'answers' must be a list of integers"),
        ("acd", "label", 2, "label must be 0 or 1, got 2"),
        ("acd", "label", 0.9, "field 'label' must be an integer, got 0.9"),
        ("acd", "label", "1", "field 'label' must be an integer, got '1'"),
        ("bacd", "label", 2, "label must be 0 or 1, got 2"),
        ("bacd", "text", 5, "field 'text' must be a string"),
        ("ac", "text", 5, "field 'text' must be a string"),
        ("ac", "y", "0.5", "field 'y' must be a number"),
        ("ac", "y", True, "field 'y' must be a number"),
        ("ac", None, [1], "record must be a JSON object, got [1]"),
        # a raw line: Latin-1 text in a UTF-8 file
        ("acd", None, b'{"label": 1, "note": "caf\xe9"}',
         "not UTF-8 text: invalid continuation byte"),
    ], ids=["pretrain-graph", "pretrain-text-int", "pretrain-y-str", "pretrain-y-bool",
            "pretrain-y-huge", "aqa-question-int", "aqa-answers-bool", "acd-label-2",
            "acd-label-float", "acd-label-str", "bacd-label-2", "bacd-text-int", "ac-text-int",
            "ac-y-str", "ac-y-bool", "ac-line-list", "acd-line-not-utf8"])
    def test_invalid_graph_record_is_data_error(self, tmp_path, cfg_file, capsys, task, field,
                                                value, expect):
        gen_task = {"pretrain": "autonet", "ac": "autonet"}.get(task, task)
        data = _gen(tmp_path, cfg_file, gen_task, "d.jsonl")
        lines = data.read_bytes().splitlines()
        # a positive, so that a caption file reads more of it than its y
        n = next(i for i, line in enumerate(lines) if json.loads(line).get("y", 1.0) == 1.0)
        rec = json.loads(lines[n])
        if field is None:
            rec = value
        elif "." in field:
            outer, inner = field.split(".")
            rec[outer][inner] = value
        else:
            rec[field] = value
        lines[n] = rec if isinstance(rec, bytes) else json.dumps(rec).encode()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        out = tmp_path / "c"
        if task in ("pretrain", "aqa"):
            argv = ["train", "--task", task, "--config", cfg_file, "--out", str(out)]
        elif task == "acd":
            argv = ["eval", "--task", "acd", "--baseline", "--config", cfg_file]
        else:
            argv = ["eval", "--task", task, "--checkpoint", _fresh_bundle(tmp_path, cfg_file)]
        capsys.readouterr()
        assert run([*argv, "--dataset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:{n + 1}: {expect}" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("argv, missing", [
        (["search", "build", "--checkpoint", "ckpt", "--dataset", "d.jsonl"], "--out"),
        (["search", "query", "--checkpoint", "ckpt", "--index", "i.abix"], "--query"),
        (["viz", "pca", "--dataset", "d.jsonl"], "--checkpoint"),
        (["viz", "dot", "--out", "g.dot"], "--graph"),
    ])
    def test_sub_action_missing_flag_is_usage_error(self, argv, missing, capsys):
        # the message names the missing flag, and none of those given
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert missing in err and not any(a in err for a in argv if a.startswith("--")), err

    @pytest.mark.parametrize("argv", [
        ["search", "query", "--checkpoint", "ckpt", "--index", "i.abix", "--query", "x", "--k"],
        ["eval", "--task", "ac", "--dataset", "d.jsonl", "--checkpoint", "ckpt", "--beam"],
        ["caption", "--checkpoint", "ckpt", "--graph", "g.json", "--beam"],
    ])
    @pytest.mark.parametrize("value", ["0", "-1", "2.5", "ten"])
    def test_count_below_one_is_usage_error(self, argv, value, capsys):
        # refused at parse time, before any file is read, naming the flag
        assert run([*argv, value]) == 1
        err = capsys.readouterr().err
        assert f"argument {argv[-1]}: must be a positive integer, got '{value}'" in err, err

    @pytest.mark.parametrize("flag", ["--dataset", "--index"])
    def test_directory_input_is_data_error(self, tmp_path, cfg_file, capsys, flag):
        # a path that cannot be read is a data error, as a missing one is
        if flag == "--dataset":
            argv = ["eval", "--task", "acd", "--baseline", "--dataset", str(tmp_path)]
        else:
            argv = ["search", "query", "--checkpoint", _fresh_bundle(tmp_path, cfg_file),
                    "--index", str(tmp_path), "--query", "conv"]
        assert run(argv) == 2
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize("text, expect", [
        ("[model]\nd = abc\n", "[model] d: invalid literal for int()"),
        ("[gen]\nrng_seed = 1e3\n", "[gen] rng_seed: invalid literal for int()"),
        ("[train]\nepochs = 2\n[train]\nepochs = 3\n", "section 'train' already exists"),
        ("[model]\nd = 16\nd = 32\n", "option 'd' in section 'model' already exists"),
        ("d = 16\n", "File contains no section headers"),
        # --task sets the task
        ("[train]\ntask = aqa\n", "unknown key 'task' in section [train]"),
        ("[model]\nno_shape = maybe\n", "[model] no_shape: not a boolean: 'maybe'"),
        (None, "config file not found"),
    ], ids=["int", "int-exponent", "repeated-section", "repeated-key", "no-section", "train-task",
            "not-a-boolean", "missing"])
    def test_bad_config_file_is_data_error(self, tmp_path, capsys, text, expect):
        bad = tmp_path / "bad.ini"
        if text is not None:
            bad.write_text(text)
        assert run(["gen", "--task", "autonet", "--config", str(bad),
                    "--out", str(tmp_path / "x.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and expect in err, err

    @pytest.mark.parametrize("content, expect", [
        (b'{"nodes": ["conv2d"]', "invalid JSON"),
        (b'{"nodes": ["conv2d", "relu"], "edges": [[0, 5]], "shapes": [[1, 1, 1, 1], [0, 0, 0, 0]]}',
         "edge"),
        (b'{"nodes": ["conv2d"]}\xff', "can't decode byte 0xff"),
    ], ids=["json", "edge-range", "not-utf8"])
    def test_bad_graph_file_is_data_error(self, tmp_path, cfg_file, capsys, content, expect):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run(["viz", "dot", "--graph", str(bad), "--config", cfg_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and expect in err, err

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "-1"), ("--lr", "0"),
                                             ("--alpha", "inf"), ("--alpha", "-3")])
    def test_bad_step_setting_is_data_error(self, tmp_path, cfg_file, capsys, flag, value):
        data = _gen(tmp_path, cfg_file, "autonet", "d.jsonl")
        out = tmp_path / "c"
        assert run(["train", "--task", "pretrain", "--config", cfg_file, "--dataset", str(data),
                    "--out", str(out), f"{flag}={value}"]) == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model_section, flags", [
        ("text_only = true\narch_only = true\n", ()),
        ("arch_only = yes\n", ("--text-only",)),
    ], ids=["config", "config-and-flag"])
    def test_text_only_with_arch_only_is_data_error(self, tmp_path, cfg_file, capsys, monkeypatch,
                                                    model_section, flags):
        data = _gen(tmp_path, cfg_file, "autonet", "d.jsonl")
        both = tmp_path / "both.ini"
        both.write_text(TINY_CONFIG.replace("[model]\n", "[model]\n" + model_section))

        def refuse(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "_train", refuse)
        out = tmp_path / "c"
        assert run(["train", "--task", "pretrain", "--config", str(both), "--dataset", str(data),
                    "--out", str(out), *flags]) == 2
        assert "text_only and arch_only are mutually exclusive" in capsys.readouterr().err
        assert not out.exists()

    def test_unexpected_exception_is_runtime_failure(self, monkeypatch, capsys):
        def broken(path):
            raise RuntimeError("boom")

        monkeypatch.setattr(datagen, "compute_stats", broken)
        assert run(["stats", "d.jsonl"]) == 3
        assert capsys.readouterr().err == "runtime failure: boom\n"

    def test_unknown_section_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nope]\nx = 1\n")
        assert run(["gen", "--task", "autonet", "--config", str(bad),
                    "--out", str(tmp_path / "x.jsonl")]) == 2

    def test_missing_dataset_is_data_error(self, tmp_path, cfg_file):
        assert run(["train", "--task", "pretrain", "--config", cfg_file,
                    "--dataset", "/nope.jsonl", "--out", str(tmp_path / "c")]) == 2

    def test_usage_error_unknown_flag(self):
        assert run(["gen", "--task", "autonet", "--wat"]) == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
