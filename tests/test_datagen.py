import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archtext.catalog import DEFAULT_OPS, answer_catalog, mentioned_ops
from archtext.datagen import (
    ACDPair,
    ACSample,
    AQASample,
    BACDSample,
    BiModalSample,
    GenConfig,
    _answer_ids,
    captions,
    compute_stats,
    extract_present_ops,
    gen_acd_dataset,
    gen_acd_pairs,
    gen_architecture,
    gen_autonet,
    gen_bacd_dataset,
    gen_descriptions,
    gen_family_archs,
    gen_qa,
    gen_tvhf,
    graph_from_obj,
    graph_to_obj,
    load_ac,
    load_acd,
    load_aqa,
    load_bacd,
    load_bimodal,
    mine_negatives,
    token_overlap_similarity,
    write_jsonl,
)
from archtext.graph import ArchGraph, validate_graph


class TestGenArchitecture:
    def test_single_node(self):
        cfg = GenConfig(min_nodes=1, max_nodes=1)
        g = gen_architecture(cfg, np.random.default_rng(0))
        assert g.num_nodes == 1 and not g.edges
        assert validate_graph(g).ok

    def test_determinism(self, gen_cfg):
        a = gen_architecture(gen_cfg, np.random.default_rng(42))
        b = gen_architecture(gen_cfg, np.random.default_rng(42))
        assert a == b

    def test_validity_and_connectivity(self, gen_cfg):
        for i in range(300):
            g = gen_architecture(gen_cfg, np.random.default_rng([3, i]))
            assert validate_graph(g).ok
            assert gen_cfg.min_nodes <= g.num_nodes <= gen_cfg.max_nodes
            targets = {v for _, v in g.edges}
            for node in range(1, g.num_nodes):
                assert node in targets  # every non-source node has an in-edge

    def test_stem_is_conv(self, gen_cfg):
        g = gen_architecture(gen_cfg, np.random.default_rng(5))
        assert gen_cfg.node_vocab().name_of(g.nodes[0]) == "conv2d"


class TestDescriptions:
    def test_counts_and_positive_fraction(self, gen_cfg):
        counts = set()
        for i in range(200):
            rng = np.random.default_rng([7, i])
            g = gen_architecture(gen_cfg, rng)
            samples = gen_descriptions(g, gen_cfg, rng)
            counts.add(len(samples))
            npos = sum(1 for s in samples if s.y == 1.0)
            assert npos == 3
        assert counts == {10, 11}

    def test_mention_contract(self, gen_cfg):
        vocab = gen_cfg.node_vocab()
        for i in range(200):
            rng = np.random.default_rng([9, i])
            g = gen_architecture(gen_cfg, rng)
            present = extract_present_ops(g, vocab)
            for s in gen_descriptions(g, gen_cfg, rng):
                claimed = mentioned_ops(s.text)
                if s.y == 1.0:
                    assert claimed and claimed <= present, s.text
                else:
                    assert claimed - present, s.text

    def test_max_pooling_phrase_appears(self):
        cfg = GenConfig(ops=("conv2d", "maxpool2d", "relu", "linear"))
        vocab = cfg.node_vocab()
        g = ArchGraph(nodes=[vocab.id_of("conv2d")] + [vocab.id_of("maxpool2d")] * 3,
                      edges=[(0, 1), (1, 2), (2, 3)],
                      shapes=[(8, 3, 3, 3)] + [(0, 0, 2, 2)] * 3)
        texts = [s.text for s in gen_descriptions(g, cfg, np.random.default_rng(1))
                 if s.y == 1.0]
        assert any("max pooling" in t for t in texts)

    def test_error_when_no_absent_op(self):
        # a graph using every vocabulary op leaves nothing to lie about
        cfg = GenConfig(ops=("conv2d", "relu"), min_nodes=1, max_nodes=8)
        vocab = cfg.node_vocab()
        g = ArchGraph(nodes=[vocab.id_of("conv2d"), vocab.id_of("relu")],
                      edges=[(0, 1)], shapes=[(8, 3, 3, 3), (0, 0, 0, 0)])
        with pytest.raises(ValueError, match="absent"):
            gen_descriptions(g, cfg, np.random.default_rng(0))

    def test_generated_graphs_always_leave_an_absent_op(self):
        cfg = GenConfig(min_nodes=8, max_nodes=64)  # full 28-op default
        vocab = cfg.node_vocab()
        for i in range(200):
            g = gen_architecture(cfg, np.random.default_rng([99, i]))
            assert len(extract_present_ops(g, vocab)) < len(cfg.ops)


class TestExtractPresentOps:
    def test_dedupe(self, gen_cfg):
        vocab = gen_cfg.node_vocab()
        g = ArchGraph(nodes=[vocab.id_of("conv2d"), vocab.id_of("conv2d"), vocab.id_of("relu")],
                      edges=[(0, 1), (1, 2)], shapes=[(1, 1, 1, 1)] * 3)
        assert extract_present_ops(g, vocab) == {"conv2d", "relu"}

    def test_singleton(self, gen_cfg):
        vocab = gen_cfg.node_vocab()
        g = ArchGraph(nodes=[vocab.id_of("relu")], edges=[], shapes=[(0, 0, 0, 0)])
        assert extract_present_ops(g, vocab) == {"relu"}

    def test_equals_node_set_on_generated(self, gen_cfg):
        vocab = gen_cfg.node_vocab()
        for i in range(100):
            g = gen_architecture(gen_cfg, np.random.default_rng([13, i]))
            assert extract_present_ops(g, vocab) == {vocab.name_of(n) for n in g.nodes}


class TestTokenOverlap:
    def test_identical(self):
        assert token_overlap_similarity("a b", "a b") == 1.0

    def test_disjoint(self):
        assert token_overlap_similarity("a", "b") == 0.0

    def test_half(self):
        # {a,b,c} vs {a,b,d}: intersection 2, union 4
        assert token_overlap_similarity("a b c", "a b d") == 0.5

    def test_both_empty(self):
        assert token_overlap_similarity("", "") == 0.0

    @given(st.text(alphabet="abc xyz", max_size=30), st.text(alphabet="abc xyz", max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        s = token_overlap_similarity(a, b)
        assert s == token_overlap_similarity(b, a)
        assert 0.0 <= s <= 1.0


def _brute_force_negatives(positives, sim, beta):
    # direct filter over every (architecture, foreign description) pair
    out = {}
    for arch in positives:
        admitted = set()
        for other, descs in positives.items():
            if other == arch:
                continue
            for t in descs:
                best = max(sim(t, p) for p in positives[arch])
                if best <= beta:
                    admitted.add(t)
        out[arch] = sorted(admitted)
    return out


class TestMineNegatives:
    def _toy_corpus(self, n_arch=6):
        rng = np.random.default_rng(0)
        words = ["red", "blue", "green", "small", "large", "deep", "wide", "sparse"]
        corpus = {}
        for j in range(n_arch):
            descs = []
            for k in range(3):
                chosen = rng.choice(len(words), size=3, replace=False)
                descs.append(" ".join(words[int(c)] for c in chosen))
            corpus[f"arch{j}"] = descs
        return corpus

    def test_beta_one_admits_everything(self):
        corpus = self._toy_corpus()
        mined = mine_negatives(corpus, token_overlap_similarity, beta=1.0)
        for arch, negs in mined.items():
            foreign = {t for a, ds in corpus.items() if a != arch for t in ds}
            assert set(negs) == foreign

    def test_beta_zero_with_disjoint_corpora(self):
        corpus = {"a": ["aa bb"], "b": ["cc dd"], "c": ["ee ff"]}
        mined = mine_negatives(corpus, token_overlap_similarity, beta=0.0)
        assert mined["a"] == ["cc dd", "ee ff"]

    def test_matches_brute_force(self):
        corpus = self._toy_corpus(8)
        mined = mine_negatives(corpus, token_overlap_similarity, beta=0.5)
        brute = _brute_force_negatives(corpus, token_overlap_similarity, beta=0.5)
        assert mined == brute

    def test_invariant_under_reordering(self):
        corpus = self._toy_corpus(5)
        reordered = {k: list(reversed(v)) for k, v in reversed(list(corpus.items()))}
        a = mine_negatives(corpus, token_overlap_similarity, beta=0.5)
        b = mine_negatives(reordered, token_overlap_similarity, beta=0.5)
        assert a == b

    def test_requires_two_architectures(self):
        with pytest.raises(ValueError):
            mine_negatives({"a": ["x"]}, token_overlap_similarity, 0.5)


class TestAcdPairs:
    def _tagged(self, gen_cfg, n_fam=8, per_fam=5):
        tagged = []
        for f in range(n_fam):
            for v in range(per_fam):
                g = gen_architecture(gen_cfg, np.random.default_rng([f, v]))
                tagged.append((g, f"fam{f}"))
        return tagged

    def test_same_tag_is_positive(self, gen_cfg):
        g1 = gen_architecture(gen_cfg, np.random.default_rng(0))
        g2 = gen_architecture(gen_cfg, np.random.default_rng(1))
        pairs = gen_acd_pairs([(g1, "t"), (g2, "t")], np.random.default_rng(0), 0.5)
        assert all(p.label == 1 for p in pairs)

    def test_different_tags_negative(self, gen_cfg):
        g1 = gen_architecture(gen_cfg, np.random.default_rng(0))
        g2 = gen_architecture(gen_cfg, np.random.default_rng(1))
        pairs = gen_acd_pairs([(g1, "a"), (g2, "b")], np.random.default_rng(0), 0.0)
        assert pairs and all(p.label == 0 for p in pairs)

    def test_positive_fraction_within_2pc(self, gen_cfg):
        tagged = self._tagged(gen_cfg, n_fam=24, per_fam=6)
        pairs = gen_acd_pairs(tagged, np.random.default_rng(3), pos_fraction=0.11)
        assert len(pairs) > 1000
        realized = sum(p.label for p in pairs) / len(pairs)
        assert abs(realized - 0.11) < 0.02

    def test_no_family_with_two_members_errors(self, gen_cfg):
        g1 = gen_architecture(gen_cfg, np.random.default_rng(0))
        g2 = gen_architecture(gen_cfg, np.random.default_rng(1))
        with pytest.raises(ValueError, match="family"):
            gen_acd_pairs([(g1, "a"), (g2, "b")], np.random.default_rng(0), 0.11)


class TestQA:
    def test_exactly_35_unique_questions(self, gen_cfg):
        for i in range(100):
            rng = np.random.default_rng([41, i])
            g = gen_architecture(gen_cfg, rng)
            samples = gen_qa(g, gen_cfg, rng)
            assert len(samples) == 35
            assert len({s.question for s in samples}) == 35
            for s in samples:
                assert s.answers
                assert all(0 <= a < 51 for a in s.answers)

    def test_pooling_type_question(self):
        # graph with avg pooling only: the pooling-type answer is avgpool2d
        cfg = GenConfig(ops=DEFAULT_OPS)
        vocab = cfg.node_vocab()
        g = ArchGraph(nodes=[vocab.id_of("conv2d"), vocab.id_of("avgpool2d")],
                      edges=[(0, 1)], shapes=[(8, 3, 3, 3), (0, 0, 2, 2)])
        cat = answer_catalog()
        samples = gen_qa(g, cfg, np.random.default_rng(0))
        by_q = {s.question: s.answers for s in samples}
        q = "what type of pooling module has been used in this neural architecture?"
        assert by_q[q] == {cat.name_id["avgpool2d"]}

    def test_absent_maxpool_answers_does_not_include(self):
        cfg = GenConfig(ops=DEFAULT_OPS)
        vocab = cfg.node_vocab()
        g = ArchGraph(nodes=[vocab.id_of("conv2d"), vocab.id_of("avgpool2d")],
                      edges=[(0, 1)], shapes=[(8, 3, 3, 3), (0, 0, 2, 2)])
        cat = answer_catalog()
        samples = gen_qa(g, cfg, np.random.default_rng(0))
        by_q = {s.question: s.answers for s in samples}
        q = "what does the 2d max pooling layer perform in this neural network?"
        assert by_q[q] == {cat.dni_id["maxpool2d"]}
        assert cat.text_of(cat.dni_id["maxpool2d"]) == "this model does not include maxpool2d"

    def test_kernel_answers_match_shapes(self):
        cfg = GenConfig(ops=DEFAULT_OPS)
        vocab = cfg.node_vocab()
        g = ArchGraph(nodes=[vocab.id_of("conv2d"), vocab.id_of("conv2d")],
                      edges=[(0, 1)], shapes=[(8, 3, 3, 3), (16, 8, 5, 5)])
        cat = answer_catalog()
        by_q = {s.question: s.answers for s in gen_qa(g, cfg, np.random.default_rng(0))}
        q = "what kernel sizes are used by the standard 2d convolution layers in this network?"
        assert by_q[q] == {cat.kernel_id["3*3"], cat.kernel_id["5*5"]}
        assert by_q["what is the largest kernel size used in this model?"] == {cat.kernel_id["5*5"]}
        assert by_q["what is the smallest kernel size used in this model?"] == {cat.kernel_id["3*3"]}

    def test_unknown_answer_rule_is_refused(self, gen_cfg):
        g = gen_architecture(gen_cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown answer rule 'nope'"):
            _answer_ids(g, gen_cfg.node_vocab(), "nope", None, answer_catalog())

    def test_answer_sets_never_empty_invariant(self):
        with pytest.raises(ValueError):
            AQASample(graph=ArchGraph(nodes=[3], edges=[], shapes=[(0, 0, 0, 0)]),
                      question="q", answers=frozenset())


class TestSampleInvariants:
    def test_bimodal_score_range(self, chain_graph):
        with pytest.raises(ValueError):
            BiModalSample(graph=chain_graph, text="x", y=1.5)

    def test_aqa_id_range(self, chain_graph):
        with pytest.raises(ValueError):
            AQASample(graph=chain_graph, question="q", answers=frozenset({51}))


class TestDatasetDrivers:
    def test_autonet_deterministic(self, small_ops):
        cfg = GenConfig(rng_seed=5, ops=small_ops, min_nodes=3, max_nodes=6,
                        n_train_archs=4)
        a = gen_autonet(cfg, 4, "train")
        b = gen_autonet(cfg, 4, "train")
        assert a == b

    def test_tvhf_negative_fraction(self, small_ops):
        cfg = GenConfig(rng_seed=5, ops=small_ops, min_nodes=3, max_nodes=6,
                        tvhf_families=6, tvhf_variants=2)
        samples = gen_tvhf(cfg)
        neg = sum(1 for s in samples if s.y == 0.0)
        assert samples
        frac = neg / len(samples)
        assert 0.85 <= frac <= 0.95

    def test_tvhf_negatives_satisfy_threshold(self, small_ops):
        cfg = GenConfig(rng_seed=5, ops=small_ops, min_nodes=3, max_nodes=6,
                        tvhf_families=5, tvhf_variants=2)
        samples = gen_tvhf(cfg)
        pos_by_graph: dict = {}
        for s in samples:
            if s.y == 1.0:
                pos_by_graph.setdefault(s.graph.name, []).append(s.text)
        for s in samples:
            if s.y == 0.0:
                best = max(token_overlap_similarity(s.text, p)
                           for p in pos_by_graph[s.graph.name])
                assert best <= cfg.beta

    def test_family_archs_tagged(self, small_ops):
        cfg = GenConfig(rng_seed=1, ops=small_ops, min_nodes=3, max_nodes=6,
                        tvhf_families=3, tvhf_variants=2)
        tagged = gen_family_archs(cfg)
        assert len(tagged) == 6
        for g, tag in tagged:
            assert validate_graph(g).ok
            assert g.name.startswith(tag)

    def test_bacd_dataset(self, small_ops):
        cfg = GenConfig(rng_seed=1, ops=small_ops, min_nodes=3, max_nodes=6,
                        tvhf_families=4, tvhf_variants=2)
        samples = gen_bacd_dataset(cfg)
        assert samples
        assert all(s.text for s in samples)


class TestJsonl:
    def test_graph_obj_round_trip(self, gen_cfg):
        vocab = gen_cfg.node_vocab()
        g = gen_architecture(gen_cfg, np.random.default_rng(0), name="x")
        assert graph_from_obj(graph_to_obj(g, vocab), vocab) == g

    def test_bimodal_file_round_trip(self, tmp_path, gen_cfg):
        vocab = gen_cfg.node_vocab()
        samples = gen_autonet(GenConfig(rng_seed=2, ops=gen_cfg.ops, min_nodes=3,
                                        max_nodes=5), 2, "train")
        path = tmp_path / "d.jsonl"
        write_jsonl(samples, vocab, str(path))
        assert load_bimodal(str(path), vocab) == samples
        again = tmp_path / "again.jsonl"
        write_jsonl(load_bimodal(str(path), vocab), vocab, str(again))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("kind", ["aqa", "acd", "bacd", "ac"])
    def test_file_round_trip(self, tmp_path, small_ops, kind):
        cfg = GenConfig(rng_seed=2, ops=small_ops, min_nodes=3, max_nodes=5,
                        tvhf_families=3, tvhf_variants=2)
        vocab = cfg.node_vocab()
        rng = np.random.default_rng(0)
        samples, load = {
            "aqa": (lambda: gen_qa(gen_architecture(cfg, rng), cfg, rng), load_aqa),
            "acd": (lambda: gen_acd_dataset(cfg), load_acd),
            "bacd": (lambda: gen_bacd_dataset(cfg), load_bacd),
            "ac": (lambda: captions(gen_autonet(cfg, 2, "train")), load_ac),
        }[kind]
        samples = samples()
        assert samples
        path = tmp_path / "d.jsonl"
        write_jsonl(samples, vocab, str(path))
        assert load(str(path), vocab) == samples
        again = tmp_path / "again.jsonl"
        write_jsonl(load(str(path), vocab), vocab, str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_caption_file_reads_the_positives(self, tmp_path, small_ops):
        cfg = GenConfig(rng_seed=2, ops=small_ops, min_nodes=3, max_nodes=5)
        vocab = cfg.node_vocab()
        samples = gen_autonet(cfg, 2, "train")
        path = tmp_path / "d.jsonl"
        write_jsonl(samples, vocab, str(path))
        # a caption record may leave its y out
        lines = path.read_text().splitlines()
        for i, s in enumerate(samples):
            if s.y == 1.0:
                rec = json.loads(lines[i])
                del rec["y"]
                lines[i] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        assert load_ac(str(path), vocab) == captions(samples)
        assert 0 < len(captions(samples)) < len(samples)


_DOC = {"name": "g", "nodes": ["conv2d", "relu", "linear"], "edges": [[0, 1], [1, 2]],
        "shapes": [[8, 3, 3, 3], [0, 0, 0, 0], [16, 8, 1, 1]]}


def _write_records(path, *records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


class TestGraphSharing:
    """Each distinct graph document is parsed once per load call and shared by
    the records that repeat it."""

    def test_equal_documents_share_one_graph(self, tmp_path, gen_cfg):
        vocab = gen_cfg.node_vocab()
        path = _write_records(tmp_path / "d.jsonl", {"graph": _DOC, "text": "a", "y": 1.0},
                              {"graph": _DOC, "text": "b", "y": 0.0})
        a, b = load_bimodal(path, vocab)
        assert a.graph is b.graph
        (pair,) = load_bacd(_write_records(tmp_path / "p.jsonl",
                                           {"g1": _DOC, "g2": _DOC, "label": 1, "text": "c"}),
                            vocab)
        assert pair.g1 is pair.g2

    def test_load_calls_share_nothing(self, tmp_path, gen_cfg):
        vocab = gen_cfg.node_vocab()
        path = _write_records(tmp_path / "d.jsonl", {"graph": _DOC, "text": "a", "y": 1.0})
        (first,), (second,) = load_bimodal(path, vocab), load_bimodal(path, vocab)
        assert first.graph == second.graph and first.graph is not second.graph

    def test_load_calls_share_parts(self, tmp_path, gen_cfg):
        # separate loads share no graph, but each distinct edge pair, shape
        # row and edge set is one object
        vocab = gen_cfg.node_vocab()
        grown = {**_DOC, "edges": [[0, 1], [1, 2], [0, 2]]}
        first = _write_records(tmp_path / "a.jsonl", {"graph": _DOC, "text": "a", "y": 1.0})
        second = _write_records(tmp_path / "b.jsonl", {"graph": _DOC, "text": "b", "y": 0.0},
                                {"graph": grown, "text": "c", "y": 1.0})
        (a,), (b, c) = load_bimodal(first, vocab), load_bimodal(second, vocab)
        a, b, c = a.graph, b.graph, c.graph
        assert a is not b and a.edges is b.edges
        assert all(r is s for r, s in zip(a.shapes, b.shapes)) and a.shapes[0] is c.shapes[0]
        in_c = {p: p for p in c.edges}
        assert all(in_c[p] is p for p in a.edges)

    def test_documents_differing_in_name_stay_distinct(self, tmp_path, gen_cfg):
        renamed = {**_DOC, "name": "h"}
        unnamed = {k: v for k, v in _DOC.items() if k != "name"}
        path = _write_records(tmp_path / "d.jsonl", *({"graph": doc, "text": "a", "y": 1.0}
                                                      for doc in (_DOC, renamed, unnamed)))
        names = [s.graph.name for s in load_bimodal(path, gen_cfg.node_vocab())]
        assert names == ["g", "h", None]

    def test_reordered_keys_share_one_graph(self, tmp_path, gen_cfg):
        reordered = {k: _DOC[k] for k in reversed(list(_DOC))}
        path = _write_records(tmp_path / "d.jsonl", {"graph": _DOC, "text": "a", "y": 1.0},
                              {"y": 1.0, "text": "a", "graph": reordered})
        a, b = load_bimodal(path, gen_cfg.node_vocab())
        assert a.graph is b.graph

    def test_true_for_an_index_is_refused_after_a_valid_repeat(self, tmp_path, gen_cfg):
        # true == 1 and hash(true) == hash(1) in Python: a key of parsed
        # values would take this edge for [1, 2] and skip the check
        bad = {**_DOC, "edges": [[0, 1], [True, 2]]}
        path = _write_records(tmp_path / "d.jsonl", {"graph": _DOC, "text": "a", "y": 1.0},
                              {"graph": bad, "text": "a", "y": 1.0})
        with pytest.raises(ValueError, match=f"{path}:2: field 'graph': field 'edges' must "
                                             "hold pairs of integers"):
            load_bimodal(path, gen_cfg.node_vocab())

    def test_refused_document_is_refused_at_each_repeat(self, tmp_path, gen_cfg):
        bad = {**_DOC, "edges": [[0, 1], [1, 2], [2, 0]]}
        record = {"graph": bad, "text": "a", "y": 1.0}
        path = _write_records(tmp_path / "d.jsonl", record, record)
        vocab = gen_cfg.node_vocab()
        with pytest.raises(ValueError, match=f"{path}:1: field 'graph': cycle"):
            load_bimodal(path, vocab)
        path = _write_records(tmp_path / "e.jsonl", {"graph": _DOC, "text": "a", "y": 1.0},
                              {"graph": {**_DOC, "nodes": ["conv2d", "nope", "relu"]},
                               "text": "a", "y": 1.0}, record, record)
        with pytest.raises(ValueError, match=f"{path}:3: field 'graph': cycle"):
            load_bimodal(path, vocab)

    def test_write_matches_per_record_json(self, tmp_path, gen_cfg):
        vocab = gen_cfg.node_vocab()
        g = gen_architecture(gen_cfg, np.random.default_rng(0), name="x")
        unnamed = gen_architecture(gen_cfg, np.random.default_rng(1))
        samples = [BiModalSample(graph=g, text="a conv net", y=1.0),
                   BiModalSample(graph=unnamed, text="a \"quoted\" caf\u00e9", y=0.25),
                   AQASample(graph=g, question="which ops?", answers=frozenset({7, 3})),
                   ACDPair(g1=g, g2=unnamed, label=0),
                   BACDSample(g1=unnamed, g2=unnamed, label=1, text="both"),
                   ACSample(graph=g, text="a caption"),
                   ACSample(graph=unnamed, text="another")]
        expected = []
        for s in samples:
            if isinstance(s, ACSample):
                s = BiModalSample(graph=s.graph, text=s.text, y=1.0)
            record = {f.name: getattr(s, f.name) for f in fields(s)}
            record = {k: graph_to_obj(v, vocab) if isinstance(v, ArchGraph)
                      else sorted(v) if isinstance(v, frozenset) else v
                      for k, v in record.items()}
            expected.append(json.dumps(record) + "\n")
        path = tmp_path / "d.jsonl"
        write_jsonl(samples, vocab, str(path))
        assert path.read_text() == "".join(expected)


def test_compute_stats(tmp_path, small_ops):
    cfg = GenConfig(rng_seed=2, ops=small_ops, min_nodes=3, max_nodes=5)
    vocab = cfg.node_vocab()
    samples = gen_autonet(cfg, 5, "train")
    path = tmp_path / "d.jsonl"
    write_jsonl(samples, vocab, str(path))
    stats = compute_stats(str(path))
    assert stats["samples"] == len(samples)
    assert stats["unique_archs"] == 5
    assert 0 < stats["unique_nodes"] <= len(small_ops)
    assert stats["nodes"]["mean"] >= 3


def test_gen_config_invariants():
    with pytest.raises(ValueError):
        GenConfig(min_nodes=5, max_nodes=3)
    with pytest.raises(ValueError):
        GenConfig(beta=1.5)
    with pytest.raises(ValueError):
        GenConfig(ops=("not_a_real_op",))
    # each refusal names its key
    for key, value, expect in [
            ("rng_seed", -1, "rng_seed must be at least 0, got -1"),
            ("n_train_archs", 0, "n_train_archs must be at least 1, got 0"),
            ("n_val_archs", -3, "n_val_archs must be at least 1, got -3"),
            ("tvhf_families", 0, "tvhf_families must be at least 1, got 0"),
            ("tvhf_variants", 0, "tvhf_variants must be at least 1, got 0"),
            ("desc_pos_fraction", 1.0, "desc_pos_fraction must lie in (0, 1), got 1.0"),
            ("acd_pos_fraction", -0.5, "acd_pos_fraction must lie in (0, 1), got -0.5"),
            ("tvhf_neg_fraction", float("nan"), "tvhf_neg_fraction must lie in (0, 1), got nan"),
            ("ops", (), "ops must name at least one op")]:
        with pytest.raises(ValueError, match=f"^{re.escape(expect)}$"):
            GenConfig(**{key: value})
