import itertools
import json
import os
from collections import Counter

import numpy as np
import pytest

from archtext import evaluate
from archtext.datagen import (
    ACDPair,
    ACSample,
    AQASample,
    BACDSample,
    BiModalSample,
    GenConfig,
    gen_architecture,
)
from archtext.graph import ArchGraph, NodeVocab
from archtext.evaluate import (
    RougeScores,
    accuracy_f1,
    answer_probs,
    caption_graph,
    ar_name_baseline,
    jaccard_similarity,
    metrics_from_counts,
    pca_project,
    rouge_scores,
    run_ac,
    run_acd,
    run_aqa,
    run_ar,
    run_bacd,
    three_way_score,
    threshold_decision,
)
from archtext.model import Model, ModelConfig
from archtext.text import build_vocab

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "metrics_golden.json")


def test_threshold_is_strictly_greater():
    assert threshold_decision(0.6, 0.5)
    assert not threshold_decision(0.5, 0.5)
    assert not threshold_decision(0.4, 0.5)


class TestAccuracyF1:
    def test_worked_example(self):
        m = accuracy_f1([1, 0, 1, 1], [1, 0, 0, 1])
        assert (m.accuracy, m.precision, m.recall) == (0.75, 2 / 3, 1.0)
        assert m.f1 == pytest.approx(0.8)

    def test_perfect(self):
        m = accuracy_f1([1, 0, 1], [1, 0, 1])
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_all_negative_zero_division_rule(self):
        m = accuracy_f1([0, 0], [0, 0])
        assert m.accuracy == 1.0
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_counts_sum_to_n(self):
        m = accuracy_f1([1, 0, 1, 0, 1], [0, 0, 1, 1, 1])
        assert m.tp + m.fp + m.tn + m.fn == 5

    @pytest.mark.parametrize("preds, labels, expect", [
        ([1, 0, 1], [1, 0], r"preds of shape \(3,\) and labels of shape \(2,\) differ"),
        ([[1, 0], [0, 1]], [1, 0, 0, 1], r"shape \(2, 2\) and labels of shape \(4,\)"),
        ([], [], "empty prediction list"),
    ], ids=["lengths", "shapes", "empty"])
    def test_refuses_mismatched_or_empty(self, preds, labels, expect):
        with pytest.raises(ValueError, match=expect):
            accuracy_f1(preds, labels)

    def test_counts_cells_of_any_shape(self):
        preds = np.array([[True, False, True], [False, False, True]])
        labels = np.array([[True, True, False], [False, False, True]])
        assert accuracy_f1(preds, labels) == accuracy_f1(preds.ravel().tolist(),
                                                         labels.ravel().tolist())
        assert accuracy_f1(preds, labels) == metrics_from_counts(2, 1, 2, 1)

    def test_golden_file(self):
        with open(GOLDEN) as f:
            cases = json.load(f)["accuracy_f1"]
        assert len(cases) == 10
        for case in cases:
            m = accuracy_f1(case["preds"], case["labels"])
            assert m.accuracy == case["accuracy"]
            assert m.precision == case["precision"]
            assert m.recall == case["recall"]
            assert m.f1 == case["f1"]


class TestRouge:
    def test_identity(self):
        s = rouge_scores("a b c", "a b c")
        assert (s.r1, s.r2, s.rlsum) == (1.0, 1.0, 1.0)

    def test_worked_example(self):
        s = rouge_scores("the cat", "the cat sat")
        assert s.r1 == pytest.approx(0.8)

    def test_disjoint(self):
        s = rouge_scores("x y", "a b")
        assert (s.r1, s.r2, s.rlsum) == (0.0, 0.0, 0.0)

    def test_empty_candidate(self):
        s = rouge_scores("", "a b")
        assert (s.r1, s.r2, s.rlsum) == (0.0, 0.0, 0.0)

    def test_golden_file(self):
        with open(GOLDEN) as f:
            cases = json.load(f)["rouge"]
        assert len(cases) == 10
        for case in cases:
            s = rouge_scores(case["candidate"], case["reference"])
            assert s.r1 == case["r1"], case
            assert s.r2 == case["r2"], case
            assert s.rlsum == case["rlsum"], case


def _brute_jaccard(g1, g2, vocab):
    """List-matching multiset IoU, structurally unlike the Counter version."""
    def iou(items1, items2):
        items1, items2 = sorted(items1), sorted(items2)
        remaining = list(items2)
        inter = 0
        for x in items1:
            if x in remaining:
                remaining.remove(x)
                inter += 1
        union = len(items1) + len(items2) - inter
        return inter / union if union else 0.0

    names1 = [vocab.name_of(n) for n in g1.nodes]
    names2 = [vocab.name_of(n) for n in g2.nodes]
    node_iou = iou(names1, names2)
    if not g1.edges and not g2.edges:
        return node_iou
    typed1 = [(names1[u], names1[v]) for u, v in sorted(g1.edges)]
    typed2 = [(names2[u], names2[v]) for u, v in sorted(g2.edges)]
    return 0.5 * node_iou + 0.5 * iou(typed1, typed2)


class TestJaccard:
    @pytest.fixture
    def vocab(self):
        return NodeVocab(["conv2d", "relu", "linear", "maxpool2d"])

    def test_identical(self, vocab):
        g = ArchGraph(nodes=[3, 4], edges=[(0, 1)], shapes=[(0, 0, 0, 0)] * 2)
        assert jaccard_similarity(g, g, vocab) == 1.0

    def test_disjoint_ops(self, vocab):
        g1 = ArchGraph(nodes=[3], edges=[], shapes=[(0, 0, 0, 0)])
        g2 = ArchGraph(nodes=[4], edges=[], shapes=[(0, 0, 0, 0)])
        assert jaccard_similarity(g1, g2, vocab) == 0.0

    def test_worked_example_five_twelfths(self, vocab):
        # conv->relu->linear vs conv->relu->maxpool:
        # nodes 2/4, edge types 1/3 -> 0.5*(1/2) + 0.5*(1/3) = 5/12
        c, r, l, m = (vocab.id_of(x) for x in ("conv2d", "relu", "linear", "maxpool2d"))
        g1 = ArchGraph(nodes=[c, r, l], edges=[(0, 1), (1, 2)], shapes=[(0, 0, 0, 0)] * 3)
        g2 = ArchGraph(nodes=[c, r, m], edges=[(0, 1), (1, 2)], shapes=[(0, 0, 0, 0)] * 3)
        assert jaccard_similarity(g1, g2, vocab) == pytest.approx(5 / 12)

    def test_symmetry(self, vocab):
        rng = np.random.default_rng(0)
        cfg = GenConfig(ops=("conv2d", "relu", "linear"), min_nodes=2, max_nodes=6)
        for i in range(30):
            g1 = gen_architecture(cfg, np.random.default_rng([1, i]))
            g2 = gen_architecture(cfg, np.random.default_rng([2, i]))
            assert jaccard_similarity(g1, g2, vocab) == jaccard_similarity(g2, g1, vocab)

    def test_matches_brute_force_on_small_graph_pool(self, vocab):
        cfg = GenConfig(ops=("conv2d", "relu", "linear"), min_nodes=1, max_nodes=6)
        pool = [gen_architecture(cfg, np.random.default_rng([3, i])) for i in range(30)]
        pool.append(ArchGraph(nodes=[3], edges=[], shapes=[(0, 0, 0, 0)]))
        pool.append(ArchGraph(nodes=[4, 4], edges=[], shapes=[(0, 0, 0, 0)] * 2))
        for g1, g2 in itertools.combinations(pool, 2):
            got = jaccard_similarity(g1, g2, vocab)
            want = _brute_jaccard(g1, g2, vocab)
            assert got == pytest.approx(want, abs=1e-12)


class TestNameBaseline:
    def test_hit(self):
        assert ar_name_baseline("resnet18", "image classifier with resnet18 blocks")

    def test_miss(self):
        assert not ar_name_baseline("resnet18", "a bert model")

    def test_case_insensitive(self):
        assert ar_name_baseline("ResNet18", "uses resnet18")

    @pytest.mark.parametrize("name", ["", None])
    def test_unnamed_graph_is_never_named(self, name):
        assert not ar_name_baseline(name, "uses resnet18")


class TestThreeWayScore:
    def test_hand_computed_average(self):
        j1 = np.array([[1.0, 0.0]])
        j2 = np.array([[1.0, 0.0]])
        jt = np.array([[0.0, 1.0]])
        # cos(j1,j2)=1, cos(j1,jt)=0, cos(j2,jt)=0
        assert three_way_score(j1, j2, jt) == pytest.approx(1 / 3)

    def test_collinear_everything(self):
        v = np.array([[2.0, 1.0]])
        assert three_way_score(v, v, v) == pytest.approx(1.0)

    def test_pairwise_orthogonal(self):
        a = np.array([[1.0, 0.0, 0.0]])
        b = np.array([[0.0, 1.0, 0.0]])
        c = np.array([[0.0, 0.0, 1.0]])
        assert three_way_score(a, b, c) == pytest.approx(0.0)


class TestPca:
    def test_exact_line_collapses_to_one_column(self):
        t = np.linspace(-1, 1, 20)
        pts = np.stack([t, 2 * t], axis=1)
        with pytest.warns(UserWarning, match="rank"):
            coords = pca_project(pts, k=2)
        assert coords.shape == (20, 1)

    def test_identical_points_give_one_zero_column(self):
        with pytest.warns(UserWarning) as caught:
            coords = pca_project(np.full((4, 3), 2.5), k=2)
        assert [str(w.message) for w in caught] == [
            "data rank < 2; returning 0 components", "degenerate data; returning a zero component"]
        np.testing.assert_array_equal(coords, np.zeros((4, 1)))

    def test_noisy_line_second_component_tracks_noise(self):
        rng = np.random.default_rng(0)
        t = np.linspace(-1, 1, 40)
        pts = np.stack([t, 2 * t], axis=1) + rng.standard_normal((40, 2)) * 1e-5
        coords = pca_project(pts, k=2)
        assert coords.shape == (40, 2)
        assert np.abs(coords[:, 1]).max() <= 1e-4

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 3))
        coords = pca_project(x, k=2)
        centered = x - x.mean(axis=0, keepdims=True)
        cov = centered.T @ centered / x.shape[0]
        w, v = np.linalg.eigh(cov)
        order = np.argsort(w)[::-1][:2]
        basis = v[:, order]
        for col in range(2):
            imax = int(np.argmax(np.abs(basis[:, col])))
            if basis[imax, col] < 0:
                basis[:, col] = -basis[:, col]
        want = centered @ basis
        np.testing.assert_allclose(coords, want, atol=1e-6)
        # reconstruction errors agree too
        got_err = np.linalg.norm(centered - coords @ basis.T)
        want_err = np.linalg.norm(centered - want @ basis.T)
        assert got_err == pytest.approx(want_err, abs=1e-6)

    def test_duplicated_points_identical_coords(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        dup = np.concatenate([x, x[:1]], axis=0)
        coords = pca_project(dup, k=2)
        np.testing.assert_allclose(coords[0], coords[-1], atol=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            pca_project(np.ones((1, 3)), k=1)


# ---------------------------------------------------------------------------
# task runners over a tiny random model


@pytest.fixture
def runner_setup(small_ops):
    gcfg = GenConfig(rng_seed=4, ops=small_ops, min_nodes=3, max_nodes=5)
    graphs = [gen_architecture(gcfg, np.random.default_rng([50, i]), name=f"g{i}")
              for i in range(3)]
    texts = [f"model number {i} with features" for i in range(3)]
    vocab = build_vocab(texts + ["does it work"], 64)
    cfg = ModelConfig(node_vocab_size=len(gcfg.node_vocab()), text_vocab_size=len(vocab),
                      d=8, gat_layers=1, gat_heads=2, cross_layers=1, cross_heads=2,
                      dec_heads=2, max_nodes=8, max_tokens=16, n_answers=3,
                      shape_buckets=4)
    model = Model.initialized(cfg, seed=6)
    return gcfg, graphs, texts, vocab, model


class TestRunners:
    def test_run_ar_deterministic(self, runner_setup):
        _, graphs, texts, vocab, model = runner_setup
        samples = [BiModalSample(graph=g, text=t, y=float(i % 2))
                   for i, (g, t) in enumerate(zip(graphs, texts))]
        m1 = run_ar(model, samples, 0.5, vocab)
        m2 = run_ar(model, samples, 0.5, vocab)
        assert m1 == m2

    def test_run_acd_identical_graphs_similar(self, runner_setup):
        _, graphs, _, _, model = runner_setup
        pairs = [ACDPair(g1=graphs[0], g2=graphs[0], label=1)]
        m = run_acd(model, pairs, 0.5)
        assert m.accuracy == 1.0  # cosine of identical embeddings is ~1 > 0.5

    def test_run_bacd_runs(self, runner_setup):
        _, graphs, _, vocab, model = runner_setup
        samples = [BACDSample(g1=graphs[0], g2=graphs[1], label=0, text="model number")]
        m = run_bacd(model, samples, 0.5, vocab)
        assert m.tp + m.fp + m.tn + m.fn == 1

    def test_run_aqa_all_zero_logits_recall_zero(self, runner_setup):
        _, graphs, _, vocab, model = runner_setup
        model.params["head.aqa.fc1.w"].data = np.zeros_like(model.params["head.aqa.fc1.w"].data)
        model.params["head.aqa.fc1.b"].data = np.zeros_like(model.params["head.aqa.fc1.b"].data)
        model.params["head.aqa.fc2.w"].data = np.zeros_like(model.params["head.aqa.fc2.w"].data)
        model.params["head.aqa.fc2.b"].data = np.zeros_like(model.params["head.aqa.fc2.b"].data)
        samples = [AQASample(graph=graphs[0], question="does it work", answers=frozenset({0}))]
        m = run_aqa(model, samples, vocab)
        assert m.recall == 0.0
        assert m.tp == 0

    def test_run_aqa_micro_counts_hand_case(self, runner_setup):
        _, graphs, _, vocab, model = runner_setup
        # fc1 zeroed, fc2 zeroed, bias fixed: logits [+1, -1, +1] for every sample
        model.params["head.aqa.fc1.w"].data = np.zeros_like(model.params["head.aqa.fc1.w"].data)
        model.params["head.aqa.fc1.b"].data = np.zeros_like(model.params["head.aqa.fc1.b"].data)
        model.params["head.aqa.fc2.w"].data = np.zeros_like(model.params["head.aqa.fc2.w"].data)
        model.params["head.aqa.fc2.b"].data = np.array([[1.0, -1.0, 1.0]])
        samples = [
            AQASample(graph=graphs[0], question="does it work", answers=frozenset({0})),
            AQASample(graph=graphs[1], question="model number", answers=frozenset({1, 2})),
        ]
        m = run_aqa(model, samples, vocab)
        # predictions {0,2} vs golds {0} and {1,2}: tp=2 fp=2 tn=1 fn=1
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 2, 1, 1)
        assert m.accuracy == pytest.approx(0.5)
        assert m.f1 == pytest.approx(4 / 7)

    def test_run_aqa_matches_per_sample_loop(self, runner_setup):
        _, graphs, texts, vocab, model = runner_setup
        rng = np.random.default_rng(11)
        for name in ("head.aqa.fc1.w", "head.aqa.fc1.b", "head.aqa.fc2.w", "head.aqa.fc2.b"):
            model.params[name].data = rng.normal(0.0, 3.0, model.params[name].data.shape)
        samples = [AQASample(graph=graphs[i % 3], question=q, answers=frozenset(a))
                   for i, (q, a) in enumerate(itertools.product(
                       texts + ["does it work"], ({0}, {1, 2}, {0, 1, 2}, {2, 50})))]
        counts = Counter()
        for s in samples:
            probs = answer_probs(model, [s.question], [s.graph], vocab)[0]
            for slot in range(model.cfg.n_answers):
                counts[(bool(probs[slot] > 0.5), slot in s.answers)] += 1
        want = (counts[True, True], counts[True, False], counts[False, False],
                counts[False, True])
        assert min(want) > 0
        assert run_aqa(model, samples, vocab) == metrics_from_counts(*want)

    def test_run_ac_decodes_each_graph_once(self, runner_setup, monkeypatch):
        _, graphs, texts, vocab, model = runner_setup
        samples = [ACSample(graph=graphs[i % 2], text=texts[i % 3]) for i in range(6)]
        captions = {g: caption_graph(model, g, vocab, beam=2) for g in graphs[:2]}
        want = [rouge_scores(captions[s.graph], s.text) for s in samples]
        decoded = []

        def counting(model, g, text_vocab, beam):
            decoded.append(g)
            return caption_graph(model, g, text_vocab, beam=beam)

        monkeypatch.setattr(evaluate, "caption_graph", counting)
        scores = run_ac(model, samples, vocab, beam=2)
        assert decoded == graphs[:2]
        assert scores == RougeScores(r1=float(np.mean([w.r1 for w in want])),
                                     r2=float(np.mean([w.r2 for w in want])),
                                     rlsum=float(np.mean([w.rlsum for w in want])))

    @pytest.mark.parametrize("runner", [
        lambda model, vocab: run_ar(model, [], 0.5, vocab),
        lambda model, vocab: run_acd(model, [], 0.5),
        lambda model, vocab: run_bacd(model, [], 0.5, vocab),
        lambda model, vocab: run_aqa(model, [], vocab),
        lambda model, vocab: run_ac(model, [], vocab, beam=2),
        lambda model, vocab: evaluate.run_ar_baseline([]),
        lambda model, vocab: evaluate.run_acd_baseline([], 0.5, NodeVocab(["conv2d"])),
    ], ids=["run_ar", "run_acd", "run_bacd", "run_aqa", "run_ac", "ar-baseline",
            "acd-baseline"])
    def test_empty_dataset_rejected(self, runner_setup, monkeypatch, runner):
        _, _, _, vocab, model = runner_setup

        def refuse(*args, **kwargs):
            raise AssertionError("an empty dataset reached an encode")

        for name in ("embed_texts", "embed_graphs", "caption_graph"):
            monkeypatch.setattr(evaluate, name, refuse)
        with pytest.raises(ValueError, match="^empty dataset$"):
            runner(model, vocab)
