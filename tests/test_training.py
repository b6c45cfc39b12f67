import math
import re

import numpy as np
import pytest

from archtext import autodiff as ad
from archtext import training
from archtext.autodiff import AdamState, NonFiniteError, Tensor, adam_step
from archtext.checkpoint import save_checkpoint
from archtext.datagen import ACSample, AQASample, BiModalSample, GenConfig, gen_architecture
from archtext.graph import MASK_NODE_ID, ArchGraph
from archtext.model import Model, ModelConfig, encode_graphs, encode_texts, mam_logits
from archtext.text import TextVocab, build_vocab, tokenize
from archtext.training import (
    MaskPlan,
    TrainConfig,
    aqa_loss,
    decoder_loss,
    finetune_ac,
    finetune_aqa,
    mam_loss,
    mam_terms,
    mask_count,
    mask_nodes,
    pretrain,
    sim_loss,
    total_loss,
)


class TestMaskNodes:
    def test_count_20_nodes(self, rng):
        g = ArchGraph(nodes=[3] * 20, edges=[(i, i + 1) for i in range(19)],
                      shapes=[(0, 0, 0, 0)] * 20)
        _, plan = mask_nodes(g, 0.15, rng)
        assert len(plan.positions) == 3

    def test_single_node_forced_to_one(self, rng):
        g = ArchGraph(nodes=[3], edges=[], shapes=[(0, 0, 0, 0)])
        masked, plan = mask_nodes(g, 0.15, rng)
        assert plan.positions == (0,)
        assert masked.nodes == (MASK_NODE_ID,)

    def test_unmasked_positions_keep_ids(self, gen_cfg, rng):
        g = gen_architecture(gen_cfg, rng)
        masked, plan = mask_nodes(g, 0.15, rng)
        for i in range(g.num_nodes):
            if i in plan.positions:
                assert masked.nodes[i] == MASK_NODE_ID
            else:
                assert masked.nodes[i] == g.nodes[i]
        assert masked.edges is g.edges
        assert masked.shapes is g.shapes

    def test_counts_and_uniqueness_over_many_sizes(self, rng):
        for m in range(1, 60):
            g = ArchGraph(nodes=[3] * m, edges=[], shapes=[(0, 0, 0, 0)] * m)
            _, plan = mask_nodes(g, 0.15, rng)
            assert len(plan.positions) == len(set(plan.positions)) == mask_count(m, 0.15)

    def test_mask_count_half_up(self):
        # 0.15*10 = 1.5 rounds up; 0.15*3 = 0.45 rounds down but floors at 1
        assert mask_count(10, 0.15) == 2
        assert mask_count(3, 0.15) == 1
        assert mask_count(20, 0.15) == 3


class TestSimLoss:
    def test_matching_pair_zero(self):
        v = Tensor(np.array([[1.0, 2.0]]))
        assert sim_loss(v, v, 1.0).item() == pytest.approx(0.0)

    def test_orthogonal_negative_zero(self):
        a = Tensor(np.array([[1.0, 0.0]]))
        b = Tensor(np.array([[0.0, 1.0]]))
        assert sim_loss(a, b, 0.0).item() == pytest.approx(0.0)

    def test_false_positive_costs_one(self):
        v = Tensor(np.array([[0.3, -0.7]]))
        assert sim_loss(v, v, 0.0).item() == pytest.approx(1.0)


class TestMamLoss:
    def test_peaked_logits_near_zero(self):
        logits = np.zeros((4, 8))
        logits[1, 5] = 20.0
        loss = mam_loss(Tensor(logits), MaskPlan(positions=(1,), original_ids=(5,)))
        assert loss.item() < 1e-6

    def test_uniform_is_log_vocab(self):
        loss = mam_loss(Tensor(np.zeros((3, 8))), MaskPlan(positions=(0, 2), original_ids=(1, 7)))
        assert loss.item() == pytest.approx(math.log(8))

    def test_two_mask_hand_computation(self):
        logits = np.array([[1.0, 2.0, 0.5],
                           [0.0, 0.0, 0.0],
                           [3.0, -1.0, 0.2]])
        plan = MaskPlan(positions=(0, 2), original_ids=(1, 0))
        # -log p computed by hand for each masked row, then averaged
        def logp(row, idx):
            z = sum(math.exp(v) for v in row)
            return math.log(math.exp(row[idx]) / z)
        want = -(logp(logits[0], 1) + logp(logits[2], 0)) / 2
        assert mam_loss(Tensor(logits), plan).item() == pytest.approx(want, rel=1e-12)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            mam_loss(Tensor(np.zeros((2, 4))), MaskPlan(positions=(), original_ids=()))


class TestTotalLoss:
    def test_weighted_sum(self):
        out = total_loss(Tensor(0.4), Tensor(2.0), alpha=0.05, no_mam=False)
        assert out.item() == pytest.approx(0.5)

    def test_no_mam_flag(self):
        out = total_loss(Tensor(0.4), Tensor(2.0), alpha=0.05, no_mam=True)
        assert out.item() == pytest.approx(0.4)

    def test_alpha_zero_equals_no_mam(self):
        with_mam = total_loss(Tensor(0.4), Tensor(2.0), alpha=0.0, no_mam=False)
        without = total_loss(Tensor(0.4), Tensor(2.0), alpha=0.0, no_mam=True)
        assert with_mam.item() == pytest.approx(without.item())


class TestAqaLoss:
    def test_confident_correct_near_zero(self):
        logits = Tensor(np.array([[20.0, -20.0, 20.0]]))
        loss = aqa_loss(logits, np.array([1.0, 0.0, 1.0]))
        assert loss.item() < 1e-6

    def test_zero_logits_log_two(self):
        loss = aqa_loss(Tensor(np.zeros((1, 5))), np.zeros(5))
        assert loss.item() == pytest.approx(math.log(2))

    def test_three_slot_hand_computation(self):
        logits = [0.5, -1.0, 2.0]
        targets = [1.0, 0.0, 1.0]
        def sigma(x):
            return 1 / (1 + math.exp(-x))
        want = -(math.log(sigma(0.5)) + math.log(1 - sigma(-1.0)) + math.log(sigma(2.0))) / 3
        loss = aqa_loss(Tensor(np.array([logits])), np.array(targets))
        assert loss.item() == pytest.approx(want, rel=1e-12)

    def test_targets_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            aqa_loss(Tensor(np.zeros((1, 2))), np.array([0.5, 1.5]))

    def test_targets_must_match_logits_shape(self):
        with pytest.raises(ValueError,
                           match=re.escape("target shape (1, 2) != logits shape (1, 3)")):
            aqa_loss(Tensor(np.zeros((1, 3))), np.zeros(2))


class TestDecoderLoss:
    def test_peaked_near_zero(self):
        logits = np.full((3, 16), -10.0)
        targets = [4, 7, 3]
        for i, t in enumerate(targets):
            logits[i, t] = 10.0
        loss = decoder_loss(Tensor(logits), targets)
        assert loss.item() < 1e-6

    def test_uniform_is_log_vocab(self):
        loss = decoder_loss(Tensor(np.zeros((4, 16))), [1, 2, 3, 4])
        assert loss.item() == pytest.approx(math.log(16))

    def test_all_pad_rejected(self):
        # no target at all: nothing to average over
        with pytest.raises(ValueError):
            decoder_loss(Tensor(np.zeros((0, 4))), [])

    @pytest.mark.parametrize("targets", [[1], [1, 2, 3], [[1, 2]]])
    def test_targets_must_match_rows(self, targets):
        with pytest.raises(ValueError):
            decoder_loss(Tensor(np.zeros((2, 4))), targets)

    def test_lengths_must_split_targets(self):
        with pytest.raises(ValueError, match=re.escape("lengths [1, 1] do not split 3 target ids")):
            decoder_loss(Tensor(np.zeros((3, 4))), [1, 2, 3], [1, 1])


# ---------------------------------------------------------------------------
# loops


def _toy_bimodal(small_ops, n_graphs=4):
    gcfg = GenConfig(rng_seed=2, ops=small_ops, min_nodes=3, max_nodes=5)
    graphs, texts = [], []
    for i in range(n_graphs):
        rng = np.random.default_rng([77, i])
        g = gen_architecture(gcfg, rng, name=f"g{i}")
        graphs.append(g)
        texts.append(f"net {i} alpha beta gamma{i}")
    samples = [BiModalSample(graph=graphs[i], text=texts[i], y=1.0) for i in range(n_graphs)]
    samples += [BiModalSample(graph=graphs[i], text=texts[(i + 1) % n_graphs], y=0.0)
                for i in range(n_graphs)]
    return gcfg, samples


def _toy_model(gcfg, text_vocab, **overrides):
    kwargs = dict(node_vocab_size=len(gcfg.node_vocab()), text_vocab_size=len(text_vocab),
                  d=16, gat_layers=1, gat_heads=2, cross_layers=1, cross_heads=2,
                  dec_heads=2, max_nodes=8, max_tokens=16, shape_buckets=8)
    kwargs.update(overrides)
    return Model.initialized(ModelConfig(**kwargs), seed=0)


def _one_tape_pretrain(samples, model, tcfg, text_vocab) -> list[dict]:
    """`pretrain` as one tape per step: both terms built, summed by
    `total_loss` and backpropagated once. The reference the term-by-term
    step must match bit for bit."""
    cfg = model.cfg
    seqs = [tokenize(s.text, text_vocab, cfg.max_tokens) for s in samples]
    ys = np.array([s.y for s in samples], dtype=np.float64)
    state = AdamState(lr=tcfg.lr)
    rng = np.random.default_rng([tcfg.seed, 11])
    log = []
    for epoch in range(tcfg.epochs):
        order = rng.permutation(len(samples))
        for start in range(0, len(samples), tcfg.batch_size):
            batch = [int(i) for i in order[start:start + tcfg.batch_size]]
            graphs = [samples[i].graph for i in batch]
            _, j_t = encode_texts([seqs[i] for i in batch], model.params, cfg)
            _, j_g = encode_graphs(graphs, model.params, cfg)
            l_sim = ad.mean(sim_loss(j_t, j_g, ys[batch], cfg.eps_cos))
            masked, plans = zip(*(mask_nodes(g, tcfg.mask_ratio, rng) for g in graphs))
            h_gm, _ = encode_graphs(list(masked), model.params, cfg)
            l_mam = ad.mean(mam_terms(mam_logits(h_gm, model.params), list(plans),
                                      [g.num_nodes for g in graphs]))
            l_total = total_loss(l_sim, l_mam, tcfg.alpha, no_mam=False)
            ad.zero_grads(model.params)
            l_total.backward()
            adam_step(model.params, {name: p.grad for name, p in model.params.items()
                                     if p.grad is not None}, state)
            log.append({"epoch": epoch, "step": len(log) + 1, "l_sim": l_sim.item(),
                        "l_mam": l_mam.item(), "l_total": l_total.item()})
    return log


class TestPretrain:
    def test_loss_decreases_and_logs(self, small_ops):
        gcfg, samples = _toy_bimodal(small_ops)
        vocab = build_vocab([s.text for s in samples], 64)
        model = _toy_model(gcfg, vocab)
        tcfg = TrainConfig(task="pretrain", lr=5e-3, batch_size=8, epochs=20, seed=0)
        log = pretrain(samples, model, tcfg, vocab)
        assert log[-1]["l_total"] <= log[0]["l_total"]
        assert all({"epoch", "step", "l_sim", "l_mam", "l_total"} <= set(r) for r in log)

    def test_same_seed_bit_identical_checkpoint(self, small_ops, tmp_path):
        gcfg, samples = _toy_bimodal(small_ops)
        vocab = build_vocab([s.text for s in samples], 64)
        paths = []
        for run in range(2):
            model = _toy_model(gcfg, vocab)
            tcfg = TrainConfig(task="pretrain", lr=5e-3, batch_size=4, epochs=3, seed=9)
            pretrain(samples, model, tcfg, vocab)
            path = tmp_path / f"run{run}.abkt"
            save_checkpoint(model.params, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_empty_dataset_rejected(self, small_ops):
        gcfg, _ = _toy_bimodal(small_ops)
        vocab = TextVocab(["a"])
        model = _toy_model(gcfg, vocab)
        with pytest.raises(ValueError):
            pretrain([], model, TrainConfig(task="pretrain"), vocab)

    def test_no_mam_drops_term_from_total(self, small_ops):
        gcfg, samples = _toy_bimodal(small_ops)
        vocab = build_vocab([s.text for s in samples], 64)
        model = _toy_model(gcfg, vocab, no_mam=True)
        log = pretrain(samples, model, TrainConfig(task="pretrain", epochs=1, seed=0), vocab)
        for rec in log:
            assert rec["l_mam"] is None
            assert rec["l_total"] == pytest.approx(rec["l_sim"])

    def test_text_only_freezes_arch_params(self, small_ops):
        gcfg, samples = _toy_bimodal(small_ops)
        vocab = build_vocab([s.text for s in samples], 64)
        model = _toy_model(gcfg, vocab, text_only=True)
        before = {k: v.data.copy() for k, v in model.params.items()
                  if k.startswith(("arch.", "gat."))}
        pretrain(samples, model, TrainConfig(task="pretrain", lr=1e-2, epochs=2, seed=0), vocab)
        for name, arr in before.items():
            assert model.params[name].grad is None
            np.testing.assert_array_equal(model.params[name].data, arr)

    def test_arch_only_freezes_text_params(self, small_ops):
        gcfg, samples = _toy_bimodal(small_ops)
        vocab = build_vocab([s.text for s in samples], 64)
        model = _toy_model(gcfg, vocab, arch_only=True)
        before = {k: v.data.copy() for k, v in model.params.items()
                  if k.startswith("text.")}
        pretrain(samples, model, TrainConfig(task="pretrain", lr=1e-2, epochs=2, seed=0), vocab)
        for name, arr in before.items():
            assert model.params[name].grad is None
            np.testing.assert_array_equal(model.params[name].data, arr)

    def test_no_cross_encoder_gets_zero_gradient(self, small_ops):
        gcfg, samples = _toy_bimodal(small_ops)
        vocab = build_vocab([s.text for s in samples], 64)
        model = _toy_model(gcfg, vocab, no_cross_encoder=True)
        before = {k: v.data.copy() for k, v in model.params.items()
                  if k.startswith("cross.")}
        pretrain(samples, model, TrainConfig(task="pretrain", lr=1e-2, epochs=2, seed=0), vocab)
        for name, arr in before.items():
            assert model.params[name].grad is None
            np.testing.assert_array_equal(model.params[name].data, arr)

    def test_non_finite_update_names_epoch_and_step(self, small_ops, monkeypatch):
        gcfg, samples = _toy_bimodal(small_ops)
        vocab = build_vocab([s.text for s in samples], 64)
        calls = []

        def failing_adam_step(params, grads, state):
            calls.append(state)
            if len(calls) == 3:   # 8 samples in batches of 4: the first step of epoch 1
                raise NonFiniteError("non-finite gradient for parameter x")
            adam_step(params, grads, state)

        monkeypatch.setattr(training, "adam_step", failing_adam_step)
        with pytest.raises(NonFiniteError, match=re.escape(
                "aborting at epoch 1 step 2: non-finite gradient for parameter x; loss value ")):
            pretrain(samples, _toy_model(gcfg, vocab),
                     TrainConfig(task="pretrain", batch_size=4, epochs=2, seed=0), vocab)

    def test_term_by_term_step_matches_one_tape_bit_for_bit(self, small_ops):
        gcfg, samples = _toy_bimodal(small_ops)
        vocab = build_vocab([s.text for s in samples], 64)
        tcfg = TrainConfig(task="pretrain", lr=5e-3, batch_size=4, epochs=3, seed=9, alpha=0.3)
        model, reference = _toy_model(gcfg, vocab), _toy_model(gcfg, vocab)
        log = pretrain(samples, model, tcfg, vocab)
        assert repr(log) == repr(_one_tape_pretrain(samples, reference, tcfg, vocab))
        for name, p in model.params.items():
            assert p.data.tobytes() == reference.params[name].data.tobytes(), name

    def test_first_term_tape_is_released_before_the_second_is_built(self, small_ops,
                                                                    monkeypatch):
        gcfg, samples = _toy_bimodal(small_ops)
        vocab = build_vocab([s.text for s in samples], 64)
        returned, checked = [], []

        def recording(encode):
            def wrapped(*args):
                if len(returned) == 4:   # text and graph encodes done: the masked graph's
                    checked.append([t._parents == () for t in returned])
                out = encode(*args)
                assert all(t._parents for t in out)   # each result is on the tape
                returned.extend(out)
                return out
            return wrapped

        monkeypatch.setattr(training, "encode_texts", recording(encode_texts))
        monkeypatch.setattr(training, "encode_graphs", recording(encode_graphs))
        pretrain(samples, _toy_model(gcfg, vocab),
                 TrainConfig(task="pretrain", batch_size=8, epochs=1, seed=0), vocab)
        assert len(returned) == 6
        assert checked == [[True] * 4]

    def test_non_finite_gradient_of_the_first_term_names_epoch_and_step(self, small_ops,
                                                                         monkeypatch):
        gcfg, samples = _toy_bimodal(small_ops)
        vocab = build_vocab([s.text for s in samples], 64)
        calls = []

        def failing_sim_loss(*args):
            out = sim_loss(*args)
            calls.append(out)
            if len(calls) < 3:   # 8 samples in batches of 4: the first step of epoch 1
                return out

            def backward(g):
                raise NonFiniteError("non-finite values produced by a test op")

            return Tensor._from_op(out.data, (out,), backward, "failing")

        monkeypatch.setattr(training, "sim_loss", failing_sim_loss)
        with pytest.raises(NonFiniteError, match=re.escape(
                "aborting at epoch 1 step 2: non-finite values produced by a test op; "
                "loss value ")):
            pretrain(samples, _toy_model(gcfg, vocab),
                     TrainConfig(task="pretrain", batch_size=4, epochs=2, seed=0), vocab)
        assert len(calls) == 3


class TestFinetuneAqa:
    def test_runs_and_is_deterministic(self, small_ops, tmp_path):
        gcfg = GenConfig(rng_seed=2, ops=small_ops, min_nodes=3, max_nodes=5)
        rng = np.random.default_rng(0)
        g = gen_architecture(gcfg, rng)
        samples = [AQASample(graph=g, question=f"question number {i} here",
                             answers=frozenset({i, i + 1})) for i in range(4)]
        vocab = build_vocab([s.question for s in samples], 64)
        paths = []
        for run in range(2):
            model = _toy_model(gcfg, vocab)
            finetune_aqa(samples, model, TrainConfig(task="aqa", lr=1e-3, epochs=3, seed=1),
                         vocab)
            p = tmp_path / f"aqa{run}.abkt"
            save_checkpoint(model.params, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestFinetuneAc:
    def test_initial_loss_near_log_vocab(self, small_ops):
        gcfg = GenConfig(rng_seed=2, ops=small_ops, min_nodes=3, max_nodes=5)
        rng = np.random.default_rng(0)
        samples = [ACSample(graph=gen_architecture(gcfg, rng),
                            text=f"caption {i} with words") for i in range(4)]
        vocab = build_vocab([s.text for s in samples], 64)
        model = _toy_model(gcfg, vocab)
        log = finetune_ac(samples, model, TrainConfig(task="ac", lr=1e-4, epochs=1, seed=0),
                          vocab)
        expected = math.log(len(vocab))
        assert abs(log[0]["l_total"] - expected) / expected < 0.10

    def test_determinism(self, small_ops, tmp_path):
        gcfg = GenConfig(rng_seed=2, ops=small_ops, min_nodes=3, max_nodes=5)
        rng = np.random.default_rng(0)
        samples = [ACSample(graph=gen_architecture(gcfg, rng), text="tiny caption here")]
        vocab = build_vocab([s.text for s in samples], 64)
        paths = []
        for run in range(2):
            model = _toy_model(gcfg, vocab)
            finetune_ac(samples, model, TrainConfig(task="ac", lr=1e-3, epochs=3, seed=4),
                        vocab)
            p = tmp_path / f"ac{run}.abkt"
            save_checkpoint(model.params, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(task="nope")
    with pytest.raises(ValueError):
        TrainConfig(task="pretrain", batch_size=0)
    for ratio in (0.0, 1.0):
        with pytest.raises(ValueError, match=re.escape("mask_ratio must lie in (0, 1)")):
            TrainConfig(task="pretrain", mask_ratio=ratio)


@pytest.mark.parametrize("key, value", [("lr", float("nan")), ("lr", float("inf")),
                                        ("lr", 0.0), ("lr", -1.0), ("alpha", float("nan")),
                                        ("alpha", float("inf")), ("alpha", -3.0)])
def test_step_settings_must_be_finite_and_in_range(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be finite"):
        TrainConfig(task="pretrain", **{key: value})
