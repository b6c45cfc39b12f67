import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import archtext.autodiff as ad
import archtext.model as model_mod
from archtext.autodiff import Tensor, finite_diff
from archtext.datagen import ACSample, GenConfig, gen_architecture, gen_descriptions
from archtext.graph import MASK_NODE_ID, ArchGraph, attention_edges
from archtext.model import (
    _FORBIDDEN_DECODE_IDS,
    Model,
    ModelConfig,
    aqa_logits,
    cosine,
    cross_encode,
    decode_beam,
    decoder_logits,
    embed_graphs,
    embed_nodes_shapes,
    embed_text,
    embed_texts,
    encode_graph,
    encode_graphs,
    encode_text,
    encode_texts,
    gat_forward,
    init_params,
    mam_logits,
    param_table,
    pool,
    shape_bucket,
)
from archtext.text import BOS_ID, EOS_ID, TextVocab, build_vocab, tokenize
from archtext.training import (
    MaskPlan,
    TrainConfig,
    decoder_loss,
    finetune_ac,
    mam_terms,
    mask_nodes,
    sim_loss,
)

import composite_ops as cops
from test_autodiff import rel_err


@pytest.fixture
def small_graph():
    return ArchGraph(nodes=[3, 4, 5], edges=[(0, 1), (1, 2)],
                     shapes=[(8, 3, 3, 3), (0, 0, 0, 0), (16, 8, 1, 1)])


class TestShapeBucket:
    def test_values_follow_log2_formula(self):
        # floor(log2(x+1)), capped at n_buckets-1
        cases = {0: 0, 1: 1, 2: 1, 3: 2, 6: 2, 7: 3, 8: 3, 9: 3, 14: 3, 15: 4, 16: 4,
                 30: 4, 31: 5}
        for x, want in cases.items():
            assert shape_bucket(x, 16) == want

    def test_cap(self):
        assert shape_bucket(10 ** 9, 16) == 15
        assert shape_bucket(16, 5) == 4
        assert shape_bucket(10 ** 6, 5) == 4

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2 ** 53 - 1), min_size=1, max_size=40),
           st.integers(min_value=1, max_value=64))
    def test_array_buckets_match_bit_length(self, xs, n_buckets):
        want = [min((x + 1).bit_length() - 1, n_buckets - 1) for x in xs]
        assert shape_bucket(np.array(xs, dtype=np.int64), n_buckets).tolist() == want


class TestEmbedText:
    def test_zero_tables_give_zero(self, tiny_model_cfg, tiny_text_vocab):
        params = {
            "text.tok_emb": Tensor(np.zeros((tiny_model_cfg.text_vocab_size, 8))),
            "text.pos_emb": Tensor(np.zeros((8, 8))),
        }
        seq = tokenize("alpha", tiny_text_vocab, 6)
        out = embed_text([seq], params, tiny_model_cfg)
        np.testing.assert_array_equal(out.data, np.zeros((seq.real_length, 8)))

    def test_position_disambiguates_repeats(self, tiny_model, tiny_text_vocab):
        seq = tokenize("alpha alpha", tiny_text_vocab, 6)
        out = embed_text([seq], tiny_model.params, tiny_model.cfg)
        pos = tiny_model.params["text.pos_emb"].data
        np.testing.assert_allclose(out.data[1] - out.data[2], pos[1] - pos[2], atol=1e-12)

    def test_shape_is_real_length_by_d(self, tiny_model, tiny_text_vocab):
        for max_len in (4, 6, 8):
            seq = tokenize("alpha beta", tiny_text_vocab, max_len)
            out = embed_text([seq], tiny_model.params, tiny_model.cfg)
            assert out.shape == (seq.real_length, tiny_model.cfg.d)

    def test_too_long_rejected(self, tiny_model, tiny_text_vocab):
        seq = tokenize("alpha", tiny_text_vocab, 8)
        cfg = tiny_model.cfg
        long_seq = tokenize("alpha " * 10, tiny_text_vocab, 9)
        assert seq  # sanity
        with pytest.raises(ValueError, match="max_tokens"):
            embed_text([long_seq], tiny_model.params, cfg)


class TestEmbedNodesShapes:
    def test_sentinel_shape_hits_bucket_zero(self, tiny_model):
        g = ArchGraph(nodes=[3], edges=[], shapes=[(0, 0, 0, 0)])
        out = embed_nodes_shapes([g], tiny_model.params, tiny_model.cfg)
        expect = tiny_model.params["arch.node_emb"].data[3].copy()
        for k in range(4):
            expect = expect + tiny_model.params[f"arch.shape_emb.{k}"].data[0]
        np.testing.assert_allclose(out.data[0], expect, atol=1e-12)

    def test_no_shape_flag_is_pure_node_lookup(self, tiny_model_cfg, small_graph):
        import dataclasses
        cfg = dataclasses.replace(tiny_model_cfg, no_shape=True)
        params = init_params(cfg, seed=2)
        out = embed_nodes_shapes([small_graph], params, cfg)
        np.testing.assert_array_equal(
            out.data, params["arch.node_emb"].data[list(small_graph.nodes)])

    def test_node_id_out_of_vocab(self, tiny_model):
        g = ArchGraph(nodes=[99], edges=[], shapes=[(0, 0, 0, 0)])
        with pytest.raises(ValueError, match="vocabulary"):
            embed_nodes_shapes([g], tiny_model.params, tiny_model.cfg)

    def test_graph_over_max_nodes_rejected(self, tiny_model):
        g = ArchGraph(nodes=[3] * 9, edges=[], shapes=[(0, 0, 0, 0)] * 9)
        with pytest.raises(ValueError, match="graph has 9 nodes, max_nodes is 8"):
            embed_nodes_shapes([g], tiny_model.params, tiny_model.cfg)


class TestGat:
    def test_isolated_node_residual_form(self, tiny_model):
        # self-loop only: attention weight 1 on itself
        cfg = tiny_model.cfg
        params = tiny_model.params
        x = np.random.default_rng(0).standard_normal((1, cfg.d))
        lone = ArchGraph(nodes=[3], edges=[], shapes=[(0, 0, 0, 0)])
        out = gat_forward(Tensor(x), attention_edges([lone]), params, cfg)
        dh = cfg.d // cfg.gat_heads
        heads = [x @ params[f"gat.0.{h}.W"].data for h in range(cfg.gat_heads)]
        manual = x + np.concatenate(heads, axis=1) @ params["gat.0.proj"].data
        np.testing.assert_allclose(out.data, manual, atol=1e-12)

    def test_identical_features_give_uniform_attention(self, tiny_model):
        cfg = tiny_model.cfg
        x = np.tile(np.random.default_rng(1).standard_normal((1, cfg.d)), (4, 1))
        # every node attends to every node
        full = attention_edges([ArchGraph(nodes=[3] * 4, edges=[], shapes=[(0, 0, 0, 0)] * 4)],
                               use_edges=False)
        out_full = gat_forward(Tensor(x), full, tiny_model.params, cfg)
        # identical rows must stay identical under uniform attention
        for row in range(1, 4):
            np.testing.assert_allclose(out_full.data[row], out_full.data[0], atol=1e-12)

    def test_gradient_vs_finite_difference(self, tiny_model, small_graph):
        cfg = tiny_model.cfg
        params = tiny_model.params
        feats = embed_nodes_shapes([small_graph], params, cfg)
        edges = attention_edges([small_graph])
        target = params["gat.0.0.W"]

        def build():
            return ad.sum_(gat_forward(embed_nodes_shapes([small_graph], params, cfg),
                                       edges, params, cfg))

        for p in params.values():
            p.grad = None
        build().backward()
        numeric = finite_diff(lambda: build().item(), [target])[0]
        assert rel_err(target.grad, numeric) <= 1e-4
        assert feats.shape == (3, cfg.d)


def _reference_mask(g, use_edges):
    """Row i true where node i attends: itself and its neighbours either way
    along an edge, or every node without edges."""
    mask = np.eye(g.num_nodes, dtype=bool) | (not use_edges)
    for u, v in g.edges:
        mask[u, v] = mask[v, u] = True
    return mask


def _dense_gat_reference(x, mask, params, cfg, g_out):
    """The GAT over a dense (heads, m, m) grid in plain numpy, as this
    package computed it before the edge-list form, for one graph: x (m, d)
    rows, mask (m, m) with row i true where node i attends. Returns the
    output rows and, for the output gradient g_out, the gradients of x and
    of every GAT parameter, derived by hand."""
    m, d = x.shape
    heads = cfg.gat_heads
    dh = d // heads
    saved = []
    for layer in range(cfg.gat_layers):
        w = np.concatenate([params[f"gat.{layer}.{h}.W"].data for h in range(heads)], axis=1)
        a = np.concatenate([params[f"gat.{layer}.{h}.a"].data for h in range(heads)])
        wh = (x @ w).reshape(m, heads, dh).transpose(1, 0, 2)          # (heads, m, dh)
        own, other = (wh * a[:, None, :dh]).sum(-1), (wh * a[:, None, dh:]).sum(-1)
        pre = own[:, :, None] + other[:, None, :]                       # (heads, m, m)
        z = np.where(mask, np.where(pre > 0, pre, 0.2 * pre), -np.inf)
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        alpha = e / e.sum(axis=-1, keepdims=True)
        mixed = (alpha @ wh).transpose(1, 0, 2).reshape(m, d)
        saved.append((x, w, a, wh, pre, alpha, mixed))
        x = x + mixed @ params[f"gat.{layer}.proj"].data
    out, g, grads = x, g_out, {}
    for layer in reversed(range(cfg.gat_layers)):
        x, w, a, wh, pre, alpha, mixed = saved[layer]
        grads[f"gat.{layer}.proj"] = mixed.T @ g
        gm = (g @ params[f"gat.{layer}.proj"].data.T).reshape(m, heads, dh).transpose(1, 0, 2)
        galpha = gm @ wh.transpose(0, 2, 1)
        gpre = (alpha * (galpha - (galpha * alpha).sum(axis=-1, keepdims=True))
                * np.where(pre > 0, 1.0, 0.2))
        gown, gother = gpre.sum(axis=2), gpre.sum(axis=1)               # (heads, m)
        gwh = (alpha.transpose(0, 2, 1) @ gm + gown[:, :, None] * a[:, None, :dh]
               + gother[:, :, None] * a[:, None, dh:])
        ga = np.concatenate([(gown[:, :, None] * wh).sum(axis=1),
                             (gother[:, :, None] * wh).sum(axis=1)], axis=1)
        gflat = gwh.transpose(1, 0, 2).reshape(m, d)
        gw = x.T @ gflat
        for h in range(heads):
            grads[f"gat.{layer}.{h}.W"] = gw[:, h * dh:(h + 1) * dh]
            grads[f"gat.{layer}.{h}.a"] = ga[h:h + 1]
        g = g + gflat @ w.T
    return out, g, grads


class TestEdgeListGat:
    """The edge-list GAT against the dense reference, output and gradients."""

    @pytest.fixture
    def setup(self):
        gcfg = GenConfig(rng_seed=0, ops=SMALL_OPS)
        graphs = _mixed_graphs(gcfg, (5, 17, 2, 11))
        graphs += [ArchGraph(nodes=[3], edges=[], shapes=[(8, 3, 3, 3)]),
                   ArchGraph(nodes=[3, 4, 5, 4], edges=[], shapes=[(0, 0, 0, 0)] * 4)]
        cfg = ModelConfig(node_vocab_size=len(gcfg.node_vocab()), text_vocab_size=8,
                          d=16, gat_layers=2, gat_heads=2, cross_heads=4, dec_heads=2)
        return graphs, cfg, Model.initialized(cfg, seed=6).params

    def _compare(self, graphs, cfg, params, use_edges):
        weights = np.random.default_rng(1).standard_normal((sum(g.num_nodes for g in graphs),
                                                            cfg.d))
        gat = [k for k in params if k.startswith("gat.")]
        for p in params.values():
            p.grad = None
        feats = Tensor(embed_nodes_shapes(graphs, params, cfg).data, requires_grad=True)
        out = gat_forward(feats, attention_edges(graphs, use_edges), params, cfg)
        ad.sum_(out * Tensor(weights)).backward()
        want = {k: np.zeros_like(params[k].data) for k in gat}
        lo = 0
        for g in graphs:
            rows = slice(lo, lo + g.num_nodes)
            lo += g.num_nodes
            dense, g_feats, g_params = _dense_gat_reference(
                feats.data[rows], _reference_mask(g, use_edges), params, cfg, weights[rows])
            np.testing.assert_allclose(out.data[rows], dense, rtol=0, atol=1e-12)
            np.testing.assert_allclose(feats.grad[rows], g_feats, rtol=0, atol=1e-12)
            for name in gat:
                want[name] += g_params[name]
        for name in gat:
            np.testing.assert_allclose(params[name].grad, want[name], rtol=1e-12, atol=1e-12,
                                       err_msg=name)

    def test_mixed_batch_with_one_node_and_edgeless_graphs(self, setup):
        graphs, cfg, params = setup
        assert {g.num_nodes for g in graphs} >= {1, 2, 17} and not graphs[-1].edges
        self._compare(graphs, cfg, params, use_edges=True)

    @pytest.mark.parametrize("which", [4, 5])
    def test_one_graph_alone(self, setup, which):
        graphs, cfg, params = setup
        self._compare(graphs[which:which + 1], cfg, params, use_edges=True)

    def test_no_edge_ablation(self, setup):
        graphs, cfg, params = setup
        self._compare(graphs, cfg, params, use_edges=False)


class TestCrossEncode:
    def test_no_cross_encoder_is_identity(self, tiny_model):
        import dataclasses
        cfg = dataclasses.replace(tiny_model.cfg, no_cross_encoder=True)
        x = Tensor(np.random.default_rng(0).standard_normal((4, cfg.d)))
        out = cross_encode(x, [4], tiny_model.params, cfg)
        assert out is x

    def test_other_sequence_rows_never_influence_a_sequence(self, tiny_model):
        cfg = tiny_model.cfg
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, cfg.d))
        out1 = cross_encode(Tensor(x), [3, 2], tiny_model.params, cfg)
        x2 = x.copy()
        x2[0] += 17.0
        out2 = cross_encode(Tensor(x2), [3, 2], tiny_model.params, cfg)
        np.testing.assert_array_equal(out1.data[3:], out2.data[3:])
        # and they are what the sequence gets alone
        alone = cross_encode(Tensor(x[3:]), [2], tiny_model.params, cfg)
        np.testing.assert_allclose(out1.data[3:], alone.data, rtol=0, atol=1e-12)

    def test_other_sequence_row_permutation_bit_identical(self, tiny_model):
        cfg = tiny_model.cfg
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, cfg.d))
        out1 = cross_encode(Tensor(x), [2, 3, 2], tiny_model.params, cfg)
        x2 = x.copy()
        x2[[0, 1, 5, 6]] = x2[[6, 5, 1, 0]]
        out2 = cross_encode(Tensor(x2), [2, 3, 2], tiny_model.params, cfg)
        np.testing.assert_array_equal(out1.data[2:5], out2.data[2:5])

    def test_sequence_over_encoder_limit_rejected(self, tiny_model):
        # the limit is the larger of max_tokens and max_nodes, 8 for both here
        cfg = tiny_model.cfg
        with pytest.raises(ValueError, match="sequence of 9 exceeds encoder limit"):
            cross_encode(Tensor(np.ones((11, cfg.d))), [2, 9], tiny_model.params, cfg)


class TestPool:
    def test_single_real_row(self):
        h = Tensor(np.array([[1.0, 2.0], [9.0, 9.0]]))
        out = pool(h, [1, 1])
        np.testing.assert_array_equal(out.data[0], [1.0, 2.0])

    def test_duplicate_rows(self):
        v = np.array([3.0, -1.0])
        out = pool(Tensor(np.stack([v, v])), [2])
        np.testing.assert_allclose(out.data, [v], atol=1e-15)

    def test_two_basis_rows(self):
        out = pool(Tensor(np.array([[1.0, 0.0], [0.0, 1.0]])), [2])
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_all_pad_rejected(self):
        with pytest.raises(ValueError, match=re.escape("lengths [2, 0] do not split 2 rows")):
            pool(Tensor(np.ones((2, 2))), [2, 0])


# ---------------------------------------------------------------------------
# the fused sublayer ops against the composites of single ops they replace


def _composite_attention_block(x, norm, proj, heads, lengths):
    y = cops.layer_norm(x, *norm)
    q, k, v = (ad.linear(y, w, b) for w, b in proj[:3])
    return ad.add(x, ad.linear(cops.attention(q, k, v, heads, lengths=lengths), *proj[3]))


def _composite_attention(q, k, v, heads, lengths, kv_lengths, causal):
    """Attention of each sequence on its own, its rows taken out and the
    results stacked: sequence b's lengths[b] rows of q over its
    kv_lengths[b] rows of k and v, causal as `attention_block` says."""
    parts, q_at, k_at = [], 0, 0
    for lq, lk in zip(lengths, kv_lengths):
        q_rows, k_rows = np.arange(q_at, q_at + lq), np.arange(k_at, k_at + lk)
        mask = np.tri(lq, lk, lk - lq, dtype=bool) if causal else None
        parts.append(cops.attention(cops.take_rows(q, q_rows), cops.take_rows(k, k_rows),
                                    cops.take_rows(v, k_rows), heads, mask=mask))
        q_at, k_at = q_at + lq, k_at + lk
    return cops.concat(parts)


def _composite_causal_attention_block(x, norm, proj, heads, lengths):
    y = cops.layer_norm(x, *norm)
    q, k, v = (ad.linear(y, w, b) for w, b in proj[:3])
    return ad.add(x, ad.linear(_composite_attention(q, k, v, heads, lengths, lengths, True),
                               *proj[3]))


def _composite_cross_attention_block(x, kv, norm, proj, heads, lengths, kv_lengths):
    q = ad.linear(cops.layer_norm(x, *norm), *proj[0])
    return ad.add(x, ad.linear(_composite_attention(q, *kv, heads, lengths, kv_lengths, False),
                               *proj[1]))


def _composite_mlp(x, proj):
    return ad.linear(cops.leaky_relu(ad.linear(x, *proj[0]), slope=0.2), *proj[1])


def _composite_ffn_block(x, norm, proj):
    h = cops.leaky_relu(ad.linear(cops.layer_norm(x, *norm), *proj[0]), slope=0.2)
    return ad.add(x, ad.linear(h, *proj[1]))


def _composite_embed(tables, columns):
    out = cops.gather_rows(tables[0], columns[0])
    for table, ids in zip(tables[1:], columns[1:]):
        out = ad.add(out, cops.gather_rows(table, ids))
    return out


def _composite_segment_mean(h, lengths):
    seg = ad.segments(np.repeat(np.arange(len(lengths)), lengths))
    return ad.mul(ad.segment_sum(h, seg), Tensor(1.0 / np.asarray(lengths)[:, None]))


def _fused_case(op, rng):
    """(inputs, fused build, composite build) over packed rows of mixed
    lengths: two length groups not contiguous, and length-1 sequences."""
    d, heads, lengths = 16, 4, [3, 1, 5, 3, 2, 5, 1]

    def t(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    x = t(sum(lengths), d)
    norm = (t(1, d), t(1, d))
    if op == "attention_block":
        proj = tuple((t(d, d), t(1, d)) for _ in range(4))
        return ([x, *norm, *itertools.chain(*proj)],
                lambda: ad.attention_block(x, norm, proj, heads, lengths),
                lambda: _composite_attention_block(x, norm, proj, heads, lengths))
    if op == "ffn_block":
        proj = ((t(d, 2 * d), t(1, 2 * d)), (t(2 * d, d), t(1, d)))
        return ([x, *norm, *itertools.chain(*proj)], lambda: ad.ffn_block(x, norm, proj),
                lambda: _composite_ffn_block(x, norm, proj))
    if op == "causal_attention_block":
        proj = tuple((t(d, d), t(1, d)) for _ in range(4))
        return ([x, *norm, *itertools.chain(*proj)],
                lambda: ad.attention_block(x, norm, proj, heads, lengths, causal=True),
                lambda: _composite_causal_attention_block(x, norm, proj, heads, lengths))
    if op == "cross_attention_block":
        # a 1-node graph, and graphs of one size under captions of two lengths
        kv_lengths = [4, 1, 4, 2, 4, 1, 3]
        kv = (t(sum(kv_lengths), d), t(sum(kv_lengths), d))
        proj = tuple((t(d, d), t(1, d)) for _ in range(2))
        return ([x, *kv, *norm, *itertools.chain(*proj)],
                lambda: ad.cross_attention_block(x, kv, norm, proj, heads, lengths, kv_lengths),
                lambda: _composite_cross_attention_block(x, kv, norm, proj, heads, lengths,
                                                         kv_lengths))
    if op == "mlp":
        proj = ((t(d, 2 * d), t(1, 2 * d)), (t(2 * d, 5), t(1, 5)))
        return [x, *itertools.chain(*proj)], lambda: ad.mlp(x, proj), lambda: _composite_mlp(
            x, proj)
    if op == "embed":
        tables = [t(9, d) for _ in range(5)]
        columns = [rng.integers(0, 9, size=sum(lengths)) for _ in tables]
        return (tables, lambda: ad.embed(tables, columns),
                lambda: _composite_embed(tables, columns))
    return [x], lambda: ad.segment_mean(x, lengths), lambda: _composite_segment_mean(x, lengths)


class TestFusedOps:
    @pytest.mark.parametrize("op", ["attention_block", "ffn_block", "embed", "segment_mean",
                                    "causal_attention_block", "cross_attention_block", "mlp"])
    def test_equals_composite_bit_for_bit(self, op):
        # forward and every gradient: the fused backward sums a gradient with
        # several terms in the order the composite's tape did
        inputs, fused, composite = _fused_case(op, np.random.default_rng(31))
        results = []
        for build in (fused, composite):
            for p in inputs:
                p.grad = None
            out = build()
            weights = np.random.default_rng(32).standard_normal(out.shape)
            ad.sum_(out * Tensor(weights)).backward()
            results.append([out.data] + [p.grad for p in inputs])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    @staticmethod
    def tape_ops(monkeypatch, call) -> list[str]:
        """The name of every op `call()` puts on the tape."""
        real, names = Tensor.__dict__["_from_op"].__func__, []

        def from_op(cls, *args):
            names.append(args[-1])
            return real(cls, *args)

        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "_from_op", classmethod(from_op))
            call()
        return names

    def test_op_counts(self, monkeypatch):
        # a split of a fused stage that creeps back shows up here
        gcfg = GenConfig(rng_seed=0, ops=SMALL_OPS)
        (g,) = _mixed_graphs(gcfg, (12,))
        vocab = build_vocab(["a small conv net with relu and linear layers"], 64)
        cfg = ModelConfig(node_vocab_size=len(gcfg.node_vocab()), text_vocab_size=len(vocab),
                          d=16, gat_heads=2, cross_heads=4, dec_heads=2)
        params = Model.initialized(cfg, seed=0).constants()
        seq = tokenize("a small conv net with relu and linear layers", vocab, cfg.max_tokens)
        assert (cfg.gat_layers, cfg.cross_layers) == (2, 2)
        text = self.tape_ops(monkeypatch, lambda: encode_texts([seq], params, cfg))
        assert text == ["embed"] + ["attention_block", "ffn_block"] * 2 + ["segment_mean"]
        # and one op per GAT layer between embed and the cross-encoder
        graph = self.tape_ops(monkeypatch, lambda: encode_graphs([g], params, cfg))
        assert graph == ["embed", "gat_layer", "gat_layer"] + text[1:], graph
        h_g, _ = encode_graphs([g], params, cfg)
        cross = model_mod._decoder_cross(h_g, params)
        cache = ad.KVCache()
        model_mod._DecoderStep.of(cross, params, cfg)(np.array([BOS_ID]), cache)
        cache.reorder([0, 0])   # two hypotheses continue the first
        step = self.tape_ops(monkeypatch, lambda: model_mod._DecoderStep.of(
            cross, params, cfg)(np.array([7, 9]), cache))
        # a beam step runs the fused ops' kernels on arrays and records nothing
        assert step == [], step
        decoder = ["attention_block", "cross_attention_block", "ffn_block", "mlp"]
        # a caption fine-tuning batch: the graph encode, then one teacher-forced
        # decoder pass and its loss over the packed captions of the batch
        graphs = _mixed_graphs(gcfg, (3, 12, 1, 7))
        texts = ["a small conv net", "relu", "", "linear layers with relu and a conv net"]
        samples = [ACSample(graph=gr, text=t) for gr, t in zip(graphs, texts)]
        model = Model.initialized(cfg, seed=0)
        batch = self.tape_ops(monkeypatch, lambda: finetune_ac(
            samples, model, TrainConfig(task="ac", batch_size=4, epochs=1), vocab))
        assert batch == graph + ["embed", "linear", "linear", *decoder, "nll"], batch

    @pytest.mark.parametrize("names, stage", [
        (("cross.0.ln.attn.scale",), "attention_block (layer norm)"),
        (("cross.0.attn.wq",), "attention_block (q projection)"),
        (("cross.0.attn.wk",), "attention_block (k projection)"),
        (("cross.0.attn.wv",), "attention_block (v projection)"),
        (("cross.0.attn.wq", "cross.0.attn.wk"), "attention_block (attention)"),
        (("cross.1.attn.wo",), "attention_block (output projection)"),
        (("cross.0.ln.ffn.scale",), "ffn_block (layer norm)"),
        (("cross.0.ffn.w1",), "ffn_block (hidden layer)"),
        (("cross.1.ffn.w2",), "ffn_block (output projection)"),
        (("arch.node_emb", "gat.0.0.W"), "gat_layer (projection)"),
        (("arch.node_emb", "gat.0.0.a"), "gat_layer (scores)"),
        (("arch.node_emb", "gat.0.proj"), "gat_layer (output projection)"),
    ])
    def test_overflow_names_the_op_and_stage(self, frozen, names, stage):
        # finite weights whose products overflow; q and k at the square root
        # of the largest float overflow only in their scores, and node
        # embeddings there overflow only once a GAT weight multiplies them
        model, vocab, graphs, texts = frozen
        rng = np.random.default_rng(0)
        big = np.finfo(np.float64).max ** (1 / len(names))
        for name in names:
            shape = model.params[name].data.shape
            model.params[name].data = np.where(rng.random(shape) < 0.5, -big, big)
        embeds = [lambda: embed_graphs(graphs, model)]
        if not stage.startswith("gat_layer"):   # the GAT is on the graph path only
            embeds.append(lambda: embed_texts(texts, model, vocab))
        with np.errstate(over="ignore", invalid="ignore"):
            for embed in embeds:
                with pytest.raises(ad.NonFiniteError, match=re.escape(stage)):
                    embed()


class TestCosine:
    def test_self_similarity(self):
        v = Tensor(np.array([[1.0, 2.0, 3.0]]))
        assert cosine(v, v).item() == pytest.approx(1.0)

    def test_orthogonal(self):
        a = Tensor(np.array([[1.0, 0.0]]))
        b = Tensor(np.array([[0.0, 1.0]]))
        assert cosine(a, b).item() == pytest.approx(0.0)

    def test_zero_vector_clamps_to_zero(self):
        z = Tensor(np.zeros((1, 3)))
        v = Tensor(np.array([[1.0, 2.0, 3.0]]))
        assert cosine(z, v).item() == 0.0


class TestHeads:
    def test_mam_zero_weights_uniform(self, tiny_model):
        cfg = tiny_model.cfg
        params = dict(tiny_model.params)
        params["head.mam.proj.w"] = Tensor(np.zeros((cfg.d, cfg.node_vocab_size)))
        params["head.mam.proj.b"] = Tensor(np.zeros((1, cfg.node_vocab_size)))
        h = Tensor(np.random.default_rng(0).standard_normal((3, cfg.d)))
        out = mam_logits(h, params)
        assert out.shape == (3, cfg.node_vocab_size)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_aqa_zero_text_gives_bias_path(self, tiny_model):
        cfg = tiny_model.cfg
        params = tiny_model.params
        j_t = Tensor(np.zeros((1, cfg.d)))
        j_g = Tensor(np.random.default_rng(0).standard_normal((1, cfg.d)))
        out = aqa_logits(j_t, j_g, params)
        b1 = params["head.aqa.fc1.b"].data
        h = np.where(b1 > 0, b1, 0.2 * b1)
        manual = h @ params["head.aqa.fc2.w"].data + params["head.aqa.fc2.b"].data
        np.testing.assert_allclose(out.data, manual, atol=1e-12)

    def test_aqa_symmetric_in_swap(self, tiny_model):
        cfg = tiny_model.cfg
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((1, cfg.d)))
        b = Tensor(rng.standard_normal((1, cfg.d)))
        out1 = aqa_logits(a, b, tiny_model.params)
        out2 = aqa_logits(b, a, tiny_model.params)
        np.testing.assert_array_equal(out1.data, out2.data)


class TestParams:
    def test_init_deterministic(self, tiny_model_cfg):
        p1 = init_params(tiny_model_cfg, seed=3)
        p2 = init_params(tiny_model_cfg, seed=3)
        assert set(p1) == set(p2)
        for name in p1:
            np.testing.assert_array_equal(p1[name].data, p2[name].data)

    def test_canonical_path_scheme(self, tiny_model):
        names = set(tiny_model.params)
        for expected in ("text.tok_emb", "text.pos_emb", "arch.node_emb",
                         "arch.shape_emb.0", "arch.shape_emb.3", "gat.0.0.W",
                         "gat.0.0.a", "gat.0.proj", "cross.0.attn.wq",
                         "cross.0.ffn.w1", "cross.0.ln.attn.scale",
                         "head.mam.proj.w", "head.aqa.fc1.w", "head.aqa.fc2.w",
                         "dec.attn.wq", "dec.xattn.wk", "dec.ffn.w2",
                         "dec.ln.self.bias", "dec.out.fc1.w", "dec.out.fc2.w"):
            assert expected in names

    @pytest.mark.parametrize("kwargs", [
        {},
        {"d": 8, "gat_layers": 1, "gat_heads": 2, "cross_layers": 1, "cross_heads": 2,
         "dec_heads": 2, "max_nodes": 8, "max_tokens": 8, "n_answers": 6, "shape_buckets": 4},
        {"gat_layers": 0, "cross_layers": 0},
    ], ids=["default", "tiny", "no-gat-no-cross"])
    def test_table_is_the_init_layout(self, kwargs):
        cfg = ModelConfig(node_vocab_size=10, text_vocab_size=40, **kwargs)
        params = init_params(cfg, seed=0)
        table = param_table(cfg)
        assert [p.path for p in table] == list(params)
        assert [p.shape for p in table] == [params[p.path].data.shape for p in table]

    @staticmethod
    def arrays(model):
        return {k: v.data.copy() for k, v in model.params.items()}

    def test_from_arrays_round_trip(self, tiny_model):
        arrays = self.arrays(tiny_model)
        loaded = Model.from_arrays(tiny_model.cfg, arrays)
        assert list(loaded.params) == list(tiny_model.params)
        for name, p in loaded.params.items():
            assert p.requires_grad and p.name == name and p.data is arrays[name]

    def test_from_arrays_shape_check(self, tiny_model):
        arrays = self.arrays(tiny_model)
        arrays["text.tok_emb"] = arrays["text.tok_emb"][:2]
        with pytest.raises(ValueError, match=r"text\.tok_emb: checkpoint shape \(2, 8\)"):
            Model.from_arrays(tiny_model.cfg, arrays)

    def test_from_arrays_name_check(self, tiny_model):
        arrays = self.arrays(tiny_model)
        arrays.pop("text.tok_emb")
        with pytest.raises(ValueError,
                           match=r"mismatch: missing \['text\.tok_emb'\], unexpected \[\]"):
            Model.from_arrays(tiny_model.cfg, arrays)
        arrays = self.arrays(tiny_model)
        arrays["gat.1.proj"] = arrays["gat.0.proj"]
        with pytest.raises(ValueError, match=r"missing \[\], unexpected \['gat\.1\.proj'\]"):
            Model.from_arrays(tiny_model.cfg, arrays)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_arrays_refuses_non_finite(self, tiny_model, bad):
        arrays = self.arrays(tiny_model)
        arrays["dec.ffn.w2"][3, 1] = bad
        with pytest.raises(ValueError, match="parameter 'dec.ffn.w2' has non-finite values"):
            Model.from_arrays(tiny_model.cfg, arrays)


class TestEndToEnd:
    def test_forward_deterministic(self, tiny_model, tiny_text_vocab, small_graph):
        seq = tokenize("alpha beta", tiny_text_vocab, 8)
        runs = []
        for _ in range(2):
            _, j_t = encode_text(seq, tiny_model.params, tiny_model.cfg)
            _, j_g = encode_graph(small_graph, tiny_model.params, tiny_model.cfg)
            runs.append(cosine(j_t, j_g).item())
        assert runs[0] == runs[1]

    def test_pad_length_invariance(self, tiny_text_vocab, small_graph):
        cfg = ModelConfig(node_vocab_size=10, text_vocab_size=len(tiny_text_vocab),
                          d=8, gat_layers=1, gat_heads=2, cross_layers=1,
                          cross_heads=2, dec_heads=2, max_nodes=8, max_tokens=64,
                          n_answers=6, shape_buckets=4)
        model = Model.initialized(cfg, seed=5)
        scores = []
        for max_len in (32, 64):
            seq = tokenize("alpha beta gamma", tiny_text_vocab, max_len)
            _, j_t = encode_text(seq, model.params, cfg)
            _, j_g = encode_graph(small_graph, model.params, cfg)
            scores.append(cosine(j_t, j_g).item())
        assert abs(scores[0] - scores[1]) < 1e-9


# ---------------------------------------------------------------------------
# the batched encode core: mixed-length batches must give every sample what
# it gets alone


SMALL_OPS = ("conv2d", "relu", "maxpool2d", "linear", "gelu", "avgpool2d", "batchnorm2d")


def _mixed_graphs(gcfg, sizes):
    """One generated graph of each node count in `sizes`."""
    out = []
    for n in sizes:
        cfg = GenConfig(rng_seed=gcfg.rng_seed, ops=gcfg.ops, min_nodes=n, max_nodes=n)
        out.append(gen_architecture(cfg, np.random.default_rng([7, n]), name=f"g{n}"))
    return out


def _batch_terms(model, cfg, seqs, graphs, plans, ys, targets):
    """Per-sample pooled vectors and loss terms of one batch."""
    _, j_t = encode_texts(seqs, model.params, cfg)
    _, j_g = encode_graphs(graphs, model.params, cfg)
    masked = [ArchGraph(nodes=[MASK_NODE_ID if i in p.positions else n
                               for i, n in enumerate(g.nodes)],
                        edges=g.edges, shapes=g.shapes) for g, p in zip(graphs, plans)]
    h_gm, _ = encode_graphs(masked, model.params, cfg)
    return {
        "j_t": j_t, "j_g": j_g,
        "sim": sim_loss(j_t, j_g, ys, cfg.eps_cos),
        "mam": mam_terms(mam_logits(h_gm, model.params), plans,
                         [g.num_nodes for g in graphs]),
        "aqa": ad.sum_(ad.bce_with_logits(aqa_logits(j_t, j_g, model.params), targets),
                       axis=1) * (1.0 / cfg.n_answers),
    }


class TestBatchedCore:
    @pytest.fixture
    def tiny(self):
        """The configuration of acceptance criterion 1, and a batch of 3
        samples with different node counts and text lengths."""
        gcfg = GenConfig(rng_seed=1, ops=SMALL_OPS, min_nodes=2, max_nodes=4)
        vocab = TextVocab(["tiny", "net", "words"])
        cfg = ModelConfig(node_vocab_size=len(gcfg.node_vocab()), text_vocab_size=len(vocab),
                          d=8, gat_layers=1, gat_heads=1, cross_layers=1, cross_heads=1,
                          dec_heads=1, max_nodes=4, max_tokens=6, n_answers=6,
                          shape_buckets=4)
        # seed 3, criterion 1's, puts a leaky-rectifier kink within the
        # finite-difference step of one MAM probe; seed 5 keeps clear of kinks
        model = Model.initialized(cfg, seed=5)
        graphs = _mixed_graphs(gcfg, (3, 2, 4))
        seqs = [tokenize(t, vocab, cfg.max_tokens)
                for t in ("tiny net words", "tiny", "net words")]
        plans = [mask_nodes(g, 0.15, np.random.default_rng(i))[1] for i, g in enumerate(graphs)]
        targets = np.zeros((3, cfg.n_answers))
        targets[0, [1, 4]] = targets[1, 2] = targets[2, [0, 5]] = 1.0
        return model, cfg, seqs, graphs, plans, np.array([1.0, 0.0, 1.0]), targets

    @pytest.mark.parametrize("loss", ["sim", "mam", "aqa"])
    def test_gradients_match_finite_differences(self, tiny, loss):
        model, cfg, seqs, graphs, plans, ys, targets = tiny
        assert len({g.num_nodes for g in graphs}) == 3
        assert len({s.real_length for s in seqs}) == 3

        def build():
            terms = _batch_terms(model, cfg, seqs, graphs, plans, ys, targets)
            return ad.mean(terms[loss])

        # every layer, the padded-row candidates (positions, shape buckets)
        # and the heads; the full sweep is acceptance criterion 1
        names = ["text.pos_emb", "arch.shape_emb.0", "gat.0.0.W", "gat.0.0.a", "gat.0.proj",
                 "cross.0.attn.wq", "cross.0.attn.wk", "cross.0.attn.bv", "cross.0.attn.wo",
                 "cross.0.ln.attn.scale", "cross.0.ffn.b1", "cross.0.ln.ffn.bias",
                 "head.mam.proj.b", "head.aqa.fc1.b"]
        def grads(loss_fn):
            for p in model.params.values():
                p.grad = None
            loss_fn().backward()
            return {k: p.grad if p.grad is not None else np.zeros_like(p.data)
                    for k, p in model.params.items()}

        analytic = grads(build)
        for name in names:
            numeric = finite_diff(lambda: build().item(), [model.params[name]])[0]
            assert rel_err(analytic[name], numeric) <= 1e-4, name

        # every parameter: the batch's gradient is the mean of the
        # samples' gradients, each encoded alone
        def one_by_one():
            terms = [_batch_terms(model, cfg, seqs[i:i + 1], graphs[i:i + 1], plans[i:i + 1],
                                  ys[i:i + 1], targets[i:i + 1])[loss] for i in range(3)]
            return (terms[0] + terms[1] + terms[2]) * (1.0 / 3)

        alone = grads(one_by_one)
        for name in model.params:
            np.testing.assert_allclose(analytic[name], alone[name], rtol=1e-9, atol=1e-12,
                                       err_msg=name)

    def test_pooled_vectors_independent_of_batch(self):
        gcfg = GenConfig(rng_seed=0, ops=SMALL_OPS)
        graphs = _mixed_graphs(gcfg, (5, 17, 2, 11, 30))
        texts = ["relu", "a small conv net with relu and linear layers",
                 "conv then pool then a linear head", "gelu"]
        vocab = build_vocab(texts, 64)
        cfg = ModelConfig(node_vocab_size=len(gcfg.node_vocab()), text_vocab_size=len(vocab),
                          d=16, gat_heads=2, cross_heads=4, dec_heads=2)
        params = Model.initialized(cfg, seed=4).constants()
        alone = [encode_graph(g, params, cfg)[1].data for g in graphs]
        for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1], [1, 1, 3]):
            _, j_g = encode_graphs([graphs[i] for i in order], params, cfg)
            for row, i in enumerate(order):
                assert np.array_equal(j_g.data[row], alone[i][0])
        seqs = [tokenize(t, vocab, cfg.max_tokens) for t in texts]
        _, j_t = encode_texts(seqs, params, cfg)
        for row, seq in enumerate(seqs):
            alone = encode_texts([seq], params, cfg)[1]
            assert np.array_equal(j_t.data[row], alone.data[0])

    @pytest.mark.parametrize("no_edge", [False, True], ids=["edges", "no-edge"])
    def test_gat_rows_and_pooled_vectors_independent_of_batch_order(self, no_edge):
        # a hub of 22 neighbours beside a chain, a 1-node graph and a
        # 64-node graph, whose 64 nodes each have 64 edges under no_edge:
        # batch-mates of other degrees change where a node's sums sit in
        # the degree-ranked blocks, never its bits
        gcfg = GenConfig(rng_seed=0, ops=SMALL_OPS)
        hub = ArchGraph(nodes=[3 + i % 4 for i in range(30)],
                        edges=[(0, j) for j in range(1, 23)] + [(j, j + 1) for j in range(22, 29)],
                        shapes=[(8, 3, 3, 3)] * 30)
        graphs = [hub, ArchGraph(nodes=[3], edges=[], shapes=[(8, 3, 3, 3)]),
                  *_mixed_graphs(gcfg, (64, 9))]
        cfg = ModelConfig(node_vocab_size=len(gcfg.node_vocab()), text_vocab_size=8, d=16,
                          gat_heads=2, cross_heads=4, dec_heads=2, no_edge=no_edge)
        params = Model.initialized(cfg, seed=5).constants()

        def encode(batch):
            feats = embed_nodes_shapes(batch, params, cfg)
            gat = gat_forward(feats, attention_edges(batch, not no_edge), params, cfg)
            return gat.data, encode_graphs(batch, params, cfg)[1].data

        alone = [encode([g]) for g in graphs]
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            gat, pooled = encode([graphs[i] for i in order])
            lo = 0
            for row, i in enumerate(order):
                n = graphs[i].num_nodes
                assert np.array_equal(gat[lo:lo + n], alone[i][0]), (order, i)
                assert np.array_equal(pooled[row], alone[i][1][0]), (order, i)
                lo += n

    def test_mixed_length_batch_takes_no_rows(self, tiny, monkeypatch):
        # no layer pads, so no encode has padding rows to select away: a
        # mixed batch runs the ops of a batch of one, and no other
        model, cfg, seqs, graphs, *_ = tiny
        for encode, items in ((encode_texts, seqs), (encode_graphs, graphs)):
            ops = [TestFusedOps.tape_ops(monkeypatch, lambda: encode(batch, model.params, cfg))
                   for batch in (items, items[:1])]
            assert ops[0] == ops[1]

    def test_longer_batch_mate_changes_nothing_else(self, tiny):
        model, cfg, seqs, graphs, plans, ys, targets = tiny
        # sample 1 becomes the longest graph and the longest text of the batch
        (longer,) = _mixed_graphs(GenConfig(rng_seed=2, ops=SMALL_OPS), (cfg.max_nodes + 1,))
        cfg = dataclasses.replace(cfg, max_nodes=cfg.max_nodes + 1)
        text = tokenize("tiny net words net", TextVocab(["tiny", "net", "words"]), 6)
        assert text.real_length > max(s.real_length for s in seqs)
        plan = MaskPlan(positions=(cfg.max_nodes - 1,), original_ids=(longer.nodes[-1],))
        before = _batch_terms(model, cfg, seqs, graphs, plans, ys, targets)
        after = _batch_terms(model, cfg, [seqs[0], text, seqs[2]], [graphs[0], longer, graphs[2]],
                             [plans[0], plan, plans[2]], ys, targets)
        for key in before:
            for row in (0, 2):
                np.testing.assert_allclose(after[key].data[row], before[key].data[row],
                                           rtol=0, atol=1e-12, err_msg=key)


@pytest.fixture
def frozen():
    gcfg = GenConfig(rng_seed=0, ops=SMALL_OPS)
    texts = ["relu", "a small conv net with relu and linear layers", "gelu"]
    vocab = build_vocab(texts, 64)
    cfg = ModelConfig(node_vocab_size=len(gcfg.node_vocab()), text_vocab_size=len(vocab),
                      d=16, gat_heads=2, cross_heads=4, dec_heads=2)
    return Model.initialized(cfg, seed=4), vocab, _mixed_graphs(gcfg, (5, 17, 2)), texts


class TestFrozenEncodeCore:
    @staticmethod
    def _counting(monkeypatch, name):
        """Replace model.<name> by a wrapper that records every item encoded."""
        seen, real = [], getattr(model_mod, name)

        def encode(items, params, cfg):
            seen.extend(items)
            return real(items, params, cfg)

        monkeypatch.setattr(model_mod, name, encode)
        return seen

    def test_repeated_graphs_encoded_once(self, frozen, monkeypatch):
        model, _, (a, b, c), _ = frozen
        distinct = embed_graphs([a, b, c], model)
        seen = self._counting(monkeypatch, "encode_graphs")
        repeated = embed_graphs([a, b, a, c, b], model)
        assert seen == [a, b, c]
        assert np.array_equal(repeated, distinct[[0, 1, 0, 2, 1]])

    def test_repeated_texts_encoded_once(self, frozen, monkeypatch):
        model, vocab, _, (a, b, c) = frozen
        distinct = embed_texts([a, b, c], model, vocab)
        seen = self._counting(monkeypatch, "encode_texts")
        repeated = embed_texts([a, b, a, c, b], model, vocab)
        assert seen == [tokenize(t, vocab, model.cfg.max_tokens) for t in (a, b, c)]
        assert np.array_equal(repeated, distinct[[0, 1, 0, 2, 1]])

    def test_row_budget_changes_no_bits(self, frozen, monkeypatch):
        model, vocab, graphs, texts = frozen
        graphs = graphs + _mixed_graphs(GenConfig(rng_seed=1, ops=SMALL_OPS),
                                        (60, 9, 64, 33, 1, 48, 62, 20, 57, 41, 50, 63, 35))
        words = "a small conv net with relu and linear layers then a pool".split()
        texts = texts + [" ".join(w * 5) for n in range(1, 12)
                         for w in (words[:n], words[n:])]
        seqs = [tokenize(t, vocab, model.cfg.max_tokens) for t in texts]
        assert len(set(graphs)) == len(graphs) and len(set(seqs)) == len(seqs)
        for rows in (sum(g.num_nodes for g in graphs), sum(len(s.ids) for s in seqs)):
            assert rows > model_mod._EMBED_ROWS
        calls = []
        for name in ("encode_graphs", "encode_texts"):
            def encode(items, params, cfg, real=getattr(model_mod, name)):
                calls.append(len(items))
                return real(items, params, cfg)

            monkeypatch.setattr(model_mod, name, encode)
        out, chunks = [], []
        for budget in (1, model_mod._EMBED_ROWS, 10 ** 6):
            monkeypatch.setattr(model_mod, "_EMBED_ROWS", budget)
            calls.clear()
            out.append((embed_graphs(graphs, model), embed_texts(texts, model, vocab)))
            chunks.append(len(calls))
        assert chunks[0] == len(graphs) + len(texts) > chunks[1] > chunks[2] == 2
        for j_g, j_t in out[1:]:
            assert np.array_equal(j_g, out[0][0]) and np.array_equal(j_t, out[0][1])


class TestConstantView:
    """Forward-only calls read the model's constant view of its weights."""

    @staticmethod
    def embed(model, vocab, graphs, texts):
        return embed_graphs(graphs, model), embed_texts(texts, model, vocab)

    def assert_fresh(self, model, vocab, graphs, texts, before):
        """The model's embeddings changed, and equal a newly loaded copy's."""
        fresh = Model.from_arrays(model.cfg,
                                  {name: p.data.copy() for name, p in model.params.items()})
        got = self.embed(model, vocab, graphs, texts)
        for g, w, b in zip(got, self.embed(fresh, vocab, graphs, texts), before):
            assert np.array_equal(g, w) and not np.array_equal(g, b)

    def test_updates_reach_the_next_call(self, frozen):
        model, vocab, graphs, texts = frozen
        rng = np.random.default_rng(0)
        before = self.embed(model, *frozen[1:])
        grads = {name: rng.standard_normal(p.data.shape) for name, p in model.params.items()}
        ad.adam_step(model.params, grads, ad.AdamState(lr=1e-2))
        self.assert_fresh(model, *frozen[1:], before)

        before = self.embed(model, *frozen[1:])
        for p in model.params.values():
            p.data = p.data * 1.1
        self.assert_fresh(model, *frozen[1:], before)

        before = self.embed(model, *frozen[1:])
        for name in ("text.tok_emb", "arch.node_emb", "cross.0.ffn.w1"):
            model.params[name].data = model.params[name].data + 0.5
        self.assert_fresh(model, *frozen[1:], before)

    def test_in_place_edit_shows_up(self, frozen):
        model, vocab, graphs, texts = frozen
        before = self.embed(model, *frozen[1:])
        model.params["cross.0.attn.wq"].data *= 3.0
        model.params["arch.node_emb"].data[:] += 0.25
        model.params["text.tok_emb"].data[:] += 0.25
        self.assert_fresh(model, *frozen[1:], before)

    @pytest.mark.parametrize("name", ["cross.1.ffn.w2", "dec.out.fc2.w"])
    def test_non_finite_weight_rejected(self, frozen, name):
        # the decoder's weights take no part in an embedding: only the scan
        # that makes them constants can see them
        model, vocab, graphs, texts = frozen
        self.embed(model, *frozen[1:])
        bad = model.params[name].data.copy()
        bad[0, 1] = np.nan
        model.params[name].data = bad
        with pytest.raises(ad.NonFiniteError):
            embed_graphs(graphs, model)
        with pytest.raises(ad.NonFiniteError):
            embed_texts(texts, model, vocab)

    def test_unchanged_weights_wrap_no_parameter(self, frozen, monkeypatch):
        model, vocab, graphs, texts = frozen
        wrapped, real = [], Tensor.__init__

        def init(self, data, *args, **kwargs):
            wrapped.extend(name for name, p in model.params.items() if data is p.data)
            real(self, data, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", init)
        embed_texts(texts, model, vocab)
        assert len(wrapped) == len(model.params)
        wrapped.clear()
        embed_texts(texts, model, vocab)
        embed_graphs(graphs, model)
        assert wrapped == []
        model.params["cross.0.attn.wq"].data = model.params["cross.0.attn.wq"].data + 1.0
        embed_texts(texts, model, vocab)
        assert wrapped == ["cross.0.attn.wq"]

    def test_model_fields_unchanged(self, frozen):
        model = frozen[0]
        model.constants()
        twin = Model(model.cfg, model.params)
        assert twin == model and repr(twin) == repr(model)
        assert [f.name for f in dataclasses.fields(Model) if f.init] == ["cfg", "params"]


def _greedy_reference(h_g, params, cfg, max_len):
    """Independent greedy decoder: argmax with smaller-id tie break."""
    forbidden = {0, BOS_ID, 4}
    ids = []
    while True:
        logits = decoder_logits(Tensor(h_g.data), [BOS_ID] + ids, params, cfg)
        logp = ad.log_softmax(logits).data[-1]
        if len(ids) == max_len - 1:
            ids.append(EOS_ID)
            break
        best_tok, best_lp = None, -np.inf
        for tok in range(cfg.text_vocab_size):
            if tok in forbidden:
                continue
            if logp[tok] > best_lp:
                best_tok, best_lp = tok, logp[tok]
        ids.append(best_tok)
        if best_tok == EOS_ID:
            break
    return ids


def _exhaustive_reference(h_g, params, cfg, max_len):
    """Score every possible sequence ending in EOS; argmax by
    (normalized log-probability, lexicographic ids)."""
    allowed = [i for i in range(cfg.text_vocab_size) if i not in (0, BOS_ID, 4)]
    nonterm = [i for i in allowed if i != EOS_ID]
    best = None
    for length in range(1, max_len + 1):
        for body in itertools.product(nonterm, repeat=length - 1):
            seq = tuple(body) + (EOS_ID,)
            prefix = [BOS_ID] + list(seq[:-1])
            logits = decoder_logits(Tensor(h_g.data), prefix, params, cfg)
            logp = ad.log_softmax(logits).data
            total = sum(float(logp[i, seq[i]]) for i in range(len(seq)))
            score = total / len(seq)
            if best is None or score > best[1] or (score == best[1] and seq < best[0]):
                best = (seq, score)
    return list(best[0])


def _tuple_beam_reference(logp_of, vocab_size, beam, max_len):
    """Beam search over Python tuples: logp_of(prefix) gives the
    next-token log-probabilities after a prefix, start token first, and
    every step sorts all expansions by (-mean log-probability, sequence)."""
    allowed = [i for i in range(vocab_size) if i not in _FORBIDDEN_DECODE_IDS]
    live = [((), 0.0)]
    done = []
    while live:
        expansions = []
        for ids, logp_sum in live:
            logp = logp_of((BOS_ID,) + ids)
            candidates = [EOS_ID] if len(ids) == max_len - 1 else allowed
            for tok in candidates:
                expansions.append((ids + (tok,), logp_sum + float(logp[tok])))
        expansions.sort(key=lambda e: (-(e[1] / len(e[0])), e[0]))
        live = []
        for seq, total in expansions[:beam]:
            if seq[-1] == EOS_ID:
                done.append((seq, total / len(seq)))
            else:
                live.append((seq, total))
    best = done[0]
    for cand in done[1:]:
        if cand[1] > best[1] or (cand[1] == best[1] and cand[0] < best[0]):
            best = cand
    return list(best[0])


def _full_prefix_beam_reference(h_g, params, cfg, beam, max_len):
    """The beam search decode_beam replaced: every step re-runs the
    teacher-forced decoder over each live hypothesis's whole prefix and
    sorts Python tuples."""
    h_g_const = Tensor(h_g.data)

    def logp_of(prefix):
        return ad.log_softmax(decoder_logits(h_g_const, list(prefix), params, cfg)).data[-1]

    return _tuple_beam_reference(logp_of, cfg.text_vocab_size, beam,
                                 min(max_len, cfg.max_tokens - 1))


@pytest.fixture(scope="module")
def tuned_decoder():
    """A decoder moved off its random init, where every caption repeats one
    token, by a few high learning-rate caption fine-tuning steps."""
    gcfg = GenConfig(rng_seed=3, ops=("conv2d", "relu", "maxpool2d", "linear", "gelu",
                                      "avgpool2d", "batchnorm2d"),
                     min_nodes=3, max_nodes=6)
    samples = []
    for i in range(6):
        rng = np.random.default_rng([17, i])
        g = gen_architecture(gcfg, rng, name=f"dec{i}")
        pos = [s for s in gen_descriptions(g, gcfg, rng) if s.y == 1.0]
        samples.append(ACSample(graph=g, text=pos[0].text))
    vocab = build_vocab([s.text for s in samples], 64)
    cfg = ModelConfig(node_vocab_size=len(gcfg.node_vocab()), text_vocab_size=len(vocab),
                      d=16, gat_layers=1, gat_heads=2, cross_layers=1, cross_heads=2,
                      dec_heads=2, max_nodes=8, max_tokens=12, shape_buckets=8)
    model = Model.initialized(cfg, seed=4)
    finetune_ac(samples, model, TrainConfig(task="ac", lr=3e-2, batch_size=3, epochs=6,
                                            seed=0), vocab)
    encoded = [encode_graph(s.graph, model.constants(), cfg)[0] for s in samples]
    return model, cfg, encoded


class TestIncrementalDecoder:
    @pytest.mark.parametrize("beam", [1, 3, 10])
    def test_matches_full_prefix_reference(self, tuned_decoder, beam):
        model, cfg, encoded = tuned_decoder
        captions = set()
        for h_g in encoded:
            got = decode_beam(h_g, model.constants(), cfg, beam=beam, max_len=8)
            want = _full_prefix_beam_reference(h_g, model.constants(), cfg, beam, 8)
            assert got == want
            captions.add(tuple(got))
        # the fine-tuned decoder tells the graphs apart
        assert len(captions) > 1

    def test_step_log_probs_equal_full_prefix_last_row(self, tuned_decoder):
        model, cfg, encoded = tuned_decoder
        params = model.constants()
        h_g = encoded[0]
        cross = model_mod._decoder_cross(h_g, params)
        rng = np.random.default_rng(0)
        prefixes = [[BOS_ID]]
        cache = ad.KVCache()
        for step in range(6):
            tokens = np.array([p[-1] for p in prefixes])
            logp = model_mod._DecoderStep.of(cross, params, cfg)(tokens, cache)
            assert logp.shape == (len(prefixes), cfg.text_vocab_size)
            for row, prefix in zip(logp, prefixes):
                full = ad.log_softmax(decoder_logits(h_g, prefix, params, cfg)).data[-1]
                np.testing.assert_allclose(row, full, rtol=0, atol=1e-12)
            # regroup: hypotheses fork, die and swap places, with distinct histories
            width = len(prefixes)
            parents = rng.integers(0, width, size=min(4, width + 2))
            toks = rng.choice([5, 6, 7, 8, 9], size=len(parents), replace=False)
            prefixes = [prefixes[p] + [int(t)] for p, t in zip(parents, toks)]
            cache.reorder(parents)

    def test_decoding_never_runs_the_full_prefix(self, tuned_decoder, monkeypatch):
        model, cfg, encoded = tuned_decoder
        h_g = encoded[1]
        want = decode_beam(h_g, model.constants(), cfg, beam=3, max_len=6)

        def forbidden(*args, **kwargs):
            raise AssertionError("decode_beam ran the teacher-forced decoder")

        monkeypatch.setattr(model_mod, "decoder_logits", forbidden)
        assert decode_beam(h_g, model.constants(), cfg, beam=3, max_len=6) == want


def _composite_decoder_logits(h_g, ids, params, cfg):
    """The teacher-forced decoder of one caption as single ops, its one
    mask the causal one."""
    t, heads = len(ids), cfg.dec_heads

    def proj(prefix, gate):
        return params[f"{prefix}.w{gate}"], params[f"{prefix}.b{gate}"]

    def ln(name):
        return params[f"dec.ln.{name}.scale"], params[f"dec.ln.{name}.bias"]

    x = ad.embed([params["dec.emb.tok"], params["dec.emb.pos"]], [ids, np.arange(t)])
    y = cops.layer_norm(x, *ln("self"))
    q, k, v = (ad.linear(y, *proj("dec.attn", gate)) for gate in "qkv")
    att = cops.attention(q, k, v, heads, mask=np.tri(t, dtype=bool))
    x = ad.add(x, ad.linear(att, *proj("dec.attn", "o")))
    k, v = (ad.linear(h_g, *proj("dec.xattn", gate)) for gate in "kv")
    q = ad.linear(cops.layer_norm(x, *ln("xattn")), *proj("dec.xattn", "q"))
    x = ad.add(x, ad.linear(cops.attention(q, k, v, heads), *proj("dec.xattn", "o")))
    x = _composite_ffn_block(x, ln("ffn"), (proj("dec.ffn", 1), proj("dec.ffn", 2)))
    return _composite_mlp(x, tuple((params[f"dec.out.fc{i}.w"], params[f"dec.out.fc{i}.b"])
                                   for i in (1, 2)))


class TestPackedDecoder:
    def test_caption_equals_composite_bit_for_bit(self, tuned_decoder):
        # forward and the gradient of every decoder weight and of the graph rows
        model, cfg, encoded = tuned_decoder
        ids = [BOS_ID, 7, 5, 9, 9]
        weights = np.random.default_rng(3).standard_normal((len(ids), cfg.text_vocab_size))
        results = []
        for build in (decoder_logits, _composite_decoder_logits):
            h_g = Tensor(encoded[2].data, requires_grad=True)
            ad.zero_grads(model.params)
            out = build(h_g, ids, model.params, cfg)
            ad.sum_(out * Tensor(weights)).backward()
            results.append([out.data, h_g.grad] + [p.grad for name, p in
                                                  sorted(model.params.items())
                                                  if name.startswith("dec.")])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_packed_captions_equal_solo_passes(self, tuned_decoder):
        # captions of 1-6 tokens over graphs of 1-6 nodes, two of one length
        model, cfg, _ = tuned_decoder
        params = model.constants()
        gcfg = GenConfig(rng_seed=3, ops=SMALL_OPS)
        graphs = _mixed_graphs(gcfg, (4, 1, 6, 3, 4))
        rng = np.random.default_rng(12)
        captions = [[BOS_ID] + list(rng.integers(5, cfg.text_vocab_size, size=n))
                    for n in (3, 0, 5, 2, 3)]
        targets = [list(rng.integers(5, cfg.text_vocab_size, size=len(c))) for c in captions]
        h_g, _ = encode_graphs(graphs, params, cfg)
        lengths = [len(c) for c in captions]
        packed = decoder_logits(h_g, list(itertools.chain(*captions)), params, cfg,
                                lengths=lengths, sizes=[g.num_nodes for g in graphs]).data
        loss = decoder_loss(Tensor(packed), list(itertools.chain(*targets)), lengths).item()
        solo_losses = []
        for g, ids, want, start in zip(graphs, captions, targets, np.cumsum(lengths) - lengths):
            alone = decoder_logits(encode_graph(g, params, cfg)[0], ids, params, cfg)
            np.testing.assert_allclose(packed[start:start + len(ids)], alone.data, rtol=0,
                                       atol=1e-12)
            solo_losses.append(decoder_loss(alone, want).item())
        assert loss == pytest.approx(np.mean(solo_losses), rel=1e-12)

    def test_caption_beyond_max_tokens_rejected(self, tuned_decoder):
        model, cfg, encoded = tuned_decoder
        with pytest.raises(ValueError, match="exceeds max_tokens"):
            decoder_logits(encoded[0], [BOS_ID] * (cfg.max_tokens + 1), model.constants(), cfg)

    @pytest.mark.parametrize("lengths", [[2, 1], [4, 0], [5]])
    def test_lengths_must_split_the_ids(self, tuned_decoder, lengths):
        model, cfg, encoded = tuned_decoder
        with pytest.raises(ValueError, match="do not split 4 input ids"):
            decoder_logits(encoded[0], [BOS_ID, 5, 6, 7], model.constants(), cfg, lengths=lengths)


def _full_sort_expansions(key, beam):
    finite = np.flatnonzero(np.isfinite(key))
    return finite[np.lexsort((finite, -key[finite]))][:beam]


@st.composite
def _expansions(draw):
    """Keys with exact ties forced in by drawing from a few values, -inf
    among them at times, and a beam up to wider than the finite keys."""
    n = draw(st.integers(1, 48))
    value = st.floats(-50, 0, allow_nan=False) | st.just(-np.inf)
    values = draw(st.lists(value, min_size=1, max_size=4))
    key = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    return key, draw(st.integers(1, n + 3))


@settings(max_examples=300, deadline=None)
@given(_expansions())
def test_partitioned_beam_selection_equals_full_sort(case):
    key, beam = case
    got = model_mod._best_expansions(key, beam)
    assert got.tolist() == _full_sort_expansions(key, beam).tolist()


def _scripted_step(logp_of):
    """A stand-in for `_DecoderStep.__call__` that returns logp_of(prefix)
    for each hypothesis's prefix, start token first: the cache carries the
    hypotheses' tokens, one row per position."""
    def step(self, tokens, cache):
        col = np.asarray(tokens, dtype=np.float64)[:, None]
        history, _ = cache.extend(col, col, len(tokens))
        return np.array([logp_of(tuple(int(t) for t in seen)) for seen in history[:, :, 0]])
    return step


def _beam_case():
    vocab = TextVocab(["aa", "bb", "cc"])  # vocab size 8: ids 5,6,7 are words
    cfg = ModelConfig(node_vocab_size=10, text_vocab_size=len(vocab), d=8,
                      gat_layers=1, gat_heads=2, cross_layers=1, cross_heads=2,
                      dec_heads=2, max_nodes=8, max_tokens=8, n_answers=6,
                      shape_buckets=4)
    model = Model.initialized(cfg, seed=9)
    g = ArchGraph(nodes=[3, 4], edges=[(0, 1)], shapes=[(4, 2, 3, 3), (0, 0, 0, 0)])
    h_g, _ = encode_graph(g, model.params, cfg)
    return h_g, model, cfg


@pytest.fixture(scope="module")
def fixed_beam_case():
    return _beam_case()


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(-4, 0, allow_nan=False), min_size=2, max_size=3, unique=True),
       seed=st.integers(0, 2**32 - 1), beam=st.integers(1, 12), max_len=st.integers(1, 4))
def test_ties_go_to_the_lexicographically_smaller_sequence(fixed_beam_case, values, seed, beam,
                                                           max_len):
    # log-probabilities from 2-3 values tie within and across parents at
    # every depth; beam 12 is wider than the 5 first-step expansions
    h_g, model, cfg = fixed_beam_case

    def logged(prefixes):
        def logp_of(prefix):
            prefixes.append(prefix)
            rng = np.random.default_rng([seed, *prefix])
            return np.array(values)[rng.integers(len(values), size=cfg.text_vocab_size)]
        return logp_of

    want_live, live = [], []
    want = _tuple_beam_reference(logged(want_live), cfg.text_vocab_size, beam, max_len)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_mod._DecoderStep, "__call__", _scripted_step(logged(live)))
        got = decode_beam(h_g, model.constants(), cfg, beam=beam, max_len=max_len)
    # each step decodes the reference's live hypotheses, in lexicographic order
    assert live == sorted(want_live, key=lambda prefix: (len(prefix), prefix))
    assert got == want


class TestBeamSearch:
    @pytest.fixture
    def decode_setup(self):
        return _beam_case()

    def test_beam_one_equals_greedy(self, decode_setup):
        h_g, model, cfg = decode_setup
        for max_len in (2, 3, 5):
            got = decode_beam(h_g, model.constants(), cfg, beam=1, max_len=max_len)
            want = _greedy_reference(h_g, model.constants(), cfg, max_len)
            assert got == want

    def test_wide_beam_equals_exhaustive_search(self, decode_setup):
        h_g, model, cfg = decode_setup
        max_len = 3
        # 5 allowed tokens, so 1 + 4 + 16 sequences; beam 100 covers them all
        got = decode_beam(h_g, model.constants(), cfg, beam=100, max_len=max_len)
        want = _exhaustive_reference(h_g, model.constants(), cfg, max_len)
        assert got == want

    def test_uniform_logits_tie_break(self, decode_setup):
        h_g, model, cfg = decode_setup
        model.params["dec.out.fc2.w"].data = np.zeros_like(
            model.params["dec.out.fc2.w"].data)
        model.params["dec.out.fc2.b"].data = np.zeros_like(
            model.params["dec.out.fc2.b"].data)
        out = decode_beam(h_g, model.constants(), cfg, beam=10, max_len=4)
        # every candidate ties; the smallest allowed id (UNK=1) repeats, then EOS
        assert out == [1, 1, 1, EOS_ID]

    @pytest.mark.parametrize("max_len", [None, 100], ids=["none", "clamped"])
    def test_budget_is_what_max_tokens_leaves(self, decode_setup, max_len):
        h_g, model, cfg = decode_setup
        for name in ("dec.out.fc2.w", "dec.out.fc2.b"):
            model.params[name].data = np.zeros_like(model.params[name].data)
        out = decode_beam(h_g, model.constants(), cfg, beam=2, max_len=max_len)
        # the start token takes one of the max_tokens positions
        assert out == [1] * (cfg.max_tokens - 2) + [EOS_ID]

    def test_equal_scores_prefer_smaller_parent(self, decode_setup, monkeypatch):
        """Expansions of two parents tie exactly; the lexicographically smaller
        sequence takes the last beam slot although its parent ranked second."""
        h_g, model, cfg = decode_setup
        scores = {(BOS_ID,): {7: -1.0, 6: -2.0},
                  (BOS_ID, 7): {5: -0.5, 1: -3.0},
                  (BOS_ID, 6): {1: -2.0},
                  (BOS_ID, 7, 1): {EOS_ID: 0.0},
                  (BOS_ID, 6, 1): {EOS_ID: 0.0}}

        def logp_of(prefix):
            row = np.full(cfg.text_vocab_size, -100.0)
            for tok, lp in scores.get(prefix, {}).items():
                row[tok] = lp
            return row

        monkeypatch.setattr(model_mod._DecoderStep, "__call__", _scripted_step(logp_of))
        assert decode_beam(h_g, model.constants(), cfg, beam=2, max_len=3) == [6, 1, EOS_ID]

    def test_beam_must_be_positive(self, decode_setup):
        h_g, model, cfg = decode_setup
        with pytest.raises(ValueError):
            decode_beam(h_g, model.constants(), cfg, beam=0, max_len=3)

    def test_max_len_must_be_positive(self, decode_setup):
        h_g, model, cfg = decode_setup
        with pytest.raises(ValueError):
            decode_beam(h_g, model.constants(), cfg, beam=2, max_len=0)

    @pytest.mark.parametrize("names, stage", [
        (("dec.ln.self.scale",), "attention_block (layer norm)"),
        (("dec.attn.wq",), "attention_block (q projection)"),
        (("dec.attn.wk",), "attention_block (k projection)"),
        (("dec.attn.wv",), "attention_block (v projection)"),
        (("dec.attn.wq", "dec.attn.wk"), "attention_block (attention)"),
        (("dec.xattn.wq",), "cross_attention_block (q projection)"),
        (("dec.ln.ffn.scale",), "ffn_block (layer norm)"),
        (("dec.ffn.w1",), "ffn_block (hidden layer)"),
        (("dec.out.fc1.w",), "mlp (hidden layer)"),
        (("dec.out.fc2.w",), "mlp (output projection)"),
    ], ids=["self-attention-norm", "self-attention-q", "self-attention-k", "self-attention-v",
            "self-attention-scores", "cross-attention-q", "ffn-norm", "ffn-hidden",
            "head-hidden", "head-output"])
    def test_decode_overflow_names_the_op_and_stage(self, decode_setup, names, stage):
        # finite weights whose products overflow in the first step, as in
        # TestFusedOps; for the head's output, its hidden bias is raised to
        # 4, so some hidden unit exceeds 1 and its product with the largest
        # float does not fit
        h_g, model, cfg = decode_setup
        rng = np.random.default_rng(0)
        big = np.finfo(np.float64).max ** (1 / len(names))
        for name in names:
            shape = model.params[name].data.shape
            model.params[name].data = np.where(rng.random(shape) < 0.5, -big, big)
        if names == ("dec.out.fc2.w",):
            model.params["dec.out.fc1.b"].data = np.full_like(
                model.params["dec.out.fc1.b"].data, 4.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ad.NonFiniteError, match=re.escape(stage)):
            decode_beam(h_g, model.constants(), cfg, beam=3, max_len=4)
