import math
import re
import weakref

import numpy as np
import pytest

import archtext.autodiff as ad
import archtext.model as model_mod
from archtext.autodiff import (
    AdamState,
    NonFiniteError,
    Tensor,
    adam_step,
    finite_diff,
    zero_grads,
)
from archtext.graph import SENTINEL_SHAPE, ArchGraph, attention_edges
from archtext.text import BOS_ID

import composite_ops as cops


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float((np.abs(analytic - numeric) / denom).max())


def check_grad(build, params: list[Tensor], tol: float = 1e-4) -> None:
    """Analytic gradients of build() vs the central-difference oracle."""
    zero_grads({str(i): p for i, p in enumerate(params)})
    loss = build()
    loss.backward()
    numeric = finite_diff(lambda: build().item(), params)
    for p, num in zip(params, numeric):
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert rel_err(analytic, num) <= tol


def _param(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _weights(scores, mask=None) -> np.ndarray:
    """The weights one-head `attention` gives keys with these (Lq, Lk)
    scores, Lk <= 16, read off its output: with 16 columns, keys 4·I and
    values I, the scaled scores and the mix are exact."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    lq, lk = scores.shape
    eye = np.eye(lk, 16)
    q = np.zeros((lq, 16))
    q[:, :lk] = scores
    return cops.attention(Tensor(q), Tensor(4.0 * eye), Tensor(eye), 1, mask=mask).data[:, :lk]


class TestClosedForms:
    def test_square(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x
        y.backward()
        assert x.grad == pytest.approx(6.0)

    def test_product(self):
        x = Tensor(2.0, requires_grad=True)
        y = Tensor(5.0, requires_grad=True)
        (x * y).backward()
        assert x.grad == pytest.approx(5.0)
        assert y.grad == pytest.approx(2.0)

    def test_log_softmax_nll_grad_is_p_minus_onehot(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((1, 5)), requires_grad=True)
        onehot = np.zeros((1, 5))
        onehot[0, 2] = 1.0
        loss = -ad.sum_(ad.log_softmax(logits) * Tensor(onehot))
        loss.backward()
        probs = np.exp(ad.log_softmax(Tensor(logits.data)).data)
        np.testing.assert_allclose(logits.grad, probs - onehot, atol=1e-12)


class TestOpGradients:
    """Randomized gradient checks, ten shapes per op."""

    def _shapes(self):
        rng = np.random.default_rng(7)
        for i in range(10):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            yield np.random.default_rng(i), n, m

    def test_add_sub_mul_div_broadcast(self):
        for rng, n, m in self._shapes():
            a = _param(rng, n, m)
            b = _param(rng, 1, m)
            c = Tensor(rng.standard_normal((n, m)) + 3.0, requires_grad=True)
            check_grad(lambda: ad.sum_((a + b) * a - b / c), [a, b, c])

    def test_reductions(self):
        for rng, n, m in self._shapes():
            a = _param(rng, n, m)
            check_grad(lambda: ad.sum_(ad.sum_(a, axis=0, keepdims=True) * a)
                       + ad.mean(a), [a])

    def test_leaky_relu_sqrt(self):
        for rng, n, m in self._shapes():
            a = _param(rng, n, m)
            pos = Tensor(np.abs(rng.standard_normal((n, m))) + 0.5, requires_grad=True)
            check_grad(lambda: ad.sum_(cops.leaky_relu(a, 0.2) * a)
                       + ad.sum_(ad.sqrt(pos)), [a, pos])

    def test_clamp_min(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal(6) + 2.0, requires_grad=True)  # away from the kink
        check_grad(lambda: ad.sum_(ad.clamp_min(a, 0.5)), [a])
        below = Tensor(np.full(3, -1.0), requires_grad=True)
        loss = ad.sum_(ad.clamp_min(below, 0.5))
        loss.backward()
        np.testing.assert_array_equal(below.grad, np.zeros(3))

    def test_masked_softmax(self):
        # attention's masked form, with more keys than queries
        for rng, n, m in self._shapes():
            keys = n + m
            q = _param(rng, n, 4)
            k, v = _param(rng, keys, 4), _param(rng, keys, 4)
            mask = rng.random((n, keys)) > 0.3
            mask[:, 0] = True
            w = Tensor(rng.standard_normal((n, 4)))
            check_grad(lambda: ad.sum_(cops.attention(q, k, v, 2, mask=mask) * w), [q, k, v])

    def test_attention_over_lengths(self):
        # one-row sequences, repeated lengths, and groups whose rows are
        # contiguous or interleaved with other lengths
        rng = np.random.default_rng(16)
        for lengths in ([1], [3], [2, 1, 2], [1, 3, 1, 3, 2], [4, 4, 1]):
            rows = sum(lengths)
            q, k, v = (_param(rng, rows, 4) for _ in range(3))
            w = Tensor(rng.standard_normal((rows, 4)))
            check_grad(lambda: ad.sum_(cops.attention(q, k, v, 2, lengths=lengths) * w),
                       [q, k, v])

    def test_linear(self):
        for rng, n, m in self._shapes():
            x, w, b = _param(rng, n, m), _param(rng, m, m + 1), _param(rng, 1, m + 1)
            out_w = Tensor(rng.standard_normal((n, m + 1)))
            check_grad(lambda: ad.sum_(ad.linear(x, w, b) * out_w), [x, w, b])

    def test_log_softmax(self):
        for rng, n, m in self._shapes():
            a = _param(rng, n, m)
            w = Tensor(np.abs(rng.standard_normal((n, m))))
            check_grad(lambda: ad.sum_(ad.log_softmax(a) * w), [a])

    def test_gather_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            table = _param(rng, 6, 4)
            ids = rng.integers(0, 6, size=5)
            w = Tensor(rng.standard_normal((5, 4)))
            check_grad(lambda: ad.sum_(cops.gather_rows(table, ids) * w), [table])
            # against unbuffered scattered adds, up to the rounding of a sum
            # taken in another order
            want, bound = np.zeros_like(table.data), np.zeros_like(table.data)
            np.add.at(want, ids, w.data)
            np.add.at(bound, ids, np.abs(w.data))
            assert (np.abs(table.grad - want) <= 4 * np.finfo(float).eps * bound).all()

    def test_take_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = _param(rng, 6, 3)
            rows = np.flatnonzero(rng.random(6) < 0.6)
            w = Tensor(rng.standard_normal((len(rows), 3)))
            check_grad(lambda: ad.sum_(cops.take_rows(a, rows) * w), [a])

    def test_segment_sum(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            seg = ad.segments(np.cumsum(np.r_[0, rng.random(n - 1) < 0.4]))
            a = _param(rng, n, m)
            w = Tensor(rng.standard_normal((len(seg.starts), m)))
            check_grad(lambda: ad.sum_(ad.segment_sum(a, seg) * w), [a])

    def test_slice_concat(self):
        # row slices of one operand, stacked with another
        for rng, n, m in self._shapes():
            a, b = _param(rng, n + 1, m), _param(rng, n, m)
            w = Tensor(rng.standard_normal((2 * n + 1, m)))
            check_grad(lambda: ad.sum_(cops.concat(
                [cops.take_rows(a, range(1, n + 1)), b, cops.take_rows(a, [0])]) * w), [a, b])

    def test_layer_norm(self):
        for rng, n, m in self._shapes():
            cols = m + 1
            x = _param(rng, n, cols)
            scale = Tensor(rng.standard_normal((1, cols)), requires_grad=True)
            bias = Tensor(rng.standard_normal((1, cols)), requires_grad=True)
            w = Tensor(rng.standard_normal((n, cols)))
            check_grad(lambda: ad.sum_(cops.layer_norm(x, scale, bias) * w),
                       [x, scale, bias])

    def test_bce_with_logits(self):
        rng = np.random.default_rng(9)
        logits = _param(rng, 2, 5)
        targets = rng.random((2, 5))
        check_grad(lambda: ad.sum_(ad.bce_with_logits(logits, targets)), [logits])


# packed rows with a length-1 sequence and two repeated lengths whose rows
# are not contiguous, as the fused ops meet them in a mixed batch
MIXED_LENGTHS = ([1], [2, 1, 3, 2], [3, 1, 3, 2, 2])
# (query lengths, key lengths): captions of a batch over their own graphs
CROSS_LENGTHS = (([1], [1]), ([3, 1, 3, 2], [1, 4, 1, 2]), ([2, 2, 1], [1, 3, 1]))

def _norm_proj(rng, d, shapes, requires_grad=True):
    """A random layer-norm pair and (w, b) pairs of the given (in, out) shapes."""
    def t(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)

    return (t(1, d), t(1, d)), tuple((t(n, m), t(1, m)) for n, m in shapes)


def _flat(norm, proj) -> list[Tensor]:
    return [*norm, *(t for pair in proj for t in pair)]


def _layout(nodes, edges=()) -> ad.GatEdges:
    """The GAT layout the model runs for a graph of `nodes` nodes and these
    directed edges: made symmetric, with self-loops."""
    return attention_edges([ArchGraph(nodes=[3] * nodes, edges=edges,
                                      shapes=[SENTINEL_SHAPE] * nodes)])


def _gat_case(rng, adj, heads, dh, requires_grad=True):
    """Random node rows, per-head W and a and the output projection of one
    GAT layer, and the layout of the graph whose edges are the true entries
    of the adjacency `adj`."""
    def t(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)

    r, d = len(adj), heads * dh
    return (t(r, d), [t(d, dh) for _ in range(heads)], [t(1, 2 * dh) for _ in range(heads)],
            t(d, d), _layout(r, np.argwhere(adj)))


class TestFusedOpGradients:
    """Finite-difference checks of the fused ops over packed rows."""

    def test_attention_block(self):
        rng = np.random.default_rng(21)
        for lengths in MIXED_LENGTHS:
            rows, d = sum(lengths), 4
            x = _param(rng, rows, d)
            norm, proj = _norm_proj(rng, d, [(d, d)] * 4)
            w = Tensor(rng.standard_normal((rows, d)))
            check_grad(lambda: ad.sum_(ad.attention_block(x, norm, proj, 2, lengths) * w),
                       [x, *_flat(norm, proj)])

    def test_causal_attention_block(self):
        rng = np.random.default_rng(27)
        for lengths in MIXED_LENGTHS:
            rows, d = sum(lengths), 4
            x = _param(rng, rows, d)
            norm, proj = _norm_proj(rng, d, [(d, d)] * 4)
            w = Tensor(rng.standard_normal((rows, d)))
            check_grad(lambda: ad.sum_(ad.attention_block(x, norm, proj, 2, lengths, causal=True)
                                       * w), [x, *_flat(norm, proj)])

    def test_cross_attention_block(self):
        # queries of each length against keys of each length, a length-1
        # caption and a 1-node graph among them; the (3, 1) pairs lie apart
        rng = np.random.default_rng(28)
        for lengths, kv_lengths in CROSS_LENGTHS:
            rows, d = sum(lengths), 4
            x, k, v = _param(rng, rows, d), _param(rng, sum(kv_lengths), d), _param(
                rng, sum(kv_lengths), d)
            norm, proj = _norm_proj(rng, d, [(d, d)] * 2)
            w = Tensor(rng.standard_normal((rows, d)))
            check_grad(lambda: ad.sum_(ad.cross_attention_block(
                x, (k, v), norm, proj, 2, lengths, kv_lengths) * w), [x, k, v, *_flat(norm, proj)])

    def test_mlp(self):
        rng = np.random.default_rng(29)
        for rows in (1, 4):
            x = _param(rng, rows, 3)
            _, proj = _norm_proj(rng, 3, [(3, 5), (5, 2)])
            w = Tensor(rng.standard_normal((rows, 2)))
            check_grad(lambda: ad.sum_(ad.mlp(x, proj) * w), [x, *_flat((), proj)])

    def test_nll(self):
        # repeated targets, and weights of either sign
        rng = np.random.default_rng(30)
        for rows in (1, 5):
            logits = _param(rng, rows, 4)
            targets = rng.integers(0, 4, size=rows)
            weights = rng.standard_normal(rows)
            check_grad(lambda: ad.nll(logits, targets, weights), [logits])
            logp = ad.log_softmax(Tensor(logits.data)).data
            want = -(weights * logp[np.arange(rows), targets]).sum()
            assert ad.nll(logits, targets, weights).item() == pytest.approx(want, rel=1e-12)

    def test_ffn_block(self):
        rng = np.random.default_rng(22)
        for rows in (1, 4, 8):
            d = 3
            x = _param(rng, rows, d)
            norm, proj = _norm_proj(rng, d, [(d, 2 * d), (2 * d, d)])
            w = Tensor(rng.standard_normal((rows, d)))
            check_grad(lambda: ad.sum_(ad.ffn_block(x, norm, proj) * w),
                       [x, *_flat(norm, proj)])

    def test_embed(self):
        # more rows than ids, so ids repeat within and across columns
        rng = np.random.default_rng(23)
        for n_tables in range(1, 6):
            tables = [_param(rng, 4, 3) for _ in range(n_tables)]
            columns = [rng.integers(0, 4, size=7) for _ in tables]
            w = Tensor(rng.standard_normal((7, 3)))
            check_grad(lambda: ad.sum_(ad.embed(tables, columns) * w), tables)

    def test_gat_layer(self):
        # two heads; node 4 has no edge but its self-loop
        rng = np.random.default_rng(26)
        adj = np.zeros((5, 5), dtype=bool)
        adj[0, 1] = adj[1, 2] = adj[2, 0] = adj[3, 1] = True
        for _ in range(3):
            x, ws, as_, proj, edges = _gat_case(rng, adj, heads=2, dh=2)
            w = Tensor(rng.standard_normal(x.shape))
            check_grad(lambda: ad.sum_(ad.gat_layer(x, ws, as_, proj, edges) * w),
                       [x, *ws, *as_, proj])

    def test_segment_mean(self):
        rng = np.random.default_rng(24)
        for lengths in MIXED_LENGTHS:
            a = _param(rng, sum(lengths), 3)
            w = Tensor(rng.standard_normal((len(lengths), 3)))
            check_grad(lambda: ad.sum_(ad.segment_mean(a, lengths) * w), [a])

    def test_key_overflowing_to_minus_inf_is_named(self):
        # the key of row 1 overflows to -inf, so it takes zero attention
        # weight and the block's result stays finite; the error still comes
        big = np.finfo(np.float64).max
        x = Tensor([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        norm = (Tensor([[2.0, 2.0]]), Tensor([[0.0, 0.0]]))
        eye, zero = Tensor(np.eye(2)), Tensor(np.zeros((1, 2)))
        proj = ((Tensor(np.zeros((2, 2))), Tensor([[1.0, 0.0]])),
                (Tensor([[big / 2, 0.0], [0.0, 0.0]]), Tensor([[-big, 0.0]])),
                (eye, zero), (eye, zero))
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match=re.escape("attention_block (k projection)")):
            ad.attention_block(x, norm, proj, 1, [3])

    def test_score_overflowing_to_minus_inf_is_named(self):
        # node 0's score as a source overflows to -inf, so both edges from it
        # take zero weight and the layer's result stays finite; the error
        # still comes
        big = np.finfo(np.float64).max
        x, eye = Tensor([[2.0, 0.0], [0.5, 0.0]]), Tensor(np.eye(2))
        edges = _layout(2, [(0, 1)])
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match=re.escape("gat_layer (scores)")):
            ad.gat_layer(x, [eye], [Tensor([[0.0, 0.0, -big, 0.0]])], eye, edges)

    def test_constant_inputs_keep_no_backward(self):
        # a forward-only call keeps neither its inputs nor the arrays its
        # gradient would read
        rng = np.random.default_rng(25)
        lengths, d = [2, 1, 2], 4
        x = Tensor(rng.standard_normal((5, d)))
        attn = _norm_proj(rng, d, [(d, d)] * 4, requires_grad=False)
        ffn = _norm_proj(rng, d, [(d, 2 * d), (2 * d, d)], requires_grad=False)
        adj = np.zeros((5, 5), dtype=bool)
        adj[0, 3] = True
        gat = _gat_case(rng, adj, heads=2, dh=2, requires_grad=False)
        cross = (attn[0], attn[1][::3])
        for out in (ad.attention_block(x, *attn, 2, lengths), ad.ffn_block(x, *ffn),
                    ad.embed([x, x], [[0, 4], [1, 1]]), ad.gat_layer(x, *gat[1:]),
                    ad.segment_mean(x, lengths), ad.attention_block(x, *attn, 2, lengths, True),
                    ad.cross_attention_block(x, (x, x), *cross, 2, lengths, [1, 2, 2]),
                    ad.mlp(x, ffn[1]), ad.nll(x, [0, 1, 2, 3, 0], np.ones(5))):
            assert out._backward is None and out._parents == () and not out.requires_grad


class TestMaskedSoftmaxSemantics:
    """The softmax inside attention's masked form, read off through `_weights`."""

    def test_symmetric_pair(self):
        np.testing.assert_allclose(_weights([[1.7, 1.7]]), [[0.5, 0.5]])
        np.testing.assert_allclose(_weights(np.full((3, 4), -2.5)), 0.25)

    def test_single_unmasked_entry(self):
        p = _weights([[5.0, -2.0, 0.1]], np.array([[False, True, False]]))
        np.testing.assert_allclose(p, [[0.0, 1.0, 0.0]])

    def test_masked_positions_exactly_zero(self):
        rng = np.random.default_rng(0)
        mask = rng.random((4, 6)) > 0.4
        mask[:, 2] = True
        p = _weights(rng.standard_normal((4, 6)) * 30, mask)
        assert (p[~mask] == 0.0).all()
        np.testing.assert_allclose(p.sum(axis=-1), 1.0)
        # and a masked key's value never reaches the output
        q, k, v = (rng.standard_normal((6, 4)) for _ in range(3))
        out = cops.attention(Tensor(q[:4]), Tensor(k), Tensor(v), 2, mask=mask).data
        v[~mask.any(axis=0)] = 1e6
        again = cops.attention(Tensor(q[:4]), Tensor(k), Tensor(v), 2, mask=mask).data
        np.testing.assert_array_equal(out, again)

    def test_single_row_keeps_its_shape(self):
        # one query row against a key mask of one dimension
        p = _weights([math.log(1.0), math.log(3.0), 7.0], np.array([True, True, False]))
        assert p.shape == (1, 3)
        np.testing.assert_allclose(p, [[0.25, 0.75, 0.0]])

    def test_all_masked_row_rejected(self):
        with pytest.raises(ValueError, match="masked"):
            _weights([[1.0, 2.0]], np.array([[False, False]]))


class TestAttention:
    def test_matches_per_sequence_reference(self):
        rng = np.random.default_rng(2)
        lengths = [3, 1, 5, 3, 2, 5]
        q, k, v = (rng.standard_normal((sum(lengths), 8)) for _ in range(3))
        out = cops.attention(Tensor(q), Tensor(k), Tensor(v), 2, lengths=lengths).data
        start = 0
        for n in lengths:
            rows = slice(start, start + n)
            for cols in (slice(0, 4), slice(4, 8)):
                s = q[rows, cols] @ k[rows, cols].T / 2.0
                p = np.exp(s - s.max(axis=1, keepdims=True))
                want = (p / p.sum(axis=1, keepdims=True)) @ v[rows, cols]
                np.testing.assert_allclose(out[rows, cols], want, rtol=1e-13, atol=1e-15)
            start += n

    def test_equal_lengths_attend_within_each_sequence(self):
        # every sequence of one length: the single-block path
        rng = np.random.default_rng(4)
        for lengths in ([5], [3, 3, 3], [1, 1]):
            q, k, v = (rng.standard_normal((sum(lengths), 8)) for _ in range(3))
            out = cops.attention(Tensor(q), Tensor(k), Tensor(v), 2, lengths=lengths).data
            for start in range(0, sum(lengths), lengths[0]):
                rows = slice(start, start + lengths[0])
                for cols in (slice(0, 4), slice(4, 8)):
                    s = q[rows, cols] @ k[rows, cols].T / 2.0
                    p = np.exp(s - s.max(axis=1, keepdims=True))
                    want = (p / p.sum(axis=1, keepdims=True)) @ v[rows, cols]
                    np.testing.assert_allclose(out[rows, cols], want, rtol=1e-13, atol=1e-15)

    def test_sequence_bits_alone_equal_in_a_mixed_batch(self):
        rng = np.random.default_rng(3)
        lengths = [3, 1, 5, 3, 2, 5, 3]
        q, k, v = (rng.standard_normal((sum(lengths), 8)) for _ in range(3))
        batch = cops.attention(Tensor(q), Tensor(k), Tensor(v), 4, lengths=lengths).data
        start = 0
        for n in lengths:
            rows = slice(start, start + n)
            alone = cops.attention(Tensor(q[rows]), Tensor(k[rows]), Tensor(v[rows]), 4,
                                 lengths=[n]).data
            assert np.array_equal(batch[rows], alone)
            start += n

    def test_causal_row_sees_no_later_row(self):
        # changing a sequence's later rows leaves its earlier rows' bits be
        rng = np.random.default_rng(6)
        lengths, d = [4, 1, 3], 8
        norm, proj = _norm_proj(rng, d, [(d, d)] * 4, requires_grad=False)
        x = rng.standard_normal((8, d))
        out = ad.attention_block(Tensor(x), norm, proj, 2, lengths, causal=True).data
        x[[3, 7]] += 1.0   # the last rows of sequences 0 and 2
        again = ad.attention_block(Tensor(x), norm, proj, 2, lengths, causal=True).data
        changed = (out != again).any(axis=1)
        assert changed[[3, 7]].all() and not changed[[0, 1, 2, 4, 5, 6]].any()

    @staticmethod
    def decoder_case(seed):
        """A small decoder's model, and random rows of a 5-node graph."""
        cfg = model_mod.ModelConfig(node_vocab_size=10, text_vocab_size=12, d=8, dec_heads=2,
                                    max_tokens=8)
        rows = np.random.default_rng(seed).standard_normal((5, cfg.d))
        return model_mod.Model.initialized(cfg, seed=seed), Tensor(rows)

    def test_cached_steps_equal_the_causal_pass(self):
        # three captions of five tokens, fed one token a step to the decoder's
        # step with a cache whose sequences swap and fork between steps
        model, h_g = self.decoder_case(8)
        cfg, params = model.cfg, model.constants()
        cross = model_mod._decoder_cross(h_g, params)
        rng = np.random.default_rng(8)
        steps = 5
        tokens = rng.integers(5, cfg.text_vocab_size, size=(3, steps))
        history = np.arange(3)
        cache = ad.KVCache()
        for t in range(steps):
            if t:
                history = rng.integers(0, 3, size=3)
                cache.reorder(history)
                tokens[:, :t] = tokens[history, :t]
            out = model_mod._DecoderStep.of(cross, params, cfg)(tokens[:, t], cache)
            assert cache.positions == t + 1
            full = [ad.log_softmax(model_mod.decoder_logits(h_g, ids, params, cfg)).data[-1]
                    for ids in tokens[:, :t + 1]]
            np.testing.assert_allclose(out, full, rtol=0, atol=1e-12)

    def test_cached_block_is_forward_only(self):
        model, h_g = self.decoder_case(9)
        cross = model_mod._decoder_cross(h_g, model.constants())
        with pytest.raises(ValueError, match="forward-only"):
            model_mod._DecoderStep.of(cross, model.params, model.cfg)(
                np.array([BOS_ID, BOS_ID]), ad.KVCache())

    def test_cache_steps_write_in_place(self):
        # later steps write into the buffers the first one allocated, and a
        # reorder to no more sequences gathers into them too
        cache = ad.KVCache(3)
        rows = np.arange(6.0).reshape(3, 2)
        cache.extend(rows, -rows, 3)
        k_buffer, v_buffer = cache.k, cache.v
        cache.reorder([2, 0])
        k, v = cache.extend(rows[:2] + 10, -rows[:2] - 10, 2)
        assert cache.k is k_buffer and cache.v is v_buffer and cache.positions == 2
        np.testing.assert_array_equal(k, [[rows[2], rows[0] + 10], [rows[0], rows[1] + 10]])
        np.testing.assert_array_equal(v, -k)

    def test_mask_and_lengths_are_exclusive(self):
        a = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError, match="mask"):
            cops.attention(a, a, a, 1, lengths=[2], mask=np.ones((2, 2), dtype=bool))


def test_lone_row_product_equals_its_row_in_a_batch():
    # BLAS's matrix-vector product would round a lone row differently
    rng = np.random.default_rng(5)
    x, w = rng.standard_normal((9, 64)), rng.standard_normal((64, 128))
    b = rng.standard_normal((1, 128))
    batch_lin = ad.linear(Tensor(x), Tensor(w), Tensor(b)).data
    for i in range(len(x)):
        assert np.array_equal(ad.linear(Tensor(x[i:i + 1]), Tensor(w), Tensor(b)).data,
                              batch_lin[i:i + 1])


class TestLayerNormSemantics:
    def test_constant_vector_maps_to_zero(self):
        x = Tensor(np.full((2, 5), 3.7))
        scale = Tensor(np.ones((1, 5)))
        bias = Tensor(np.zeros((1, 5)))
        out = cops.layer_norm(x, scale, bias)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


class TestFiniteness:
    def test_nan_construction_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, float("nan")])

    def test_overflow_detected(self):
        big = Tensor(np.full(3, 1e308))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            big * big


def _gat_call(x, nodes, edges=()):
    """gat_layer of one head of width 2 over rows x (R, 2) and the layout of
    a graph of `nodes` nodes and these edges."""
    one = Tensor(np.ones((2, 2)))
    return ad.gat_layer(x, [one], [Tensor(np.ones((1, 4)))], one, _layout(nodes, edges))


# a sublayer's unit layer norm and identity (w, b) pairs, for 2 columns
_IDENTITY_BLOCK = ((Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2)))),
                   tuple((Tensor(np.eye(2)), Tensor(np.zeros((1, 2)))) for _ in range(4)))


# the same for a cross-attention sublayer: its q and output (w, b) pairs
_CROSS_IDENTITY = (_IDENTITY_BLOCK[0], _IDENTITY_BLOCK[1][:2])


def _cache_of_one(rows: np.ndarray) -> ad.KVCache:
    """A cache holding `rows` as the keys and values of one sequence."""
    cache = ad.KVCache()
    cache.extend(rows, rows, 1)
    return cache


class TestGatEdges:
    """The degree-ranked layout `attention_edges` builds and the sums over it."""

    @staticmethod
    def hub_and_chain():
        # node 0 has 22 neighbours, 22-29 form a chain and 30 has only its
        # self-loop, so the blocks shrink from 31 nodes to 1; the (target,
        # source) pairs of the neighbourhoods, from the adjacency, in order
        adj = np.zeros((31, 31), dtype=bool)
        adj[0, 1:23] = True
        adj[np.arange(22, 29), np.arange(23, 30)] = True
        target, source = np.argwhere(adj | adj.T | np.eye(31, dtype=bool)).T
        return target, source, _layout(31, np.argwhere(adj))

    def test_target_order_holds_the_pairs_and_their_reverses(self):
        target, source, edges = self.hub_and_chain()
        np.testing.assert_array_equal(edges.seg.ids, target)
        np.testing.assert_array_equal(edges.source, source)
        np.testing.assert_array_equal(edges.seg.starts, np.searchsorted(target, np.arange(31)))
        np.testing.assert_array_equal(target[edges.reverse], source)
        np.testing.assert_array_equal(source[edges.reverse], target)

    def test_block_k_holds_the_k_th_edge_of_a_prefix_of_the_node_order(self):
        target, source, edges = self.hub_and_chain()
        degree = np.bincount(target)
        order = np.argsort(-degree, kind="stable")
        assert degree[0] == 23 and len(edges.ends) == 23
        lo = 0
        for k, hi in enumerate(edges.ends.tolist()):
            n = hi - lo
            assert n == (degree > k).sum()
            np.testing.assert_array_equal(edges.rank_target[lo:hi], order[:n])
            np.testing.assert_array_equal(edges.ranked[lo:hi], edges.seg.starts[order[:n]] + k)
            lo = hi
        assert lo == len(target)
        np.testing.assert_array_equal(edges.node_rank[order], np.arange(31))
        np.testing.assert_array_equal(edges.rank_source, source[edges.ranked])
        np.testing.assert_array_equal(edges.source, source)

    def test_rank_sum_adds_a_node_s_terms_in_edge_order(self):
        # magnitudes far apart, so another order or grouping changes bits
        target, _, edges = self.hub_and_chain()
        rng = np.random.default_rng(8)
        scale = 10.0 ** rng.integers(-8, 9, (len(target), 1))
        terms = rng.standard_normal((len(target), 3)) * scale
        want = np.zeros((31, 3))
        for i in range(31):
            rows = terms[target == i]
            acc = rows[0].copy()
            for row in rows[1:]:
                acc += row
            want[i] = acc
        got = ad._rank_sum(terms[edges.ranked], edges)
        assert np.array_equal(got, want)


def test_leaky_relu_has_the_bits_of_the_select():
    # the rectifier as a select, written out here: signed zeros, infinities,
    # the smallest subnormals, NaN of either sign, and values from 1e-320 to 1e300
    rng = np.random.default_rng(9)
    tiny = np.nextafter(0.0, 1.0)
    mags = 10.0 ** rng.uniform(-320, 300, 200_000)
    a = np.concatenate([[0.0, -0.0, np.inf, -np.inf, tiny, -tiny, np.nan, -np.nan],
                        mags * rng.choice([-1.0, 1.0], mags.size)])
    want = np.where(a > 0, a, 0.2 * a)
    assert np.array_equal(ad._leaky_relu(a, 0.2).view(np.int64), want.view(np.int64))


class TestRowAndSegmentOps:
    def test_segment_sum_of_a_segment_equals_it_alone(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((30, 4))
        out = ad.segment_sum(Tensor(rows), ad.segments(np.repeat([0, 1, 2], [7, 17, 6]))).data
        alone = ad.segment_sum(Tensor(rows[7:24]), ad.segments(np.zeros(17, dtype=int))).data
        np.testing.assert_array_equal(out[1], alone[0])
        np.testing.assert_allclose(out, [rows[:7].sum(0), rows[7:24].sum(0), rows[24:].sum(0)],
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("call", [
        lambda a: cops.take_rows(a, [1, 1]),
        lambda a: cops.take_rows(a, [2, 0]),
        lambda a: cops.attention(a, a, a, 1, lengths=[1, 1]),
        lambda a: cops.attention(a, a, a, 1, lengths=[3, 0]),
        lambda a: ad.segments([1, 1, 2]),
        lambda a: ad.segments([0, 2, 2]),
        lambda a: ad.segments([0, 1, 0]),
        lambda a: _gat_call(a, 2),                        # a layout of 2 nodes for 3 rows
        lambda a: _gat_call(a, 3, [(0, 3)]),              # an edge past the graph's 3 nodes
        lambda a: ad.segment_sum(a, ad.segments([0, 1])),
        lambda a: ad.segment_sum(a, ad.segments([0, 0, 1, 1])),
        lambda a: ad.segment_mean(a, [2, 2]),
        lambda a: ad.segment_mean(a, [3, 0]),
        lambda a: ad.embed([a, a], [[0, 1], [0]]),
        lambda a: ad.embed([], []),
        lambda a: ad.cross_attention_block(a, (a, a), *_CROSS_IDENTITY, 1, [3], [1, 2]),
        lambda a: ad.cross_attention_block(a, (a, a), *_CROSS_IDENTITY, 1, [2, 1], [2, 2]),
        lambda a: ad.KVCache().extend(a.data, a.data, 2),   # 3 rows for 2 sequences
        lambda a: ad.nll(a, [0, 1, 2], np.ones(3)),
        lambda a: ad.nll(a, [0, 1, -1], np.ones(3)),
        lambda a: ad.nll(a, [0, 1, 1], np.ones(2)),
        lambda a: ad.linear(Tensor(np.ones(2)), a, Tensor(np.zeros((1, 2)))),   # 1-D rows
        lambda a: ad.embed([a], [[[0, 1, 2]]]),                        # ids not flat
        lambda a: ad.attention_block(a, *_IDENTITY_BLOCK, 3, [3]),       # 2 columns, 3 heads
        lambda a: _cache_of_one(a.data).extend(a.data, a.data, 3),
    ], ids=[f"<lambda>{i}" for i in range(25)])
    def test_bad_indices_rejected(self, call):
        with pytest.raises(ValueError):
            call(Tensor(np.ones((3, 2))))

    @pytest.mark.parametrize("ids", [[0, 3], [-1, 0]], ids=["past-end", "negative"])
    def test_gather_id_out_of_range_is_index_error(self, ids):
        with pytest.raises(IndexError, match=re.escape("gather id out of range [0, 3)")):
            ad.embed([Tensor(np.ones((3, 2)))], [ids])

    @pytest.mark.parametrize("op, shape, call", [
        ("take_rows", (2, 2), lambda a: cops.take_rows(a, [0, 1])),
        ("attention", (2, 2), lambda a: cops.attention(a, a, a, 1, lengths=[2])),
        ("gat_layer", (2, 2), lambda a: _gat_call(a, 2)),
        ("attention_block", (2, 2), lambda a: ad.attention_block(a, *_IDENTITY_BLOCK, 1, [2])),
        ("segment_sum", (2, 2), lambda a: ad.segment_sum(a, ad.segments([0, 1]))),
        ("attention", (2, 2), lambda a: cops.attention(Tensor(np.ones((3, 2))), a, a, 2,
                                                     mask=np.ones(2, dtype=bool))),
        ("layer_norm", (2, 2), lambda a: cops.layer_norm(a, Tensor(np.ones((1, 2))),
                                                       Tensor(np.zeros((1, 2))))),
        ("linear", (2, 2), lambda a: ad.linear(a, Tensor(np.ones((2, 3))),
                                               Tensor(np.zeros((1, 3))))),
        ("ffn_block", (2, 2), lambda a: ad.ffn_block(a, _IDENTITY_BLOCK[0],
                                                     _IDENTITY_BLOCK[1][:2])),
        ("embed", (2, 2), lambda a: ad.embed([Tensor(np.ones((2, 2))), a], [[0, 0], [1, 0]])),
        ("segment_mean", (2, 2), lambda a: ad.segment_mean(a, [1, 1])),
        ("cross_attention_block", (2, 2), lambda a: ad.cross_attention_block(
            a, (Tensor(np.ones((3, 2))),) * 2, *_CROSS_IDENTITY, 1, [2], [3])),
        ("mlp", (2, 2), lambda a: ad.mlp(a, _IDENTITY_BLOCK[1][:2])),
        ("nll", (2, 2), lambda a: ad.nll(a, [0, 1], np.ones(2))),
    ])
    def test_non_finite_output_names_the_op(self, op, shape, call):
        a = Tensor(np.ones(shape))
        a.data[1, 0] = np.inf   # past the construction check, as an overflow would be
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match=op):
            call(a)


class TestBackwardShape:
    def test_nonscalar_backward_rejected(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (a * a).backward()

    def test_grad_accumulates_for_repeated_use(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x + x * x).backward()
        assert x.grad == pytest.approx(12.0)

    def test_backward_releases_the_tape(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        h = x * x
        loss = ad.sum_(h * 2.0)
        held_by_tape_only = weakref.ref(loss._parents[0].data)   # h * 2.0
        loss.backward()
        assert held_by_tape_only() is None
        np.testing.assert_array_equal(x.grad, [0.0, 4.0, 8.0])
        # results the caller still holds keep their values, as constants
        np.testing.assert_array_equal(h.data, [0.0, 1.0, 4.0])
        assert not h.requires_grad and not loss.requires_grad


class TestAdam:
    def test_first_step_is_lr_times_sign(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        state = AdamState(lr=0.1)
        adam_step(p, {"w": np.array([0.3, -0.7])}, state)
        np.testing.assert_allclose(p["w"].data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)
        assert state.t == 1

    def test_zero_grads_leave_params_unchanged(self):
        p = {"w": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
        state = AdamState(lr=0.1)
        adam_step(p, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(p["w"].data, [1.0, 2.0])
        assert state.t == 1

    def test_two_step_replay_is_deterministic(self):
        def run():
            p = {"w": Tensor(np.array([0.5, -0.5]), requires_grad=True)}
            state = AdamState(lr=0.05)
            adam_step(p, {"w": np.array([1.0, 2.0])}, state)
            adam_step(p, {"w": np.array([-0.5, 0.25])}, state)
            return p["w"].data.copy(), state.t
        (w1, t1), (w2, t2) = run(), run()
        np.testing.assert_array_equal(w1, w2)
        assert t1 == t2 == 2

    def test_nonfinite_grad_rejected(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        with pytest.raises(NonFiniteError):
            adam_step(p, {"w": np.array([float("inf")])}, AdamState())


class TestFiniteDiffOracle:
    def test_quadratic(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        grads = finite_diff(lambda: float((x.data ** 2).sum()), [x])
        assert grads[0][0] == pytest.approx(6.0, rel=1e-6)

    def test_restores_parameters(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = x.data.copy()
        finite_diff(lambda: float(x.data.sum() ** 2), [x])
        np.testing.assert_array_equal(x.data, before)


def test_repeated_softmax_rows_match_math():
    p = _weights([[math.log(1.0), math.log(3.0)]] * 2, np.array([[True, True]]))
    np.testing.assert_allclose(p, [[0.25, 0.75]] * 2)
