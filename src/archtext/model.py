"""The bi-modal network: text encoder, graph encoder (GAT), shared cross
encoder, pooling, task heads, and the autoregressive caption decoder.

Both modalities are embedded to sequences of d-dimensional features, passed
through the same cross-encoder weights independently, and mean-pooled over
each sequence's rows into single vectors whose cosine similarity drives the
similarity objective. The masked-node head reads the per-position graph
sequence; the QA head reads the elementwise product of the pooled pair; the
decoder cross-attends over the graph sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import ArchGraph, attention_edges
from .text import BOS_ID, EOS_ID, MASK_ID, PAD_ID, TextVocab, TokenSeq, tokenize


@dataclass
class ModelConfig:
    """Dimensions, limits, and ablation switches."""

    node_vocab_size: int
    text_vocab_size: int
    d: int = 64
    gat_layers: int = 2
    gat_heads: int = 2
    cross_layers: int = 2
    cross_heads: int = 4
    dec_heads: int = 4
    max_nodes: int = 64
    max_tokens: int = 64
    n_answers: int = 51
    shape_buckets: int = 16
    eps_cos: float = 1e-8
    tau: float = 0.5
    no_shape: bool = False
    no_edge: bool = False
    no_mam: bool = False
    no_cross_encoder: bool = False
    text_only: bool = False
    arch_only: bool = False

    def __post_init__(self):
        # the floors come first, as a zero width or head count divides by zero
        # below; max_tokens leaves room for [BOS] and [EOS], as `tokenize` requires
        floors = {"d": 1, "gat_heads": 1, "cross_heads": 1, "dec_heads": 1, "max_nodes": 1,
                  "n_answers": 1, "shape_buckets": 1, "max_tokens": 3, "gat_layers": 0,
                  "cross_layers": 0}
        for key, floor in floors.items():
            if getattr(self, key) < floor:
                raise ValueError(f"{key} must be at least {floor}, got {getattr(self, key)}")
        if not 0.0 < self.eps_cos < math.inf:   # false for a NaN too
            raise ValueError(f"eps_cos must be finite and positive, got {self.eps_cos}")
        for key in ("gat_heads", "cross_heads", "dec_heads"):
            if self.d % getattr(self, key):
                raise ValueError(f"{key}={getattr(self, key)} does not divide d={self.d}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.node_vocab_size < 4 or self.text_vocab_size < 6:
            raise ValueError("vocabulary too small")
        if self.text_only and self.arch_only:
            raise ValueError("text_only and arch_only are mutually exclusive")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def shape_bucket(x, n_buckets: int):
    """Logarithmic bucketing of non-negative shape entries: floor(log2(x + 1)),
    capped at n_buckets - 1. Works elementwise on arrays; exact below 2**53."""
    _, exponent = np.frexp(np.asarray(x, dtype=np.float64) + 1.0)
    return np.minimum(exponent - 1, n_buckets - 1)


# ---------------------------------------------------------------------------
# parameters


class ParamSpec(NamedTuple):
    """A learnable tensor: checkpoint path, shape and initializer, a uniform
    draw from [-bound, bound] or, where bound is None, a constant fill."""

    path: str
    shape: tuple[int, ...]
    bound: float | None
    fill: float


def param_table(cfg: ModelConfig) -> list[ParamSpec]:
    """Every learnable tensor of a model with config `cfg`, in the order
    `init_params` draws them: the one statement of the parameter layout."""
    d, dh = cfg.d, cfg.d // cfg.gat_heads
    table: list[ParamSpec] = []

    def add(path: str, rows: int, cols: int, bound: float | None = None,
            fill: float = 0.0) -> None:
        table.append(ParamSpec(path, (rows, cols), bound, fill))

    def weight(path: str, fan_in: int, fan_out: int, bias: str = "") -> None:
        """A weight drawn within 1/sqrt(fan_in), then its zero bias if named."""
        add(path, fan_in, fan_out, 1.0 / math.sqrt(fan_in))
        if bias:
            add(bias, 1, fan_out)

    def attention(prefix: str) -> None:
        for gate in "qkvo":
            weight(f"{prefix}.w{gate}", d, d)
        for gate in "qkvo":
            add(f"{prefix}.b{gate}", 1, d)

    def block(prefix: str, norms: tuple[str, ...]) -> None:
        weight(f"{prefix}.ffn.w1", d, 2 * d, f"{prefix}.ffn.b1")
        weight(f"{prefix}.ffn.w2", 2 * d, d, f"{prefix}.ffn.b2")
        for ln in norms:
            add(f"{prefix}.ln.{ln}.scale", 1, d, fill=1.0)
            add(f"{prefix}.ln.{ln}.bias", 1, d)

    add("text.tok_emb", cfg.text_vocab_size, d, 0.02)
    add("text.pos_emb", cfg.max_tokens, d, 0.02)
    add("arch.node_emb", cfg.node_vocab_size, d, 0.02)
    for k in range(4):
        add(f"arch.shape_emb.{k}", cfg.shape_buckets, d, 0.02)

    for layer in range(cfg.gat_layers):
        for h in range(cfg.gat_heads):
            weight(f"gat.{layer}.{h}.W", d, dh)
            # a (2*dh, 1) weight stored as a row: the same draws, laid flat
            add(f"gat.{layer}.{h}.a", 1, 2 * dh, 1.0 / math.sqrt(2 * dh))
        weight(f"gat.{layer}.proj", d, d)

    for layer in range(cfg.cross_layers):
        attention(f"cross.{layer}.attn")
        block(f"cross.{layer}", ("attn", "ffn"))

    weight("head.mam.proj.w", d, cfg.node_vocab_size, "head.mam.proj.b")
    weight("head.aqa.fc1.w", d, d, "head.aqa.fc1.b")
    weight("head.aqa.fc2.w", d, cfg.n_answers, "head.aqa.fc2.b")

    add("dec.emb.tok", cfg.text_vocab_size, d, 0.02)
    add("dec.emb.pos", cfg.max_tokens, d, 0.02)
    attention("dec.attn")
    attention("dec.xattn")
    block("dec", ("self", "xattn", "ffn"))
    weight("dec.out.fc1.w", d, d, "dec.out.fc1.b")
    weight("dec.out.fc2.w", d, cfg.text_vocab_size, "dec.out.fc2.b")
    return table


def init_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """All learnable tensors under their canonical checkpoint paths, drawn
    from one generator in `param_table` order."""
    rng = np.random.default_rng(seed)
    return {p.path: Tensor(np.full(p.shape, p.fill) if p.bound is None
                           else rng.uniform(-p.bound, p.bound, size=p.shape),
                           requires_grad=True, name=p.path)
            for p in param_table(cfg)}


@dataclass
class Model:
    """Config plus named parameters; the unit everything downstream consumes."""

    cfg: ModelConfig
    params: dict[str, Tensor] = field(default_factory=dict)
    # each parameter's constant twin; it holds the array it wraps alive, so an
    # `is` test can tell a new array from it
    _consts: dict[str, Tensor] = field(default_factory=dict, init=False, repr=False,
                                       compare=False)

    @classmethod
    def initialized(cls, cfg: ModelConfig, seed: int) -> "Model":
        return cls(cfg=cfg, params=init_params(cfg, seed))

    @classmethod
    def from_arrays(cls, cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> "Model":
        """The model with config `cfg` and these weights, such as a checkpoint
        holds, checked against `param_table(cfg)` (paths and shapes) before
        any parameter is made, and for non-finite values as each is made; a
        fault is a ValueError naming the parameter. Float64 arrays are not
        copied."""
        table = param_table(cfg)
        paths = {p.path for p in table}
        missing, extra = sorted(paths - set(arrays)), sorted(set(arrays) - paths)
        if missing or extra:
            raise ValueError(f"parameter mismatch: missing {missing}, unexpected {extra}")
        for p in table:
            a = arrays[p.path]
            if a.shape != p.shape:
                raise ValueError(f"{p.path}: checkpoint shape {a.shape} != model shape {p.shape}")
        params = {}
        for p in table:
            try:   # the one scan for non-finite values is the Tensor's own
                params[p.path] = Tensor(arrays[p.path], requires_grad=True, name=p.path)
            except ad.NonFiniteError:
                raise ValueError(f"parameter {p.path!r} has non-finite values") from None
        return cls(cfg=cfg, params=params)

    def constant(self, name: str) -> Tensor:
        """Parameter `name` as a constant sharing its storage, so in-place
        edits show through. It is made, and its array scanned for non-finite
        values, only when the parameter holds an array it has not seen: every
        update (`adam_step`) assigns a new one."""
        p, c = self.params[name], self._consts.get(name)
        if c is None or c.data is not p.data:
            c = self._consts[name] = Tensor(p.data)
        return c

    def constants(self) -> dict[str, Tensor]:
        """Every parameter as its `constant`: the weights of forward-only
        calls. The dict is the model's own; read it, do not change it."""
        for name in self.params:
            self.constant(name)
        return self._consts


def freeze_groups(model: Model, frozen_prefixes: tuple[str, ...]) -> dict[str, Tensor]:
    """The model's parameters, with those under the given prefixes as their
    constants."""
    return {name: model.constant(name) if name.startswith(frozen_prefixes) else p
            for name, p in model.params.items()}


# ---------------------------------------------------------------------------
# encoders: every encode runs on a batch of B sequences, carried from
# embedding to pooling as packed rows (R, d): the real rows of every sequence
# laid end to end, with one length per sequence. No layer pads: the
# cross-encoder's attention runs each group of equal-length sequences as one
# dense block.


def embed_text(seqs: list[TokenSeq], params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Token plus positional embeddings of each sequence's tokens; packed rows
    (R, d), one per token of each sequence in turn."""
    lengths = [len(s.ids) for s in seqs]
    if max(lengths) > cfg.max_tokens:
        raise ValueError(f"sequence length {max(lengths)} exceeds max_tokens {cfg.max_tokens}")
    return ad.embed([params["text.tok_emb"], params["text.pos_emb"]],
                    [[i for s in seqs for i in s.ids], [p for n in lengths for p in range(n)]])


def embed_nodes_shapes(graphs: list[ArchGraph], params: dict[str, Tensor],
                       cfg: ModelConfig) -> Tensor:
    """Node-type embeddings, plus four bucketed shape embeddings unless the
    shape ablation is active; packed rows (R, d), one per node of each graph
    in turn."""
    for g in graphs:
        if g.num_nodes > cfg.max_nodes:
            raise ValueError(f"graph has {g.num_nodes} nodes, max_nodes is {cfg.max_nodes}")
    nodes = np.fromiter(chain.from_iterable(g.nodes for g in graphs), dtype=np.int64)
    if nodes.max() >= cfg.node_vocab_size:
        raise ValueError(f"node id {nodes.max()} outside vocabulary of {cfg.node_vocab_size}")
    if cfg.no_shape:
        return ad.embed([params["arch.node_emb"]], [nodes])
    shapes = np.array([s for g in graphs for s in g.shapes], dtype=np.float64)
    buckets = shape_bucket(shapes, cfg.shape_buckets)
    return ad.embed([params["arch.node_emb"]] + [params[f"arch.shape_emb.{k}"] for k in range(4)],
                    [nodes, *buckets.T])


def gat_forward(feats: Tensor, edges: ad.GatEdges, params: dict[str, Tensor],
                cfg: ModelConfig) -> Tensor:
    """Multi-head graph attention with residual connections over packed node
    rows: feats (R, d), edges the layout of the rows' neighbourhoods that
    `graph.attention_edges`, its one constructor, builds from the graphs.

    Per head and edge: additive attention logits through a leaky rectifier,
    a softmax over each node's edges, then an attention-weighted sum of the
    neighbours' projected features; the head outputs are projected back to
    d. Each layer is one `autodiff.gat_layer` op, and the layers share the
    layout.
    """
    heads = range(cfg.gat_heads)
    x = feats
    for layer in range(cfg.gat_layers):
        x = ad.gat_layer(x, [params[f"gat.{layer}.{h}.W"] for h in heads],
                         [params[f"gat.{layer}.{h}.a"] for h in heads],
                         params[f"gat.{layer}.proj"], edges)
    return x


def _norm(params: dict[str, Tensor], prefix: str) -> tuple[Tensor, Tensor]:
    return params[f"{prefix}.scale"], params[f"{prefix}.bias"]


def _pairs(params: dict[str, Tensor], prefix: str,
           gates: str) -> tuple[tuple[Tensor, Tensor], ...]:
    """The (w, b) pairs of the named linear layers under `prefix`."""
    return tuple((params[f"{prefix}.w{g}"], params[f"{prefix}.b{g}"]) for g in gates)


def _head(params: dict[str, Tensor], prefix: str) -> tuple[tuple[Tensor, Tensor], ...]:
    """The (w, b) pairs of the two layers of the output head under `prefix`."""
    return tuple((params[f"{prefix}.fc{i}.w"], params[f"{prefix}.fc{i}.b"]) for i in (1, 2))


def _ffn_block(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """x plus the feed-forward net of the normalized x, for the layer whose
    weights are `prefix`.ffn.* and `prefix`.ln.ffn.*."""
    return ad.ffn_block(x, _norm(params, f"{prefix}.ln.ffn"), _pairs(params, f"{prefix}.ffn", "12"))


def cross_encode(x: Tensor, lengths, params: dict[str, Tensor],
                 cfg: ModelConfig) -> Tensor:
    """Pre-norm transformer encoder over one modality's packed batch: x (R, d)
    holds B sequences end to end, lengths[b] rows each; the result has the
    same layout.

    The same weights serve both modalities. Every layer runs on the packed
    rows as two ops, its attention and feed-forward sublayers; attention
    runs each group of equal-length sequences as one dense block, so no row
    is ever padding. Identity when the cross-encoder ablation is active.
    """
    if cfg.no_cross_encoder:
        return x
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.max() > max(cfg.max_tokens, cfg.max_nodes):
        raise ValueError(f"sequence of {lengths.max()} exceeds encoder limit")
    for layer in range(cfg.cross_layers):
        x = ad.attention_block(x, _norm(params, f"cross.{layer}.ln.attn"),
                               _pairs(params, f"cross.{layer}.attn", "qkvo"), cfg.cross_heads,
                               lengths)
        x = _ffn_block(x, params, f"cross.{layer}")
    return x


def pool(h: Tensor, lengths) -> Tensor:
    """Mean over each sequence's rows of a packed batch: h (R, d), lengths[b]
    rows each, gives (B, d)."""
    return ad.segment_mean(h, lengths)


def cosine(j_a: Tensor, j_b: Tensor, eps: float = 1e-8) -> Tensor:
    """Row-wise cosine similarity with a clamped denominator; zero vectors
    score 0. (B, d) pairs give (B,)."""
    dot = ad.sum_(j_a * j_b, axis=-1)
    na = ad.sqrt(ad.sum_(j_a * j_a, axis=-1))
    nb = ad.sqrt(ad.sum_(j_b * j_b, axis=-1))
    return dot / ad.clamp_min(na * nb, eps)


def encode_texts(seqs: list[TokenSeq], params: dict[str, Tensor],
                 cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """Text path for a batch: token embeddings, cross encoding, pooling.
    Returns (H_t (R, d), J_t (B, d)) for R the tokens of all texts."""
    lengths = [len(s.ids) for s in seqs]
    h_t = cross_encode(embed_text(seqs, params, cfg), lengths, params, cfg)
    return h_t, pool(h_t, lengths)


def encode_graphs(graphs: list[ArchGraph], params: dict[str, Tensor],
                  cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """Graph path for a batch: node+shape embeddings, GAT and cross encoding
    on the packed node rows, pooling. Returns (H_g (R, d), J_g (B, d)) for R
    the nodes of all graphs."""
    sizes = [g.num_nodes for g in graphs]
    m_g = gat_forward(embed_nodes_shapes(graphs, params, cfg),
                      attention_edges(graphs, not cfg.no_edge), params, cfg)
    h_g = cross_encode(m_g, sizes, params, cfg)
    return h_g, pool(h_g, sizes)


def encode_text(seq: TokenSeq, params: dict[str, Tensor],
                cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """One text as a batch of one. Returns (H_t (tokens, d), J_t (1, d))."""
    return encode_texts([seq], params, cfg)


def encode_graph(g: ArchGraph, params: dict[str, Tensor],
                 cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """One graph as a batch of one. Returns (H_g (nodes, d), J_g (1, d))."""
    return encode_graphs([g], params, cfg)


# ---------------------------------------------------------------------------
# frozen encode core: every task that scores pooled embeddings reads them here

# Rows per frozen encode: batching spreads each op's fixed cost over the
# chunk, and a fixed budget keeps peak memory flat however many items there
# are. Rows, not items: small items need many to a chunk to share that cost,
# and large ones few to keep the chunk's working set small. Encoding graphs
# of 8-16 and of 8-64 nodes, 384 rows beat 96, 288, 512 and 768.
_EMBED_ROWS = 384


def _pooled_chunks(items: list, encode, rows_of, d: int) -> np.ndarray:
    """Pooled rows of hashable items, each distinct item encoded once; a
    repeat gets the row of its first occurrence. This is exact because a
    pooled vector has the same bits whatever batch it is encoded in. An
    encode takes items in order while their rows (`rows_of(item)` each) fit
    the row budget, and always at least one."""
    first: dict = {}
    where = [first.setdefault(item, len(first)) for item in items]
    parts, chunk, used = [], [], 0
    for item in first:
        n = rows_of(item)
        if chunk and used + n > _EMBED_ROWS:
            parts.append(encode(chunk).data)
            chunk, used = [], 0
        chunk.append(item)
        used += n
    if chunk:
        parts.append(encode(chunk).data)
    if not parts:
        return np.zeros((0, d))
    pooled = np.concatenate(parts)
    # spread to the input order only when something repeats: the copy adds an
    # (N, d) array to the peak memory of a large call, such as an index build
    return pooled[where] if len(first) < len(items) else pooled


def embed_texts(texts: list[str], model: Model, text_vocab: TextVocab) -> np.ndarray:
    """Pooled text embeddings J_t under constant parameters; shape (N, d)."""
    params, cfg = model.constants(), model.cfg
    seqs = [tokenize(t, text_vocab, cfg.max_tokens) for t in texts]
    return _pooled_chunks(seqs, lambda chunk: encode_texts(chunk, params, cfg)[1],
                          lambda s: len(s.ids), cfg.d)


def embed_graphs(graphs: list[ArchGraph], model: Model) -> np.ndarray:
    """Pooled graph embeddings J_g under constant parameters; shape (N, d)."""
    params, cfg = model.constants(), model.cfg
    return _pooled_chunks(graphs, lambda chunk: encode_graphs(chunk, params, cfg)[1],
                          lambda g: g.num_nodes, cfg.d)


# ---------------------------------------------------------------------------
# heads


def mam_logits(h_g: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Per-node logits over the node vocabulary; shape (m, node_vocab_size)."""
    return ad.linear(h_g, params["head.mam.proj.w"], params["head.mam.proj.b"])


def aqa_logits(j_t: Tensor, j_g: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Answer logits from the elementwise product of the pooled pair."""
    return ad.mlp(j_t * j_g, _head(params, "head.aqa"))


# ---------------------------------------------------------------------------
# decoder: one layer and the output head, run by teacher forcing over the
# packed rows of a batch of captions as fused ops, and by beam search a
# position at a time, on the same kernels with no tape, against a key/value
# cache


def _decoder_cross(h_g: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """The graph side of cross-attention: key and value rows over H_g. It
    does not depend on the tokens, so a caption computes it once."""
    k, v = (ad.linear(h_g, w, b) for w, b in _pairs(params, "dec.xattn", "kv"))
    return k, v


def _decoder(x: Tensor, lengths, cross: tuple[Tensor, Tensor], cross_lengths,
             params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Token logits of the decoder over token rows x: causal self-attention
    within each of the sequences of x, lengths[b] rows each, cross-attention
    over the graph rows `cross` (as `_decoder_cross` gives them) in the
    pairs of query and key lengths `cross_lengths`, the feed-forward net,
    then the output head."""
    x = ad.attention_block(x, _norm(params, "dec.ln.self"), _pairs(params, "dec.attn", "qkvo"),
                           cfg.dec_heads, lengths, causal=True)
    x = ad.cross_attention_block(x, cross, _norm(params, "dec.ln.xattn"),
                                 _pairs(params, "dec.xattn", "qo"), cfg.dec_heads,
                                 *cross_lengths)
    x = _ffn_block(x, params, "dec")
    return ad.mlp(x, _head(params, "dec.out"))


def decoder_logits(h_g: Tensor, input_ids, params: dict[str, Tensor], cfg: ModelConfig,
                   lengths=None, sizes=None) -> Tensor:
    """Teacher-forced decoder pass over a batch of captions, packed: the
    token ids of caption b are lengths[b] entries of `input_ids`, end to
    end, and its graph is sizes[b] rows of h_g, end to end. Each caption's
    rows attend causally over its own tokens and over every row of its own
    graph. By default the ids are one caption of the graph h_g. Returns
    token logits, one row per input id."""
    ids = np.asarray(input_ids, dtype=np.int64)
    lengths = ad.check_lengths([len(ids)] if lengths is None else lengths, len(ids), "input ids")
    sizes = [h_g.shape[0]] if sizes is None else sizes
    if lengths.max() > cfg.max_tokens:
        raise ValueError(f"decoder input of {lengths.max()} exceeds max_tokens {cfg.max_tokens}")
    positions = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    x = ad.embed([params["dec.emb.tok"], params["dec.emb.pos"]], [ids, positions])
    return _decoder(x, lengths, _decoder_cross(h_g, params), (lengths, sizes), params, cfg)


def _step_error(ops) -> ad.NonFiniteError:
    """The error of a decoder step whose values went non-finite, as the
    fused ops would raise it: `ops` lists each (op, stages) in the order
    they ran, its stages (name, array) in order and its result last, named
    None. It names the first op with a non-finite value and that op's first
    non-finite stage, or no stage when only its result is."""
    return next(ad._stage_error(op, stages) for op, stages in ops
                if not all(ad._finite(a) for _, a in stages))


class _DecoderStep(NamedTuple):
    """The arrays that a caption's decoder steps read, gathered once (`of`):
    the embedding tables, each layer norm's (scale, bias), the (w, b) pairs
    of the self-attention's q, k and v side by side, its output, the
    cross-attention's q and output, the feed-forward net and the output
    head, and the graph's cross-attention keys and values as per-head
    blocks (1, heads, m, dh)."""

    tok: np.ndarray
    pos: np.ndarray
    ln_self: tuple[np.ndarray, np.ndarray]
    qkv: tuple[np.ndarray, np.ndarray]
    out: tuple[np.ndarray, np.ndarray]
    ln_cross: tuple[np.ndarray, np.ndarray]
    cross_q: tuple[np.ndarray, np.ndarray]
    cross_out: tuple[np.ndarray, np.ndarray]
    cross_k: np.ndarray
    cross_v: np.ndarray
    ln_ffn: tuple[np.ndarray, np.ndarray]
    ffn: tuple[tuple[np.ndarray, np.ndarray], ...]
    head: tuple[tuple[np.ndarray, np.ndarray], ...]

    @classmethod
    def of(cls, cross: tuple[Tensor, Tensor], params: dict[str, Tensor],
           cfg: ModelConfig) -> "_DecoderStep":
        """The arrays of `params` and of the graph rows `cross`, as
        `_decoder_cross` gives them. Decoding builds no tape, so a parameter
        that requires a gradient is refused."""
        if any(p.requires_grad for name, p in params.items() if name.startswith("dec.")):
            raise ValueError("a decoder step is forward-only: pass the model's constants")

        def norm(name: str) -> tuple[np.ndarray, np.ndarray]:
            return tuple(t.data for t in _norm(params, f"dec.ln.{name}"))

        (wq, bq), (wk, bk), (wv, bv), out = ad._arrays(_pairs(params, "dec.attn", "qkvo"))
        # one product for q, k and v: each output column is the same dot
        # product over d as in a product of its own, which BLAS does not
        # split at these widths, so the bits are those of three products
        qkv = np.concatenate((wq, wk, wv), axis=1), np.concatenate((bq, bk, bv), axis=1)
        cross_q, cross_out = ad._arrays(_pairs(params, "dec.xattn", "qo"))
        k, v = (ad._by_head(t.data, 1, cfg.dec_heads) for t in cross)
        return cls(params["dec.emb.tok"].data, params["dec.emb.pos"].data, norm("self"), qkv,
                   out, norm("xattn"), cross_q, cross_out, k, v, norm("ffn"),
                   ad._arrays(_pairs(params, "dec.ffn", "12")),
                   ad._arrays(_head(params, "dec.out")))

    def __call__(self, tokens: np.ndarray, cache: ad.KVCache) -> np.ndarray:
        """Next-token log-probabilities (B, vocab) after the newest tokens
        of B hypotheses of one graph and one length: `tokens[b]` is
        hypothesis b's, and `cache` holds the self-attention keys and values
        of the earlier positions of each, behind which the step writes this
        position's. The step runs the kernels of `_decoder`'s fused ops, in
        their order, on the B rows as one batch: self-attention as B
        sequences of one row over their own cached rows, cross-attention as
        one sequence of B rows over the graph's. A non-finite value raises
        `NonFiniteError` naming the op and stage the fused op would name: k
        at once, as a key that overflowed to -inf takes zero weight and
        leaves no trace, and the rest once the result is found non-finite."""
        b, d, heads, eps = len(tokens), self.tok.shape[1], self.cross_k.shape[1], ad._LN_EPS
        scale = ad._query_scale(d, heads)
        x = self.tok[tokens] + self.pos[cache.positions]
        y = ad._layer_norm(x, *self.ln_self, eps)[0]
        qkv = ad._linear(y, *self.qkv)
        q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
        q *= scale   # in place, as finite and non-finite values stay so
        self_stages = [("layer norm", y), ("q projection", q), ("k projection", k)]
        if not ad._finite(k):
            raise _step_error([("embed", [(None, x)]), ("attention_block", self_stages)])
        keys, values = (ad._by_head(t, b, heads) for t in cache.extend(k, v, b))
        att = ad._by_row(ad._attend(ad._by_head(q, b, heads), keys, values, None)[0])
        o = ad._linear(att, *self.out)
        x1 = o + x
        y1 = ad._layer_norm(x1, *self.ln_cross, eps)[0]
        q1 = ad._linear(y1, *self.cross_q)
        q1 *= scale
        att1 = ad._by_row(ad._attend(ad._by_head(q1, 1, heads), self.cross_k, self.cross_v,
                                     None)[0])
        o1 = ad._linear(att1, *self.cross_out)
        x2 = o1 + x1
        y2 = ad._layer_norm(x2, *self.ln_ffn, eps)[0]
        f, pre, _ = ad._mlp(y2, self.ffn)
        x3 = f + x2
        logits, pre3, _ = ad._mlp(x3, self.head)
        logp = ad._log_softmax(logits)
        if not ad._finite(logp):
            raise _step_error([
                ("embed", [(None, x)]),
                ("attention_block", self_stages + [("v projection", v), ("attention", att),
                                                   ("output projection", o), (None, x1)]),
                ("cross_attention_block", [("layer norm", y1), ("q projection", q1),
                                           ("attention", att1), ("output projection", o1),
                                           (None, x2)]),
                ("ffn_block", [("layer norm", y2), ("hidden layer", pre),
                               ("output projection", f), (None, x3)]),
                ("mlp", [("hidden layer", pre3), ("output projection", logits)]),
                ("log_softmax", [(None, logp)])])
        return logp


_FORBIDDEN_DECODE_IDS = (PAD_ID, BOS_ID, MASK_ID)


def _best_expansions(key: np.ndarray, beam: int) -> np.ndarray:
    """The indices of the `beam` highest finite keys, best first, a tie
    going to the smaller index, which in `decode_beam` is the
    lexicographically smaller expansion. Only the keys at least the
    beam-th best are sorted, every tie at that cut included, so the result
    is that of sorting all the finite keys by (-key, index)."""
    floor = -np.finfo(key.dtype).max   # the least finite key
    if beam < len(key):
        floor = max(floor, np.partition(key, len(key) - beam)[len(key) - beam])
    keep = np.flatnonzero(key >= floor)
    return keep[np.argsort(-key[keep], kind="stable")][:beam]


def decode_beam(h_g: Tensor, params: dict[str, Tensor], cfg: ModelConfig,
                beam: int, max_len: int | None) -> list[int]:
    """Length-normalized beam search; returns the best token sequence
    (without the leading start token, ending in the end token).

    Hypotheses are compared by (mean log-probability, then lexicographically
    smaller token ids). The length budget is max_len tokens after the start
    token, and at most the max_tokens - 1 that max_len=None gives; a
    hypothesis reaching it is closed with the end token. beam=1 is greedy
    decoding. All live hypotheses share one length, so each step decodes
    them as one batch against a key/value cache instead of re-running their
    prefixes. The cache is allocated for the length budget, and each step
    writes its position in place. `params` are constants, as
    `Model.constants()` gives them: the caption's steps run on their arrays,
    gathered once with the graph's cross-attention keys and values
    (`_DecoderStep`), and build no tape.

    The live hypotheses are kept in lexicographic order. Expansion i of a
    step appends token i % V to live hypothesis i // V, for V the
    vocabulary size, so expansion i is the lexicographically smaller
    sequence of two exactly when its i is, and a tie in score goes to the
    smaller i. The ids a caption may not emit score -inf, and so does every
    id but the end token at the length budget.
    """
    if beam < 1:
        raise ValueError("beam width must be >= 1")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1")
    budget = cfg.max_tokens - 1
    max_len = budget if max_len is None else min(max_len, budget)
    step = _DecoderStep.of(_decoder_cross(Tensor(h_g.data), params), params, cfg)
    vocab = cfg.text_vocab_size

    seqs = np.full((1, 1), BOS_ID, dtype=np.int64)   # live prefixes, start token first
    sums = np.zeros(1)                                # their summed log-probabilities
    cache = ad.KVCache(max_len)
    done: list[tuple[tuple[int, ...], float]] = []
    while len(seqs):
        totals = step(seqs[:, -1], cache)
        length = seqs.shape[1]   # tokens after the start token once extended
        if length == max_len:
            totals[:, :EOS_ID] = totals[:, EOS_ID + 1:] = -np.inf
        else:
            totals[:, _FORBIDDEN_DECODE_IDS] = -np.inf
        totals += sums[:, None]
        totals = totals.ravel()
        key = totals / length
        # finished and unfinished expansions compete for the same beam slots,
        # so beam=1 degenerates to greedy decoding
        order = _best_expansions(key, beam)
        ended = order % vocab == EOS_ID
        done.extend((tuple(seqs[i // vocab, 1:].tolist()) + (EOS_ID,), float(key[i]))
                    for i in order[ended])
        order = np.sort(order[~ended])
        parents, toks = np.divmod(order, vocab)
        if len(order):
            cache.reorder(parents)
        seqs, sums = np.concatenate([seqs[parents], toks[:, None]], axis=1), totals[order]
    best = min(done, key=lambda c: (-c[1], c[0]))
    return list(best[0])
