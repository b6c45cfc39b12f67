"""The bi-modal network: text encoder, graph encoder (GAT), shared cross
encoder, pooling, task heads, and the autoregressive caption decoder.

Both modalities are embedded to sequences of d-dimensional features, passed
through the same cross-encoder weights independently, and mean-pooled over
real positions into single vectors whose cosine similarity drives the
similarity objective. The masked-node head reads the per-position graph
sequence; the QA head reads the elementwise product of the pooled pair; the
decoder cross-attends over the graph sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import ArchGraph, attention_mask
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
        for heads in (self.gat_heads, self.cross_heads, self.dec_heads):
            if self.d % heads != 0:
                raise ValueError(f"d={self.d} not divisible by head count {heads}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.node_vocab_size < 4 or self.text_vocab_size < 6:
            raise ValueError("vocabulary too small")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def shape_bucket(x: int, n_buckets: int) -> int:
    """Logarithmic bucketing of a non-negative shape entry."""
    return min((int(x) + 1).bit_length() - 1, n_buckets - 1)


# ---------------------------------------------------------------------------
# parameters


def _linear_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _attn_params(rng, d: int, prefix: str, out: dict[str, np.ndarray]) -> None:
    for gate in ("wq", "wk", "wv", "wo"):
        out[f"{prefix}.{gate}"] = _linear_init(rng, d, d)
    for gate in ("bq", "bk", "bv", "bo"):
        out[f"{prefix}.{gate}"] = np.zeros((1, d))


def _block_params(rng, d: int, prefix: str, ln_names: tuple[str, ...],
                  out: dict[str, np.ndarray]) -> None:
    hidden = 2 * d
    out[f"{prefix}.ffn.w1"] = _linear_init(rng, d, hidden)
    out[f"{prefix}.ffn.b1"] = np.zeros((1, hidden))
    out[f"{prefix}.ffn.w2"] = _linear_init(rng, hidden, d)
    out[f"{prefix}.ffn.b2"] = np.zeros((1, d))
    for ln in ln_names:
        out[f"{prefix}.ln.{ln}.scale"] = np.ones((1, d))
        out[f"{prefix}.ln.{ln}.bias"] = np.zeros((1, d))


def init_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """All learnable tensors under their canonical checkpoint paths."""
    rng = np.random.default_rng(seed)
    d = cfg.d
    arrays: dict[str, np.ndarray] = {}

    def emb(shape):
        return rng.uniform(-0.02, 0.02, size=shape)

    arrays["text.tok_emb"] = emb((cfg.text_vocab_size, d))
    arrays["text.pos_emb"] = emb((cfg.max_tokens, d))
    arrays["arch.node_emb"] = emb((cfg.node_vocab_size, d))
    for k in range(4):
        arrays[f"arch.shape_emb.{k}"] = emb((cfg.shape_buckets, d))

    dh = d // cfg.gat_heads
    for layer in range(cfg.gat_layers):
        for h in range(cfg.gat_heads):
            arrays[f"gat.{layer}.{h}.W"] = _linear_init(rng, d, dh)
            arrays[f"gat.{layer}.{h}.a"] = _linear_init(rng, 2 * dh, 1).reshape(1, 2 * dh)
        arrays[f"gat.{layer}.proj"] = _linear_init(rng, d, d)

    for layer in range(cfg.cross_layers):
        _attn_params(rng, d, f"cross.{layer}.attn", arrays)
        _block_params(rng, d, f"cross.{layer}", ("attn", "ffn"), arrays)

    arrays["head.mam.proj.w"] = _linear_init(rng, d, cfg.node_vocab_size)
    arrays["head.mam.proj.b"] = np.zeros((1, cfg.node_vocab_size))
    arrays["head.aqa.fc1.w"] = _linear_init(rng, d, d)
    arrays["head.aqa.fc1.b"] = np.zeros((1, d))
    arrays["head.aqa.fc2.w"] = _linear_init(rng, d, cfg.n_answers)
    arrays["head.aqa.fc2.b"] = np.zeros((1, cfg.n_answers))

    arrays["dec.emb.tok"] = emb((cfg.text_vocab_size, d))
    arrays["dec.emb.pos"] = emb((cfg.max_tokens, d))
    _attn_params(rng, d, "dec.attn", arrays)
    _attn_params(rng, d, "dec.xattn", arrays)
    _block_params(rng, d, "dec", ("self", "xattn", "ffn"), arrays)
    arrays["dec.out.fc1.w"] = _linear_init(rng, d, d)
    arrays["dec.out.fc1.b"] = np.zeros((1, d))
    arrays["dec.out.fc2.w"] = _linear_init(rng, d, cfg.text_vocab_size)
    arrays["dec.out.fc2.b"] = np.zeros((1, cfg.text_vocab_size))

    return {name: Tensor(a, requires_grad=True, name=name) for name, a in arrays.items()}


def set_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Load checkpoint arrays into an existing parameter dict, shape-checked."""
    missing = sorted(set(params) - set(arrays))
    extra = sorted(set(arrays) - set(params))
    if missing or extra:
        raise ValueError(f"parameter mismatch: missing {missing}, unexpected {extra}")
    for name, arr in arrays.items():
        if params[name].data.shape != arr.shape:
            raise ValueError(
                f"{name}: checkpoint shape {arr.shape} != model shape {params[name].data.shape}")
        params[name].data = arr.astype(np.float64)


def detach_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """A constant view of the parameters (shared storage, no gradients)."""
    return {name: Tensor(p.data) for name, p in params.items()}


def freeze_groups(params: dict[str, Tensor], frozen_prefixes: tuple[str, ...]) -> dict[str, Tensor]:
    """View where parameters under the given prefixes become constants."""
    out = {}
    for name, p in params.items():
        if any(name.startswith(pref) for pref in frozen_prefixes):
            out[name] = Tensor(p.data)
        else:
            out[name] = p
    return out


@dataclass
class Model:
    """Config plus named parameters; the unit everything downstream consumes."""

    cfg: ModelConfig
    params: dict[str, Tensor] = field(default_factory=dict)

    @classmethod
    def initialized(cls, cfg: ModelConfig, seed: int) -> "Model":
        return cls(cfg=cfg, params=init_params(cfg, seed))


# ---------------------------------------------------------------------------
# encoders


def embed_text(seq: TokenSeq, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Token plus positional embeddings for the whole padded sequence."""
    n = len(seq.ids)
    if n > cfg.max_tokens:
        raise ValueError(f"sequence length {n} exceeds max_tokens {cfg.max_tokens}")
    tok = ad.gather_rows(params["text.tok_emb"], list(seq.ids))
    pos = ad.gather_rows(params["text.pos_emb"], list(range(n)))
    return tok + pos


def embed_nodes_shapes(g: ArchGraph, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Node-type embeddings, plus four bucketed shape embeddings unless the
    shape ablation is active."""
    if g.num_nodes > cfg.max_nodes:
        raise ValueError(f"graph has {g.num_nodes} nodes, max_nodes is {cfg.max_nodes}")
    for n in g.nodes:
        if n >= cfg.node_vocab_size:
            raise ValueError(f"node id {n} outside vocabulary of {cfg.node_vocab_size}")
    feats = ad.gather_rows(params["arch.node_emb"], list(g.nodes))
    if cfg.no_shape:
        return feats
    for k in range(4):
        buckets = [shape_bucket(s[k], cfg.shape_buckets) for s in g.shapes]
        feats = feats + ad.gather_rows(params[f"arch.shape_emb.{k}"], buckets)
    return feats


def gat_forward(feats: Tensor, mask: np.ndarray, params: dict[str, Tensor],
                cfg: ModelConfig) -> Tensor:
    """Multi-head graph attention with residual connections.

    Per head: additive attention logits through a leaky rectifier, masked
    softmax over the neighborhood, then an attention-weighted combination
    of projected features. Heads are concatenated and projected back to d.
    """
    d = cfg.d
    dh = d // cfg.gat_heads
    x = feats
    for layer in range(cfg.gat_layers):
        head_outs = []
        for h in range(cfg.gat_heads):
            W = params[f"gat.{layer}.{h}.W"]
            a = params[f"gat.{layer}.{h}.a"]
            wh = x @ W
            a_src = ad.slice_cols(a, 0, dh)
            a_dst = ad.slice_cols(a, dh, 2 * dh)
            src = wh @ ad.transpose(a_src)
            dst = wh @ ad.transpose(a_dst)
            logits = ad.leaky_relu(src + ad.transpose(dst), slope=0.2)
            alpha = ad.softmax_masked(logits, mask)
            head_outs.append(alpha @ wh)
        stacked = ad.concat(head_outs, axis=1)
        x = x + stacked @ params[f"gat.{layer}.proj"]
    return x


def _multi_head_attention(q_in: Tensor, kv_in: Tensor, key_mask: np.ndarray,
                          params: dict[str, Tensor], prefix: str, heads: int,
                          extra_mask: np.ndarray | None = None) -> Tensor:
    d = q_in.shape[1]
    dh = d // heads
    q = q_in @ params[f"{prefix}.wq"] + params[f"{prefix}.bq"]
    k = kv_in @ params[f"{prefix}.wk"] + params[f"{prefix}.bk"]
    v = kv_in @ params[f"{prefix}.wv"] + params[f"{prefix}.bv"]
    mask = np.broadcast_to(np.asarray(key_mask, dtype=bool)[None, :],
                           (q.shape[0], kv_in.shape[0]))
    if extra_mask is not None:
        mask = mask & extra_mask
    outs = []
    scale = 1.0 / math.sqrt(dh)
    for h in range(heads):
        qh = ad.slice_cols(q, h * dh, (h + 1) * dh)
        kh = ad.slice_cols(k, h * dh, (h + 1) * dh)
        vh = ad.slice_cols(v, h * dh, (h + 1) * dh)
        scores = (qh @ ad.transpose(kh)) * scale
        attn = ad.softmax_masked(scores, mask)
        outs.append(attn @ vh)
    merged = ad.concat(outs, axis=1)
    return merged @ params[f"{prefix}.wo"] + params[f"{prefix}.bo"]


def _ffn(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    h = ad.leaky_relu(x @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"], slope=0.2)
    return h @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"]


def _ln(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    return ad.layer_norm(x, params[f"{prefix}.scale"], params[f"{prefix}.bias"])


def cross_encode(seq: Tensor, pad_mask, params: dict[str, Tensor],
                 cfg: ModelConfig) -> Tensor:
    """Pre-norm transformer encoder applied to one modality's sequence.

    The same weights serve both modalities. Padded positions are excluded
    as attention keys, so they never influence real positions. Identity
    when the cross-encoder ablation is active.
    """
    if cfg.no_cross_encoder:
        return seq
    k = seq.shape[0]
    if k > max(cfg.max_tokens, cfg.max_nodes):
        raise ValueError(f"sequence of {k} exceeds encoder limit")
    key_mask = np.asarray(pad_mask, dtype=bool)
    x = seq
    for layer in range(cfg.cross_layers):
        y = _ln(x, params, f"cross.{layer}.ln.attn")
        x = x + _multi_head_attention(y, y, key_mask, params,
                                      f"cross.{layer}.attn", cfg.cross_heads)
        y = _ln(x, params, f"cross.{layer}.ln.ffn")
        x = x + _ffn(y, params, f"cross.{layer}.ffn")
    return x


def pool(h: Tensor, pad_mask) -> Tensor:
    """Mean over real (unpadded) rows; shape (1, d)."""
    mask = np.asarray(pad_mask, dtype=np.float64)
    count = float(mask.sum())
    if count < 1:
        raise ValueError("cannot pool an all-padding sequence")
    weighted = h * Tensor(mask[:, None])
    return ad.sum_(weighted, axis=0, keepdims=True) * (1.0 / count)


def cosine(j_a: Tensor, j_b: Tensor, eps: float = 1e-8) -> Tensor:
    """Cosine similarity with a clamped denominator; zero vectors score 0."""
    dot = ad.sum_(j_a * j_b)
    na = ad.sqrt(ad.sum_(j_a * j_a))
    nb = ad.sqrt(ad.sum_(j_b * j_b))
    return dot / ad.clamp_min(na * nb, eps)


def encode_text(seq: TokenSeq, params: dict[str, Tensor],
                cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """Text path: embeddings, cross encoding, pooled vector. Returns (H_t, J_t)."""
    m_t = embed_text(seq, params, cfg)
    h_t = cross_encode(m_t, seq.pad_mask, params, cfg)
    j_t = pool(h_t, seq.pad_mask)
    return h_t, j_t


def encode_graph(g: ArchGraph, params: dict[str, Tensor],
                 cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """Graph path: node+shape embeddings, GAT, cross encoding, pooling.

    Returns (H_g, J_g).
    """
    feats = embed_nodes_shapes(g, params, cfg)
    mask = attention_mask(g, use_edges=not cfg.no_edge)
    m_g = gat_forward(feats, mask, params, cfg)
    real = np.ones(g.num_nodes, dtype=bool)
    h_g = cross_encode(m_g, real, params, cfg)
    j_g = pool(h_g, real)
    return h_g, j_g


# ---------------------------------------------------------------------------
# frozen encode core: every task that scores pooled embeddings reads them here


def embed_texts(texts: list[str], model: Model, text_vocab: TextVocab) -> np.ndarray:
    """Pooled text embeddings J_t under constant parameters; shape (N, d)."""
    params, cfg = detach_params(model.params), model.cfg
    rows = [encode_text(tokenize(t, text_vocab, cfg.max_tokens), params, cfg)[1].data[0]
            for t in texts]
    return np.array(rows).reshape(len(rows), cfg.d)


def embed_graphs(graphs: list[ArchGraph], model: Model) -> np.ndarray:
    """Pooled graph embeddings J_g under constant parameters; shape (N, d)."""
    params, cfg = detach_params(model.params), model.cfg
    rows = [encode_graph(g, params, cfg)[1].data[0] for g in graphs]
    return np.array(rows).reshape(len(rows), cfg.d)


def caption_ids(g: ArchGraph, model: Model, beam: int, max_len: int) -> list[int]:
    """Beam-decode one graph's caption token ids under constant parameters."""
    h_g, _ = encode_graph(g, detach_params(model.params), model.cfg)
    return decode_beam(h_g, np.ones(g.num_nodes, dtype=bool), model.params, model.cfg,
                       beam=beam, max_len=max_len)


# ---------------------------------------------------------------------------
# heads


def mam_logits(h_g: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Per-node logits over the node vocabulary; shape (m, node_vocab_size)."""
    return h_g @ params["head.mam.proj.w"] + params["head.mam.proj.b"]


def aqa_logits(j_t: Tensor, j_g: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Answer logits from the elementwise product of the pooled pair."""
    h = ad.leaky_relu((j_t * j_g) @ params["head.aqa.fc1.w"] + params["head.aqa.fc1.b"],
                      slope=0.2)
    return h @ params["head.aqa.fc2.w"] + params["head.aqa.fc2.b"]


# ---------------------------------------------------------------------------
# decoder


def decoder_logits(h_g: Tensor, g_pad_mask, input_ids, params: dict[str, Tensor],
                   cfg: ModelConfig) -> Tensor:
    """Teacher-forced decoder pass: causal self-attention over the token
    prefix, cross-attention over the graph sequence, token logits out."""
    t = len(input_ids)
    if t > cfg.max_tokens:
        raise ValueError(f"decoder input of {t} exceeds max_tokens {cfg.max_tokens}")
    x = ad.gather_rows(params["dec.emb.tok"], list(input_ids))
    x = x + ad.gather_rows(params["dec.emb.pos"], list(range(t)))
    causal = np.tril(np.ones((t, t), dtype=bool))
    y = _ln(x, params, "dec.ln.self")
    x = x + _multi_head_attention(y, y, np.ones(t, dtype=bool), params,
                                  "dec.attn", cfg.dec_heads, extra_mask=causal)
    y = _ln(x, params, "dec.ln.xattn")
    x = x + _multi_head_attention(y, h_g, np.asarray(g_pad_mask, dtype=bool),
                                  params, "dec.xattn", cfg.dec_heads)
    y = _ln(x, params, "dec.ln.ffn")
    x = x + _ffn(y, params, "dec.ffn")
    h = ad.leaky_relu(x @ params["dec.out.fc1.w"] + params["dec.out.fc1.b"], slope=0.2)
    return h @ params["dec.out.fc2.w"] + params["dec.out.fc2.b"]


_FORBIDDEN_DECODE_IDS = (PAD_ID, BOS_ID, MASK_ID)


def decode_beam(h_g: Tensor, g_pad_mask, params: dict[str, Tensor], cfg: ModelConfig,
                beam: int = 10, max_len: int = 16) -> list[int]:
    """Length-normalized beam search; returns the best token sequence
    (without the leading start token, ending in the end token).

    Hypotheses are compared by (mean log-probability, then lexicographically
    smaller token ids). A hypothesis reaching the length budget is closed
    with the end token. beam=1 is greedy decoding.
    """
    if beam < 1:
        raise ValueError("beam width must be >= 1")
    max_len = min(max_len, cfg.max_tokens - 1)
    const_params = detach_params(params)
    h_g_const = Tensor(h_g.data)
    allowed = [i for i in range(cfg.text_vocab_size) if i not in _FORBIDDEN_DECODE_IDS]

    live: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    done: list[tuple[tuple[int, ...], float]] = []
    while live:
        expansions: list[tuple[tuple[int, ...], float]] = []
        for ids, logp_sum in live:
            prefix = [BOS_ID] + list(ids)
            logits = decoder_logits(h_g_const, g_pad_mask, prefix, const_params, cfg)
            logp = ad.log_softmax(logits).data[-1]
            if len(ids) == max_len - 1:
                candidates = [EOS_ID]
            else:
                candidates = allowed
            for tok in candidates:
                seq = ids + (tok,)
                expansions.append((seq, logp_sum + float(logp[tok])))
        # finished and unfinished expansions compete for the same beam slots,
        # so beam=1 degenerates to greedy decoding
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
