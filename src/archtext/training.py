"""Objectives and optimization loops: pre-training (similarity + masked-node
reconstruction), QA fine-tuning, and caption fine-tuning.

Each loop is deterministic given (model seed, train seed): epoch order comes
from a seed-derived permutation, node masking draws from the same sequential
stream, and a re-run writes a bit-identical checkpoint.

A training step backpropagates each loss term as soon as it is built, before
the next is built: the leaf gradients add up across the passes, and a
pre-training step holds the tape of one term (the text and graph encodes of
the similarity term, then the masked-graph encode of the MAM term), not of
all three encodes at once.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, NonFiniteError, Tensor, adam_step
from .datagen import ACSample, AQASample, BiModalSample
from .evaluate import answer_targets
from .graph import MASK_NODE_ID, ArchGraph
from .model import (
    Model,
    aqa_logits,
    cosine,
    decoder_logits,
    encode_graphs,
    encode_texts,
    freeze_groups,
    mam_logits,
)
from .text import TextVocab, tokenize


@dataclass
class TrainConfig:
    task: str = "pretrain"
    lr: float = 2e-5
    batch_size: int = 8
    epochs: int = 10
    seed: int = 0
    alpha: float = 5e-2
    mask_ratio: float = 0.15

    def __post_init__(self):
        if self.task not in ("pretrain", "aqa", "ac"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if not 0.0 < self.lr < math.inf:   # false for a NaN too
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must lie in (0, 1)")


@dataclass(frozen=True)
class MaskPlan:
    positions: tuple[int, ...]
    original_ids: tuple[int, ...]


def mask_count(m: int, ratio: float) -> int:
    """max(1, round(ratio * m)) with half-up rounding."""
    return max(1, math.floor(ratio * m + 0.5))


def mask_nodes(g: ArchGraph, ratio: float, rng: np.random.Generator) -> tuple[ArchGraph, MaskPlan]:
    """Replace a sample of node ids with the mask token; edges and shapes stay."""
    m = g.num_nodes
    k = mask_count(m, ratio)
    positions = sorted(int(p) for p in rng.choice(m, size=k, replace=False))
    nodes = list(g.nodes)
    originals = []
    for p in positions:
        originals.append(nodes[p])
        nodes[p] = MASK_NODE_ID
    masked = g.with_nodes(tuple(nodes))
    return masked, MaskPlan(positions=tuple(positions), original_ids=tuple(originals))


# ---------------------------------------------------------------------------
# losses


def sim_loss(j_t: Tensor, j_g: Tensor, y, eps_cos: float = 1e-8) -> Tensor:
    """Squared error between the target score and the cosine of each pair:
    (B, d) pooled pairs and B targets (or one) give (B,)."""
    diff = Tensor(np.asarray(y, dtype=np.float64)) - cosine(j_t, j_g, eps_cos)
    return diff * diff


def mam_terms(f_m: Tensor, plans: list[MaskPlan], sizes) -> Tensor:
    """Per-graph mean negative log-likelihood of the original ids at masked
    positions: (R, vocab) logits of the packed node rows of B graphs,
    sizes[b] rows each, give (B,). Rows that no plan masks do not count."""
    weights = np.zeros(f_m.shape)
    for start, plan in zip(np.cumsum(sizes) - sizes, plans):
        if not plan.positions:
            raise ValueError("empty mask plan")
        weights[np.add(start, plan.positions), plan.original_ids] = 1.0 / len(plan.positions)
    picked = ad.sum_(ad.log_softmax(f_m) * Tensor(weights), axis=1)
    return -ad.segment_sum(picked, ad.segments(np.repeat(np.arange(len(sizes)), sizes)))


def mam_loss(f_m: Tensor, plan: MaskPlan) -> Tensor:
    """`mam_terms` of one graph's (nodes, vocab) logits; shape (1,)."""
    return mam_terms(f_m, [plan], [f_m.shape[0]])


def total_loss(l_sim: Tensor, l_mam: Tensor | None, alpha: float, no_mam: bool) -> Tensor:
    """l_sim + alpha * l_mam on one tape: the pre-training objective as the
    gradient suite differentiates it. A training step backpropagates the same
    terms with the same weights, one at a time (`_train`)."""
    if no_mam or l_mam is None:
        return l_sim
    return l_sim + alpha * l_mam


def aqa_loss(f_q: Tensor, targets: np.ndarray) -> Tensor:
    """Mean element-wise binary cross-entropy against soft target scores;
    (B, answers) logits and targets, or one sample's answer vector."""
    t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if t.shape != f_q.shape:
        raise ValueError(f"target shape {t.shape} != logits shape {f_q.shape}")
    if t.min() < 0.0 or t.max() > 1.0:
        raise ValueError("targets must lie in [0, 1]")
    return ad.mean(ad.bce_with_logits(f_q, t))


def decoder_loss(logits: Tensor, target_ids, lengths=None) -> Tensor:
    """Negative log-likelihood of the target tokens, one per logits row: the
    mean over captions of each caption's mean, for captions of lengths[b]
    rows each, end to end (by default one caption). One op."""
    targets = np.asarray(target_ids, dtype=np.int64)
    if targets.ndim != 1 or not len(targets) or len(targets) != logits.shape[0]:
        raise ValueError(f"{targets.shape} target ids for logits of shape {logits.shape}")
    lengths = ad.check_lengths([len(targets)] if lengths is None else lengths, len(targets),
                               "target ids")
    return ad.nll(logits, targets, np.repeat(1.0 / (lengths * len(lengths)), lengths))


# ---------------------------------------------------------------------------
# loop machinery


def _frozen_view(model: Model) -> dict[str, Tensor]:
    cfg = model.cfg
    if cfg.text_only:
        return freeze_groups(model, ("arch.", "gat."))
    if cfg.arch_only:
        return freeze_groups(model, ("text.",))
    return model.params


def _collect_grads(model: Model) -> dict[str, np.ndarray]:
    return {name: p.grad for name, p in model.params.items() if p.grad is not None}


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield [int(i) for i in order[start:start + batch_size]]


def _train(n: int, model: Model, tcfg: TrainConfig, stream: int, batch_loss) -> list[dict]:
    """The one optimization loop: seed-derived epoch permutations, batches,
    one Adam step per batch, one log record per step.

    `batch_loss(batch, view, rng)` yields the loss terms of the sample
    indices of one batch, one at a time, as (key, weight, term): the scalar
    term, its weight in the objective and its log key ("l_sim", "l_mam", or
    None for a task's lone loss). Each weighted term is backpropagated
    before the next is asked for, so only its tape is alive while it is
    built. `l_total` is the weighted sum of the terms, in the order given.
    `batch_loss` may draw from `rng`, the same stream that permutes the
    epochs.
    """
    if n == 0:
        raise ValueError("empty dataset")
    state = AdamState(lr=tcfg.lr)
    rng = np.random.default_rng([tcfg.seed, stream])
    log: list[dict] = []
    step = 0
    for epoch in range(tcfg.epochs):
        order = rng.permutation(n)
        for batch in _batches(n, tcfg.batch_size, order):
            losses = _step(model, batch_loss(batch, _frozen_view(model), rng), state, epoch, step)
            step += 1
            log.append({"epoch": epoch, "step": step, **losses})
    return log


def pretrain(samples: list[BiModalSample], model: Model, tcfg: TrainConfig,
             text_vocab: TextVocab) -> list[dict]:
    """Joint similarity + masked-node pre-training; returns step log records."""
    cfg = model.cfg
    seqs = [tokenize(s.text, text_vocab, cfg.max_tokens) for s in samples]
    ys = np.array([s.y for s in samples], dtype=np.float64)

    def batch_loss(batch, view, rng):
        graphs = [samples[i].graph for i in batch]
        _, j_t = encode_texts([seqs[i] for i in batch], view, cfg)
        _, j_g = encode_graphs(graphs, view, cfg)
        yield "l_sim", 1.0, ad.mean(sim_loss(j_t, j_g, ys[batch], cfg.eps_cos))
        if not cfg.no_mam:
            masked, plans = zip(*(mask_nodes(g, tcfg.mask_ratio, rng) for g in graphs))
            h_gm, _ = encode_graphs(list(masked), view, cfg)
            sizes = [g.num_nodes for g in graphs]
            l_mam = ad.mean(mam_terms(mam_logits(h_gm, view), list(plans), sizes))
            yield "l_mam", tcfg.alpha, l_mam

    return _train(len(samples), model, tcfg, 11, batch_loss)


def finetune_aqa(samples: list[AQASample], model: Model, tcfg: TrainConfig,
                 text_vocab: TextVocab) -> list[dict]:
    """Multi-label answer fine-tuning with binary cross-entropy."""
    cfg = model.cfg
    seqs = [tokenize(s.question, text_vocab, cfg.max_tokens) for s in samples]
    targets = answer_targets([s.answers for s in samples], cfg.n_answers).astype(np.float64)

    def batch_loss(batch, view, rng):
        _, j_t = encode_texts([seqs[i] for i in batch], view, cfg)
        _, j_g = encode_graphs([samples[i].graph for i in batch], view, cfg)
        yield None, 1.0, aqa_loss(aqa_logits(j_t, j_g, view), targets[batch])

    return _train(len(samples), model, tcfg, 12, batch_loss)


def finetune_ac(samples: list[ACSample], model: Model, tcfg: TrainConfig,
                text_vocab: TextVocab) -> list[dict]:
    """Caption fine-tuning: teacher-forced decoder likelihood over the graph
    path; the text encoder is not part of this computation. The graphs of a
    batch encode together, and one decoder pass runs over the packed tokens
    of all its captions, each against its own graph's rows."""
    cfg = model.cfg
    seqs = [tokenize(s.text, text_vocab, cfg.max_tokens).ids for s in samples]

    def batch_loss(batch, view, rng):
        graphs = [samples[i].graph for i in batch]
        h_g, _ = encode_graphs(graphs, view, cfg)
        lengths = [len(seqs[i]) - 1 for i in batch]
        # by keyword: perfbench's tracer counts decoder rows from `input_ids`
        logits = decoder_logits(h_g, input_ids=[t for i in batch for t in seqs[i][:-1]],
                                params=view, cfg=cfg, lengths=lengths,
                                sizes=[g.num_nodes for g in graphs])
        yield None, 1.0, decoder_loss(logits, [t for i in batch for t in seqs[i][1:]], lengths)

    return _train(len(samples), model, tcfg, 13, batch_loss)


def _step(model: Model, terms, state: AdamState, epoch: int, step: int) -> dict:
    """One optimization step over the (key, weight, term) loss terms of a
    batch: each weighted term's backward pass, then one Adam update. Returns
    the values of the keyed terms and `l_total`, their weighted sum. A
    non-finite gradient names the epoch, step and value of the loss it came
    from."""
    ad.zero_grads(model.params)
    losses = {"l_sim": None, "l_mam": None}
    total = None
    for key, weight, term in terms:
        loss = term if weight == 1.0 else weight * term
        value = loss.item()
        total = value if total is None else total + value
        with _aborting(epoch, step, value):
            loss.backward()
        if key is not None:
            losses[key] = term.item()
    losses["l_total"] = total
    with _aborting(epoch, step, total):
        adam_step(model.params, _collect_grads(model), state)
    return losses


@contextmanager
def _aborting(epoch: int, step: int, value: float):
    try:
        yield
    except NonFiniteError as e:
        raise NonFiniteError(
            f"aborting at epoch {epoch} step {step}: {e}; loss value {value!r}") from e
