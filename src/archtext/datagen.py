"""Synthetic dataset generators: architectures, descriptions, QA, clone pairs.

Three dataset styles are produced:

* autonet   - random graphs plus template descriptions (positives mention
              only ops present in the graph, negatives mention at least one
              absent op);
* autonet-aqa - the same graphs with 35 questions each, answered from a
              frozen 51-entry answer catalog;
* tvhf      - family-structured graphs whose negatives are mined from other
              architectures' positive descriptions by thresholded text
              similarity.

Generation is deterministic: every sample draws from an RNG stream spawned
from (master seed, stream tag, sample index), so outputs are reproducible
bit-for-bit and order-stable.
"""

from __future__ import annotations

import functools
import json
import reprlib
import statistics
import typing
from dataclasses import dataclass, fields

import numpy as np

from .catalog import (
    ACT_OPS,
    CATALOG,
    CONV_OPS,
    CONV_SHAPED,
    DEFAULT_OPS,
    KERNEL_CHOICES,
    KERNEL_POOLS,
    LINEAR_SHAPED,
    NORM_OPS,
    NORM_SHAPED,
    POOL_OPS,
    AnswerCatalog,
    answer_catalog,
    phrase_of,
)
from .fileio import atomic_write
from .graph import (
    ArchGraph,
    GraphParseError,
    GraphValidationError,
    NodeVocab,
    graph_from_obj,
    graph_to_obj,
)
from .text import normalize

CHANNEL_CHOICES = (8, 16, 32, 64, 128)


@dataclass(frozen=True)
class GenConfig:
    """Knobs for all generators; defaults are the desk-scale dataset."""

    rng_seed: int = 0
    ops: tuple[str, ...] = DEFAULT_OPS
    min_nodes: int = 8
    max_nodes: int = 64
    n_train_archs: int = 200
    n_val_archs: int = 50
    desc_pos_fraction: float = 0.3
    beta: float = 0.5
    acd_pos_fraction: float = 0.11
    tvhf_neg_fraction: float = 0.93
    tvhf_families: int = 24
    tvhf_variants: int = 3

    def __post_init__(self):
        if self.min_nodes < 1 or self.min_nodes > self.max_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        floors = {"rng_seed": 0, "n_train_archs": 1, "n_val_archs": 1, "tvhf_families": 1,
                  "tvhf_variants": 1}
        for key, floor in floors.items():
            if getattr(self, key) < floor:
                raise ValueError(f"{key} must be at least {floor}, got {getattr(self, key)}")
        for key in ("desc_pos_fraction", "beta", "acd_pos_fraction", "tvhf_neg_fraction"):
            if not 0.0 < getattr(self, key) < 1.0:   # false for a NaN too
                raise ValueError(f"{key} must lie in (0, 1), got {getattr(self, key)}")
        if not self.ops:
            raise ValueError("ops must name at least one op")
        unknown = [op for op in self.ops if op not in CATALOG]
        if unknown:
            raise ValueError(f"ops not in catalog: {unknown}")

    def node_vocab(self) -> NodeVocab:
        return NodeVocab(list(self.ops))


@dataclass(frozen=True)
class BiModalSample:
    graph: ArchGraph
    text: str
    y: float

    def __post_init__(self):
        if not 0.0 <= self.y <= 1.0:
            raise ValueError("y must lie in [0, 1]")


@dataclass(frozen=True)
class AQASample:
    graph: ArchGraph
    question: str
    answers: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "answers", frozenset(int(a) for a in self.answers))
        if not self.answers:
            raise ValueError("answer set must be non-empty")
        if any(a < 0 or a >= 51 for a in self.answers):
            raise ValueError("answer ids must lie in [0, 51)")


@dataclass(frozen=True)
class ACDPair:
    g1: ArchGraph
    g2: ArchGraph
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


@dataclass(frozen=True)
class BACDSample(ACDPair):
    text: str


@dataclass(frozen=True)
class ACSample:
    """A caption pair, stored as a bi-modal positive (see `captions`)."""

    graph: ArchGraph
    text: str


def captions(samples: list[BiModalSample]) -> list[ACSample]:
    """The caption pairs of a bi-modal dataset: its positives."""
    return [ACSample(graph=s.graph, text=s.text) for s in samples if s.y == 1.0]


def extract_present_ops(g: ArchGraph, vocab: NodeVocab) -> set[str]:
    """Distinct op names appearing in the graph's node list."""
    return {vocab.name_of(n) for n in g.nodes}


def token_overlap_similarity(a: str, b: str) -> float:
    """Jaccard overlap of lowercased word sets; 0.0 when both are empty."""
    wa, wb = set(normalize(a)), set(normalize(b))
    if not wa and not wb:
        return 0.0
    return len(wa & wb) / len(wa | wb)


# ---------------------------------------------------------------------------
# architecture generation


def _shape_for(op: str, rng: np.random.Generator):
    def ch() -> int:
        return int(CHANNEL_CHOICES[rng.integers(len(CHANNEL_CHOICES))])

    def kern() -> int:
        return int(KERNEL_CHOICES[rng.integers(len(KERNEL_CHOICES))])

    if op in CONV_SHAPED:
        k = kern()
        return (ch(), ch(), k, k)
    if op in LINEAR_SHAPED:
        return (ch(), ch(), 1, 1)
    if op in NORM_SHAPED:
        return (ch(), 0, 0, 0)
    if op in KERNEL_POOLS:
        k = kern()
        return (0, 0, k, k)
    return (0, 0, 0, 0)


def _graph_style(cfg: GenConfig, rng: np.random.Generator) -> list[str]:
    """The op subset one architecture draws from. Real nets repeat a handful
    of op types, and keeping the subset strictly below the full vocabulary
    guarantees an absent op for negative descriptions."""
    n = len(cfg.ops)
    if n == 1:
        return list(cfg.ops)
    upper = min(12, n - 1)
    lower = min(3, upper)
    size = int(rng.integers(lower, upper + 1))
    if "conv2d" in cfg.ops:
        pool = [op for op in cfg.ops if op != "conv2d"]
        picked = rng.choice(len(pool), size=size - 1, replace=False) if size > 1 else []
        return ["conv2d"] + [pool[int(i)] for i in sorted(picked)]
    picked = rng.choice(n, size=size, replace=False)
    return [cfg.ops[int(i)] for i in sorted(picked)]


def gen_architecture(cfg: GenConfig, rng: np.random.Generator, name: str | None = None) -> ArchGraph:
    """One random valid DAG: a spanning chain in index order plus skip edges.

    Node 0 is a convolution stem when the vocabulary has one; every other
    node receives at least one in-edge, so the graph is connected.
    """
    m = int(rng.integers(cfg.min_nodes, cfg.max_nodes + 1))
    vocab = cfg.node_vocab()
    style = _graph_style(cfg, rng)
    ops = []
    for i in range(m):
        if i == 0 and "conv2d" in cfg.ops:
            ops.append("conv2d")
        else:
            ops.append(style[int(rng.integers(len(style)))])
    edges = set()
    for i in range(1, m):
        edges.add((int(rng.integers(0, i)), i))
    if m >= 3:
        for _ in range(m // 3):
            u = int(rng.integers(0, m - 1))
            v = int(rng.integers(u + 1, m))
            edges.add((u, v))
    shapes = [_shape_for(op, rng) for op in ops]
    return ArchGraph(
        nodes=[vocab.id_of(op) for op in ops],
        edges=edges,
        shapes=shapes,
        name=name,
    )


# ---------------------------------------------------------------------------
# description generation

_STAT_TEMPLATES = (
    "this classification neural network includes {a} and has about {params} million parameters.",
    "in total this neural network architecture has {m} layers, and it includes {cnt} {a} layers.",
)

_PLAIN_TEMPLATES_1 = (
    "this architecture contains {a}.",
    "a compact network that applies {a} through most of its depth.",
    "this model makes heavy use of {a}.",
)

_PLAIN_TEMPLATES_2 = (
    "this architecture contains {a}, and {b}.",
    "this neural network has {a}. it also includes {b}.",
    "this network combines {a} with {b} for feature extraction.",
)

_PLAIN_TEMPLATES_3 = (
    "this model is built around {a} followed by {b} and {c}.",
    "this network stacks {a}, {b}, and {c} throughout its body.",
)


def _param_millions(g: ArchGraph) -> float:
    total = 0
    for o, i, kh, kw in g.shapes:
        total += o * max(i, 1) * max(kh, 1) * max(kw, 1)
    return total / 1e6


def _render_description(g: ArchGraph, vocab: NodeVocab, mention: list[str],
                        rng: np.random.Generator, fake_count: bool) -> str:
    phrases = [phrase_of(op) for op in mention]
    k = len(phrases)
    if k == 1 and rng.random() < 0.4:
        t = _STAT_TEMPLATES[int(rng.integers(len(_STAT_TEMPLATES)))]
        if "{params}" in t:
            return t.format(a=phrases[0], params=f"{_param_millions(g):.2f}")
        if fake_count:
            cnt = int(rng.integers(1, 6))
        else:
            names = [vocab.name_of(n) for n in g.nodes]
            cnt = names.count(mention[0])
        return t.format(a=phrases[0], m=g.num_nodes, cnt=cnt)
    if k == 1:
        t = _PLAIN_TEMPLATES_1[int(rng.integers(len(_PLAIN_TEMPLATES_1)))]
        return t.format(a=phrases[0])
    if k == 2:
        t = _PLAIN_TEMPLATES_2[int(rng.integers(len(_PLAIN_TEMPLATES_2)))]
        return t.format(a=phrases[0], b=phrases[1])
    t = _PLAIN_TEMPLATES_3[int(rng.integers(len(_PLAIN_TEMPLATES_3)))]
    return t.format(a=phrases[0], b=phrases[1], c=phrases[2])


def _pick(rng: np.random.Generator, items: list[str], k: int) -> list[str]:
    k = min(k, len(items))
    idx = rng.choice(len(items), size=k, replace=False)
    return [items[int(i)] for i in sorted(idx)]


def gen_descriptions(g: ArchGraph, cfg: GenConfig, rng: np.random.Generator) -> list[BiModalSample]:
    """10-11 descriptions per graph, roughly 30% positive.

    Positives mention only ops present in the graph; every negative
    mentions at least one absent op. Raises if no op is absent.
    """
    vocab = cfg.node_vocab()
    present = sorted(extract_present_ops(g, vocab))
    absent = [op for op in cfg.ops if op not in present]
    if not absent:
        raise ValueError("no absent op available for negative descriptions")
    n = 10 + int(rng.integers(0, 2))
    npos = round(cfg.desc_pos_fraction * n)
    samples = []
    for j in range(npos):
        mention = _pick(rng, present, 1 + int(rng.integers(0, 3)))
        text = _render_description(g, vocab, mention, rng, fake_count=False)
        if j == 0 and g.name:
            text = f"the {g.name} model: " + text
        samples.append(BiModalSample(graph=g, text=text, y=1.0))
    for _ in range(n - npos):
        mention = _pick(rng, absent, 1)
        mention += _pick(rng, present, int(rng.integers(0, 3)))
        order = rng.permutation(len(mention))
        mention = [mention[int(i)] for i in order]
        text = _render_description(g, vocab, mention, rng, fake_count=True)
        samples.append(BiModalSample(graph=g, text=text, y=0.0))
    order = rng.permutation(len(samples))
    return [samples[int(i)] for i in order]


# ---------------------------------------------------------------------------
# question answering

_FAMILY_MEMBERS = {
    "pooling": POOL_OPS,
    "normalization": NORM_OPS,
    "activation": ACT_OPS,
}

_QUESTIONS: tuple[tuple[str, str, str | None], ...] = (
    ("what does the 2d max pooling layer perform in this neural network?", "func", "maxpool2d"),
    ("what does the 2d average pooling layer perform in this neural network?", "func", "avgpool2d"),
    ("what does the dilated convolution module do in this network?", "func", "dil_conv2d"),
    ("what does the separable convolution module do in this network?", "func", "sep_conv2d"),
    ("what transformation does the fully connected layer apply in this model?", "func", "linear"),
    ("what is the purpose of the dropout layer in this architecture?", "func", "dropout"),
    ("what does the batch normalization layer normalize in this network?", "func", "batchnorm2d"),
    ("what kernel sizes are used by the standard 2d convolution layers in this network?", "kernel", "conv2d"),
    ("what kernel sizes are used by the dilated convolution layers in this network?", "kernel", "dil_conv2d"),
    ("what kernel sizes are used by the separable convolution layers in this network?", "kernel", "sep_conv2d"),
    ("what 2d max pooling kernel size has been used in this network?", "kernel", "maxpool2d"),
    ("what 2d average pooling kernel size has been used in this network?", "kernel", "avgpool2d"),
    ("what type of pooling module has been used in this neural architecture?", "family", "pooling"),
    ("what type of normalization layer is used in this neural network architecture?", "family", "normalization"),
    ("what type of activation layer has been used in this neural network model?", "family", "activation"),
    ("what kind of downsampling is applied in this architecture?", "family", "pooling"),
    ("which normalization technique does this model apply?", "family", "normalization"),
    ("which nonlinearity is applied between the layers of this model?", "family", "activation"),
    ("overall what kind of layers are included in this neural network architecture?", "overall", None),
    ("which operation type appears first in this architecture?", "first", None),
    ("which operation type appears last in this architecture?", "last", None),
    ("which operation type occurs most frequently in this network?", "most_frequent", None),
    ("in general what kernel sizes are used in this neural network model?", "kernels_all", None),
    ("what is the largest kernel size used in this model?", "kernel_max", None),
    ("what is the smallest kernel size used in this model?", "kernel_min", None),
    ("does this architecture include a standard 2d convolution layer?", "presence", "conv2d"),
    ("does this model make use of 2d max pooling?", "presence", "maxpool2d"),
    ("does this model make use of 2d average pooling?", "presence", "avgpool2d"),
    ("does this network contain dilated convolution modules?", "presence", "dil_conv2d"),
    ("does this network contain separable convolution modules?", "presence", "sep_conv2d"),
    ("does this model include a fully connected layer?", "presence", "linear"),
    ("does this architecture use dropout regularization?", "presence", "dropout"),
    ("does this network apply batch normalization?", "presence", "batchnorm2d"),
    ("what types of convolution modules are used in this neural network?", "conv_types", None),
    ("which layers with learnable parameters are included in this model?", "parametric", None),
)


def _node_kernels(g: ArchGraph, vocab: NodeVocab, op: str | None = None) -> list[int]:
    ks = []
    for n, s in zip(g.nodes, g.shapes):
        if op is not None and vocab.name_of(n) != op:
            continue
        if s[2] > 0:
            ks.append(s[2])
    return sorted(set(ks))


def _answer_ids(g: ArchGraph, vocab: NodeVocab, rule: str, arg: str | None,
                cat: AnswerCatalog) -> frozenset[int]:
    present = extract_present_ops(g, vocab)
    if rule == "func":
        return frozenset({cat.desc_id[arg] if arg in present else cat.dni_id[arg]})
    if rule == "kernel":
        ks = _node_kernels(g, vocab, arg)
        if arg in present and ks:
            return frozenset(cat.kernel_id[f"{k}*{k}"] for k in ks)
        return frozenset({cat.dni_id[arg]})
    if rule == "family":
        members = sorted(_FAMILY_MEMBERS[arg] & present)
        if members:
            return frozenset(cat.name_id[op] for op in members)
        return frozenset({cat.dni_id[arg]})
    if rule == "overall":
        return frozenset(cat.name_id[op] for op in present)
    if rule == "first":
        return frozenset({cat.name_id[vocab.name_of(g.nodes[0])]})
    if rule == "last":
        return frozenset({cat.name_id[vocab.name_of(g.nodes[-1])]})
    if rule == "most_frequent":
        names = [vocab.name_of(n) for n in g.nodes]
        top = max(names.count(op) for op in set(names))
        return frozenset(cat.name_id[op] for op in set(names) if names.count(op) == top)
    if rule == "kernels_all":
        ks = _node_kernels(g, vocab)
        if ks:
            return frozenset(cat.kernel_id[f"{k}*{k}"] for k in ks)
        return frozenset({cat.dni_id["conv2d"]})
    if rule in ("kernel_max", "kernel_min"):
        ks = _node_kernels(g, vocab)
        if ks:
            k = max(ks) if rule == "kernel_max" else min(ks)
            return frozenset({cat.kernel_id[f"{k}*{k}"]})
        return frozenset({cat.dni_id["conv2d"]})
    if rule == "presence":
        return frozenset({cat.name_id[arg] if arg in present else cat.dni_id[arg]})
    if rule == "conv_types":
        members = sorted(CONV_OPS & present)
        if members:
            return frozenset(cat.name_id[op] for op in members)
        return frozenset({cat.dni_id["conv2d"]})
    if rule == "parametric":
        param_ops = sorted({vocab.name_of(n) for n, s in zip(g.nodes, g.shapes) if s[0] > 0})
        if param_ops:
            return frozenset(cat.name_id[op] for op in param_ops)
        return frozenset({cat.dni_id["linear"]})
    raise ValueError(f"unknown answer rule {rule!r}")


def gen_qa(g: ArchGraph, cfg: GenConfig, rng: np.random.Generator) -> list[AQASample]:
    """Exactly 35 unique questions for the graph, answered from the catalog.

    Requires every op of the graph to be covered by the answer catalog
    (the default 28-op vocabulary).
    """
    vocab = cfg.node_vocab()
    cat = answer_catalog()
    uncovered = sorted(extract_present_ops(g, vocab) - set(cat.name_id))
    if uncovered:
        raise ValueError(f"ops outside the answer catalog: {uncovered}")
    samples = []
    for question, rule, arg in _QUESTIONS:
        ids = _answer_ids(g, vocab, rule, arg, cat)
        samples.append(AQASample(graph=g, question=question, answers=ids))
    return samples


# ---------------------------------------------------------------------------
# negative mining and clone pairs


def mine_negatives(positives: dict[str, list[str]], sim, beta: float) -> dict[str, list[str]]:
    """Admit a foreign description as a negative for an architecture when its
    best similarity against that architecture's own positives is <= beta.

    Output lists are deduplicated and sorted, so the result is invariant
    under reordering of the input corpus.
    """
    if len(positives) < 2:
        raise ValueError("need at least 2 architectures to mine negatives")
    out: dict[str, list[str]] = {}
    for j in sorted(positives):
        own = positives[j]
        negs = set()
        for k in sorted(positives):
            if k == j:
                continue
            for t in positives[k]:
                if max(sim(t, p) for p in own) <= beta:
                    negs.add(t)
        out[j] = sorted(negs)
    return out


def gen_acd_pairs(tagged: list[tuple[ArchGraph, str]], rng: np.random.Generator,
                  pos_fraction: float = 0.11) -> list[ACDPair]:
    """Labelled clone pairs: label 1 iff both graphs share a family tag,
    sampled so similar pairs make up the requested fraction."""
    if len(tagged) < 2:
        raise ValueError(f"need at least 2 architectures to pair, got {len(tagged)}")
    pos_idx, neg_idx = [], []
    for i in range(len(tagged)):
        for j in range(i + 1, len(tagged)):
            (pos_idx if tagged[i][1] == tagged[j][1] else neg_idx).append((i, j))
    if pos_fraction > 0 and not pos_idx:
        raise ValueError("positive pairs requested but no family has 2 members")
    npos = len(pos_idx)
    nneg = round(npos * (1 - pos_fraction) / pos_fraction) if pos_fraction > 0 else len(neg_idx)
    if nneg > len(neg_idx):
        nneg = len(neg_idx)
        npos = min(npos, round(nneg * pos_fraction / (1 - pos_fraction)))
    chosen_pos = [pos_idx[int(i)] for i in rng.choice(len(pos_idx), size=npos, replace=False)] if npos else []
    chosen_neg = [neg_idx[int(i)] for i in rng.choice(len(neg_idx), size=nneg, replace=False)] if nneg else []
    pairs = [ACDPair(tagged[i][0], tagged[j][0], 1) for i, j in sorted(chosen_pos)]
    pairs += [ACDPair(tagged[i][0], tagged[j][0], 0) for i, j in sorted(chosen_neg)]
    order = rng.permutation(len(pairs))
    return [pairs[int(i)] for i in order]


def mutate_architecture(g: ArchGraph, cfg: GenConfig, rng: np.random.Generator,
                        name: str | None = None) -> ArchGraph:
    """A same-family variant: re-drawn shapes for ~30% of nodes, one op swap,
    plus possibly one extra skip edge. Stays valid by construction."""
    vocab = cfg.node_vocab()
    nodes = [vocab.name_of(n) for n in g.nodes]
    shapes = list(g.shapes)
    m = g.num_nodes
    for i in range(m):
        if rng.random() < 0.3:
            shapes[i] = _shape_for(nodes[i], rng)
    if m >= 2 and rng.random() < 0.5:
        # swap one node to another op already present, so the family's op
        # set never grows past the base style
        i = 1 + int(rng.integers(0, m - 1))
        present = sorted(set(nodes))
        nodes[i] = present[int(rng.integers(len(present)))]
        shapes[i] = _shape_for(nodes[i], rng)
    edges = set(g.edges)
    if m >= 3 and rng.random() < 0.5:
        u = int(rng.integers(0, m - 1))
        v = int(rng.integers(u + 1, m))
        edges.add((u, v))
    return ArchGraph(
        nodes=[vocab.id_of(op) for op in nodes],
        edges=edges,
        shapes=shapes,
        name=name,
    )


def gen_family_archs(cfg: GenConfig, rng_master_tag: int = 7) -> list[tuple[ArchGraph, str]]:
    """Family-structured architectures: one random base per family and
    variant mutations of it."""
    tagged = []
    for f in range(cfg.tvhf_families):
        tag = f"fam{f:03d}"
        rng = np.random.default_rng([cfg.rng_seed, rng_master_tag, f])
        base = gen_architecture(cfg, rng, name=f"{tag}_v0")
        tagged.append((base, tag))
        for v in range(1, cfg.tvhf_variants):
            tagged.append((mutate_architecture(base, cfg, rng, name=f"{tag}_v{v}"), tag))
    return tagged


# ---------------------------------------------------------------------------
# dataset drivers

_STREAM_AUTONET = 1
_STREAM_AQA = 2
_STREAM_TVHF = 3
_STREAM_ACD = 4
_STREAM_BACD = 5


def _gen_per_graph(cfg: GenConfig, n_archs: int, split: str, stream: int, per_graph) -> list:
    """The samples `per_graph(g, cfg, rng)` makes of each of n_archs random
    graphs, every graph and its samples drawn from their own RNG stream."""
    split_code = 0 if split == "train" else 1
    samples = []
    for i in range(n_archs):
        rng = np.random.default_rng([cfg.rng_seed, stream, split_code, i])
        g = gen_architecture(cfg, rng, name=f"autonet_{split}_{i:05d}")
        samples.extend(per_graph(g, cfg, rng))
    return samples


def gen_autonet(cfg: GenConfig, n_archs: int, split: str) -> list[BiModalSample]:
    return _gen_per_graph(cfg, n_archs, split, _STREAM_AUTONET, gen_descriptions)


def gen_autonet_aqa(cfg: GenConfig, n_archs: int, split: str) -> list[AQASample]:
    return _gen_per_graph(cfg, n_archs, split, _STREAM_AQA, gen_qa)


def gen_tvhf(cfg: GenConfig) -> list[BiModalSample]:
    """Family architectures with template positives and mined negatives,
    subsampled to the configured negative fraction."""
    tagged = gen_family_archs(cfg)
    by_name: dict[str, ArchGraph] = {}
    positives: dict[str, list[str]] = {}
    for idx, (g, _tag) in enumerate(tagged):
        rng = np.random.default_rng([cfg.rng_seed, _STREAM_TVHF, idx])
        descs = [s for s in gen_descriptions(g, cfg, rng) if s.y == 1.0]
        by_name[g.name] = g
        positives[g.name] = [s.text for s in descs]
    mined = mine_negatives(positives, token_overlap_similarity, cfg.beta)
    samples: list[BiModalSample] = []
    for idx, name in enumerate(sorted(positives)):
        g = by_name[name]
        pos_texts = positives[name]
        for t in pos_texts:
            samples.append(BiModalSample(graph=g, text=t, y=1.0))
        f = cfg.tvhf_neg_fraction
        want = round(len(pos_texts) * f / (1 - f))
        pool = mined[name]
        rng = np.random.default_rng([cfg.rng_seed, _STREAM_TVHF, idx, 1])
        take = min(want, len(pool))
        if take:
            chosen = rng.choice(len(pool), size=take, replace=False)
            for i in sorted(int(c) for c in chosen):
                samples.append(BiModalSample(graph=g, text=pool[i], y=0.0))
    return samples


def gen_acd_dataset(cfg: GenConfig) -> list[ACDPair]:
    tagged = gen_family_archs(cfg)
    rng = np.random.default_rng([cfg.rng_seed, _STREAM_ACD])
    return gen_acd_pairs(tagged, rng, cfg.acd_pos_fraction)


def gen_bacd_dataset(cfg: GenConfig) -> list[BACDSample]:
    """Clone pairs with one supporting sentence: a shared op for similar
    pairs, an op unique to the first graph otherwise."""
    vocab = cfg.node_vocab()
    pairs = gen_acd_dataset(cfg)
    samples = []
    for idx, p in enumerate(pairs):
        rng = np.random.default_rng([cfg.rng_seed, _STREAM_BACD, idx])
        ops1 = extract_present_ops(p.g1, vocab)
        ops2 = extract_present_ops(p.g2, vocab)
        shared = sorted(ops1 & ops2)
        only1 = sorted(ops1 - ops2)
        if p.label == 1 and shared:
            op = shared[int(rng.integers(len(shared)))]
            text = f"both models rely on {phrase_of(op)}."
        elif only1:
            op = only1[int(rng.integers(len(only1)))]
            text = f"a model built around {phrase_of(op)}."
        else:
            op = sorted(ops1)[int(rng.integers(len(ops1)))]
            text = f"an architecture for feature extraction with {phrase_of(op)}."
        samples.append(BACDSample(g1=p.g1, g2=p.g2, label=p.label, text=text))
    return samples


# ---------------------------------------------------------------------------
# JSONL serialization: a sample's record holds its dataclass fields in order


@functools.cache
def _layout(cls) -> tuple[tuple[str, object], ...]:
    """A sample type's record layout: its fields, each with its declared type."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def write_jsonl(samples, vocab: NodeVocab, path: str) -> None:
    """One JSON record per sample, its fields in declared order. Each distinct
    graph is serialized once per file; a line is joined from per-field JSON
    pieces, byte for byte what `json.dumps` gives for the whole record."""
    graph_json: dict[ArchGraph, str] = {}

    def piece(value) -> str:
        if isinstance(value, ArchGraph):
            text = graph_json.get(value)
            if text is None:
                text = graph_json[value] = json.dumps(graph_to_obj(value, vocab))
            return text
        return json.dumps(sorted(value) if isinstance(value, frozenset) else value)

    with atomic_write(path) as f:
        for s in samples:
            if isinstance(s, ACSample):
                s = BiModalSample(graph=s.graph, text=s.text, y=1.0)
            f.write("{" + ", ".join(f"{json.dumps(key)}: {piece(getattr(s, key))}"
                                    for key, _ in _layout(type(s))) + "}\n")


_JSON_KINDS = {str: "a string", float: "a number", int: "an integer",
               frozenset[int]: "a list of integers"}


class _Graphs:
    """The graphs of one load call: each distinct graph document is parsed
    and validated once, and its repeats share the parsed graph.

    The key is the document's JSON with sorted object keys, so it keeps each
    value's JSON type (a true never matches a 1) and ignores key order. A
    document that fails to parse is not kept, so each of its repeats is
    refused at its own line."""

    def __init__(self, vocab: NodeVocab):
        self.vocab = vocab
        self.parsed: dict[str, ArchGraph] = {}

    def read(self, doc) -> ArchGraph:
        key = json.dumps(doc, sort_keys=True)
        g = self.parsed.get(key)
        if g is None:
            g = self.parsed[key] = graph_from_obj(doc, self.vocab)
        return g


def _field(record: dict, key: str, typ, graphs: _Graphs | None):
    """Field `key` of a record, read as the type `typ` a sample declares for
    it (a graph through `graphs`); a value of another JSON type is a
    ValueError naming the field."""
    value = record[key]
    if typ is ArchGraph:
        try:
            return graphs.read(value)
        except (GraphParseError, GraphValidationError) as e:
            raise ValueError(f"field '{key}': {e}") from e
    # exact types: a JSON true is a bool, never a number
    if type(value) is typ:
        return value
    if typ is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"field '{key}' is out of range, got {reprlib.repr(value)}") from None
    if typ == frozenset[int] and type(value) is list and set(map(type, value)) <= {int}:
        return frozenset(value)
    raise ValueError(f"field '{key}' must be {_JSON_KINDS[typ]}, got {reprlib.repr(value)}")


def _load(path: str, read) -> list:
    """`read(record)` of each non-blank JSONL line, where None skips the
    record. A line that is not a JSON object, or that `read` refuses, is a
    ValueError naming the file, the line and the field."""
    out = []
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}:{line_no}: not UTF-8 text: {e.reason}") from e
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if type(record) is not dict:
                    raise ValueError(f"record must be a JSON object, got {reprlib.repr(record)}")
                sample = read(record)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{line_no}: invalid JSON: {e.msg}") from e
            except KeyError as e:
                raise ValueError(f"{path}:{line_no}: missing field {e}") from e
            except (TypeError, ValueError) as e:
                raise ValueError(f"{path}:{line_no}: {e}") from e
            if sample is not None:
                out.append(sample)
    return out


def _reader(cls, vocab: NodeVocab):
    """The reader of `cls` records: each field is read as `cls` declares it."""
    layout = _layout(cls)
    graphs = _Graphs(vocab)
    return lambda record: cls(**{key: _field(record, key, typ, graphs) for key, typ in layout})


def load_bimodal(path: str, vocab: NodeVocab) -> list[BiModalSample]:
    return _load(path, _reader(BiModalSample, vocab))


def load_aqa(path: str, vocab: NodeVocab) -> list[AQASample]:
    return _load(path, _reader(AQASample, vocab))


def load_acd(path: str, vocab: NodeVocab) -> list[ACDPair]:
    return _load(path, _reader(ACDPair, vocab))


def load_bacd(path: str, vocab: NodeVocab) -> list[BACDSample]:
    return _load(path, _reader(BACDSample, vocab))


def load_ac(path: str, vocab: NodeVocab) -> list[ACSample]:
    """The `captions` of a bi-modal file whose y, when left out, is 1. Of a
    record that is no caption only y is read."""
    read = _reader(BiModalSample, vocab)

    def read_positive(record):
        record = {"y": 1.0, **record}
        return read(record) if _field(record, "y", float, None) == 1.0 else None

    return captions(_load(path, read_positive))


# ---------------------------------------------------------------------------
# dataset statistics


def _dist(values) -> dict:
    vals = list(values)
    if not vals:
        return {"mean": 0.0, "std": 0.0, "median": 0.0}
    return {
        "mean": float(statistics.fmean(vals)),
        "std": float(statistics.pstdev(vals)),
        "median": float(statistics.median(vals)),
    }


def compute_stats(path: str) -> dict:
    """Table-style statistics of a JSONL dataset of any record layout. Each
    graph and text field present is checked as the loaders check it; op
    names are counted as written."""
    archs = _Graphs(NodeVocab(()))   # checks a graph without knowing its op names
    graphs, texts = [], []

    def read(record):
        for key in ("graph", "g1", "g2"):
            if key in record:
                _field(record, key, ArchGraph, archs)
                graphs.append(record[key])
        texts.extend(_field(record, key, str, None) for key in ("text", "question")
                     if key in record)
        return record

    records = _load(path, read)
    unique_nodes = {n for g in graphs for n in g["nodes"]}
    token_lists = [normalize(t) for t in texts]
    unique_tokens = {w for ws in token_lists for w in ws}
    stats = {
        "samples": len(records),
        "unique_archs": len(archs.parsed),
        "unique_nodes": len(unique_nodes),
        "nodes": _dist(len(g["nodes"]) for g in graphs),
        "edges": _dist(len(g["edges"]) for g in graphs),
        "unique_tokens": len(unique_tokens),
        "tokens": _dist(len(ws) for ws in token_lists),
        "seq_length": _dist(len(t) for t in texts),
    }
    return stats
