"""Task scores, decisions and metrics: reasoning, clone detection, QA,
captioning, the structural and name-match baselines, and a PCA projector.
Each task has one score function over lists of inputs (`ar_scores`,
`acd_scores`, `bacd_scores`, `answer_probs`, `caption_graph`), the one path
that `eval`'s runners and the one-sample commands share, with one decision
rule (`threshold_decision`), one home per label rule and one count fold.

All runners are pure functions of (frozen model, dataset): repeated calls
return identical metrics. Aggregation is count-based, so it is independent
of sample order.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .datagen import ACDPair, ACSample, AQASample, BACDSample, BiModalSample
from .graph import ArchGraph, NodeVocab
from .model import Model, aqa_logits, cosine, decode_beam, embed_graphs, embed_texts, encode_graph
from .text import TextVocab, detokenize, normalize


@dataclass(frozen=True)
class ClsMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "precision": self.precision,
                "recall": self.recall, "f1": self.f1,
                "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


@dataclass(frozen=True)
class RougeScores:
    r1: float
    r2: float
    rlsum: float

    def to_dict(self) -> dict:
        return {"rouge1": self.r1, "rouge2": self.r2, "rougeLsum": self.rlsum}


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


QA_THRESHOLD = 0.5   # a QA answer slot is chosen when its probability exceeds this


def threshold_decision(score, tau: float):
    """Positive only for scores strictly greater than the threshold;
    elementwise on an array of scores."""
    return score > tau


def metrics_from_counts(tp: int, fp: int, tn: int, fn: int) -> ClsMetrics:
    total = tp + fp + tn + fn
    acc = (tp + tn) / total if total else 0.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return ClsMetrics(accuracy=acc, precision=p, recall=r, f1=_f1(p, r),
                      tp=tp, fp=fp, tn=tn, fn=fn)


def accuracy_f1(preds, labels) -> ClsMetrics:
    """Binary classification metrics over decision and label arrays of one
    shape, any shape; precision/recall/f1 are 0 on zero division."""
    p, y = np.asarray(preds, dtype=bool), np.asarray(labels, dtype=bool)
    if p.shape != y.shape:
        raise ValueError(f"preds of shape {p.shape} and labels of shape {y.shape} differ")
    if not p.size:
        raise ValueError("empty prediction list")
    return metrics_from_counts(int(np.count_nonzero(p & y)), int(np.count_nonzero(p & ~y)),
                               int(np.count_nonzero(~p & ~y)), int(np.count_nonzero(~p & y)))


# ---------------------------------------------------------------------------
# ROUGE


def _ngram_f(cand: list[str], ref: list[str], n: int) -> float:
    cand_ngrams = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
    ref_ngrams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
    overlap = sum((cand_ngrams & ref_ngrams).values())
    p = overlap / sum(cand_ngrams.values()) if cand_ngrams else 0.0
    r = overlap / sum(ref_ngrams.values()) if ref_ngrams else 0.0
    return _f1(p, r)


def _lcs_ref_positions(ref: list[str], cand: list[str]) -> set[int]:
    """Reference indices matched by one longest common subsequence."""
    nr, nc = len(ref), len(cand)
    dp = [[0] * (nc + 1) for _ in range(nr + 1)]
    for i in range(1, nr + 1):
        for j in range(1, nc + 1):
            if ref[i - 1] == cand[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    matched = set()
    i, j = nr, nc
    while i > 0 and j > 0:
        if ref[i - 1] == cand[j - 1]:
            matched.add(i - 1)
            i -= 1
            j -= 1
        elif dp[i - 1][j] >= dp[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return matched


def _sentences(text: str) -> list[list[str]]:
    parts = re.split(r"[.\n]", text)
    out = [normalize(p) for p in parts]
    return [s for s in out if s]


def rouge_scores(candidate: str, reference: str) -> RougeScores:
    """Unigram/bigram overlap F plus the summary-level LCS variant.

    The LCS variant splits both sides into sentences (periods/newlines),
    takes the union of LCS matches of each reference sentence against every
    candidate sentence, and computes F over total token counts.
    """
    cand_tokens = normalize(candidate)
    ref_tokens = normalize(reference)
    r1 = _ngram_f(cand_tokens, ref_tokens, 1)
    r2 = _ngram_f(cand_tokens, ref_tokens, 2)
    cand_sents = _sentences(candidate)
    ref_sents = _sentences(reference)
    total_ref = sum(len(s) for s in ref_sents)
    total_cand = sum(len(s) for s in cand_sents)
    hits = 0
    for ref_sent in ref_sents:
        union: set[int] = set()
        for cand_sent in cand_sents:
            union |= _lcs_ref_positions(ref_sent, cand_sent)
        hits += len(union)
    p = hits / total_cand if total_cand else 0.0
    r = hits / total_ref if total_ref else 0.0
    return RougeScores(r1=r1, r2=r2, rlsum=_f1(p, r))


# ---------------------------------------------------------------------------
# structural baseline


def _multiset_iou(a: Counter, b: Counter) -> float:
    union = sum((a | b).values())
    if union == 0:
        return 0.0
    return sum((a & b).values()) / union


def jaccard_similarity(g1: ArchGraph, g2: ArchGraph, vocab: NodeVocab) -> float:
    """Mean of node-name multiset IoU and edge-type multiset IoU; an edge is
    typed by its (source op name, destination op name) pair. If both graphs
    are edgeless, the node IoU stands alone."""
    n1 = Counter(vocab.name_of(n) for n in g1.nodes)
    n2 = Counter(vocab.name_of(n) for n in g2.nodes)
    node_iou = _multiset_iou(n1, n2)
    if not g1.edges and not g2.edges:
        return node_iou
    e1 = Counter((vocab.name_of(g1.nodes[u]), vocab.name_of(g1.nodes[v]))
                 for u, v in g1.edges)
    e2 = Counter((vocab.name_of(g2.nodes[u]), vocab.name_of(g2.nodes[v]))
                 for u, v in g2.edges)
    return 0.5 * node_iou + 0.5 * _multiset_iou(e1, e2)


def ar_name_baseline(arch_name: str | None, statement: str) -> bool:
    """Correct iff the architecture has a name and the statement holds it
    (case-folded)."""
    return bool(arch_name) and arch_name.lower() in statement.lower()


# ---------------------------------------------------------------------------
# scores, label rules and task runners


def _columns(samples: list, *fields: str) -> list[list]:
    """Each named field of every sample, one list per field. This is where
    every runner and baseline refuses an empty dataset, before any encode."""
    if not samples:
        raise ValueError("empty dataset")
    return [[getattr(s, f) for s in samples] for f in fields]


def _is_correct(ys) -> np.ndarray:
    return np.asarray(ys) >= 0.5


def _is_clone(labels) -> np.ndarray:
    return np.asarray(labels) == 1


def answer_targets(answer_sets, n_answers: int) -> np.ndarray:
    """The (N, n_answers) gold matrix of N sets of answer ids. An answer
    beyond the head's n_answers slots is dropped: it is neither trained nor
    scored."""
    gold = np.zeros((len(answer_sets), n_answers), dtype=bool)
    for row, answers in zip(gold, answer_sets):
        row[[a for a in answers if a < n_answers]] = True
    return gold


def _graph_pairs(model: Model, g1s: list[ArchGraph], g2s: list[ArchGraph]) -> tuple:
    j_g = embed_graphs([*g1s, *g2s], model)
    return j_g[:len(g1s)], j_g[len(g1s):]


def ar_scores(model: Model, texts: list[str], graphs: list[ArchGraph],
              text_vocab: TextVocab) -> np.ndarray:
    """Cosine of each (text, graph) pair's pooled embeddings; shape (N,)."""
    return cosine(Tensor(embed_texts(texts, model, text_vocab)),
                  Tensor(embed_graphs(graphs, model)), model.cfg.eps_cos).data


def acd_scores(model: Model, g1s: list[ArchGraph], g2s: list[ArchGraph]) -> np.ndarray:
    """Cosine of each graph pair's pooled embeddings; shape (N,)."""
    j1, j2 = _graph_pairs(model, g1s, g2s)
    return cosine(Tensor(j1), Tensor(j2), model.cfg.eps_cos).data


def three_way_score(j1: np.ndarray, j2: np.ndarray, j_t: np.ndarray,
                    eps: float = 1e-8) -> np.ndarray:
    """Mean of the three pairwise cosines among row-aligned (N, d) matrices
    (J_g1, J_g2, J_t); shape (N,)."""
    a, b, t = Tensor(j1), Tensor(j2), Tensor(j_t)
    return (cosine(a, b, eps).data + cosine(a, t, eps).data + cosine(b, t, eps).data) / 3.0


def bacd_scores(model: Model, g1s: list[ArchGraph], g2s: list[ArchGraph], texts: list[str],
                text_vocab: TextVocab) -> np.ndarray:
    """The three-way score of each graph pair and its supporting text; shape (N,)."""
    j1, j2 = _graph_pairs(model, g1s, g2s)
    return three_way_score(j1, j2, embed_texts(texts, model, text_vocab), model.cfg.eps_cos)


def bacd_score(model: Model, s: BACDSample, text_vocab: TextVocab) -> float:
    return float(bacd_scores(model, [s.g1], [s.g2], [s.text], text_vocab)[0])


def answer_probs(model: Model, questions: list[str], graphs: list[ArchGraph],
                 text_vocab: TextVocab) -> np.ndarray:
    """The QA head's probability of each answer slot for each (question,
    graph) pair; shape (N, n_answers)."""
    logits = aqa_logits(Tensor(embed_texts(questions, model, text_vocab)),
                        Tensor(embed_graphs(graphs, model)), model.constants()).data
    return 1.0 / (1.0 + np.exp(-logits))


def run_ar(model: Model, samples: list[BiModalSample], tau: float,
           text_vocab: TextVocab) -> ClsMetrics:
    """Statement verification: cosine(J_t, J_g) > tau counts as correct."""
    texts, graphs, ys = _columns(samples, "text", "graph", "y")
    return accuracy_f1(threshold_decision(ar_scores(model, texts, graphs, text_vocab), tau),
                       _is_correct(ys))


def run_acd(model: Model, pairs: list[ACDPair], tau: float) -> ClsMetrics:
    """Clone detection: cosine of the two pooled graph embeddings vs tau."""
    g1s, g2s, labels = _columns(pairs, "g1", "g2", "label")
    return accuracy_f1(threshold_decision(acd_scores(model, g1s, g2s), tau), _is_clone(labels))


def run_bacd(model: Model, samples: list[BACDSample], tau: float,
             text_vocab: TextVocab) -> ClsMetrics:
    """Text-assisted clone detection over the three-way cosine average."""
    g1s, g2s, texts, labels = _columns(samples, "g1", "g2", "text", "label")
    return accuracy_f1(threshold_decision(bacd_scores(model, g1s, g2s, texts, text_vocab), tau),
                       _is_clone(labels))


def run_aqa(model: Model, samples: list[AQASample],
            text_vocab: TextVocab) -> ClsMetrics:
    """Multi-label QA, micro-averaged over every answer slot of every sample."""
    questions, graphs, answers = _columns(samples, "question", "graph", "answers")
    probs = answer_probs(model, questions, graphs, text_vocab)
    return accuracy_f1(threshold_decision(probs, QA_THRESHOLD),
                       answer_targets(answers, probs.shape[1]))


def run_ar_baseline(samples: list[BiModalSample]) -> ClsMetrics:
    """The name baseline: a statement counts as correct iff it names its graph."""
    graphs, texts, ys = _columns(samples, "graph", "text", "y")
    return accuracy_f1([ar_name_baseline(g.name, t) for g, t in zip(graphs, texts)],
                       _is_correct(ys))


def run_acd_baseline(pairs: list[ACDPair], tau: float, vocab: NodeVocab) -> ClsMetrics:
    """The structural baseline: Jaccard similarity of the two graphs vs tau."""
    g1s, g2s, labels = _columns(pairs, "g1", "g2", "label")
    scores = np.array([jaccard_similarity(g1, g2, vocab) for g1, g2 in zip(g1s, g2s)])
    return accuracy_f1(threshold_decision(scores, tau), _is_clone(labels))


def caption_graph(model: Model, g: ArchGraph, text_vocab: TextVocab,
                  beam: int, max_len: int | None = None) -> str:
    """Beam-decode one caption for a graph under constant parameters, of at
    most max_len tokens (by default as many as max_tokens allows)."""
    params = model.constants()
    h_g, _ = encode_graph(g, params, model.cfg)
    return detokenize(decode_beam(h_g, params, model.cfg, beam=beam, max_len=max_len),
                      text_vocab)


def run_ac(model: Model, samples: list[ACSample], text_vocab: TextVocab,
           beam: int) -> RougeScores:
    """Captioning: decode each distinct graph once, detokenize, average the
    three overlap scores over the samples."""
    graphs, texts = _columns(samples, "graph", "text")
    captions = {g: caption_graph(model, g, text_vocab, beam=beam) for g in dict.fromkeys(graphs)}
    scores = [rouge_scores(captions[g], t) for g, t in zip(graphs, texts)]
    return RougeScores(r1=float(np.mean([sc.r1 for sc in scores])),
                       r2=float(np.mean([sc.r2 for sc in scores])),
                       rlsum=float(np.mean([sc.rlsum for sc in scores])))


# ---------------------------------------------------------------------------
# PCA projection


def pca_project(embeddings: np.ndarray, k: int = 2) -> np.ndarray:
    """Project onto the top-k covariance eigenvectors, each with its
    largest-magnitude entry positive. Rank-deficient inputs (eigenvalues
    below 1e-12 of the largest) yield fewer columns with a warning."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need an (N >= 2) x d matrix")
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / x.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)   # ascending
    eigvals = eigvals[::-1][:k]
    rank = int(np.count_nonzero(eigvals >= max(1e-30, 1e-12 * eigvals.max(initial=0.0))))
    if rank < len(eigvals):
        warnings.warn(f"data rank < {k}; returning {rank} components")
    if rank == 0:
        warnings.warn("degenerate data; returning a zero component")
        return np.zeros((x.shape[0], 1))
    basis = eigvecs[:, ::-1][:, :rank]
    basis = basis * np.sign(basis[np.abs(basis).argmax(axis=0), np.arange(rank)])
    return centered @ basis
