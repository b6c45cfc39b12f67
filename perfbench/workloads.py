"""The four archtext workloads: their inputs, timed calls, checks and probes.

Every input comes from the `datagen` generators at the benchmark's seed and
crosses a JSONL round trip before archtext sees it. Models are the default
`ModelConfig` (d=64) at random initialisation from the same seed; eval,
caption and retrieve load theirs from a bundle written by `cli.save_bundle`.

Program functions are always looked up on their module at call time
(`training.pretrain`, not a local name), so the traced run's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import math
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from archtext import checkpoint, cli, datagen, evaluate, index, model, text, training
from archtext.datagen import ACSample, GenConfig
from archtext.model import Model, ModelConfig
from archtext.training import TrainConfig

from harness import Op, percentile_tail, require

VOCAB_SIZE = 4096   # the CLI's default text vocabulary cap
BATCH = 8           # training batch, and samples per eval runner call
TAU = 0.5           # decision threshold of the ar, acd and bacd runners
BEAM = 10
MAX_LEN = 16
SEARCH_K = 10
INDEX_SLICE = 256         # graphs per timed index build
QUERIES_PER_CYCLE = 100   # queries after each timed index build
SMALL = dict(min_nodes=8, max_nodes=16)   # index graphs and probe inputs

# Inputs of the reference probes; independent of --seed, so the stored
# reference outputs hold for every run.
REF_SEED = 20231027


@dataclass(frozen=True)
class Sizes:
    """Input sizes. FULL is the benchmark; the self-test uses TINY."""

    setup_reps: int = 3
    # A run covers many graphs, so its mean graph size, which sets the cost
    # of a sample, varies little from seed to seed.
    pretrain_archs: int = 360     # 2 descriptions each: 720 samples
    eval_ar_archs: int = 300      # 2 statements each: 600
    eval_aqa_archs: int = 80      # 8 of the 35 questions each: 640
    families: int = 100           # 300 family graphs ...
    eval_pairs: int = 640         # ... of which acd and bacd take this many pairs
    caption_train_archs: int = 160    # 2 captions each: 320
    caption_heldout_archs: int = 64
    index_archs: int = 2048
    query_archs: int = 150        # ~1600 held-out descriptions
    trace_ops: dict = field(default_factory=lambda: {
        "pretrain": {"pretrain": 20},
        "eval": {"eval": 12},
        "caption": {"caption": 8},
        "retrieve": {"cycle": 4},
    })


FULL = Sizes()
TINY = Sizes(setup_reps=1, pretrain_archs=8, eval_ar_archs=8, eval_aqa_archs=2,
             families=3, eval_pairs=16, caption_train_archs=8, caption_heldout_archs=2,
             index_archs=24, query_archs=2,
             trace_ops={"pretrain": {"pretrain": 2}, "eval": {"eval": 2},
                        "caption": {"caption": 1},
                        "retrieve": {"cycle": 1}})


# ---------------------------------------------------------------------------
# shared helpers


def _chunk(seq: list, i: int, size: int) -> tuple[int, list]:
    """The i-th run of `size` items, wrapping around the end of `seq`."""
    start = (i * size) % len(seq)
    return start, [seq[(start + j) % len(seq)] for j in range(size)]


def _by_graph(samples: list) -> list[list]:
    groups: dict[str, list] = {}
    for s in samples:
        groups.setdefault(s.graph.name, []).append(s)
    return list(groups.values())


def _interleave(samples: list, per_graph: int) -> list:
    """Up to `per_graph` samples of each graph, ordered so that consecutive
    samples come from different graphs (all firsts, then all seconds, ...)."""
    groups = _by_graph(samples)
    return [g[k] for k in range(per_graph) for g in groups if k < len(g)]


def _roundtrip(samples, node_vocab, path: str, loader):
    datagen.write_jsonl(samples, node_vocab, path)
    return loader(path, node_vocab)


def _fresh_model(node_vocab, text_vocab, seed: int) -> Model:
    cfg = ModelConfig(node_vocab_size=len(node_vocab), text_vocab_size=len(text_vocab))
    return Model.initialized(cfg, seed)


def _bundle(mdl: Model, text_vocab, node_vocab, work: str) -> str:
    return cli.save_bundle(os.path.join(work, "bundle"), mdl, text_vocab, node_vocab, [])


def _snapshot(mdl: Model) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in mdl.params.items()}


def _restore(mdl: Model, arrays: dict[str, np.ndarray]) -> None:
    for name, arr in arrays.items():
        mdl.params[name].data = arr.copy()


def _check_log(log, with_mam: bool):
    require(isinstance(log, list) and len(log) == 1, f"expected one step record, got {log!r}")
    rec = log[0]
    total = rec["l_total"]
    require(math.isfinite(total) and total > 0, f"l_total {total!r}")
    if with_mam:
        require(0.0 <= rec["l_sim"] <= 4.0, f"l_sim {rec['l_sim']!r} outside [0, 4]")
        require(rec["l_mam"] is not None and rec["l_mam"] > 0, f"l_mam {rec['l_mam']!r}")
    return (rec["l_sim"], rec["l_mam"], total)


def _log_values(log) -> list:
    return [[r["l_sim"], r["l_mam"], r["l_total"]] for r in log]


def _ref(value, **tolerance) -> dict:
    return {"value": value, **tolerance}


# Loss logs are compared relatively: a few Adam steps amplify last-digit
# differences of a reordered sum, but stay far below 1e-6.
LOSS_TOL = dict(rel_tol=1e-6, abs_tol=1e-12)
# Scores are cosines or probabilities computed in float64.
SCORE_TOL = dict(abs_tol=1e-9)
# Index entries are stored as float32.
INDEX_TOL = dict(abs_tol=1e-6)


class Workload:
    name = ""

    def setup(self, seed: int, work: str, sizes: Sizes) -> SimpleNamespace:
        raise NotImplementedError

    def warmup(self, ctx) -> list[Op]:
        """One untimed call of each kind the timed loop makes."""
        raise NotImplementedError

    def schedule(self, ctx, budget):
        """The timed calls, in order, while the budget allows."""
        raise NotImplementedError

    def snapshot(self, ctx):
        return None

    def restore(self, ctx, snap) -> None:
        pass

    def headline(self, tally) -> tuple[float, list[float], dict[str, tuple[float, str]]]:
        """(throughput, latency samples in ms, named end-to-end metrics)."""
        raise NotImplementedError

    def probe(self, work: str) -> dict:
        """Outputs on the fixed reference inputs, with their tolerances."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# pretrain


class Pretrain(Workload):
    """Joint pre-training: three encodes per sample, backward and Adam.

    One timed call is one `training.pretrain` call over one batch of 8
    (one epoch, one optimiser step); the model keeps training across calls.
    """

    name = "pretrain"

    def setup(self, seed, work, sizes):
        gcfg = GenConfig(rng_seed=seed)
        nv = gcfg.node_vocab()
        samples = _roundtrip(
            _interleave(datagen.gen_autonet(gcfg, sizes.pretrain_archs, "train"), 2), nv,
            os.path.join(work, "train.jsonl"), datagen.load_bimodal)
        tv = text.build_vocab([s.text for s in samples], VOCAB_SIZE)
        return SimpleNamespace(samples=samples, text_vocab=tv,
                               model=_fresh_model(nv, tv, seed),
                               tcfg=TrainConfig(epochs=1, batch_size=BATCH, seed=seed))

    def _step(self, ctx, i):
        _, batch = _chunk(ctx.samples, i, BATCH)
        return Op("pretrain", len(batch),
                  lambda: training.pretrain(batch, ctx.model, ctx.tcfg, ctx.text_vocab),
                  lambda log: _check_log(log, with_mam=True), key=("pretrain", i),
                  unit=("pretrain", i))

    def warmup(self, ctx):
        return [self._step(ctx, 0)]

    def schedule(self, ctx, budget):
        i = 0
        while budget.allows("pretrain", i):
            yield self._step(ctx, i)
            i += 1

    def snapshot(self, ctx):
        return _snapshot(ctx.model)

    def restore(self, ctx, snap):
        _restore(ctx.model, snap)

    def headline(self, tally):
        rate = tally.unit_rate("pretrain")
        return rate, tally.latencies_ms("pretrain"), {
            "pretrain_samples_per_s": (rate, "samples/s")}

    def probe(self, work):
        gcfg = GenConfig(rng_seed=REF_SEED, **SMALL)
        samples = datagen.gen_autonet(gcfg, 2, "train")[:16]
        tv = text.build_vocab([s.text for s in samples], VOCAB_SIZE)
        mdl = _fresh_model(gcfg.node_vocab(), tv, REF_SEED)
        log = training.pretrain(samples, mdl, TrainConfig(epochs=2, batch_size=BATCH,
                                                          seed=REF_SEED), tv)
        return {"pretrain.loss_log": _ref(_log_values(log), **LOSS_TOL)}


# ---------------------------------------------------------------------------
# eval


EVAL_TASKS = ("ar", "acd", "bacd", "aqa")


class Eval(Workload):
    """The four encode-based runners, forward only.

    One round calls each runner once on its next 8 samples; a round is one
    latency sample. Graph work is shared: family graphs recur across acd and
    bacd pairs, and each aqa call asks 8 questions about one graph.
    """

    name = "eval"

    def setup(self, seed, work, sizes):
        gcfg = GenConfig(rng_seed=seed, tvhf_families=sizes.families)
        nv = gcfg.node_vocab()
        def path(name):
            return os.path.join(work, f"{name}.jsonl")

        pairs = sizes.eval_pairs
        # each runner call gets 8 questions about one graph
        aqa = [q for qs in _by_graph(datagen.gen_autonet_aqa(gcfg, sizes.eval_aqa_archs, "val"))
               for q in qs[::4][:BATCH]]
        data = {
            "ar": _roundtrip(_interleave(datagen.gen_autonet(gcfg, sizes.eval_ar_archs, "val"),
                                         2), nv, path("ar"), datagen.load_bimodal),
            "acd": _roundtrip(datagen.gen_acd_dataset(gcfg)[:pairs], nv, path("acd"),
                              datagen.load_acd),
            "bacd": _roundtrip(datagen.gen_bacd_dataset(gcfg)[:pairs], nv, path("bacd"),
                               datagen.load_bacd),
            "aqa": _roundtrip(aqa, nv, path("aqa"), datagen.load_aqa),
        }
        corpus = ([s.text for s in data["ar"]] + [s.text for s in data["bacd"]]
                  + [s.question for s in data["aqa"]])
        tv = text.build_vocab(corpus, VOCAB_SIZE)
        mdl, tv, _, _ = cli.load_bundle(_bundle(_fresh_model(nv, tv, seed), tv, nv, work))
        return SimpleNamespace(data=data, text_vocab=tv, model=mdl)

    def _op(self, ctx, task, r):
        start, chunk = _chunk(ctx.data[task], r, BATCH)
        mdl, tv = ctx.model, ctx.text_vocab
        calls = {
            "ar": lambda: evaluate.run_ar(mdl, chunk, TAU, tv),
            "acd": lambda: evaluate.run_acd(mdl, chunk, TAU),
            "bacd": lambda: evaluate.run_bacd(mdl, chunk, TAU, tv),
            "aqa": lambda: evaluate.run_aqa(mdl, chunk, tv),
        }
        slots = len(chunk) * (mdl.cfg.n_answers if task == "aqa" else 1)

        def check(m):
            require(m.tp + m.fp + m.tn + m.fn == slots,
                    f"{task}: counts {m.tp}+{m.fp}+{m.tn}+{m.fn} != {slots}")
            require(0.0 <= m.accuracy <= 1.0, f"{task}: accuracy {m.accuracy}")
            return m.to_dict()

        return Op(task, len(chunk), calls[task], check, key=(task, start), unit=("eval", r))

    def warmup(self, ctx):
        return [self._op(ctx, task, 0) for task in EVAL_TASKS]

    def schedule(self, ctx, budget):
        r = 0
        while budget.allows("eval", r):
            for task in EVAL_TASKS:
                yield self._op(ctx, task, r)
            r += 1

    def headline(self, tally):
        named = {f"{t}_samples_per_s": (tally.phase_rate(t), "samples/s") for t in EVAL_TASKS}
        return tally.unit_rate("eval"), tally.latencies_ms("eval"), named

    def probe(self, work):
        gcfg = GenConfig(rng_seed=REF_SEED, tvhf_families=4, **SMALL)
        nv = gcfg.node_vocab()
        ar = datagen.gen_autonet(gcfg, 1, "val")[:8]
        acd = datagen.gen_acd_dataset(gcfg)[:8]
        bacd = datagen.gen_bacd_dataset(gcfg)[:8]
        aqa = datagen.gen_autonet_aqa(gcfg, 1, "val")[::4][:8]
        corpus = [s.text for s in ar] + [s.text for s in bacd] + [s.question for s in aqa]
        tv = text.build_vocab(corpus, VOCAB_SIZE)
        mdl, tv, _, _ = cli.load_bundle(_bundle(_fresh_model(nv, tv, REF_SEED), tv, nv, work))
        p, cfg = mdl.params, mdl.cfg

        def j_text(s):
            return model.encode_text(text.tokenize(s, tv, cfg.max_tokens), p, cfg)[1]

        def j_graph(g):
            return model.encode_graph(g, p, cfg)[1]

        def cos(a, b):
            return model.cosine(a, b, cfg.eps_cos).item()

        def probs(s):
            logits = model.aqa_logits(j_text(s.question), j_graph(s.graph), p).data[0]
            return [float(x) for x in 1.0 / (1.0 + np.exp(-logits))]

        return {
            "eval.ar_scores": _ref([cos(j_text(s.text), j_graph(s.graph)) for s in ar],
                                   **SCORE_TOL),
            "eval.acd_scores": _ref([cos(j_graph(s.g1), j_graph(s.g2)) for s in acd],
                                    **SCORE_TOL),
            "eval.bacd_scores": _ref([evaluate.bacd_score(mdl, s, tv) for s in bacd],
                                     **SCORE_TOL),
            "eval.aqa_probs": _ref([probs(s) for s in aqa], **SCORE_TOL),
            "eval.ar_metrics": _ref(evaluate.run_ar(mdl, ar, TAU, tv).to_dict(), **SCORE_TOL),
            "eval.acd_metrics": _ref(evaluate.run_acd(mdl, acd, TAU).to_dict(), **SCORE_TOL),
            "eval.bacd_metrics": _ref(evaluate.run_bacd(mdl, bacd, TAU, tv).to_dict(),
                                      **SCORE_TOL),
            "eval.aqa_metrics": _ref(evaluate.run_aqa(mdl, aqa, tv).to_dict(), **SCORE_TOL),
        }


# ---------------------------------------------------------------------------
# caption


class Caption(Workload):
    """Teacher-forced caption fine-tuning and beam-10 captioning, one
    fine-tune step (8 samples) then one caption, over and over.

    Fine-tuning trains a copy of the bundle's model; captions come from the
    untouched copy, where every caption runs to the length budget, so the
    decoding work per graph is the same for every graph.
    """

    name = "caption"

    def setup(self, seed, work, sizes):
        gcfg = GenConfig(rng_seed=seed)
        nv = gcfg.node_vocab()
        positives = [s for s in datagen.gen_autonet(gcfg, sizes.caption_train_archs, "train")
                     if s.y == 1.0]
        train = _roundtrip(_interleave(positives, 2), nv, os.path.join(work, "train.jsonl"),
                           datagen.load_ac)
        heldout = _roundtrip(datagen.gen_autonet(gcfg, sizes.caption_heldout_archs, "val"), nv,
                             os.path.join(work, "heldout.jsonl"), datagen.load_ac)
        graphs = list({s.graph.name: s.graph for s in heldout}.values())
        tv = text.build_vocab([s.text for s in train], VOCAB_SIZE)
        path = _bundle(_fresh_model(nv, tv, seed), tv, nv, work)
        fixed, tv, _, _ = cli.load_bundle(path)
        tuned, _, _, _ = cli.load_bundle(path)
        return SimpleNamespace(train=train, graphs=graphs, text_vocab=tv, fixed=fixed,
                               tuned=tuned,
                               tcfg=TrainConfig(task="ac", epochs=1, batch_size=BATCH, seed=seed))

    def _finetune(self, ctx, i):
        _, batch = _chunk(ctx.train, i, BATCH)
        return Op("finetune", len(batch),
                  lambda: training.finetune_ac(batch, ctx.tuned, ctx.tcfg, ctx.text_vocab),
                  lambda log: _check_log(log, with_mam=False), key=("finetune", i),
                  unit=("finetune", i))

    def _caption(self, ctx, j):
        k = j % len(ctx.graphs)
        g, tv = ctx.graphs[k], ctx.text_vocab

        def check(caption):
            require(isinstance(caption, str), f"caption is {type(caption).__name__}")
            words = caption.split()
            require(len(words) <= MAX_LEN, f"{len(words)} words exceed max_len {MAX_LEN}")
            require(all(w in tv for w in words), f"caption {caption!r} leaves the vocabulary")
            return caption

        return Op("caption", 1,
                  lambda: evaluate.caption_graph(ctx.fixed, g, tv, beam=BEAM, max_len=MAX_LEN),
                  check, key=("caption", k), unit=("caption", j))

    def warmup(self, ctx):
        return [self._finetune(ctx, 0), self._caption(ctx, 0)]

    def schedule(self, ctx, budget):
        # Alternating the two phases spreads both over the whole run, so the
        # slow swings of a shared machine reach their medians alike.
        j = 0
        while budget.allows("caption", j):
            yield self._finetune(ctx, j)
            yield self._caption(ctx, j)
            j += 1

    def snapshot(self, ctx):
        return _snapshot(ctx.tuned)

    def restore(self, ctx, snap):
        _restore(ctx.tuned, snap)

    def headline(self, tally):
        rate = tally.unit_rate("finetune")
        lat = tally.latencies_ms("caption")
        p50, tail, _, _ = percentile_tail(lat)
        return rate, lat, {"ac_finetune_samples_per_s": (rate, "samples/s"),
                           "caption_ms_p50": (p50, "ms"), "caption_ms_tail": (tail, "ms")}

    def probe(self, work):
        gcfg = GenConfig(rng_seed=REF_SEED, **SMALL)
        nv = gcfg.node_vocab()
        train = [ACSample(s.graph, s.text)
                 for s in datagen.gen_autonet(gcfg, 3, "train") if s.y == 1.0][:8]
        heldout = datagen.gen_autonet(gcfg, 2, "val")
        graphs = list({s.graph.name: s.graph for s in heldout}.values())
        tv = text.build_vocab([s.text for s in train], VOCAB_SIZE)
        path = _bundle(_fresh_model(nv, tv, REF_SEED), tv, nv, work)
        tuned, tv, _, _ = cli.load_bundle(path)
        # A large learning rate moves the decoder off its random init, where
        # every caption repeats one token, so the captions test the decoder.
        log = training.finetune_ac(train, tuned, TrainConfig(task="ac", epochs=4, lr=1e-2,
                                                            batch_size=BATCH, seed=REF_SEED), tv)
        # detokenize drops reserved tokens, so the words map back to ids 1:1
        captions = [[tv.id_of(w) for w in evaluate.caption_graph(tuned, g, tv, beam=BEAM,
                                                                 max_len=6).split()]
                    for g in graphs]
        return {"caption.finetune_loss_log": _ref(_log_values(log), **LOSS_TOL),
                "caption.token_ids": _ref(captions)}


# ---------------------------------------------------------------------------
# retrieve


class Retrieve(Workload):
    """Index build, save and load over many small graphs, and text queries.

    The warm-up builds, saves and loads the full index of 2048 graphs of
    8-16 nodes, enough that the linear scan is a large part of each query.
    The timed loop then alternates one build, save and load of a 256-graph
    slice (a build-rate sample; one full build would be a single sample on a
    noisy machine) with 100 queries against the full index. Queries are
    held-out descriptions.
    """

    name = "retrieve"

    def setup(self, seed, work, sizes):
        gcfg = GenConfig(rng_seed=seed, **SMALL)
        nv = gcfg.node_vocab()
        corpus = datagen.gen_autonet(gcfg, sizes.index_archs, "train")
        one_per_graph = list({s.graph.name: s for s in corpus}.values())
        entries = _roundtrip(one_per_graph, nv, os.path.join(work, "index.jsonl"),
                             datagen.load_bimodal)
        queries = _roundtrip(datagen.gen_autonet(gcfg, sizes.query_archs, "val"), nv,
                             os.path.join(work, "queries.jsonl"), datagen.load_bimodal)
        tv = text.build_vocab([s.text for s in entries], VOCAB_SIZE)
        mdl, tv, _, ckpt = cli.load_bundle(_bundle(_fresh_model(nv, tv, seed), tv, nv, work))
        return SimpleNamespace(
            graphs=[(s.graph.name, s.graph) for s in entries],
            queries=[s.text for s in queries], text_vocab=tv, model=mdl,
            fingerprint=checkpoint.checkpoint_fingerprint(ckpt),
            full=SimpleNamespace(path=os.path.join(work, "full.abix")),
            part=SimpleNamespace(path=os.path.join(work, "part.abix")))

    def _search(self, ctx, idx, query, k):
        return index.search(idx, query, ctx.model, k, ctx.text_vocab, ctx.fingerprint)

    def _ranking(self, ctx, idx, graphs) -> dict[str, float]:
        """Every entry's score for the first query, through search alone."""
        hits = self._search(ctx, idx, ctx.queries[0], len(graphs))
        require(sorted(i for i, _ in hits) == sorted(i for i, _ in graphs),
                "index does not hold exactly the input graphs")
        return dict(hits)

    def _build_ops(self, ctx, slot, graphs, c=None):
        """Build, save and load an index of `graphs` into `slot`; `c` makes
        the three calls one build-rate sample."""
        n = len(graphs)

        def build():
            slot.built = index.build_index(ctx.model, graphs, ctx.fingerprint)
            return slot.built

        def save():
            index.save_index(slot.built, slot.path)

        def load():
            slot.loaded = index.load_index(slot.path)
            return slot.loaded

        def check_build(idx):
            slot.ranking = self._ranking(ctx, idx, graphs)
            return sorted(slot.ranking.items())

        def check_load(idx):
            got = self._ranking(ctx, idx, graphs)
            require(all(math.isclose(got[i], s, abs_tol=INDEX_TOL["abs_tol"])
                        for i, s in slot.ranking.items()),
                    "loaded index scores differ from the built index")

        unit = None if c is None else ("index", c)
        key = None if c is None else ("build", graphs[0][0])
        return [Op("build", n, build, check_build, key=key, unit=unit),
                Op("save", n, save,
                   lambda _: require(os.path.getsize(slot.path) > 0, "empty index file"),
                   unit=unit),
                Op("load", n, load, check_load, unit=unit)]

    def _query(self, ctx, j):
        k = j % len(ctx.queries)
        want = min(SEARCH_K, len(ctx.graphs))

        def check(hits):
            ids = [i for i, _ in hits]
            scores = [s for _, s in hits]
            require(len(hits) == want, f"{len(hits)} hits, want {want}")
            require(len(set(ids)) == len(ids), "duplicate ids in hits")
            require(all(a >= b for a, b in zip(scores, scores[1:])), "hits not sorted")
            require(all(abs(s) <= 1.0 + 1e-6 for s in scores), "score outside [-1, 1]")
            return hits

        return Op("query", 1,
                  lambda: self._search(ctx, ctx.full.loaded, ctx.queries[k], SEARCH_K),
                  check, key=("query", k), unit=("query", j))

    def warmup(self, ctx):
        return self._build_ops(ctx, ctx.full, ctx.graphs) + [self._query(ctx, 0)]

    def schedule(self, ctx, budget):
        c, j = 0, 0
        while budget.allows("cycle", c):
            start = (c * INDEX_SLICE) % len(ctx.graphs)
            yield from self._build_ops(ctx, ctx.part, ctx.graphs[start:start + INDEX_SLICE], c)
            for _ in range(QUERIES_PER_CYCLE):
                yield self._query(ctx, j)
                j += 1
            c += 1

    def headline(self, tally):
        graphs, secs = defaultdict(int), defaultdict(float)
        for phase, unit, n, s in tally.records:
            if phase in ("build", "save", "load"):
                secs[unit] += s
                if phase == "build":
                    graphs[unit] += n
        rate = statistics.median(graphs[u] / secs[u] for u in secs) if secs else math.nan
        lat = tally.latencies_ms("query")
        p50, tail, _, _ = percentile_tail(lat)
        return rate, lat, {"index_build_graphs_per_s": (rate, "graphs/s"),
                           "query_ms_p50": (p50, "ms"), "query_ms_tail": (tail, "ms")}

    def probe(self, work):
        gcfg = GenConfig(rng_seed=REF_SEED, **SMALL)
        nv = gcfg.node_vocab()
        corpus = list({s.graph.name: s for s in datagen.gen_autonet(gcfg, 32, "train")}.values())
        queries = [s.text for s in datagen.gen_autonet(gcfg, 1, "val")[:4]]
        tv = text.build_vocab([s.text for s in corpus], VOCAB_SIZE)
        mdl, tv, _, ckpt = cli.load_bundle(_bundle(_fresh_model(nv, tv, REF_SEED), tv, nv,
                                                   work))
        fp = checkpoint.checkpoint_fingerprint(ckpt)
        path = os.path.join(work, "probe.abix")
        index.save_index(index.build_index(mdl, [(s.graph.name, s.graph) for s in corpus], fp),
                         path)
        loaded = index.load_index(path)
        hits = [index.search(loaded, q, mdl, 5, tv, fp) for q in queries]
        return {"retrieve.search_ids": _ref([[i for i, _ in h] for h in hits]),
                "retrieve.search_scores": _ref([[s for _, s in h] for h in hits], **INDEX_TOL)}


WORKLOADS = {w.name: w for w in (Pretrain(), Eval(), Caption(), Retrieve())}
