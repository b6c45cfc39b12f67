"""Outside-in tracing of archtext: spans around calls into its public functions.

The wrappers are installed from the benchmark; nothing inside the package is
edited. A function imported by name into another module is a second binding
of the same object, so every module attribute that *is* the function gets
the wrapper, not only the one where it is defined. Spans stay in memory and
are written out once, after the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from archtext import (autodiff, checkpoint, cli, datagen, evaluate, graph, index, model, text,
                      training)
from archtext.autodiff import Tensor

from harness import percentile_tail

# (span name, defining module, function names). A span name may cover
# several functions, e.g. every generator is "datagen.generate".
SPANS = (
    ("datagen.generate", datagen,
     ("gen_autonet", "gen_autonet_aqa", "gen_acd_dataset", "gen_bacd_dataset")),
    ("datagen.jsonl", datagen,
     ("write_jsonl", "load_bimodal", "load_aqa", "load_acd", "load_bacd", "load_ac")),
    ("text.tokenize", text, ("tokenize",)),
    ("graph.attention_mask", graph, ("attention_mask",)),
    ("autodiff.adam_step", autodiff, ("adam_step",)),
    ("model.embed_text", model, ("embed_text",)),
    ("model.embed_nodes_shapes", model, ("embed_nodes_shapes",)),
    ("model.gat_forward", model, ("gat_forward",)),
    ("model.cross_encode", model, ("cross_encode",)),
    ("model.pool", model, ("pool",)),
    ("model.encode_text", model, ("encode_text",)),
    ("model.encode_graph", model, ("encode_graph",)),
    ("model.mam_logits", model, ("mam_logits",)),
    ("model.aqa_logits", model, ("aqa_logits",)),
    ("model.decoder_logits", model, ("decoder_logits",)),
    ("model.decode_beam", model, ("decode_beam",)),
    ("training.loop", training, ("pretrain", "finetune_ac")),
    ("evaluate.ar", evaluate, ("run_ar",)),
    ("evaluate.acd", evaluate, ("run_acd",)),
    ("evaluate.bacd", evaluate, ("run_bacd",)),
    ("evaluate.aqa", evaluate, ("run_aqa",)),
    ("evaluate.caption_graph", evaluate, ("caption_graph",)),
    ("index.build", index, ("build_index",)),
    ("index.save", index, ("save_index",)),
    ("index.load", index, ("load_index",)),
    ("index.search", index, ("search",)),
    ("checkpoint.save", checkpoint, ("save_checkpoint",)),
    ("checkpoint.load", checkpoint, ("load_checkpoint",)),
    ("checkpoint.fingerprint", checkpoint, ("checkpoint_fingerprint",)),
    ("cli.save_bundle", cli, ("save_bundle",)),
    ("cli.load_bundle", cli, ("load_bundle",)),
)

# autodiff ops that are counted, not timed: a span per op would cost more
# than the op itself.
COUNTED_OPS = ("matmul", "slice_cols", "concat", "softmax_masked")

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("datagen.generate_ms", "ms"),
    ("datagen.jsonl_roundtrip_ms", "ms"),
    ("text.tokenize_ms", "ms"),
    ("text.real_row_share", "ratio"),
    ("graph.attention_mask_ms", "ms"),
    ("autodiff.tape_ops", "count"),
    ("autodiff.matmul_calls", "count"),
    ("autodiff.slice_cols_calls", "count"),
    ("autodiff.concat_calls", "count"),
    ("autodiff.softmax_masked_calls", "count"),
    ("autodiff.matmul_flop", "flop"),
    ("autodiff.backward_ms", "ms"),
    ("autodiff.adam_step_ms", "ms"),
    ("model.embed_text_ms", "ms"),
    ("model.embed_nodes_shapes_ms", "ms"),
    ("model.pool_ms", "ms"),
    ("model.gat_forward_ms", "ms"),
    ("model.cross_encode.text_ms", "ms"),
    ("model.cross_encode.graph_ms", "ms"),
    ("model.encode_text_calls", "count"),
    ("model.encode_graph_calls", "count"),
    ("model.mam_logits_ms", "ms"),
    ("model.aqa_logits_ms", "ms"),
    ("model.decoder_logits_calls", "count"),
    ("model.decoder_logits_rows", "count"),
    ("model.decoder_logits_ms", "ms"),
    ("model.decode_beam_self_ms", "ms"),
    ("training.loop_self_ms", "ms"),
    ("training.step_ms_p50", "ms"),
    ("training.step_ms_tail", "ms"),
    ("evaluate.ar_self_ms", "ms"),
    ("evaluate.acd_self_ms", "ms"),
    ("evaluate.bacd_self_ms", "ms"),
    ("evaluate.aqa_self_ms", "ms"),
    ("evaluate.caption_graph_self_ms", "ms"),
    ("index.build_self_ms", "ms"),
    ("index.save_ms", "ms"),
    ("index.load_ms", "ms"),
    ("index.search_scan_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.fingerprint_ms", "ms"),
    ("cli.load_bundle_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.span_coverage", "ratio"),
)

SETUP = "setup"


def _archtext_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "archtext" or name.startswith("archtext."))]


class Tracer:
    """Spans and counters, tagged with the phase the benchmark is in.

    A span is [name, start, end, parent index, phase]; parent -1 marks a
    top-level call, made by the benchmark itself.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.phase = SETUP
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn, on_call=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, name, fn, weigh=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.phase, name] += 1
            if weigh is not None:
                weigh(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _count(self, key, amount):
        self.counts[self.phase, key] += amount

    def _on_encode_text(self, args, kwargs):
        seq = args[0] if args else kwargs["seq"]
        self._count("text.real_rows", seq.real_length)
        self._count("text.rows", len(seq.ids))

    def _on_decoder_logits(self, args, kwargs):
        ids = args[2] if len(args) > 2 else kwargs["input_ids"]
        self._count("model.decoder_logits_rows", len(ids))

    def _on_matmul(self, args, kwargs):
        a, b = args[0], args[1]
        # 2*m*k*n for an (m, k) @ (k, n) product
        self._count("autodiff.matmul_flop", 2 * a.data.size * b.data.shape[-1])

    def _replace_everywhere(self, fn, wrapper):
        for mod in _archtext_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        hooks = {"encode_text": self._on_encode_text,
                 "decoder_logits": self._on_decoder_logits}
        try:
            for span, mod, names in SPANS:
                for fname in names:
                    fn = getattr(mod, fname, None)
                    if fn is not None:
                        self._replace_everywhere(
                            fn, self._spanned(span, fn, hooks.get(fname)))
            for op in COUNTED_OPS:
                fn = getattr(autodiff, op, None)
                if fn is not None:
                    weigh = self._on_matmul if op == "matmul" else None
                    self._replace_everywhere(
                        fn, self._counted(f"autodiff.{op}_calls", fn, weigh))
            backward = Tensor.__dict__["backward"]
            self._undo.append((Tensor, "backward", backward))
            Tensor.backward = self._spanned("autodiff.backward", backward)
            from_op = Tensor.__dict__["_from_op"]
            self._undo.append((Tensor, "_from_op", from_op))
            Tensor._from_op = classmethod(
                self._counted("autodiff.tape_ops", from_op.__func__))
            yield self
        finally:
            while self._undo:
                owner, attr, value = self._undo.pop()
                setattr(owner, attr, value)

    # -- output -----------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "phase": phase}) + "\n")

    def top_level_seconds(self, phases) -> float:
        return sum(end - start for _, start, end, parent, phase in self.spans
                   if parent < 0 and phase in phases)


def _ancestor(spans: list[list], i: int, name: str) -> int:
    while i >= 0 and spans[i][0] != name:
        i = spans[i][3]
    return i


def layer_metrics(tracer: Tracer, items: dict[str, int], setup_reps: int,
                  overhead_ratio: float, coverage: float) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    Timed work is normalised per item of the phase it ran in (a sample, a
    caption, a query, an index graph) and summed over the phases, so a value
    is the cost of one item of each phase and does not depend on how the run
    split its time. Set-up metrics are per set-up repetition.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, phase in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[tuple[str, str], float] = defaultdict(float)
    calls: Counter = Counter()
    steps_ms: list[float] = []
    step_from: dict[int, float] = {}   # training-loop span -> end of its last step
    for i, (name, start, end, parent, phase) in enumerate(spans):
        if name == "model.cross_encode" and parent >= 0:
            name += {"model.encode_text": ".text",
                     "model.encode_graph": ".graph"}.get(spans[parent][0], "")
        self_s[phase, name] += end - start - child[i]
        calls[phase, name] += 1
        if name == "autodiff.adam_step" and phase in items:
            loop = _ancestor(spans, i, "training.loop")
            if loop >= 0:
                # a step runs from the loop's start or its previous step's end
                steps_ms.append(1e3 * (end - step_from.get(loop, spans[loop][1])))
                step_from[loop] = end

    timed = [p for p in items if items[p] > 0]

    def per_item_ms(name):
        return 1e3 * sum(self_s[p, name] / items[p] for p in timed)

    def per_item_count(key, source=tracer.counts):
        return sum(source[p, key] / items[p] for p in timed)

    def per_setup_ms(name):
        return 1e3 * self_s[SETUP, name] / setup_reps

    rows = sum(tracer.counts[p, "text.rows"] for p in timed)
    real = sum(tracer.counts[p, "text.real_rows"] for p in timed)
    step_p50, step_tail, _, _ = percentile_tail(steps_ms) if steps_ms else (0.0, 0.0, 0, 0)

    out = {
        "datagen.generate_ms": per_setup_ms("datagen.generate"),
        "datagen.jsonl_roundtrip_ms": per_setup_ms("datagen.jsonl"),
        "text.tokenize_ms": per_item_ms("text.tokenize"),
        "text.real_row_share": real / rows if rows else 0.0,
        "graph.attention_mask_ms": per_item_ms("graph.attention_mask"),
        "autodiff.tape_ops": per_item_count("autodiff.tape_ops"),
        "autodiff.matmul_calls": per_item_count("autodiff.matmul_calls"),
        "autodiff.slice_cols_calls": per_item_count("autodiff.slice_cols_calls"),
        "autodiff.concat_calls": per_item_count("autodiff.concat_calls"),
        "autodiff.softmax_masked_calls": per_item_count("autodiff.softmax_masked_calls"),
        "autodiff.matmul_flop": per_item_count("autodiff.matmul_flop"),
        "autodiff.backward_ms": per_item_ms("autodiff.backward"),
        "autodiff.adam_step_ms": per_item_ms("autodiff.adam_step"),
        "model.embed_text_ms": per_item_ms("model.embed_text"),
        "model.embed_nodes_shapes_ms": per_item_ms("model.embed_nodes_shapes"),
        "model.pool_ms": per_item_ms("model.pool"),
        "model.gat_forward_ms": per_item_ms("model.gat_forward"),
        "model.cross_encode.text_ms": per_item_ms("model.cross_encode.text"),
        "model.cross_encode.graph_ms": per_item_ms("model.cross_encode.graph"),
        "model.encode_text_calls": per_item_count("model.encode_text", calls),
        "model.encode_graph_calls": per_item_count("model.encode_graph", calls),
        "model.mam_logits_ms": per_item_ms("model.mam_logits"),
        "model.aqa_logits_ms": per_item_ms("model.aqa_logits"),
        "model.decoder_logits_calls": per_item_count("model.decoder_logits", calls),
        "model.decoder_logits_rows": per_item_count("model.decoder_logits_rows"),
        "model.decoder_logits_ms": per_item_ms("model.decoder_logits"),
        "model.decode_beam_self_ms": per_item_ms("model.decode_beam"),
        "training.loop_self_ms": per_item_ms("training.loop"),
        "training.step_ms_p50": step_p50,
        "training.step_ms_tail": step_tail,
        "evaluate.ar_self_ms": per_item_ms("evaluate.ar"),
        "evaluate.acd_self_ms": per_item_ms("evaluate.acd"),
        "evaluate.bacd_self_ms": per_item_ms("evaluate.bacd"),
        "evaluate.aqa_self_ms": per_item_ms("evaluate.aqa"),
        "evaluate.caption_graph_self_ms": per_item_ms("evaluate.caption_graph"),
        "index.build_self_ms": per_item_ms("index.build"),
        "index.save_ms": per_item_ms("index.save"),
        "index.load_ms": per_item_ms("index.load"),
        "index.search_scan_ms": per_item_ms("index.search"),
        "checkpoint.save_ms": per_setup_ms("checkpoint.save"),
        "checkpoint.load_ms": per_setup_ms("checkpoint.load"),
        "checkpoint.fingerprint_ms": per_setup_ms("checkpoint.fingerprint"),
        "cli.load_bundle_ms": per_setup_ms("cli.load_bundle"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.span_coverage": coverage,
    }
    return out
