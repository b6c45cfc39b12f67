"""Smoke test of the benchmark: its self-test must pass against this tree.

The benchmark calls and wraps archtext functions by name, so a removed or
renamed function shows up here as a failing self-test or a failing
tracer-contract test.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

from archtext.datagen import ACSample, GenConfig, gen_architecture
from archtext.model import Model, ModelConfig
from archtext.text import build_vocab, tokenize
from archtext.training import TrainConfig, finetune_ac

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402  (needs perfbench/ on the path)


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_every_traced_function_exists():
    # the tracer skips a name it cannot find, so a renamed function would
    # silently read 0 in the benchmark's per-layer metrics
    missing = [f"{mod.__name__}.{name}" for _, mod, names in spans.SPANS for name in names
               if not callable(getattr(mod, name, None))]
    assert missing == []


def test_tracer_counts_decoder_rows_of_caption_finetuning(small_ops):
    gcfg = GenConfig(rng_seed=1, ops=small_ops, min_nodes=3, max_nodes=5)
    texts = ["a conv net", "relu then linear layers", "pool", "a small gelu net with pooling"]
    samples = [ACSample(graph=gen_architecture(gcfg, np.random.default_rng([70, i])), text=t)
               for i, t in enumerate(texts)]
    vocab = build_vocab(texts, 32)
    cfg = ModelConfig(node_vocab_size=len(gcfg.node_vocab()), text_vocab_size=len(vocab),
                      d=8, gat_layers=1, gat_heads=2, cross_layers=1, cross_heads=2,
                      dec_heads=2, max_nodes=8, max_tokens=8, n_answers=3, shape_buckets=4)
    model = Model.initialized(cfg, seed=0)
    tracer = spans.Tracer()
    with tracer.installed():
        finetune_ac(samples, model, TrainConfig(task="ac", batch_size=3, epochs=1), vocab)
    rows = sum(n for (_, key), n in tracer.counts.items() if key == "model.decoder_logits_rows")
    # one decoder row per input token: every caption's ids but the last
    want = sum(tokenize(t, vocab, cfg.max_tokens).real_length - 1 for t in texts)
    assert rows == want
