"""Command-line entry point.

Subcommands: gen, stats, train, eval, search, reason, clone, qa, caption,
viz. Every run is reproducible from (config, seed): no hidden state, and
repeated invocations with the same inputs write byte-identical files.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import itertools
import json
import os
import sys
import typing

import numpy as np

from . import datagen, evaluate, index as index_mod, training
from .catalog import answer_catalog
from .checkpoint import checkpoint_fingerprint, load_checkpoint, save_checkpoint
from .datagen import GenConfig
from .fileio import atomic_write
from .graph import NodeVocab, parse_graph, to_dot
from .model import Model, ModelConfig, embed_graphs, embed_texts
from .text import TextVocab, build_vocab, normalize
from .training import TrainConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config file handling

_MODEL_KEYS = {f.name for f in dataclasses.fields(ModelConfig)} - {
    "node_vocab_size", "text_vocab_size"}
_GEN_KEYS = {f.name for f in dataclasses.fields(GenConfig)}
_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)} - {"task"}   # --task sets it


def _coerce(raw: str, typ):
    if typ is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if typ is int:
        return int(raw)
    if typ is float:
        return float(raw)
    # the one other type, a comma-separated list: [gen] ops
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def load_config_file(path: str | None) -> dict[str, dict]:
    """INI-style key=value sections [gen], [model], [train]; unknown keys
    are rejected. A fault is a ValueError naming the path."""
    sections: dict[str, dict] = {"gen": {}, "model": {}, "train": {}}
    if path is None:
        return sections
    parser = configparser.ConfigParser()
    gen_hints = typing.get_type_hints(GenConfig)
    model_hints = typing.get_type_hints(ModelConfig)
    train_hints = typing.get_type_hints(TrainConfig)
    allowed = {"gen": (_GEN_KEYS, gen_hints), "model": (_MODEL_KEYS, model_hints),
               "train": (_TRAIN_KEYS, train_hints)}
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ValueError("config file not found")
        for section in parser.sections():
            if section not in allowed:
                raise ValueError(f"unknown config section [{section}]")
            keys, hints = allowed[section]
            for key, raw in parser.items(section):
                if key not in keys:
                    raise ValueError(f"unknown key {key!r} in section [{section}]")
                try:
                    sections[section][key] = _coerce(raw, hints[key])
                except ValueError as e:
                    raise ValueError(f"[{section}] {key}: {e}") from e
    except (configparser.Error, ValueError) as e:   # these, and text that is not UTF-8
        raise ValueError(f"{path}: {e}") from e
    return sections


_BEAM = 10           # the caption beam width without --beam
_VOCAB_SIZE = 4096   # the fresh text vocabulary's size limit without --vocab-size

_ENCODER_SWITCHES = ("no_cross_encoder", "no_shape", "no_edge")   # read by the encoders
_TRAINING_SWITCHES = ("no_mam", "text_only", "arch_only")         # read by the training loops


_MODEL_RUN = ("checkpoint", *_ENCODER_SWITCHES)
_TRAIN_STEP = ("epochs", "lr", "batch_size", "config", "seed", "tau", "text_only", "arch_only",
               *_ENCODER_SWITCHES)
_PRETRAIN = (*_TRAIN_STEP, "alpha", "no_mam")   # alpha and no_mam weight the masked-node term

# The optional flags each run reads, by subcommand, task and mode (eval: with
# --baseline; train: with --checkpoint). A run refuses any other optional
# flag of its subcommand with exit 1, naming it.
_READS = {
    "eval": {
        ("ar", False): (*_MODEL_RUN, "tau"),
        ("acd", False): (*_MODEL_RUN, "tau"),
        ("bacd", False): (*_MODEL_RUN, "tau"),
        ("aqa", False): _MODEL_RUN,
        ("ac", False): (*_MODEL_RUN, "beam"),
        ("ar", True): ("config",),
        ("acd", True): ("config", "tau"),
    },
    "train": {
        # --vocab-size sizes a fresh text vocabulary; a bundle brings its own
        ("pretrain", False): (*_PRETRAIN, "vocab_size"),
        ("pretrain", True): (*_PRETRAIN, "checkpoint"),
        ("aqa", False): (*_TRAIN_STEP, "vocab_size"),
        ("aqa", True): (*_TRAIN_STEP, "checkpoint"),
        ("ac", False): (*_TRAIN_STEP, "vocab_size"),
        ("ac", True): (*_TRAIN_STEP, "checkpoint"),
    },
}


def _refuse_unread(args, mode: bool) -> None:
    """A UsageError naming the first optional flag given to this run of
    `args.command` that `_READS` says it does not read."""
    table = _READS[args.command]
    reads = table[args.task, mode]
    given = vars(args)
    for flag in dict.fromkeys(f for flags in table.values() for f in flags):
        # by identity: a given 0 equals False
        if flag not in reads and given[flag] is not None and given[flag] is not False:
            line = f"{args.command} --task {args.task}"
            if mode:
                line += " --baseline" if args.command == "eval" else " --checkpoint"
            raise UsageError(f"{line} does not read --{flag.replace('_', '-')}")


def _require_words(flag: str, text: str) -> None:
    """A ValueError naming `flag` when `text` holds no word token: the model
    would score the bare [BOS] [EOS] sequence."""
    if not normalize(text):
        raise ValueError(f"{flag} holds no word tokens: {text!r}")


def _apply_ablations(cfg: ModelConfig, args) -> ModelConfig:
    """`cfg` under the --tau and ablation switches the subcommand takes."""
    given = vars(args)
    updates = {flag: True for flag in _ENCODER_SWITCHES + _TRAINING_SWITCHES if given.get(flag)}
    if given.get("tau") is not None:
        updates["tau"] = given["tau"]
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _emit(text: str, out: str | None) -> None:
    """Write `text` to the file `out` atomically, or to stdout without one."""
    if out:
        with atomic_write(out) as f:
            f.write(text)
    else:
        print(text, end="")


# ---------------------------------------------------------------------------
# checkpoint bundles (directory with model.abkt + vocabularies + config)

CKPT_FILE = "model.abkt"
TEXT_VOCAB_FILE = "text_vocab.txt"
NODE_VOCAB_FILE = "node_vocab.txt"
CONFIG_FILE = "config.json"
LOG_FILE = "loss_log.jsonl"


def _bundle_dir(checkpoint: str) -> str:
    if os.path.isdir(checkpoint):
        return checkpoint
    return os.path.dirname(os.path.abspath(checkpoint))


def save_bundle(out_dir: str, model: Model, text_vocab: TextVocab,
                node_vocab: NodeVocab, log: list[dict]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, CKPT_FILE)
    save_checkpoint(model.params, ckpt_path)
    text_vocab.save(os.path.join(out_dir, TEXT_VOCAB_FILE))
    node_vocab.save(os.path.join(out_dir, NODE_VOCAB_FILE))
    with atomic_write(os.path.join(out_dir, CONFIG_FILE)) as f:
        json.dump(model.cfg.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    with atomic_write(os.path.join(out_dir, LOG_FILE)) as f:
        for rec in log:
            f.write(json.dumps(rec) + "\n")
    return ckpt_path


def _load_model_config(path: str) -> ModelConfig:
    """A bundle's config.json; it must name every ModelConfig field, with a
    value of the field's type and range, and no other key. A fault is a
    ValueError naming the path."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object")
        hints = typing.get_type_hints(ModelConfig)
        for key in sorted(set(raw) - set(hints)):
            raise ValueError(f"unknown key {key!r}")
        for key in sorted(set(hints) - set(raw)):
            raise ValueError(f"missing key {key!r}")
        for key, typ in hints.items():
            value = raw[key]
            # exact types: a JSON true is a bool, never an int or a float
            if type(value) not in ((int, float) if typ is float else (typ,)):
                raise ValueError(f"key {key!r} must be {typ.__name__}, "
                                 f"got {type(value).__name__} {value!r}")
        return ModelConfig(**raw)
    except ValueError as e:   # these, invalid JSON or UTF-8, and ModelConfig's range checks
        raise ValueError(f"{path}: {e}") from e


def load_bundle(checkpoint: str) -> tuple[Model, TextVocab, NodeVocab, str]:
    """Model, vocabularies and checkpoint path of a bundle, checked to agree:
    each vocabulary has the size config.json gives it, and `Model.from_arrays`
    checks the weights against the config's parameter table."""
    bundle = _bundle_dir(checkpoint)
    ckpt_path = os.path.join(bundle, CKPT_FILE)
    for required in (ckpt_path, os.path.join(bundle, CONFIG_FILE)):
        if not os.path.exists(required):
            raise ValueError(f"checkpoint bundle incomplete: missing {required}")
    cfg = _load_model_config(os.path.join(bundle, CONFIG_FILE))
    text_path = os.path.join(bundle, TEXT_VOCAB_FILE)
    node_path = os.path.join(bundle, NODE_VOCAB_FILE)
    text_vocab = TextVocab.load(text_path)
    node_vocab = NodeVocab.load(node_path)
    for path, size, key in ((text_path, len(text_vocab), "text_vocab_size"),
                            (node_path, len(node_vocab), "node_vocab_size")):
        if size != getattr(cfg, key):
            raise ValueError(f"{path}: {size} entries, but {CONFIG_FILE} has "
                             f"{key} = {getattr(cfg, key)}")
    arrays = load_checkpoint(ckpt_path)
    try:
        model = Model.from_arrays(cfg, arrays)
    except ValueError as e:
        raise ValueError(f"{ckpt_path}: {e}") from e
    return model, text_vocab, node_vocab, ckpt_path


def _load_model(args) -> tuple[Model, TextVocab, NodeVocab]:
    """The bundle at --checkpoint, its model config under the run's --tau
    and ablation switches."""
    model, text_vocab, node_vocab, _ = load_bundle(args.checkpoint)
    model.cfg = _apply_ablations(model.cfg, args)
    return model, text_vocab, node_vocab


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    kwargs = load_config_file(args.config)["gen"]
    if args.seed is not None:
        kwargs["rng_seed"] = args.seed
    cfg = GenConfig(**kwargs)
    vocab = cfg.node_vocab()
    n = cfg.n_val_archs if args.split == "val" else cfg.n_train_archs
    task = "tvhf" if args.task == "tvhf-mine" else args.task
    if task == "autonet":
        samples = datagen.gen_autonet(cfg, n, args.split)
    elif task == "aqa":
        samples = datagen.gen_autonet_aqa(cfg, n, args.split)
    elif task == "acd":
        samples = datagen.gen_acd_dataset(cfg)
    elif task == "tvhf":
        samples = datagen.gen_tvhf(cfg)
    else:
        samples = datagen.gen_bacd_dataset(cfg)
    datagen.write_jsonl(samples, vocab, args.out)
    print(f"wrote {len(samples)} records to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    stats = datagen.compute_stats(args.dataset)
    _emit(json.dumps(stats, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_train(args) -> int:
    _refuse_unread(args, bool(args.checkpoint))
    file_cfg = load_config_file(args.config)
    if args.checkpoint:   # the bundle brings its own model config and node vocabulary
        for section in ("model", "gen"):
            if file_cfg[section]:
                raise UsageError(f"train --task {args.task} --checkpoint does not read the "
                                 f"[{section}] section of --config {args.config}")
    train_kwargs = dict(file_cfg["train"], task=args.task)
    given = vars(args)
    for key in ("seed", "epochs", "lr", "batch_size", "alpha"):
        if given[key] is not None:
            train_kwargs[key] = given[key]
    tcfg = TrainConfig(**train_kwargs)

    if args.checkpoint:
        model, text_vocab, node_vocab = _load_model(args)
    else:
        node_vocab = GenConfig(**file_cfg["gen"]).node_vocab()

    if args.task == "aqa":
        samples = datagen.load_aqa(args.dataset, node_vocab)
        corpus = [s.question for s in samples]
    elif args.task == "ac" and args.checkpoint:
        samples = datagen.load_ac(args.dataset, node_vocab)
    else:
        samples = datagen.load_bimodal(args.dataset, node_vocab)
        # a fresh caption vocabulary covers every description, negatives too
        corpus = [s.text for s in samples]
        if args.task == "ac":
            samples = datagen.captions(samples)
    if not args.checkpoint:
        size = _VOCAB_SIZE if args.vocab_size is None else args.vocab_size
        text_vocab = build_vocab(corpus, max_size=size)
        cfg = ModelConfig(node_vocab_size=len(node_vocab),
                          text_vocab_size=len(text_vocab), **file_cfg["model"])
        model = Model.initialized(_apply_ablations(cfg, args), seed=tcfg.seed)

    train = {"pretrain": training.pretrain, "aqa": training.finetune_aqa,
             "ac": training.finetune_ac}[args.task]
    log = train(samples, model, tcfg, text_vocab)

    ckpt_path = save_bundle(args.out, model, text_vocab, node_vocab, log)
    print(f"checkpoint written to {ckpt_path} ({len(log)} steps)")
    return 0


_LOADERS = {"ar": datagen.load_bimodal, "acd": datagen.load_acd, "bacd": datagen.load_bacd,
            "aqa": datagen.load_aqa, "ac": datagen.load_ac}


def _cmd_eval(args) -> int:
    if not args.baseline and not args.checkpoint:
        raise UsageError("--checkpoint is required for model evaluation")
    if args.baseline and (args.task, True) not in _READS["eval"]:
        raise UsageError(f"eval --task {args.task} has no --baseline")
    _refuse_unread(args, args.baseline)
    if args.baseline:
        node_vocab = GenConfig(**load_config_file(args.config)["gen"]).node_vocab()
        tau = args.tau if args.tau is not None else 0.5
        runners = {"ar": evaluate.run_ar_baseline,
                   "acd": lambda pairs: evaluate.run_acd_baseline(pairs, tau, node_vocab)}
    else:
        model, text_vocab, node_vocab = _load_model(args)
        tau = model.cfg.tau   # the bundle's, or --tau as _load_model applied it
        beam = _BEAM if args.beam is None else args.beam
        runners = {"ar": lambda samples: evaluate.run_ar(model, samples, tau, text_vocab),
                   "acd": lambda samples: evaluate.run_acd(model, samples, tau),
                   "bacd": lambda samples: evaluate.run_bacd(model, samples, tau, text_vocab),
                   "aqa": lambda samples: evaluate.run_aqa(model, samples, text_vocab),
                   "ac": lambda samples: evaluate.run_ac(model, samples, text_vocab, beam=beam)}
    metrics = runners[args.task](_LOADERS[args.task](args.dataset, node_vocab))
    result = {"task": args.task, "model": "baseline" if args.baseline else "archtext",
              **metrics.to_dict()}
    _emit(json.dumps(result, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _first_samples(samples) -> dict[str, int]:
    """Each graph id of a bi-modal dataset and the first sample that shows it.

    A named graph goes by its name. Equal unnamed graphs share one id,
    `arch{n:05d}` numbered in order of first appearance, skipping every name
    the dataset uses, so a generated id never shadows a named graph.
    """
    names = {s.graph.name for s in samples if s.graph.name}
    fresh = (f"arch{n:05d}" for n in itertools.count() if f"arch{n:05d}" not in names)
    generated: dict = {}   # unnamed graph -> its id
    first: dict[str, int] = {}
    for i, s in enumerate(samples):
        if not s.graph.name and s.graph not in generated:
            generated[s.graph] = next(fresh)
        first.setdefault(s.graph.name or generated[s.graph], i)
    return first


def _cmd_search(args) -> int:
    if args.action == "query":
        _require_words("--query", args.query)
    model, text_vocab, node_vocab, ckpt_path = load_bundle(args.checkpoint)
    fingerprint = checkpoint_fingerprint(ckpt_path)
    if args.action == "build":
        samples = datagen.load_bimodal(args.dataset, node_vocab)
        graphs = [(gid, samples[i].graph) for gid, i in _first_samples(samples).items()]
        idx = index_mod.build_index(model, graphs, fingerprint)
        index_mod.save_index(idx, args.out)
        print(f"indexed {len(idx.ids)} architectures into {args.out}")
        return 0
    idx = index_mod.load_index(args.index)
    hits = index_mod.search(idx, args.query, model, args.k, text_vocab, fingerprint)
    print(json.dumps([{"id": i, "score": s} for i, s in hits], indent=2))
    return 0


def _load_graph_file(path: str, node_vocab: NodeVocab):
    """A graph JSON file; a fault is a ValueError naming the path."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse_graph(f.read(), node_vocab)
    except ValueError as e:   # bad JSON, bad graph or text that is not UTF-8
        raise ValueError(f"{path}: {e}") from e


def _cmd_reason(args) -> int:
    _require_words("--text", args.text)
    model, text_vocab, node_vocab = _load_model(args)
    g = _load_graph_file(args.graph, node_vocab)
    score = float(evaluate.ar_scores(model, [args.text], [g], text_vocab)[0])
    correct = evaluate.threshold_decision(score, model.cfg.tau)
    print(json.dumps({"score": score, "verdict": "correct" if correct else "incorrect"},
                     indent=2))
    return 0


def _cmd_clone(args) -> int:
    if args.text is not None:
        _require_words("--text", args.text)
    model, text_vocab, node_vocab = _load_model(args)
    g1 = _load_graph_file(args.g1, node_vocab)
    g2 = _load_graph_file(args.g2, node_vocab)
    if args.text is not None:
        scores = evaluate.bacd_scores(model, [g1], [g2], [args.text], text_vocab)
    else:
        scores = evaluate.acd_scores(model, [g1], [g2])
    score = float(scores[0])
    similar = evaluate.threshold_decision(score, model.cfg.tau)
    print(json.dumps({"score": score, "verdict": "similar" if similar else "dissimilar"},
                     indent=2))
    return 0


def _cmd_qa(args) -> int:
    _require_words("--question", args.question)
    model, text_vocab, node_vocab = _load_model(args)
    g = _load_graph_file(args.graph, node_vocab)
    answers = answer_catalog()
    probs = evaluate.answer_probs(model, [args.question], [g], text_vocab)[0]
    probs = probs[:len(answers.answers)]   # the slots both the head and the catalog have
    chosen = np.flatnonzero(evaluate.threshold_decision(probs, evaluate.QA_THRESHOLD))
    if not len(chosen):
        chosen = [np.argmax(probs)]
    print(json.dumps({"answers": [{"id": int(i), "text": answers.text_of(i),
                                   "prob": float(probs[i])} for i in chosen]}, indent=2))
    return 0


def _cmd_caption(args) -> int:
    model, text_vocab, node_vocab = _load_model(args)
    g = _load_graph_file(args.graph, node_vocab)
    text = evaluate.caption_graph(model, g, text_vocab, beam=args.beam)
    print(json.dumps({"caption": text}, indent=2))
    return 0


def _cmd_viz(args) -> int:
    if args.kind == "dot":
        node_vocab = GenConfig(**load_config_file(args.config)["gen"]).node_vocab()
        _emit(to_dot(_load_graph_file(args.graph, node_vocab), node_vocab), args.out)
        return 0
    # PCA of text and graph embeddings over a bi-modal dataset
    model, text_vocab, node_vocab = _load_model(args)
    samples = datagen.load_bimodal(args.dataset, node_vocab)
    j_ts = embed_texts([s.text for s in samples], model, text_vocab)
    first = _first_samples(samples)
    j_gs = embed_graphs([samples[i].graph for i in first.values()], model)
    arch_at = {i: (gid, j_g) for (gid, i), j_g in zip(first.items(), j_gs)}
    labels, vectors = [], []
    for i, s in enumerate(samples):
        labels.append(f"text:{i}:y={s.y:g}")
        vectors.append(j_ts[i])
        if i in arch_at:
            labels.append(f"arch:{arch_at[i][0]}")
            vectors.append(arch_at[i][1])
    coords = evaluate.pca_project(np.stack(vectors), k=2)
    lines = ["label,x,y"]
    for label, row in zip(labels, coords):
        x = row[0]
        y = row[1] if coords.shape[1] > 1 else 0.0
        lines.append(f"{label},{x:.8f},{y:.8f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _positive_int(raw: str) -> int:
    """An argument type: a whole number of at least 1."""
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")


def _add_config(p: argparse.ArgumentParser, seed: bool) -> None:
    """--config, and --seed for the subcommands that draw random numbers."""
    p.add_argument("--config", default=None, help="INI config file (default: none)")
    if seed:
        p.add_argument("--seed", type=int, default=None,
                       help="master RNG seed (default: config value)")


def _add_model_switches(p: argparse.ArgumentParser, tau: bool,
                        switches: tuple[str, ...] = _ENCODER_SWITCHES) -> None:
    """Ablation switches, for subcommands that run a model, and --tau for
    those that decide at a threshold."""
    if tau:
        p.add_argument("--tau", type=float, default=None,
                       help="decision threshold (default: the bundle's tau; 0.5 for a fresh "
                            "model or --baseline)")
    sides = p.add_mutually_exclusive_group()   # a run trains one side, or both
    for flag in switches:
        group = sides if flag in ("text_only", "arch_only") else p
        group.add_argument(f"--{flag.replace('_', '-')}", action="store_true",
                           dest=flag, help=f"ablation switch {flag} (default off)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="archtext",
                     description="architecture-language joint learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset")
    p.add_argument("--task", required=True,
                   choices=["autonet", "aqa", "acd", "tvhf", "tvhf-mine", "bacd"])
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--split", default="train", choices=["train", "val"],
                   help="which split size to use (default train)")
    _add_config(p, seed=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("dataset", help="JSONL dataset path")
    p.add_argument("--out", default=None, help="write JSON here (default: stdout)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("train", help="train or fine-tune")
    p.add_argument("--task", required=True, choices=["pretrain", "aqa", "ac"])
    p.add_argument("--dataset", required=True, help="training JSONL")
    p.add_argument("--out", required=True, help="output checkpoint directory")
    p.add_argument("--checkpoint", default=None, help="initialize from this bundle (default: fresh init)")
    p.add_argument("--epochs", type=int, default=None, help="training epochs (default 10)")
    p.add_argument("--lr", type=float, default=None, help="Adam learning rate (default 2e-5)")
    p.add_argument("--batch-size", type=int, default=None, help="batch size (default 8)")
    p.add_argument("--vocab-size", type=int, default=None,
                   help=f"max text vocabulary size when built fresh (default {_VOCAB_SIZE})")
    p.add_argument("--alpha", type=float, default=None,
                   help="masked-node loss weight (default 0.05)")
    _add_config(p, seed=True)
    _add_model_switches(p, tau=True, switches=_ENCODER_SWITCHES + _TRAINING_SWITCHES)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="run a task over a dataset")
    p.add_argument("--task", required=True, choices=["ar", "acd", "bacd", "aqa", "ac"])
    p.add_argument("--dataset", required=True, help="evaluation JSONL")
    p.add_argument("--checkpoint", default=None, help="checkpoint bundle (default: none; required unless --baseline)")
    p.add_argument("--baseline", action="store_true",
                   help="use the uni-modal baseline instead of the model (default off)")
    p.add_argument("--beam", type=_positive_int, default=None,
                   help=f"beam width for captioning (default {_BEAM})")
    p.add_argument("--out", default=None, help="write metrics JSON here (default: stdout)")
    _add_config(p, seed=False)
    _add_model_switches(p, tau=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("search", help="build or query the retrieval index")
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("build", help="index the graphs of a bi-modal dataset")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--dataset", required=True, help="bi-modal JSONL")
    a.add_argument("--out", required=True, help="index output path")
    a = actions.add_parser("query", help="rank the indexed graphs against a text")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--index", required=True, help="index file")
    a.add_argument("--query", required=True, help="text query")
    a.add_argument("--k", type=_positive_int, default=5, help="results to return (default 5)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("reason", help="score one statement against one graph")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--text", required=True, help="statement")
    _add_model_switches(p, tau=True)
    p.set_defaults(func=_cmd_reason)

    p = sub.add_parser("clone", help="compare two graphs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--g1", required=True, help="first graph JSON file")
    p.add_argument("--g2", required=True, help="second graph JSON file")
    p.add_argument("--text", default=None, help="optional supporting text (default: none)")
    _add_model_switches(p, tau=True)
    p.set_defaults(func=_cmd_clone)

    p = sub.add_parser("qa", help="answer one question about one graph")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--question", required=True)
    _add_model_switches(p, tau=False)
    p.set_defaults(func=_cmd_qa)

    p = sub.add_parser("caption", help="generate a caption for one graph")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--beam", type=_positive_int, default=_BEAM,
                   help=f"beam width (default {_BEAM})")
    _add_model_switches(p, tau=False)
    p.set_defaults(func=_cmd_caption)

    p = sub.add_parser("viz", help="export PCA CSV or DOT text")
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("pca", help="PCA of a bi-modal dataset's embeddings as CSV")
    k.add_argument("--checkpoint", required=True)
    k.add_argument("--dataset", required=True, help="bi-modal JSONL")
    k.add_argument("--out", default=None, help="output path (default: stdout)")
    _add_model_switches(k, tau=False)
    k = kinds.add_parser("dot", help="one graph as DOT text")
    k.add_argument("--graph", required=True, help="graph JSON file")
    k.add_argument("--out", default=None, help="output path (default: stdout)")
    _add_config(k, seed=False)
    p.set_defaults(func=_cmd_viz)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as e:   # the format errors are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
