"""Batch command-line frontend: prepare | train | eval | analyze | synth.

One JSON config document drives a run; flags override config values. All
outputs are deterministic for a fixed config and seed - timestamps appear
only in the log file. Subcommands raise; ``main`` alone maps an exception to
a message on stderr and an exit code: 0 success, 2 input error, 3 training
failure, 4 checkpoint error, 5 analysis input error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import inspect
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import corpus as cor
from . import encoders as enc
from . import optim as opt
from .model import (
    BaselineMLP,
    CheckpointError,
    UttAttBiRNN,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import array_values, atomic_text, params_from_json, params_to_json, write_json_file

log = logging.getLogger("ctxda")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRAINING = 3
EXIT_CHECKPOINT = 4
EXIT_ANALYSIS = 5


def _defaults(fn, *skip: str) -> dict:
    """The keyword defaults of ``fn``'s signature (a class: its constructor's),
    less the parameters named in ``skip``."""
    return {p.name: p.default for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty and p.name not in skip}


def _synthetic_specs(seed: int, test_conversations: int = 10, **spec):
    """The train and test ``SyntheticSpec`` of one config: the test split is
    drawn from its own seed with ``test_conversations`` conversations."""
    return (cor.SyntheticSpec(seed=seed, **spec),
            cor.SyntheticSpec(**{**spec, "n_conversations": test_conversations},
                              seed=seed + 10_000))


# model.<key> -> the train_char_lm parameter it sets
_CHAR_LM = {"char_hidden_dim": "hidden_dim", "char_lm_epochs": "epochs",
            "char_lm_lr": "learning_rate", "char_max_chars": "max_chars"}
_WC_DEFAULTS = _defaults(UttAttBiRNN, "n_context", "seed")  # model.<key>
_NC_KEYS = ("hidden1", "hidden2")  # model.baseline_<key>

# The defaults of every setting a signature consumes are read off that
# signature; a round trip through JSON makes them what a config file holds.
DEFAULT_CONFIG = json.loads(json.dumps({
    "seed": 0,
    "out_dir": "runs/out",
    "paths": {
        "raw_train": None,
        "raw_test": None,
        "corpus_dir": None,  # defaults to <out_dir>/corpus
        "embeddings": None,
        "features": [],      # precomputed per-utterance feature files
    },
    "encoder": "word",
    "model": {
        **_WC_DEFAULTS,
        **{f"baseline_{key}": _defaults(BaselineMLP)[key] for key in _NC_KEYS},
        **{key: _defaults(enc.train_char_lm)[name] for key, name in _CHAR_LM.items()},
        "char_reduce": _defaults(enc.CharMLSTMEncoder)["reduce"],
    },
    "train": _defaults(opt.TrainConfig, "seed", "track_train_accuracy"),
    "swda": _defaults(cor.load_swda_csv),
    "synthetic": {**_defaults(cor.SyntheticSpec, "seed"),
                  **_defaults(_synthetic_specs)},
    "analysis": {
        "short_max_tokens": 3,
        "svg": True,
    },
}))


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


# The JSON type a leaf whose default is null holds when it is set.
_NULLABLE = {"paths.raw_train": str, "paths.raw_test": str, "paths.corpus_dir": str,
             "paths.embeddings": str, "swda.tag_map": str,
             "model.attention_dim": int, "synthetic.transition": dict}
_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list of strings", dict: "an object"}


def _check_leaf(dotted: str, default, value) -> None:
    """Refuse ``value`` unless it has ``default``'s JSON type, an integer
    passing for a number; a leaf whose default is null also takes null.
    Every list in the config holds strings."""
    want = type(default) if default is not None else _NULLABLE[dotted]
    ok = type(value) is want or (want is float and type(value) is int)
    if ok and want is list:
        ok = all(type(item) is str for item in value)
    if not ok and not (value is None and default is None):
        null = " or null" if default is None else ""
        raise CliError(f"config key {dotted!r} must be {_JSON_TYPES[want]}{null}, "
                       f"got {json.dumps(value)}")


def _merged(base: dict, user: dict, prefix: str = "") -> dict:
    """``base`` with ``user``'s values in place of its own. A key ``base``
    lacks, a section given as anything but an object, or a value of the
    wrong type (see ``_check_leaf``) is refused."""
    out = copy.deepcopy(base)
    for key, value in user.items():
        dotted = prefix + key
        if key not in base:
            raise CliError(f"unknown config key {dotted!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise CliError(f"config section {dotted!r} must be a JSON object")
            value = _merged(base[key], value, dotted + ".")
        else:
            _check_leaf(dotted, base[key], value)
        out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(user, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return _merged(DEFAULT_CONFIG, user)


def _setup_logging(out_dir: Path) -> None:
    """Log to stderr and to ``<out_dir>/run.log``, creating ``out_dir``: every
    subcommand writes its outputs there."""
    level = os.environ.get("CTXDA_LOG", "warning").upper()
    out_dir.mkdir(parents=True, exist_ok=True)
    handlers = [logging.StreamHandler(sys.stderr), logging.FileHandler(out_dir / "run.log")]
    handlers[0].setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    # timestamps live here and only here
    handlers[1].setFormatter(
        logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
    )
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING), handlers=handlers, force=True
    )


def _corpus_dir(cfg: dict) -> Path:
    explicit = cfg["paths"].get("corpus_dir")
    return Path(explicit) if explicit else Path(cfg["out_dir"]) / "corpus"


def _load_corpus_any(path_str: str, cfg: dict):
    path = Path(path_str)
    if not path.exists():
        raise CliError(f"corpus path does not exist: {path}")
    if path.is_dir():
        swda = cfg["swda"]
        tag_map = cor.load_tag_map(swda["tag_map"]) if swda["tag_map"] else None
        return cor.load_swda_csv(path, **{**swda, "tag_map": tag_map})
    return cor.load_jsonl(path)


def _load_prepared(cfg: dict):
    corpus_dir = _corpus_dir(cfg)
    train_path = corpus_dir / "train.jsonl"
    test_path = corpus_dir / "test.jsonl"
    tags_path = corpus_dir / "tags.txt"
    for p in (train_path, test_path, tags_path):
        if not p.exists():
            raise CliError(f"prepared corpus artifact missing: {p} (run prepare or synth)")
    splits = [cor.load_jsonl(train_path), cor.load_jsonl(test_path)]
    vocab = cor.TagVocabulary.load(tags_path)
    for path, convs in zip((train_path, test_path), splits):
        if not convs:
            raise CliError(f"prepared corpus split is empty: {path}")
        vocab.check(path, convs)
    return (*splits, vocab)


def _write_prepared(cfg: dict, train_convs, test_convs, table=None):
    """Write the prepared corpus where ``_load_prepared`` reads it, as one set:
    remove every file derived from the corpus held before, then write the
    splits, the corpus's rows of the word table ``table`` (if given), and
    ``tags.txt`` last, so that a set cut short is refused. Returns
    (corpus_dir, vocabulary, embedding rows written)."""
    corpus_dir = _corpus_dir(cfg)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for pattern in ("char_lm-*.json", "embeddings.txt", "synth_summary.json", "tags.txt"):
        for derived in corpus_dir.glob(pattern):
            derived.unlink()
    cor.write_jsonl(corpus_dir / "train.jsonl", train_convs)
    cor.write_jsonl(corpus_dir / "test.jsonl", test_convs)
    cached = 0
    if table is not None:
        with atomic_text(corpus_dir / "embeddings.txt") as fh:
            for tok in _corpus_tokens(train_convs + test_convs):
                vec = table.lookup(tok)
                if vec is not None:
                    fh.write(tok + " " + " ".join(repr(float(v)) for v in vec) + "\n")
                    cached += 1
    vocab = cor.TagVocabulary.from_conversations(train_convs + test_convs)
    vocab.save(corpus_dir / "tags.txt")
    return corpus_dir, vocab, cached


def _corpus_tokens(convs) -> list[str]:
    """The sorted token vocabulary of ``convs``."""
    return sorted({tok for conv in convs for u in conv.utterances
                   for tok in enc.tokenize(u.text)})


def _char_lm(cfg: dict, train_convs, vocab: enc.CharVocab) -> enc.MLSTMParams:
    """The character LM of the prepared corpus for this seed and these LM
    settings: read from its cache file in the corpus directory, or fitted
    and cached there. A cache file that does not hold what its name says
    raises CheckpointError; it is never retrained over."""
    settings = {name: cfg["model"][key] for key, name in _CHAR_LM.items()}
    corpus_dir = _corpus_dir(cfg)
    # everything train_char_lm's result depends on
    key = {"seed": cfg["seed"], **settings, "chars": vocab.chars, "train_sha256":
           hashlib.sha256((corpus_dir / "train.jsonl").read_bytes()).hexdigest()}
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    path = corpus_dir / f"char_lm-{digest[:16]}.json"
    if not path.exists():
        texts = [u.text for conv in train_convs for u in conv.utterances]
        log.info("training character LM (hidden=%d, epochs=%d)",
                 settings["hidden_dim"], settings["epochs"])
        params, losses = enc.train_char_lm(texts, vocab, seed=cfg["seed"], **settings)
        log.info("char LM losses per epoch: %s", ["%.4f" % x for x in losses])
        try:  # the cache only saves the next run its training: a failed write is skipped
            write_json_file(path, {"key": key, "weights": params_to_json(params)})
        except OSError as exc:
            log.warning("character LM not cached at %s: %s", path, exc)
        return params
    log.info("reusing character LM %s", path)
    params = enc.MLSTMParams(vocab.size, settings["hidden_dim"])
    try:
        stored = json.loads(path.read_text(encoding="utf-8"), object_hook=array_values)
        if stored["key"] != key:
            raise CheckpointError("its stored key is not this run's")
        params_from_json(params, stored["weights"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"character LM cache {path} is unusable: {exc} "
                              f"(delete it to retrain)") from exc
    return params


def _build_encoder(cfg: dict, train_convs, test_convs):
    choice = cfg["encoder"]
    mcfg = cfg["model"]

    def word_encoder():
        cache = _corpus_dir(cfg) / "embeddings.txt"
        path = cache if cache.exists() else cfg["paths"]["embeddings"]
        if path:
            if not Path(path).exists():
                raise CliError(f"embeddings file does not exist: {path}")
            return enc.WordMeanEncoder.from_file(path)
        # closed-vocabulary fallback (synthetic corpora): indicator vectors
        vocab = _corpus_tokens(train_convs + test_convs)
        return enc.WordMeanEncoder(enc.EmbeddingTable.one_hot(vocab),
                                   {"kind": "onehot", "vocabulary": vocab})

    def char_encoder():
        if mcfg["char_reduce"] not in enc.REDUCE_MODES:  # refused before the LM is cached
            raise CliError(f"unknown reduce mode {mcfg['char_reduce']!r}")
        vocab = enc.CharVocab()
        params = _char_lm(cfg, train_convs, vocab)
        return enc.CharMLSTMEncoder(params, vocab, reduce=mcfg["char_reduce"])

    if choice == "word":
        return word_encoder()
    if choice == "char":
        return char_encoder()
    if choice == "concat":
        return enc.ConcatEncoder(char_encoder(), word_encoder())
    if choice == "precomputed":
        paths = cfg["paths"].get("features") or []
        if not paths:
            raise CliError("encoder 'precomputed' needs paths.features in the config")
        for p in paths:
            if not Path(p).exists():
                raise CliError(f"feature file does not exist: {p}")
        return enc.PrecomputedEncoder.from_files(paths)
    raise CliError(f"unknown encoder {choice!r}")


# --- subcommands --------------------------------------------------------------


def cmd_synth(cfg: dict) -> int:
    train_spec, test_spec = _synthetic_specs(cfg["seed"], **cfg["synthetic"])
    train_convs = cor.generate_synthetic(train_spec)
    test_convs = cor.generate_synthetic(test_spec)
    if not train_convs or not test_convs:
        raise CliError("synthetic spec produced an empty corpus")
    corpus_dir, vocab, _ = _write_prepared(cfg, train_convs, test_convs)
    summary = {
        "mode": train_spec.mode,
        "n_classes": train_spec.n_classes,
        "train_conversations": len(train_convs),
        "train_utterances": sum(len(c) for c in train_convs),
        "test_conversations": len(test_convs),
        "test_utterances": sum(len(c) for c in test_convs),
        "tags": vocab.tags,
        "bayes_nocontext_accuracy": cor.bayes_nocontext_accuracy(test_spec),
    }
    write_json_file(corpus_dir / "synth_summary.json", summary)
    print(
        f"synthetic corpus: {summary['train_conversations']} train / "
        f"{summary['test_conversations']} test conversations, "
        f"{len(vocab)} tags, mode={train_spec.mode}, "
        f"bayes-nc={summary['bayes_nocontext_accuracy']:.4f}"
    )
    return EXIT_OK


def cmd_prepare(cfg: dict) -> int:
    raw_train = cfg["paths"].get("raw_train")
    raw_test = cfg["paths"].get("raw_test")
    if not raw_train or not raw_test:
        raise CliError("prepare needs paths.raw_train and paths.raw_test")
    train_convs = _load_corpus_any(raw_train, cfg)
    test_convs = _load_corpus_any(raw_test, cfg)
    if not train_convs or not test_convs:
        raise CliError("prepare loaded an empty corpus")
    emb_path = cfg["paths"].get("embeddings")
    if emb_path and not Path(emb_path).exists():
        raise CliError(f"embeddings file does not exist: {emb_path}")
    table = enc.load_embeddings(emb_path) if emb_path else None  # checked before any write
    _, vocab, cached = _write_prepared(cfg, train_convs, test_convs, table)

    n_train_utts = sum(len(c) for c in train_convs)
    n_test_utts = sum(len(c) for c in test_convs)
    print(
        f"prepared corpus: {len(train_convs)} train conversations "
        f"({n_train_utts} utterances), {len(test_convs)} test conversations "
        f"({n_test_utts} utterances), {len(vocab)} tags"
        + (f", {cached} cached embeddings" if emb_path else "")
    )
    return EXIT_OK


def cmd_train(cfg: dict, model_name: str) -> int:
    train_convs, test_convs, vocab = _load_prepared(cfg)
    tcfg = opt.TrainConfig(seed=cfg["seed"], **cfg["train"])  # refused before the LM is cached
    encoder = _build_encoder(cfg, train_convs, test_convs)
    windows = cor.build_all_windows(train_convs, tcfg.n_context, encoder, vocab)
    mcfg = cfg["model"]
    if model_name == "baseline":
        kwargs = {key: mcfg[f"baseline_{key}"] for key in _NC_KEYS}
        model = BaselineMLP(encoder.dim, len(vocab), seed=cfg["seed"], **kwargs)
    else:
        kwargs = {key: mcfg[key] for key in _WC_DEFAULTS}
        model = UttAttBiRNN(encoder.dim, len(vocab), n_context=tcfg.n_context,
                            seed=cfg["seed"], **kwargs)
    log.info("training %s on %d windows (%d tags)", model_name, len(windows), len(vocab))
    result = opt.train(model, windows, tcfg)

    out_dir = Path(cfg["out_dir"])
    ckpt_path = out_dir / f"{model_name}_{cfg['encoder']}.ckpt.json"
    try:
        save_checkpoint(
            ckpt_path, model, enc.encoder_to_config(encoder), vocab.tags, cfg["seed"]
        )
    except ValueError as exc:  # a non-finite weight, which no checkpoint may hold
        raise opt.TrainingDiverged(f"checkpoint {ckpt_path} not written: {exc}") from exc
    history_path = out_dir / f"{model_name}_{cfg['encoder']}_history.csv"
    opt.write_history_csv(history_path, result.history)
    print(
        f"trained {model_name} ({cfg['encoder']}): best val accuracy "
        f"{result.best_val_accuracy:.2f}% at epoch {result.best_epoch} "
        f"of {len(result.history)}; checkpoint {ckpt_path}"
    )
    return EXIT_OK


def _load_model_group(paths: list[str], kind: str):
    group = []
    for path in paths:
        model, meta = load_checkpoint(path)
        if model.kind != kind:
            raise CheckpointError(f"{path}: expected a {kind} checkpoint, got {model.kind}")
        group.append((Path(path).name, model, meta))
    return group


def cmd_eval(cfg: dict, nc_paths: list[str], wc_paths: list[str]) -> int:
    _, test_convs, _ = _load_prepared(cfg)
    nc_group = _load_model_group(nc_paths, BaselineMLP.kind)
    wc_group = _load_model_group(wc_paths, UttAttBiRNN.kind)
    tags = nc_group[0][2]["tags"]
    for name, _, meta in nc_group + wc_group:
        if meta["tags"] != tags:
            raise CheckpointError(f"tag vocabulary mismatch between checkpoints ({name})")
    n_contexts = {model.n_context for _, model, _ in wc_group}
    if len(n_contexts) > 1:
        raise CheckpointError(f"WC checkpoints disagree on n_context: {sorted(n_contexts)}")
    vocab = cor.TagVocabulary(tags)
    vocab.check(_corpus_dir(cfg) / "test.jsonl", test_convs)  # a corpus fault, not the checkpoints'
    (n_context,) = n_contexts  # windows as the WC models were trained on

    # windows are built once per distinct encoder configuration; configurations
    # are compared as they are, weight arrays by exact value, since serializing
    # a character encoder's weights to key on them costs more than comparing
    window_cache: list[tuple[dict, list]] = []

    def same(cached, config) -> bool:
        if isinstance(cached, dict) and isinstance(config, dict):
            return cached.keys() == config.keys() and all(same(cached[k], config[k]) for k in cached)
        return np.array_equal(cached, config) if isinstance(cached, np.ndarray) else cached == config

    def windows_for(meta) -> list:
        for config, windows in window_cache:
            if same(config, meta["encoder"]):
                return windows
        encoder = enc.encoder_from_config(meta["encoder"])
        windows = cor.build_all_windows(test_convs, n_context, encoder, vocab)
        window_cache.append((meta["encoder"], windows))
        return windows

    def predictions(group):
        return [(name, model.predict(windows_for(meta))) for name, model, meta in group]

    try:
        nc_preds = predictions(nc_group)
        wc_preds = predictions(wc_group)
    except (OSError, ValueError, KeyError) as exc:  # a stored encoder, or its predictions
        raise CheckpointError(str(exc)) from exc

    windows = windows_for(nc_group[0][2])
    labels = np.array([w.label for w in windows])
    nc_probs = ana.ensemble_average([pred.probs for _, pred in nc_preds])
    wc_probs = ana.ensemble_average([pred.probs for _, pred in wc_preds])
    profiles = [pred.attention for _, pred in wc_preds if pred.attention is not None]
    attention = ana.ensemble_average(profiles) if profiles else None
    nc_top, wc_top = nc_probs.argmax(axis=1), wc_probs.argmax(axis=1)
    records = [
        ana.EvalRecord(
            conversation_id=w.conversation_id,
            utterance_index=w.index,
            gold=vocab.tag_of(w.label),
            nc_pred=vocab.tag_of(nc_top[i]),
            wc_pred=vocab.tag_of(wc_top[i]),
            nc_probs=nc_probs[i].tolist(),
            wc_probs=wc_probs[i].tolist(),
            attention=None if attention is None else attention[i].tolist(),
            n_tokens=w.n_tokens,
        )
        for i, w in enumerate(windows)
    ]

    out_dir = Path(cfg["out_dir"])
    records_path = out_dir / "eval_records.jsonl"
    ana.write_records(records_path, records)

    groups = (("NC", nc_preds, nc_probs), ("WC", wc_preds, wc_probs))
    rows = [(f"{kind} {name}", pred.probs) for kind, preds, _ in groups for name, pred in preds]
    rows += [(f"{kind} ensemble", probs) for kind, preds, probs in groups if len(preds) > 1]
    for name, probs in rows:
        hits = np.count_nonzero(probs.argmax(axis=1) == labels)
        print(f"{name}: {100.0 * hits / len(windows):.2f}%")
    print(f"records: {records_path} ({len(records)} utterances)")
    return EXIT_OK


def cmd_analyze(cfg: dict, record_paths: list[str], runs: int | None) -> int:
    max_tokens = cfg["analysis"]["short_max_tokens"]
    if max_tokens < 0:
        raise CliError(f"analysis.short_max_tokens must be at least 0, got {max_tokens}")
    try:
        record_sets = [ana.load_records(p) for p in record_paths]
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load records: {exc}", EXIT_ANALYSIS) from exc
    # every check before the first write: no output at all from a bad input
    try:
        if any(not rs for rs in record_sets):
            raise ValueError("empty records file")
        if runs is not None and runs != len(record_sets):
            raise ValueError(f"--runs {runs} expects {runs} record files, "
                             f"got {len(record_sets)}")
        records = record_sets[0]
        short = ana.short_utterance_slice(records, max_tokens)
        multi = (ana.attention_profile_mean([], runs=record_sets)
                 if len(record_sets) > 1 else None)
    except ValueError as exc:
        raise CliError(f"analysis input error: {exc}", EXIT_ANALYSIS) from exc
    out_dir = Path(cfg["out_dir"])

    acc = ana.accuracy(records)
    ana.write_pair_csv(out_dir / "failure_pairs.csv", ana.failure_pairs(records))
    rescue = ana.rescue_pairs(records)
    ana.write_pair_csv(out_dir / "rescue_pairs.csv", rescue.rows)
    stats = ana.confidence_stats(records)
    write_json_file(out_dir / "confidence.json", vars(stats))

    slots = [f"a{k}" for k in range(len(short.full_mean))]
    with atomic_text(out_dir / "attention_profile.csv") as fh:
        fh.write(",".join(["slot", *slots]) + "\n")
        fh.write("mean," + ",".join(repr(float(v)) for v in short.full_mean) + "\n")
        if multi is not None:
            fh.write("mean_over_runs," + ",".join(repr(float(v)) for v in multi) + "\n")

    write_json_file(out_dir / "short_utterance_profile.json", vars(short))

    charts = {}
    if cfg["analysis"]["svg"]:
        charts["attention_profile.svg"] = ana.svg_bar_chart(
            short.full_mean, slots, title="mean attention per slot")
        if multi is not None:
            charts["attention_profile_runs.svg"] = ana.svg_bar_chart(
                multi, slots, title=f"mean attention over {len(record_sets)} runs")
        charts["confidence.svg"] = ana.svg_confidence_chart(stats.series, batch=30)
    for name in ("attention_profile.svg", "attention_profile_runs.svg", "confidence.svg"):
        if name in charts:
            with atomic_text(out_dir / name) as fh:
                fh.write(charts[name])
        else:  # a chart this run does not draw is no output of it
            (out_dir / name).unlink(missing_ok=True)

    print(f"accuracy: NC {acc['nc']:.2f}% WC {acc['wc']:.2f}%")
    print(
        f"rescued by context: {rescue.total_rescued} samples "
        f"({rescue.pct_rescued:.2f}%)"
    )
    print(f"confidence: NC mean {stats.nc_mean:.4f} WC mean {stats.wc_mean:.4f}")
    print("attention profile (current first): "
          + " ".join(f"{v:.4f}" for v in short.full_mean))
    if multi is not None:
        print(f"attention profile over {len(record_sets)} runs: "
              + " ".join(f"{v:.4f}" for v in multi))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxda",
        description="Context-window dialogue act classification pipeline",
    )
    parser.add_argument("--config", help="JSON config file (defaults merged in)")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", help="override config out_dir")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="generate the synthetic corpus")
    sub.add_parser("prepare", help="convert a raw corpus to canonical JSONL")

    p_train = sub.add_parser("train", help="train one model")
    p_train.add_argument("--model", choices=["baseline", "uttattbirnn"], required=True)
    p_train.add_argument("--encoder", choices=["word", "char", "concat", "precomputed"])

    p_eval = sub.add_parser("eval", help="run NC and WC checkpoints on the test set")
    p_eval.add_argument("--nc", nargs="+", required=True, metavar="CKPT",
                        help="baseline checkpoint(s); several form an ensemble")
    p_eval.add_argument("--wc", nargs="+", required=True, metavar="CKPT",
                        help="context checkpoint(s); several form an ensemble")

    p_an = sub.add_parser("analyze", help="tables, confidence, attention profiles")
    p_an.add_argument("--records", nargs="+", required=True, metavar="JSONL",
                      help="eval record file(s); several average as runs")
    p_an.add_argument("--runs", type=int, help="expected number of run files")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out_dir"] = args.out
        if getattr(args, "encoder", None):
            cfg["encoder"] = args.encoder
        _setup_logging(Path(cfg["out_dir"]))

        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.model)
        if args.command == "eval":
            return cmd_eval(cfg, args.nc, args.wc)
        return cmd_analyze(cfg, args.records, args.runs)  # argparse allows no other
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except opt.TrainingDiverged as exc:  # the window model's or the char LM's
        where = "" if exc.epoch is None else f" (epoch {exc.epoch})"
        print(f"training diverged: {exc}{where}", file=sys.stderr)
        return EXIT_TRAINING
    except CheckpointError as exc:  # before ValueError, its base class
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
