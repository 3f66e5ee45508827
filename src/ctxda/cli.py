"""Batch command-line frontend: prepare | train | eval | analyze | synth.

One JSON config document drives a run; flags override config values. All
outputs are deterministic for a fixed config and seed - timestamps appear
only in the log file. Exit codes: 0 success, 2 input error, 3 training
failure, 4 checkpoint error, 5 analysis input error.
"""

from __future__ import annotations

import argparse
import copy
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

log = logging.getLogger("ctxda")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRAINING = 3
EXIT_CHECKPOINT = 4
EXIT_ANALYSIS = 5

DEFAULT_CONFIG = {
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
        "hidden_dim": 64,
        "attention_dim": None,
        "dropout_rate": 0.2,
        "head": "attention",
        "mask_padding": False,
        "baseline_hidden1": 300,
        "baseline_hidden2": 100,
        "char_hidden_dim": 64,
        "char_lm_epochs": 2,
        "char_lm_lr": 1e-3,
        "char_max_chars": 64,
        "char_reduce": "mean",
    },
    "train": {
        "n_context": 4,
        "batch_size": 64,
        "max_epochs": 100,
        "learning_rate": 1e-4,
        "lr_decay": 0.95,
        "val_fraction": 0.15,
        "patience": 5,
        "split_by_conversation": False,
    },
    "swda": {
        "text_col": "text",
        "tag_col": "act_tag",
        "conv_col": "conversation_no",
        "caller_col": "caller",
        "tag_map": None,
    },
    "synthetic": {
        "n_classes": 5,
        "words_per_class": 3,
        "mode": "previous",
        "n_conversations": 30,
        "conversation_length": 14,
        "test_conversations": 10,
    },
    "analysis": {
        "short_max_tokens": 3,
        "svg": True,
    },
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
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
    return _deep_merge(DEFAULT_CONFIG, user)


def _setup_logging(out_dir: Path | None) -> None:
    level = os.environ.get("CTXDA_LOG", "warning").upper()
    handlers: list[logging.Handler] = [logging.StreamHandler(sys.stderr)]
    handlers[0].setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        file_handler = logging.FileHandler(out_dir / "run.log")
        # timestamps live here and only here
        file_handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
        handlers.append(file_handler)
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
        tag_map = cor.load_tag_map(swda["tag_map"]) if swda.get("tag_map") else None
        return cor.load_swda_csv(
            path,
            text_col=swda["text_col"],
            tag_col=swda["tag_col"],
            conv_col=swda["conv_col"],
            caller_col=swda["caller_col"],
            tag_map=tag_map,
        )
    return cor.load_jsonl(path)


def _load_prepared(cfg: dict):
    corpus_dir = _corpus_dir(cfg)
    train_path = corpus_dir / "train.jsonl"
    test_path = corpus_dir / "test.jsonl"
    tags_path = corpus_dir / "tags.txt"
    for p in (train_path, test_path, tags_path):
        if not p.exists():
            raise CliError(f"prepared corpus artifact missing: {p} (run prepare or synth)")
    return (
        cor.load_jsonl(train_path),
        cor.load_jsonl(test_path),
        cor.TagVocabulary.load(tags_path),
    )


def _build_encoder(cfg: dict, train_convs, test_convs):
    choice = cfg["encoder"]
    mcfg = cfg["model"]
    seed = cfg["seed"]

    def word_encoder():
        emb_path = cfg["paths"].get("embeddings")
        cache = _corpus_dir(cfg) / "embeddings.txt"
        if cache.exists():
            table = enc.load_embeddings(cache)
            source = {"kind": "file", "path": str(cache)}
        elif emb_path:
            if not Path(emb_path).exists():
                raise CliError(f"embeddings file does not exist: {emb_path}")
            table = enc.load_embeddings(emb_path)
            source = {"kind": "file", "path": str(emb_path)}
        else:
            # closed-vocabulary fallback (synthetic corpora): indicator vectors
            vocab = sorted(
                {tok for conv in train_convs + test_convs
                 for u in conv.utterances for tok in enc.tokenize(u.text)}
            )
            table = enc.EmbeddingTable.one_hot(vocab)
            source = {"kind": "onehot", "vocabulary": vocab}
        e = enc.WordMeanEncoder(table)
        e.source = source
        return e

    def char_encoder():
        texts = [u.text for conv in train_convs for u in conv.utterances]
        vocab = enc.CharVocab()
        log.info("training character LM (hidden=%d, epochs=%d)",
                 mcfg["char_hidden_dim"], mcfg["char_lm_epochs"])
        params, losses = enc.train_char_lm(
            texts,
            vocab,
            hidden_dim=mcfg["char_hidden_dim"],
            epochs=mcfg["char_lm_epochs"],
            learning_rate=mcfg["char_lm_lr"],
            seed=seed,
            max_chars=mcfg["char_max_chars"],
        )
        log.info("char LM losses per epoch: %s", ["%.4f" % x for x in losses])
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
    corpus_dir = _corpus_dir(cfg)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    syn = cfg["synthetic"]
    spec_kwargs = {k: v for k, v in syn.items() if k != "test_conversations"}
    train_spec = cor.SyntheticSpec(seed=cfg["seed"], **spec_kwargs)
    test_spec = cor.SyntheticSpec(
        seed=cfg["seed"] + 10_000,
        **{**spec_kwargs, "n_conversations": syn.get("test_conversations", 10)},
    )
    train_convs = cor.generate_synthetic(train_spec)
    test_convs = cor.generate_synthetic(test_spec)
    if not train_convs or not test_convs:
        raise CliError("synthetic spec produced an empty corpus")
    cor.write_jsonl(corpus_dir / "train.jsonl", train_convs)
    cor.write_jsonl(corpus_dir / "test.jsonl", test_convs)
    vocab = cor.TagVocabulary.from_conversations(train_convs + test_convs)
    vocab.save(corpus_dir / "tags.txt")
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
    with open(corpus_dir / "synth_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
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
    corpus_dir = _corpus_dir(cfg)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    cor.write_jsonl(corpus_dir / "train.jsonl", train_convs)
    cor.write_jsonl(corpus_dir / "test.jsonl", test_convs)
    vocab = cor.TagVocabulary.from_conversations(train_convs + test_convs)
    vocab.save(corpus_dir / "tags.txt")

    emb_path = cfg["paths"].get("embeddings")
    cached = 0
    if emb_path:
        if not Path(emb_path).exists():
            raise CliError(f"embeddings file does not exist: {emb_path}")
        table = enc.load_embeddings(emb_path)
        used = sorted(
            {tok for conv in train_convs + test_convs
             for u in conv.utterances for tok in enc.tokenize(u.text)}
        )
        with open(corpus_dir / "embeddings.txt", "w", encoding="utf-8") as fh:
            for tok in used:
                vec = table.lookup(tok)
                if vec is not None:
                    fh.write(tok + " " + " ".join(repr(float(v)) for v in vec) + "\n")
                    cached += 1

    n_train_utts = sum(len(c) for c in train_convs)
    n_test_utts = sum(len(c) for c in test_convs)
    print(
        f"prepared corpus: {len(train_convs)} train conversations "
        f"({n_train_utts} utterances), {len(test_convs)} test conversations "
        f"({n_test_utts} utterances), {len(vocab)} tags"
        + (f", {cached} cached embeddings" if emb_path else "")
    )
    return EXIT_OK


def _window_config(cfg: dict) -> opt.TrainConfig:
    t = cfg["train"]
    return opt.TrainConfig(
        n_context=t["n_context"],
        batch_size=t["batch_size"],
        max_epochs=t["max_epochs"],
        dropout_rate=cfg["model"]["dropout_rate"],
        learning_rate=t["learning_rate"],
        lr_decay=t["lr_decay"],
        val_fraction=t["val_fraction"],
        patience=t["patience"],
        seed=cfg["seed"],
        split_by_conversation=t["split_by_conversation"],
    )


def cmd_train(cfg: dict, model_name: str) -> int:
    train_convs, test_convs, vocab = _load_prepared(cfg)
    encoder = _build_encoder(cfg, train_convs, test_convs)
    tcfg = _window_config(cfg)
    windows = cor.build_all_windows(train_convs, tcfg.n_context, encoder, vocab)
    mcfg = cfg["model"]
    if model_name == "baseline":
        model = BaselineMLP(
            encoder.dim,
            len(vocab),
            hidden1=mcfg["baseline_hidden1"],
            hidden2=mcfg["baseline_hidden2"],
            dropout_rate=0.0,
            seed=cfg["seed"],
        )
    else:
        model = UttAttBiRNN(
            encoder.dim,
            len(vocab),
            hidden_dim=mcfg["hidden_dim"],
            attention_dim=mcfg["attention_dim"],
            n_context=tcfg.n_context,
            dropout_rate=mcfg["dropout_rate"],
            head=mcfg["head"],
            mask_padding=mcfg["mask_padding"],
            seed=cfg["seed"],
        )
    log.info("training %s on %d windows (%d tags)", model_name, len(windows), len(vocab))
    try:
        result = opt.train(model, windows, tcfg)
    except opt.TrainingDiverged as exc:
        print(f"training diverged: {exc} (epoch {exc.epoch})", file=sys.stderr)
        return EXIT_TRAINING

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / f"{model_name}_{cfg['encoder']}.ckpt.json"
    save_checkpoint(
        ckpt_path, model, enc.encoder_to_config(encoder), vocab.tags, cfg["seed"]
    )
    history_path = out_dir / f"{model_name}_{cfg['encoder']}_history.csv"
    opt.write_history_csv(history_path, result.history)
    print(
        f"trained {model_name} ({cfg['encoder']}): best val accuracy "
        f"{result.best_val_accuracy:.2f}% at epoch {result.best_epoch} "
        f"of {len(result.history)}; checkpoint {ckpt_path}"
    )
    return EXIT_OK


def _load_model_group(paths: list[str]):
    group = []
    for path in paths:
        model, meta = load_checkpoint(path)
        group.append((Path(path).name, model, meta))
    tags0 = group[0][2]["tags"]
    for name, _, meta in group[1:]:
        if meta["tags"] != tags0:
            raise CheckpointError(f"tag vocabulary mismatch between checkpoints ({name})")
    return group, tags0


def cmd_eval(cfg: dict, nc_paths: list[str], wc_paths: list[str]) -> int:
    _, test_convs, _ = _load_prepared(cfg)
    try:
        nc_group, nc_tags = _load_model_group(nc_paths)
        wc_group, wc_tags = _load_model_group(wc_paths)
        if nc_tags != wc_tags:
            raise CheckpointError("tag vocabulary mismatch between NC and WC checkpoints")
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    vocab = cor.TagVocabulary(nc_tags)
    n_context = cfg["train"]["n_context"]

    # windows are built once per distinct encoder configuration
    window_cache: dict[str, list] = {}

    def windows_for(meta) -> list:
        key = json.dumps(meta["encoder"], sort_keys=True)
        if key not in window_cache:
            encoder = enc.encoder_from_config(meta["encoder"])
            window_cache[key] = cor.build_all_windows(
                test_convs, n_context, encoder, vocab
            )
        return window_cache[key]

    def predictions(group):
        per_model = []
        for name, model, meta in group:
            windows = windows_for(meta)
            per_model.append((name, model.predict(windows)))
        return per_model

    try:
        nc_preds = predictions(nc_group)
        wc_preds = predictions(wc_group)
    except (ValueError, KeyError) as exc:
        print(f"checkpoint/corpus mismatch: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT

    reference_windows = windows_for(nc_group[0][2])
    records = []
    for i, w in enumerate(reference_windows):
        nc_probs = ana.ensemble_average([preds[i].probs for _, preds in nc_preds])
        wc_probs = ana.ensemble_average([preds[i].probs for _, preds in wc_preds])
        profiles = [preds[i].attention for _, preds in wc_preds
                    if preds[i].attention is not None]
        attention = np.mean(profiles, axis=0).tolist() if profiles else None
        records.append(
            ana.EvalRecord(
                conversation_id=w.conversation_id,
                utterance_index=w.index,
                gold=vocab.tag_of(w.label),
                nc_pred=vocab.tag_of(int(np.argmax(nc_probs))),
                wc_pred=vocab.tag_of(int(np.argmax(wc_probs))),
                nc_probs=nc_probs.tolist(),
                wc_probs=wc_probs.tolist(),
                attention=attention,
                n_tokens=w.n_tokens,
            )
        )

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "eval_records.jsonl"
    ana.write_records(records_path, records)

    lines = []
    for name, preds in nc_preds:
        hits = sum(1 for p, w in zip(preds, reference_windows)
                   if p.top_class == w.label)
        lines.append(("NC " + name, 100.0 * hits / len(reference_windows)))
    for name, preds in wc_preds:
        hits = sum(1 for p, w in zip(preds, reference_windows)
                   if p.top_class == w.label)
        lines.append(("WC " + name, 100.0 * hits / len(reference_windows)))
    acc = ana.accuracy(records)
    if len(nc_preds) > 1:
        lines.append(("NC ensemble", acc["nc"]))
    if len(wc_preds) > 1:
        lines.append(("WC ensemble", acc["wc"]))
    for name, value in lines:
        print(f"{name}: {value:.2f}%")
    print(f"records: {records_path} ({len(records)} utterances)")
    return EXIT_OK


def cmd_analyze(cfg: dict, record_paths: list[str], runs: int | None) -> int:
    try:
        record_sets = [ana.load_records(p) for p in record_paths]
    except (OSError, ValueError) as exc:
        print(f"cannot load records: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    if any(not rs for rs in record_sets):
        print("analysis input error: empty records file", file=sys.stderr)
        return EXIT_ANALYSIS
    records = record_sets[0]
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    acc = ana.accuracy(records)
    ana.write_pair_csv(out_dir / "failure_pairs.csv", ana.failure_pairs(records))
    rescue = ana.rescue_pairs(records)
    ana.write_pair_csv(out_dir / "rescue_pairs.csv", rescue.rows)
    stats = ana.confidence_stats(records)
    with open(out_dir / "confidence.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "nc_mean": stats.nc_mean,
                "nc_median": stats.nc_median,
                "wc_mean": stats.wc_mean,
                "wc_median": stats.wc_median,
                "series": stats.series,
            },
            fh,
            indent=2,
        )
        fh.write("\n")

    has_attention = all(r.attention is not None for r in records)
    if not has_attention:
        print("analysis input error: records are missing attention profiles",
              file=sys.stderr)
        return EXIT_ANALYSIS
    profile = ana.attention_profile_mean(records)
    if len(record_sets) > 1:
        multi = ana.attention_profile_mean([], runs=record_sets)
    else:
        multi = None
    with open(out_dir / "attention_profile.csv", "w", encoding="utf-8") as fh:
        fh.write("slot," + ",".join(f"a{k}" for k in range(len(profile))) + "\n")
        fh.write("mean," + ",".join(repr(float(v)) for v in profile) + "\n")
        if multi is not None:
            fh.write("mean_over_runs," + ",".join(repr(float(v)) for v in multi) + "\n")

    short = ana.short_utterance_slice(records, cfg["analysis"]["short_max_tokens"])
    with open(out_dir / "short_utterance_profile.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "max_tokens": short.max_tokens,
                "n_sliced": short.n_sliced,
                "slice_mean": None if short.slice_mean is None else short.slice_mean.tolist(),
                "full_mean": short.full_mean.tolist(),
            },
            fh,
            indent=2,
        )
        fh.write("\n")

    if cfg["analysis"]["svg"]:
        labels = [f"a{k}" for k in range(len(profile))]
        (out_dir / "attention_profile.svg").write_text(
            ana.svg_bar_chart(profile, labels, title="mean attention per slot")
        )
        if multi is not None:
            (out_dir / "attention_profile_runs.svg").write_text(
                ana.svg_bar_chart(multi, labels,
                                  title=f"mean attention over {len(record_sets)} runs")
            )
        (out_dir / "confidence.svg").write_text(
            ana.svg_confidence_chart(stats.series, batch=30)
        )

    print(f"accuracy: NC {acc['nc']:.2f}% WC {acc['wc']:.2f}%")
    print(
        f"rescued by context: {rescue.total_rescued} samples "
        f"({rescue.pct_rescued:.2f}%)"
    )
    print(f"confidence: NC mean {stats.nc_mean:.4f} WC mean {stats.wc_mean:.4f}")
    print("attention profile (current first): "
          + " ".join(f"{v:.4f}" for v in profile))
    if multi is not None:
        print(f"attention profile over {len(record_sets)} runs: "
              + " ".join(f"{v:.4f}" for v in multi))
    if runs is not None and len(record_sets) != runs:
        log.warning("expected %d record files, got %d", runs, len(record_sets))
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
        if args.command == "analyze":
            return cmd_analyze(cfg, args.records, args.runs)
        raise CliError(f"unknown command {args.command!r}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
