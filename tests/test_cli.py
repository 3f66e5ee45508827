import dataclasses
import hashlib
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from ctxda.cli import DEFAULT_CONFIG, load_config, main
from ctxda.analysis import (ConfusionPairRow, EvalRecord, confidence_stats, load_records,
                            write_pair_csv, write_records)
from ctxda.corpus import Conversation, TagVocabulary, Utterance, load_jsonl, write_jsonl
from ctxda.encoders import PrecomputedEncoder, encoder_from_config, encoder_to_config
from ctxda.optim import EpochStats, write_history_csv
from ctxda.tensor import write_json_file
from faults import fill_disk, refuse_replace

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


def inject(monkeypatch, fault: str, name: str) -> None:
    """Make the write of each file whose name contains ``name`` fail: cut off
    after 16 characters by a full disk, or refused at its final ``os.replace``."""
    if fault == "fill_disk":
        fill_disk(monkeypatch, budget=16, applies=lambda path: name in path)
    else:
        refuse_replace(monkeypatch, applies=lambda dst: name in dst)


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 7,
        "out_dir": str(tmp_path / "run"),
        "synthetic": {
            "n_classes": 3,
            "mode": "previous",
            "n_conversations": 8,
            "conversation_length": 8,
            "test_conversations": 4,
        },
        "model": {
            "hidden_dim": 4,
            "dropout_rate": 0.1,
            "baseline_hidden1": 8,
            "baseline_hidden2": 6,
        },
        "train": {
            "n_context": 2,
            "batch_size": 16,
            "max_epochs": 3,
            "learning_rate": 1e-3,
            "val_fraction": 0.2,
            "patience": 5,
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


@pytest.fixture()
def pipeline(tmp_path):
    """synth + both trainings, shared by the eval/analyze tests."""
    config, cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["--config", str(config), "synth"]) == 0
    assert main(["--config", str(config), "train", "--model", "baseline"]) == 0
    assert main(["--config", str(config), "train", "--model", "uttattbirnn"]) == 0
    return config, out


class TestSynth:
    def test_writes_corpus_artifacts(self, tmp_path, capsys):
        config, cfg = write_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        corpus = tmp_path / "run" / "corpus"
        for name in ("train.jsonl", "test.jsonl", "tags.txt", "synth_summary.json"):
            assert (corpus / name).exists()
        summary = json.loads((corpus / "synth_summary.json").read_text())
        assert summary["train_conversations"] == 8
        assert summary["test_conversations"] == 4
        assert 0 < summary["bayes_nocontext_accuracy"] < 1
        assert "synthetic corpus" in capsys.readouterr().out

    def test_transition_from_json_sets_the_tags(self, tmp_path):
        rule = {0: 1, 1: 2, 2: 0}
        config, _ = write_config(tmp_path, synthetic={
            "mode": "current", "transition": {str(c): t for c, t in rule.items()}})
        assert main(["--config", str(config), "synth"]) == 0
        corpus = tmp_path / "run" / "corpus"
        seen = set()
        for split in ("train.jsonl", "test.jsonl"):
            for line in (corpus / split).read_text().splitlines():
                for u in json.loads(line)["utterances"]:
                    own = int(u["text"].split()[0][1:].split("_")[0])  # "w<class>_<k>"
                    assert u["act_tag"] == f"c{rule[own]}"
                    seen.add(own)
        assert seen == set(rule)

    @pytest.mark.parametrize("synthetic, refused", [
        ({"transition": {"0": 1, "1": 2, "2": 7}}, "outside 0..2"),
        ({"transition": {"0": 1, "1": 2, "2": 0, "3": 0}}, "outside 0..2"),
        ({"words_per_class": 0}, "words_per_class must be at least 1"),
        ({"mode": "mixed", "response_words": []}, "mode 'mixed' needs at least one of "
                                                  "response_words"),
    ], ids=["transition0", "transition1", "words_per_class", "response_words"])
    def test_transition_outside_the_classes_exit_2(self, tmp_path, capsys, synthetic, refused):
        config, _ = write_config(tmp_path, synthetic=synthetic)
        assert main(["--config", str(config), "synth"]) == 2
        assert refused in capsys.readouterr().err
        assert not (tmp_path / "run" / "corpus").exists()

    def test_idempotent_given_seed(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        first = (tmp_path / "run" / "corpus" / "train.jsonl").read_bytes()
        assert main(["--config", str(config), "synth"]) == 0
        assert (tmp_path / "run" / "corpus" / "train.jsonl").read_bytes() == first

    def test_embeddings_of_an_earlier_corpus_are_removed(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        (tmp_path / "run" / "corpus" / "embeddings.txt").write_text("w0_0 1.0 2.0\n")
        assert main(["--config", str(config), "synth"]) == 0
        assert not (tmp_path / "run" / "corpus" / "embeddings.txt").exists()
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 0
        ckpt = json.loads((tmp_path / "run" / "baseline_word.ckpt.json").read_text())
        assert ckpt["encoder"]["source"]["kind"] == "onehot"

    @pytest.mark.parametrize("fault", ["fill_disk", "refuse_replace"])
    @pytest.mark.parametrize("split", ["train.jsonl", "test.jsonl"])
    def test_corpus_cut_short_is_refused(self, tmp_path, capsys, monkeypatch, split, fault):
        # a second synth that fails between its files leaves no corpus to train on
        config, _ = write_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        inject(monkeypatch, fault, split)
        assert main(["--config", str(config), "--seed", "8", "synth"]) == 2
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 2
        assert f"{tmp_path / 'run' / 'corpus' / 'tags.txt'} (run prepare or synth)" in (
            capsys.readouterr().err)
        assert list((tmp_path / "run" / "corpus").glob("*.tmp")) == []


class TestPrepare:
    def test_jsonl_passthrough(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(
            '{"id": "a", "utterances": [{"text": "Hi.", "act_tag": "fp"},'
            ' {"text": "Yes.", "act_tag": "ny"}]}\n'
        )
        config, _ = write_config(
            tmp_path, paths={"raw_train": str(raw), "raw_test": str(raw)}
        )
        assert main(["--config", str(config), "prepare"]) == 0
        out = capsys.readouterr().out
        assert "1 train conversations (2 utterances)" in out
        assert (tmp_path / "run" / "corpus" / "tags.txt").read_text() == "fp\nny\n"

    def test_missing_path_exit_2(self, tmp_path, capsys):
        config, _ = write_config(
            tmp_path, paths={"raw_train": str(tmp_path / "none.jsonl"),
                             "raw_test": str(tmp_path / "none.jsonl")}
        )
        assert main(["--config", str(config), "prepare"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_non_finite_embedding_exit_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"id": "a", "utterances": [{"text": "hi", "act_tag": "x"}]}\n')
        emb = tmp_path / "emb.txt"
        emb.write_text("hi 1.0 2.0\nyo inf 4.0\n")
        config, _ = write_config(
            tmp_path,
            paths={"raw_train": str(raw), "raw_test": str(raw), "embeddings": str(emb)},
        )
        assert main(["--config", str(config), "prepare"]) == 2
        assert f"{emb}:2: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "run" / "corpus" / "embeddings.txt").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "embeddings file does not exist"),
        ("hi 1.0 2.0\nyo inf 4.0\n", ":2: non-finite"),
    ])
    def test_bad_embeddings_exit_2_before_any_output(self, tmp_path, capsys, content,
                                                     message):
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"id": "a", "utterances": [{"text": "hi", "act_tag": "x"}]}\n')
        emb = tmp_path / "emb.txt"
        if content is not None:
            emb.write_text(content)
        config, _ = write_config(
            tmp_path, paths={"raw_train": str(raw), "raw_test": str(raw),
                             "embeddings": str(emb)},
        )
        assert main(["--config", str(config), "prepare"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run" / "corpus").exists()

    def test_embedding_cache_filtered(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"id": "a", "utterances": [{"text": "hi", "act_tag": "x"}]}\n')
        emb = tmp_path / "emb.txt"
        emb.write_text("hi 1.0 2.0\nunused 3.0 4.0\n")
        config, _ = write_config(
            tmp_path,
            paths={"raw_train": str(raw), "raw_test": str(raw),
                   "embeddings": str(emb)},
        )
        assert main(["--config", str(config), "prepare"]) == 0
        cache = (tmp_path / "run" / "corpus" / "embeddings.txt").read_text()
        assert "hi " in cache and "unused" not in cache


class TestTrain:
    def test_without_prepared_corpus_exit_2(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 2
        assert "run prepare or synth" in capsys.readouterr().err

    def test_checkpoints_and_history(self, pipeline):
        _, out = pipeline
        assert (out / "baseline_word.ckpt.json").exists()
        assert (out / "uttattbirnn_word.ckpt.json").exists()
        history = (out / "uttattbirnn_word_history.csv").read_text().splitlines()
        assert history[0] == "epoch,lr,train_loss,val_accuracy"
        assert len(history) == 4  # 3 epochs + header

    def test_same_seed_identical_checkpoints(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 0
        first = (tmp_path / "run" / "baseline_word.ckpt.json").read_bytes()
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 0
        assert (tmp_path / "run" / "baseline_word.ckpt.json").read_bytes() == first

    def test_divergence_exit_3(self, tmp_path, capsys, monkeypatch):
        from ctxda import cli as cli_mod
        from ctxda.optim import TrainingDiverged

        def blow_up(model, windows, cfg):
            raise TrainingDiverged("non-finite loss", epoch=4)

        monkeypatch.setattr(cli_mod.opt, "train", blow_up)
        config, _ = write_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 3
        assert "epoch 4" in capsys.readouterr().err

    def test_non_finite_weight_exit_3_without_checkpoint(self, tmp_path, capsys, monkeypatch):
        from ctxda import cli as cli_mod

        save = cli_mod.save_checkpoint

        def save_nan(path, model, *args):
            next(iter(model.params.values())).data[0, 0] = np.nan
            return save(path, model, *args)

        monkeypatch.setattr(cli_mod, "save_checkpoint", save_nan)
        config, _ = write_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 3
        err = capsys.readouterr().err
        assert "training diverged: checkpoint" in err and "not written" in err
        assert not list((tmp_path / "run").glob("baseline_word.ckpt.json*"))

    def test_file_word_table_stored_with_its_sha256(self, tmp_path):
        table = tmp_path / "emb.txt"
        table.write_text("w0_0 1.0 2.0\nw1_0 -1.0 0.5\nw2_1 0.0 3.0\n")
        config, _ = write_config(tmp_path, paths={"embeddings": str(table)})
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 0
        ckpt = json.loads((tmp_path / "run" / "baseline_word.ckpt.json").read_text())
        assert ckpt["encoder"] == {"type": "word", "dim": 2, "source": {
            "kind": "file", "path": str(table),
            "sha256": hashlib.sha256(table.read_bytes()).hexdigest()}}

    @pytest.mark.parametrize("kind", ["embeddings", "features"])
    def test_non_finite_input_file_exit_2(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.txt"
        if kind == "embeddings":
            bad.write_text("w0_0 1.0 2.0\nw0_1 nan 2.0\n")
            overrides = {"paths": {"embeddings": str(bad)}}
        else:
            bad.write_text("syn0000\t0\t1.0,2.0\nsyn0000\t1\t1.0,-inf\n")
            overrides = {"paths": {"features": [str(bad)]}, "encoder": "precomputed"}
        config, _ = write_config(tmp_path, **overrides)
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 2
        assert f"{bad}:2: non-finite" in capsys.readouterr().err
        assert not list((tmp_path / "run").glob("*.ckpt.json"))

    def test_char_lm_divergence_exit_3(self, tmp_path, capsys):
        config, _ = write_config(
            tmp_path, encoder="char",
            model={"char_hidden_dim": 4, "char_lm_epochs": 1, "char_lm_lr": 1e300},
        )
        assert main(["--config", str(config), "synth"]) == 0
        with np.errstate(all="ignore"):
            code = main(["--config", str(config), "train", "--model", "baseline"])
        assert code == 3
        assert "training diverged: non-finite gradient in parameter mlstm." in (
            capsys.readouterr().err)
        assert not list((tmp_path / "run").glob("*.ckpt.json"))
        assert not list((tmp_path / "run" / "corpus").glob("char_lm-*.json"))

    @pytest.mark.parametrize("model, train, refused", [
        ({}, {"lr_decay": -1}, "lr_decay must be positive"),
        ({"char_lm_lr": -0.01}, {}, "char LM learning_rate must be positive"),
        ({"char_lm_epochs": 0}, {}, "char LM epochs must be positive"),
        ({"char_max_chars": 1}, {}, "char LM max_chars must be at least 2, got 1"),
    ], ids=["lr_decay", "char_lm_lr", "char_lm_epochs", "char_max_chars"])
    def test_senseless_learning_rate_setting_exit_2(self, tmp_path, capsys, model, train,
                                                    refused):
        config, _ = write_config(tmp_path, encoder="char", train=train, model={
            "char_hidden_dim": 4, "char_lm_epochs": 1, "char_max_chars": 16, **model})
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 2
        assert refused in capsys.readouterr().err
        assert not list((tmp_path / "run").glob("baseline_char*"))
        assert not list((tmp_path / "run" / "corpus").glob("char_lm-*"))

    def test_unknown_char_reduce_exit_2(self, tmp_path, capsys):
        # refused before the LM is fitted, so no LM is cached for it
        config, _ = write_config(tmp_path, encoder="char", model={
            "char_hidden_dim": 4, "char_lm_epochs": 1, "char_max_chars": 16, "char_reduce": "max"})
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 2
        assert capsys.readouterr().err == "error: unknown reduce mode 'max'\n"
        assert not list((tmp_path / "run").glob("baseline_char*"))
        assert not list((tmp_path / "run" / "corpus").glob("char_lm-*.json"))


def edit_line(path: Path, lineno: int, edit) -> dict:
    """Rewrite line ``lineno`` of a JSONL file as ``edit`` leaves its object;
    returns the object."""
    lines = path.read_text().splitlines()
    obj = json.loads(lines[lineno - 1])
    edit(obj)
    lines[lineno - 1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    return obj


class TestCorpusFailsClosed:
    """A split is read as it is, never converted, and a tag outside the
    vocabulary is refused naming the split file, the conversation and the tag;
    both exit 2 before any output."""

    @pytest.mark.parametrize("value", [["a"], 5])
    @pytest.mark.parametrize("field", ["id", "text", "act_tag"])
    def test_non_string_field_exit_2(self, tmp_path, capsys, field, value):
        config, _ = write_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        train = tmp_path / "run" / "corpus" / "train.jsonl"

        def edit(obj):
            (obj if field == "id" else obj["utterances"][2])[field] = value

        edit_line(train, 3, edit)
        capsys.readouterr()
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 2
        err = capsys.readouterr().err
        assert f"{train}:3:" in err and f"{field} must be a string, got {value!r}" in err
        assert not list((tmp_path / "run").glob("baseline_*"))

    def test_non_string_field_in_a_raw_corpus_exit_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"id": "a", "utterances": [{"text": "hi", "act_tag": "x"}]}\n'
                       '{"id": "b", "utterances": [{"text": ["hi"], "act_tag": "x"}]}\n')
        config, _ = write_config(tmp_path, paths={"raw_train": str(raw), "raw_test": str(raw)})
        assert main(["--config", str(config), "prepare"]) == 2
        assert f"{raw}:2: utterance 0 of 'b': text must be a string" in capsys.readouterr().err
        assert not (tmp_path / "run" / "corpus").exists()

    def test_unknown_tag_at_train_exit_2(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        train = tmp_path / "run" / "corpus" / "train.jsonl"
        conv = edit_line(train, 2, lambda obj: obj["utterances"][1].update(act_tag="ZZ"))
        capsys.readouterr()
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 2
        assert capsys.readouterr().err == (
            f"error: {train}: conversation {conv['id']!r}: unknown act tag 'ZZ'\n")
        assert not list((tmp_path / "run").glob("baseline_*"))

    @pytest.mark.parametrize("in_tags_txt", [False, True])
    def test_unknown_tag_at_eval_exit_2(self, pipeline, capsys, in_tags_txt):
        # a tag outside tags.txt, or in tags.txt but outside the checkpoints'
        # tags, is the test split's fault either way
        config, out = pipeline
        test = out / "corpus" / "test.jsonl"
        conv = edit_line(test, 1, lambda obj: obj["utterances"][0].update(act_tag="ZZ"))
        if in_tags_txt:
            with open(out / "corpus" / "tags.txt", "a") as fh:
                fh.write("ZZ\n")
        capsys.readouterr()
        assert main(["--config", str(config), "eval",
                     "--nc", str(out / "baseline_word.ckpt.json"),
                     "--wc", str(out / "uttattbirnn_word.ckpt.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {test}: conversation {conv['id']!r}: unknown act tag 'ZZ'\n")
        assert not (out / "eval_records.jsonl").exists()


# a stored parameter's values made malformed in five ways
MALFORMED_VALUES = {
    "string": lambda values: "abc",
    "null": lambda values: None,
    "nested": lambda values: [values[:2], values[2:4]],
    "short": lambda values: values[:-1],
    "nan": lambda values: values[:1] + [float("nan")] + values[2:],
}


def refusal(kind: str, name: str, shape: tuple) -> str:
    """What refuses parameter ``name`` of ``shape`` stored with MALFORMED_VALUES[kind]."""
    if kind == "string":
        return "malformed parameter entry: ValueError(\"could not convert string to float: 'abc'\")"
    if kind == "nan":
        return f"parameter {name}: stored values are not all finite"
    n = {"null": 1, "nested": 4, "short": shape[0] * shape[1] - 1}[kind]
    return f"parameter {name}: stored as {shape} with {n} values, expected {shape}"


def char_config(tmp_path, **model):
    """A small ``char`` config; ``model`` overrides its model section."""
    return write_config(tmp_path, encoder="char", model={
        "char_hidden_dim": 4, "char_lm_epochs": 1, "char_max_chars": 16, **model})


def count_lm_fits(monkeypatch) -> list:
    """Record each call of ``train_char_lm`` that the CLI makes."""
    from ctxda import cli as cli_mod

    calls, fit = [], cli_mod.enc.train_char_lm
    monkeypatch.setattr(cli_mod.enc, "train_char_lm",
                        lambda *args, **kwargs: (calls.append(1), fit(*args, **kwargs))[1])
    return calls


class TestCharLMCache:
    """The character LM is fitted once per corpus, seed and LM settings and
    kept in the corpus directory as char_lm-<key digest>.json."""

    @staticmethod
    def cached(tmp_path) -> list[Path]:
        return sorted((tmp_path / "run" / "corpus").glob("char_lm-*.json"))

    def test_second_train_loads_the_lm_the_first_fitted(self, tmp_path, monkeypatch):
        config, _ = char_config(tmp_path)
        calls = count_lm_fits(monkeypatch)
        assert main(["--config", str(config), "synth"]) == 0
        for model in ("baseline", "uttattbirnn"):
            assert main(["--config", str(config), "train", "--model", model]) == 0
        assert calls == [1]
        assert len(self.cached(tmp_path)) == 1

    def test_checkpoint_on_a_cached_lm_is_byte_identical(self, tmp_path):
        runs = [tmp_path / "cached", tmp_path / "fresh"]
        for run, models in zip(runs, (["baseline", "uttattbirnn"], ["uttattbirnn"])):
            run.mkdir()
            config, _ = char_config(run)
            assert main(["--config", str(config), "synth"]) == 0
            for model in models:
                assert main(["--config", str(config), "train", "--model", model]) == 0
        cached, fresh = (run / "run" / "uttattbirnn_char.ckpt.json" for run in runs)
        assert cached.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("flags, model", [(["--seed", "8"], {}),
                                              ([], {"char_lm_epochs": 2})])
    def test_other_seed_or_settings_fit_another_lm(self, tmp_path, monkeypatch, flags, model):
        config, _ = char_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 0
        calls = count_lm_fits(monkeypatch)
        config, _ = char_config(tmp_path, **model)
        assert main(["--config", str(config), *flags, "train", "--model", "baseline"]) == 0
        assert calls == [1]
        assert len(self.cached(tmp_path)) == 2

    @staticmethod
    def tamper_weight(stored):
        stored["weights"]["w_mh"]["values"][3] = float("nan")

    @staticmethod
    def change_key(stored):
        stored["key"]["epochs"] = 5

    @pytest.mark.parametrize("edit", ["tamper_weight", "change_key", "truncate"])
    def test_unusable_entry_exit_4_without_refitting(self, tmp_path, capsys, monkeypatch,
                                                     edit):
        config, _ = char_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 0
        (entry,) = self.cached(tmp_path)
        text = entry.read_text()
        if edit == "truncate":
            text = text[: len(text) // 2]
        else:
            stored = json.loads(text)
            getattr(self, edit)(stored)
            text = json.dumps(stored)
        entry.write_text(text)
        calls = count_lm_fits(monkeypatch)
        capsys.readouterr()
        assert main(["--config", str(config), "train", "--model", "uttattbirnn"]) == 4
        assert f"character LM cache {entry} is unusable" in capsys.readouterr().err
        assert calls == []
        assert entry.read_text() == text
        assert not (tmp_path / "run" / "uttattbirnn_char.ckpt.json").exists()

    @pytest.mark.parametrize("kind", list(MALFORMED_VALUES))
    def test_malformed_values_exit_4(self, tmp_path, capsys, kind):
        config, _ = char_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 0
        (entry,) = self.cached(tmp_path)
        stored = json.loads(entry.read_text())
        w_mh = stored["weights"]["w_mh"]
        w_mh["values"] = MALFORMED_VALUES[kind](w_mh["values"])
        entry.write_text(json.dumps(stored))
        capsys.readouterr()
        assert main(["--config", str(config), "train", "--model", "uttattbirnn"]) == 4
        assert capsys.readouterr().err == (
            f"checkpoint error: character LM cache {entry} is unusable: "
            f"{refusal(kind, 'w_mh', (4, 4))} (delete it to retrain)\n")

    def test_synth_removes_the_entries(self, tmp_path):
        config, _ = char_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 0
        (tmp_path / "run" / "corpus" / "char_lm-0000000000000000.json").write_text("{}")
        assert len(self.cached(tmp_path)) == 2
        assert main(["--config", str(config), "synth"]) == 0
        assert self.cached(tmp_path) == []

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                        reason="the superuser writes into a read-only directory")
    def test_read_only_corpus_still_trains(self, tmp_path, capsys):
        config, _ = char_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        corpus = tmp_path / "run" / "corpus"
        corpus.chmod(0o555)
        try:
            assert main(["--config", str(config), "train", "--model", "baseline"]) == 0
        finally:
            corpus.chmod(0o755)
        assert "character LM not cached" in capsys.readouterr().err
        assert (tmp_path / "run" / "baseline_char.ckpt.json").exists()
        assert self.cached(tmp_path) == []

    def test_failed_temporary_write_still_trains(self, tmp_path, capsys, monkeypatch):
        # the read-only corpus case where chmod cannot cause it (as the
        # superuser): the temporary file is half written, then the write fails
        fill_disk(monkeypatch, budget=4096, applies=lambda path: "char_lm-" in path)
        config, _ = char_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 0
        assert "character LM not cached" in capsys.readouterr().err
        assert (tmp_path / "run" / "baseline_char.ckpt.json").exists()
        assert self.cached(tmp_path) == []
        assert list((tmp_path / "run" / "corpus").glob("*.tmp")) == []

    def test_failed_cache_write_still_trains(self, tmp_path, capsys, monkeypatch):
        refuse_replace(monkeypatch, applies=lambda dst: "char_lm-" in dst)
        config, _ = char_config(tmp_path)
        assert main(["--config", str(config), "synth"]) == 0
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 0
        assert "character LM not cached" in capsys.readouterr().err
        assert (tmp_path / "run" / "baseline_char.ckpt.json").exists()
        assert [p.name for p in (tmp_path / "run" / "corpus").glob("char_lm-*")] == []


class TestEval:
    def test_records_and_accuracy(self, pipeline, capsys):
        config, out = pipeline
        code = main([
            "--config", str(config), "eval",
            "--nc", str(out / "baseline_word.ckpt.json"),
            "--wc", str(out / "uttattbirnn_word.ckpt.json"),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "NC baseline_word.ckpt.json:" in stdout
        assert "WC uttattbirnn_word.ckpt.json:" in stdout
        records = load_records(out / "eval_records.jsonl")
        assert len(records) == 4 * 8  # test conversations x length
        assert all(r.attention is not None for r in records)

    def test_one_prediction_per_checkpoint(self, pipeline, monkeypatch):
        from ctxda import model as model_mod

        config, out = pipeline
        built, check = [], model_mod.Prediction.__post_init__
        monkeypatch.setattr(model_mod.Prediction, "__post_init__",
                            lambda self: (built.append(self.probs.shape), check(self)))
        wc = str(out / "uttattbirnn_word.ckpt.json")
        code = main(["--config", str(config), "eval",
                     "--nc", str(out / "baseline_word.ckpt.json"), "--wc", wc, wc])
        assert code == 0
        assert built == [(4 * 8, 3)] * 3

    @pytest.mark.parametrize("equal", [True, False])
    def test_windows_built_once_per_distinct_encoder(self, pipeline, monkeypatch, equal):
        from ctxda import cli as cli_mod

        config, out = pipeline
        wc = out / "uttattbirnn_word.ckpt.json"
        if not equal:
            ckpt = json.loads(wc.read_text())
            ckpt["encoder"]["source"]["vocabulary"].reverse()
            wc = out / "reversed.ckpt.json"
            wc.write_text(json.dumps(ckpt))
        built, rebuild = [], cli_mod.enc.encoder_from_config
        monkeypatch.setattr(cli_mod.enc, "encoder_from_config",
                            lambda cfg: (built.append(cfg["type"]), rebuild(cfg))[1])
        code = main(["--config", str(config), "eval",
                     "--nc", str(out / "baseline_word.ckpt.json"), "--wc", str(wc), str(wc)])
        assert code == 0
        assert built == ["word"] * (1 if equal else 2)

    @pytest.mark.parametrize("ulp", [0, 1])
    def test_concat_pair_of_one_run_builds_windows_once(self, tmp_path, monkeypatch, ulp):
        # the stored character weights are compared exactly: one ulp apart in
        # one weight, the two encoders are two encoders
        from ctxda import cli as cli_mod

        config, _ = write_config(tmp_path, encoder="concat", model={
            "char_hidden_dim": 4, "char_lm_epochs": 1, "char_max_chars": 16})
        out = tmp_path / "run"
        assert main(["--config", str(config), "synth"]) == 0
        for model in ("baseline", "uttattbirnn"):
            assert main(["--config", str(config), "train", "--model", model]) == 0
        wc = out / "uttattbirnn_concat.ckpt.json"
        if ulp:
            ckpt = json.loads(wc.read_text())
            values = ckpt["encoder"]["char"]["weights"]["w_mh"]["values"]
            values[0] = float(np.nextafter(values[0], np.inf))
            wc.write_text(json.dumps(ckpt))
        built, build = [], cli_mod.cor.build_all_windows
        monkeypatch.setattr(cli_mod.cor, "build_all_windows",
                            lambda *args: (built.append(1), build(*args))[1])
        code = main(["--config", str(config), "eval",
                     "--nc", str(out / "baseline_concat.ckpt.json"), "--wc", str(wc)])
        assert code == 0
        assert built == [1] * (1 + ulp)

    def test_corrupted_checkpoint_exit_4(self, pipeline, capsys):
        config, out = pipeline
        bad = out / "bad.ckpt.json"
        bad.write_text("{broken")
        code = main([
            "--config", str(config), "eval",
            "--nc", str(bad),
            "--wc", str(out / "uttattbirnn_word.ckpt.json"),
        ])
        assert code == 4
        assert "checkpoint error" in capsys.readouterr().err

    def test_vocabulary_mismatch_exit_4(self, pipeline, capsys):
        config, out = pipeline
        ckpt = json.loads((out / "baseline_word.ckpt.json").read_text())
        ckpt["tags"] = ["x", "y", "z"]
        mismatched = out / "mismatch.ckpt.json"
        mismatched.write_text(json.dumps(ckpt))
        code = main([
            "--config", str(config), "eval",
            "--nc", str(mismatched),
            "--wc", str(out / "uttattbirnn_word.ckpt.json"),
        ])
        assert code == 4

    def test_ensemble_adds_row(self, pipeline, capsys):
        config, out = pipeline
        code = main([
            "--config", str(config), "eval",
            "--nc", str(out / "baseline_word.ckpt.json"),
            "--wc", str(out / "uttattbirnn_word.ckpt.json"),
            str(out / "uttattbirnn_word.ckpt.json"),
        ])
        assert code == 0
        assert "WC ensemble:" in capsys.readouterr().out


class TestEvalFailsClosed:
    """A stored parameter that is not finite, or not of its parameter's shape,
    ends ``eval`` with exit 4 before any record is written, whether it sits in
    the model or in the encoder stored with it."""

    def run_eval(self, tmp_path, edit, n_context=2, also_wc=(),
                 conversations=DATA / "v1_conversations.jsonl", test=None, nc_too=False):
        """``eval`` of the v1 fixture checkpoints on ``conversations`` (by
        default their own) as both splits, or on ``test`` as the test split,
        after ``edit`` has changed the WC checkpoint's JSON (and the NC one's
        too when ``nc_too``), with the config's ``train.n_context`` and any
        further WC checkpoints ``also_wc``."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(conversations, corpus / "train.jsonl")
        shutil.copy(test or conversations, corpus / "test.jsonl")
        wc = json.loads((DATA / "v1_wc_concat.ckpt.json").read_text())
        TagVocabulary(wc["tags"]).save(corpus / "tags.txt")
        edit(wc)
        wc_path = tmp_path / "wc.ckpt.json"
        wc_path.write_text(json.dumps(wc))
        nc_path = DATA / "v1_nc_word.ckpt.json"
        if nc_too:
            nc = json.loads(nc_path.read_text())
            edit(nc)
            nc_path = tmp_path / "nc.ckpt.json"
            nc_path.write_text(json.dumps(nc))
        config, _ = write_config(tmp_path, paths={"corpus_dir": str(corpus)},
                                 train={"n_context": n_context})
        code = main(["--config", str(config), "eval",
                     "--nc", str(nc_path),
                     "--wc", str(wc_path), *map(str, also_wc)])
        return code, tmp_path / "run" / "eval_records.jsonl"

    def test_unchanged_checkpoints_evaluate(self, tmp_path):
        code, records = self.run_eval(tmp_path, lambda wc: None)
        assert code == 0 and records.exists()

    def test_nan_in_model_bias_exit_4(self, tmp_path, capsys):
        def edit(wc):
            wc["params"]["out.bias"]["values"][1] = float("nan")

        code, records = self.run_eval(tmp_path, edit)
        assert code == 4 and not records.exists()
        assert "out.bias" in capsys.readouterr().err

    def test_nan_in_encoder_weight_exit_4(self, tmp_path, capsys):
        def edit(wc):
            wc["encoder"]["char"]["weights"]["b_i"]["values"][0] = float("nan")

        code, records = self.run_eval(tmp_path, edit)
        assert code == 4 and not records.exists()
        assert "b_i" in capsys.readouterr().err

    def test_missing_word_table_file_exit_4(self, tmp_path, capsys):
        missing = tmp_path / "gone" / "embeddings.txt"

        def edit(wc):
            wc["encoder"]["word"]["source"] = {"kind": "file", "path": str(missing)}

        code, records = self.run_eval(tmp_path, edit)
        assert code == 4 and not records.exists()
        err = capsys.readouterr().err
        assert "checkpoint error" in err and "embeddings.txt" in err

    @pytest.mark.parametrize("edit", [
        lambda ckpt: ckpt.pop("tags"),
        lambda ckpt: ckpt.pop("encoder"),
        lambda ckpt: ckpt.pop("seed"),
        lambda ckpt: ckpt.update(tags="sd b qy"),
        lambda ckpt: ckpt.update(tags=["sd", "b"]),
        lambda ckpt: ckpt.update(tags=["sd", "b", "sd"]),
        lambda ckpt: ckpt.update(tags=["sd", "b", 3]),
    ], ids=["no_tags", "no_encoder", "no_seed", "tags_a_string", "too_few_tags",
            "duplicate_tags", "a_tag_not_a_string"])
    def test_incomplete_metadata_in_both_exit_4(self, tmp_path, capsys, edit):
        code, records = self.run_eval(tmp_path, edit, nc_too=True)
        assert code == 4 and not records.exists()
        assert capsys.readouterr().err.startswith("checkpoint error: ")

    def test_tags_differing_from_the_first_checkpoints_exit_4(self, tmp_path, capsys):
        code, records = self.run_eval(tmp_path, lambda wc: wc.update(tags=["qy", "b", "sd"]))
        assert code == 4 and not records.exists()
        assert capsys.readouterr().err == ("checkpoint error: tag vocabulary mismatch "
                                           "between checkpoints (wc.ckpt.json)\n")

    @staticmethod
    def onehot_as_file(wc, path, digest=True):
        """Write the WC checkpoint's one-hot word table to ``path`` and make
        the checkpoint name the file, with its sha256 when ``digest``."""
        vocab = wc["encoder"]["word"]["source"]["vocabulary"]
        path.write_text("".join(
            tok + "".join(" 1.0" if j == i else " 0.0" for j in range(len(vocab))) + "\n"
            for i, tok in enumerate(vocab)))
        source = {"kind": "file", "path": str(path)}
        if digest:
            source["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        wc["encoder"]["word"]["source"] = source

    @pytest.mark.parametrize("digest", [True, False])
    def test_file_word_table_evaluates_as_its_one_hot_form(self, tmp_path, digest):
        table = tmp_path / "table.txt"
        runs = [tmp_path / "onehot", tmp_path / "file"]
        for run in runs:
            run.mkdir()
        code, onehot = self.run_eval(runs[0], lambda wc: None)
        assert code == 0
        code, records = self.run_eval(runs[1], lambda wc: self.onehot_as_file(wc, table, digest))
        assert code == 0 and records.read_bytes() == onehot.read_bytes()

    def test_changed_word_table_file_exit_4(self, tmp_path, capsys):
        table = tmp_path / "table.txt"

        def edit(wc):
            self.onehot_as_file(wc, table)
            table.write_text(table.read_text().replace("1.0", "2.0", 1))

        code, records = self.run_eval(tmp_path, edit)
        assert code == 4 and not records.exists()
        err = capsys.readouterr().err
        assert f"word table {table} changed" in err

    def test_empty_test_split_exit_2(self, tmp_path, capsys, monkeypatch):
        from ctxda import cli as cli_mod

        def no_checkpoint_may_load(path):
            raise AssertionError(f"loaded {path}")

        monkeypatch.setattr(cli_mod, "load_checkpoint", no_checkpoint_may_load)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, records = self.run_eval(tmp_path, lambda wc: None, test=empty)
        assert code == 2 and not records.exists()
        assert "prepared corpus split is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("changed", [False, True])
    def test_feature_file_is_checked_by_its_digest(self, tmp_path, capsys, changed):
        features = tmp_path / "features.tsv"

        def edit(wc):
            # the word part's own features as a feature file, negated once stored
            word = encoder_from_config(wc["encoder"]["word"])
            utterances = [u for conv in load_jsonl(DATA / "v1_conversations.jsonl")
                          for u in conv.utterances]

            def write(sign):
                features.write_text("".join(
                    f"{u.conversation_id}\t{u.index}\t"
                    + ",".join(repr(sign * float(v)) for v in word.encode_utterance(u)) + "\n"
                    for u in utterances))

            write(1.0)
            wc["encoder"]["word"] = encoder_to_config(PrecomputedEncoder.from_files([features]))
            if changed:
                write(-1.0)

        code, records = self.run_eval(tmp_path, edit)
        if changed:
            assert code == 4 and not records.exists()
            assert f"feature files {[str(features)]} changed" in capsys.readouterr().err
        else:
            assert code == 0 and records.exists()

    @pytest.mark.parametrize("kind", ["embeddings", "features"])
    def test_non_finite_encoder_file_exit_4(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.txt"
        if kind == "embeddings":
            bad.write_text("hi 1.0 2.0\nyo 3.0 -inf\n")
            part = {"type": "word", "dim": 2, "source": {"kind": "file", "path": str(bad)}}
        else:
            bad.write_text("c\t0\t1.0,2.0\nc\t1\tnan,2.0\n")
            part = {"type": "precomputed", "paths": [str(bad)], "dim": 2}

        def edit(wc):
            wc["encoder"]["word"] = part

        code, records = self.run_eval(tmp_path, edit)
        assert code == 4 and not records.exists()
        assert f"{bad}:2: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("given_nc, given_wc, refused", [
        ("wc", "wc", "expected a baseline checkpoint, got uttattbirnn"),
        ("nc", "nc", "expected a uttattbirnn checkpoint, got baseline"),
        ("wc", "nc", "expected a baseline checkpoint, got uttattbirnn"),
    ])
    def test_checkpoint_of_the_other_kind_exit_4(self, tmp_path, capsys, given_nc,
                                                 given_wc, refused):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for split in ("train.jsonl", "test.jsonl"):
            shutil.copy(DATA / "v1_conversations.jsonl", corpus / split)
        fixture = {"nc": DATA / "v1_nc_word.ckpt.json", "wc": DATA / "v1_wc_concat.ckpt.json"}
        TagVocabulary(json.loads(fixture["wc"].read_text())["tags"]).save(corpus / "tags.txt")
        config, _ = write_config(tmp_path, paths={"corpus_dir": str(corpus)})
        code = main(["--config", str(config), "eval",
                     "--nc", str(fixture[given_nc]), "--wc", str(fixture[given_wc])])
        assert code == 4
        assert not (tmp_path / "run" / "eval_records.jsonl").exists()
        err = capsys.readouterr().err
        assert "checkpoint error" in err and refused in err

    def test_n_context_comes_from_the_wc_checkpoint(self, tmp_path):
        code, records = self.run_eval(tmp_path, lambda wc: None, n_context=4)
        assert code == 0
        assert {len(r.attention) for r in load_records(records)} == {3}

    def test_wc_checkpoints_disagreeing_on_n_context_exit_4(self, tmp_path, capsys):
        def edit(wc):
            wc["model"]["n_context"] = 4

        code, records = self.run_eval(tmp_path, edit,
                                      also_wc=[DATA / "v1_wc_concat.ckpt.json"])
        assert code == 4 and not records.exists()
        assert "n_context" in capsys.readouterr().err

    def test_one_row_encoder_matrix_exit_4(self, tmp_path, capsys):
        def edit(wc):
            w_ix = wc["encoder"]["char"]["weights"]["w_ix"]
            w_ix["values"] = w_ix["values"][: w_ix["cols"]]
            w_ix["rows"] = 1

        code, records = self.run_eval(tmp_path, edit)
        assert code == 4 and not records.exists()
        assert "w_ix" in capsys.readouterr().err

    def test_char_inventory_disagreeing_with_input_dim_exit_4(self, tmp_path, capsys):
        # 26 characters need input_dim 27; the stored cell has input_dim 5,
        # and an "e" in the text would index past its input columns
        conversations = tmp_path / "conversations.jsonl"
        lines = (DATA / "v1_conversations.jsonl").read_text().splitlines()
        conv = json.loads(lines[0])
        conv["utterances"][0]["text"] = "bed a"
        conversations.write_text("\n".join([json.dumps(conv)] + lines[1:]) + "\n")

        def edit(wc):
            wc["encoder"]["char"]["chars"] = "abcdefghijklmnopqrstuvwxyz"

        code, records = self.run_eval(tmp_path, edit, conversations=conversations)
        assert code == 4 and not records.exists()
        err = capsys.readouterr().err
        assert "input_dim 27" in err and "stored input_dim is 5" in err

    def test_non_finite_prediction_exit_4(self, tmp_path, capsys):
        # finite weights whose products overflow: the BiRNN states saturate at
        # tanh(30) = 1, so every summary entry is tanh(1), and output rows of
        # +-1.7e308 then give logits of +inf and -inf, which softmax turns
        # into NaN
        def edit(wc):
            params = wc["params"]
            for name in ("fwd.w_in", "fwd.w_rec", "bwd.w_in", "bwd.w_rec", "fwd.bias",
                         "bwd.bias"):
                fill = 30.0 if name.endswith("bias") else 0.0
                params[name]["values"] = [fill] * len(params[name]["values"])
            out = params["out.weight"]
            out["values"] = ([1.7e308] * out["cols"] + [-1.7e308] * out["cols"]
                             + [0.0] * out["cols"] * (out["rows"] - 2))

        with np.errstate(over="ignore", invalid="ignore"):
            code, records = self.run_eval(tmp_path, edit)
        assert code == 4 and not records.exists()
        assert "not a finite distribution" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", list(MALFORMED_VALUES))
    @pytest.mark.parametrize("part", ["model", "encoder"])
    def test_malformed_values_exit_4(self, tmp_path, capsys, part, kind):
        name, shape = ("att.score", (4, 1)) if part == "model" else ("w_mh", (3, 3))

        def edit(wc):
            params = wc["params"] if part == "model" else wc["encoder"]["char"]["weights"]
            params[name]["values"] = MALFORMED_VALUES[kind](params[name]["values"])

        code, records = self.run_eval(tmp_path, edit)
        assert code == 4 and not records.exists()
        # the model's parameters are refused while its checkpoint loads
        where = f"malformed checkpoint {tmp_path / 'wc.ckpt.json'}: " if part == "model" else ""
        assert capsys.readouterr().err == f"checkpoint error: {where}{refusal(kind, name, shape)}\n"

    @pytest.mark.parametrize("edit", [
        lambda wc: wc.update(encoder=["char", "word"]),
        lambda wc: wc["encoder"]["word"].update(source="onehot"),
    ], ids=["encoder_not_an_object", "word_source_a_string"])
    def test_malformed_encoder_entry_exit_4(self, tmp_path, capsys, edit):
        code, records = self.run_eval(tmp_path, edit)
        assert code == 4 and not records.exists()
        assert "checkpoint error" in capsys.readouterr().err


class TestAnalyze:
    def run_eval(self, config, out):
        assert main([
            "--config", str(config), "eval",
            "--nc", str(out / "baseline_word.ckpt.json"),
            "--wc", str(out / "uttattbirnn_word.ckpt.json"),
        ]) == 0

    def test_full_outputs(self, pipeline, capsys):
        config, out = pipeline
        self.run_eval(config, out)
        code = main([
            "--config", str(config), "analyze",
            "--records", str(out / "eval_records.jsonl"),
        ])
        assert code == 0
        for name in (
            "failure_pairs.csv", "rescue_pairs.csv", "confidence.json",
            "attention_profile.csv", "short_utterance_profile.json",
            "attention_profile.svg", "confidence.svg",
        ):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "rescued by context" in stdout
        assert "attention profile" in stdout

    def test_confidence_json_is_the_stats_dataclass(self, pipeline):
        config, out = pipeline
        self.run_eval(config, out)
        assert main(["--config", str(config), "analyze",
                     "--records", str(out / "eval_records.jsonl")]) == 0
        stats = confidence_stats(load_records(out / "eval_records.jsonl"))
        assert (out / "confidence.json").read_text() == json.dumps(dataclasses.asdict(stats)) + "\n"

    def test_multi_run_profile(self, pipeline, capsys):
        config, out = pipeline
        self.run_eval(config, out)
        code = main([
            "--config", str(config), "analyze",
            "--records", str(out / "eval_records.jsonl"),
            str(out / "eval_records.jsonl"), "--runs", "2",
        ])
        assert code == 0
        assert "over 2 runs" in capsys.readouterr().out
        assert (out / "attention_profile_runs.svg").exists()

    def test_runs_disagreeing_with_record_files_writes_nothing(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        obj = {"conversation_id": "a", "utterance_index": 0, "gold": "sd", "nc_pred": "sd",
               "wc_pred": "sd", "nc_probs": [1.0, 0.0], "wc_probs": [1.0, 0.0],
               "attention": [0.5, 0.5], "n_tokens": 1}
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        code = main(["--config", str(config), "analyze", "--records", str(path),
                     "--runs", "3"])
        assert code == 5
        assert "--runs 3" in capsys.readouterr().err
        assert [name for name in self.OUTPUTS if (tmp_path / "run" / name).exists()] == []

    def test_empty_records_exit_5(self, pipeline, capsys):
        config, out = pipeline
        empty = out / "empty.jsonl"
        empty.write_text("")
        assert main(["--config", str(config), "analyze", "--records", str(empty)]) == 5
        assert "empty records" in capsys.readouterr().err

    def test_records_without_attention_exit_5(self, pipeline, capsys):
        config, out = pipeline
        self.run_eval(config, out)
        stripped = out / "noatt.jsonl"
        lines = []
        for line in (out / "eval_records.jsonl").read_text().splitlines():
            obj = json.loads(line)
            obj["attention"] = None
            lines.append(json.dumps(obj))
        stripped.write_text("\n".join(lines) + "\n")
        assert main(["--config", str(config), "analyze", "--records", str(stripped)]) == 5

    OUTPUTS = ("failure_pairs.csv", "rescue_pairs.csv", "confidence.json",
               "attention_profile.csv", "short_utterance_profile.json",
               "attention_profile.svg", "attention_profile_runs.svg", "confidence.svg")

    @pytest.mark.parametrize("bad_set", [0, 1])
    @pytest.mark.parametrize("fault", ["no-attention", "other-width"])
    def test_bad_attention_in_any_set_writes_nothing(self, tmp_path, capsys, bad_set, fault):
        config, _ = write_config(tmp_path)
        obj = {"conversation_id": "a", "utterance_index": 0, "gold": "sd", "nc_pred": "sd",
               "wc_pred": "sd", "nc_probs": [1.0, 0.0], "wc_probs": [1.0, 0.0],
               "attention": [0.5, 0.5], "n_tokens": 1}
        bad = {**obj, "attention": None if fault == "no-attention" else [0.5, 0.25, 0.25]}
        paths = []
        for k in range(2):
            path = tmp_path / f"records{k}.jsonl"
            path.write_text(json.dumps(bad if k == bad_set else obj) + "\n")
            paths.append(str(path))
        assert main(["--config", str(config), "analyze", "--records", *paths]) == 5
        assert "analysis input error" in capsys.readouterr().err
        assert [name for name in self.OUTPUTS if (tmp_path / "run" / name).exists()] == []

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["wc_probs", "attention"])
    def test_non_finite_record_exit_5(self, tmp_path, capsys, field, literal):
        config, _ = write_config(tmp_path)
        obj = {"conversation_id": "c", "utterance_index": 0, "gold": "sd", "nc_pred": "sd",
               "wc_pred": "sd", "nc_probs": [1.0, 0.0], "wc_probs": [1.0, 0.0],
               "attention": [0.5, 0.5], "n_tokens": 1}
        line = json.dumps(obj).replace(json.dumps(obj[field]), f"[{literal}, 0.5]", 1)
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(obj) + "\n" + line + "\n")
        assert main(["--config", str(config), "analyze", "--records", str(path)]) == 5
        err = capsys.readouterr().err
        assert "cannot load records" in err and ":2:" in err
        assert not (tmp_path / "run" / "confidence.json").exists()

    @pytest.mark.parametrize("change", [
        {"n_tokens": "3"}, {"n_tokens": 3.0}, {"n_tokens": True}, {"utterance_index": "0"},
        {"gold": 7}, {"nc_pred": None}, {"conversation_id": 1},
        {"nc_probs": [1.0], "wc_probs": [0.2] * 5}, {"wc_probs": [1.0, 0.0, 0.0]},
        {"nc_probs": ["1.0", "0.0"]}, {"attention": [True, False]},
    ], ids=["n_tokens_str", "n_tokens_float", "n_tokens_bool", "index_str", "gold_int",
            "nc_pred_null", "id_int", "nc_probs_shorter", "wc_probs_longer",
            "nc_probs_strings", "attention_bools"])
    def test_mistyped_record_exit_5(self, tmp_path, capsys, change):
        config, _ = write_config(tmp_path)
        obj = {"conversation_id": "c", "utterance_index": 0, "gold": "sd", "nc_pred": "sd",
               "wc_pred": "sd", "nc_probs": [1.0, 0.0], "wc_probs": [1.0, 0.0],
               "attention": [0.5, 0.5], "n_tokens": 1}
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(obj) + "\n" + json.dumps({**obj, **change}) + "\n")
        assert main(["--config", str(config), "analyze", "--records", str(path)]) == 5
        err = capsys.readouterr().err
        assert "cannot load records" in err and ":2:" in err
        assert [name for name in self.OUTPUTS if (tmp_path / "run" / name).exists()] == []

    @pytest.mark.parametrize("change, message", [
        ({}, "utterance 0 of 'c' is recorded twice"),
        ({"nc_probs": [1.0, 0.0, 0.0], "wc_probs": [1.0, 0.0, 0.0]}, "class count 3"),
        ({"attention": [0.5, 0.25, 0.25]}, "attention length 3"),
        ({"n_tokens": -3}, "n_tokens must be at least 0, got -3"),
    ], ids=["repeated_key", "class_count", "attention_length", "negative_n_tokens"])
    def test_inconsistent_record_file_exit_5(self, tmp_path, capsys, change, message):
        # each record is well formed alone; the file as a whole is not
        config, _ = write_config(tmp_path)
        obj = {"conversation_id": "c", "utterance_index": 0, "gold": "sd", "nc_pred": "sd",
               "wc_pred": "sd", "nc_probs": [1.0, 0.0], "wc_probs": [1.0, 0.0],
               "attention": [0.5, 0.5], "n_tokens": 1}
        second = {**obj, "utterance_index": 1} if change else obj
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(obj) + "\n" + json.dumps({**second, **change}) + "\n")
        assert main(["--config", str(config), "analyze", "--records", str(path)]) == 5
        err = capsys.readouterr().err
        assert f"cannot load records: {path}:2: bad eval record: {message}" in err
        assert [name for name in self.OUTPUTS if (tmp_path / "run" / name).exists()] == []

    @staticmethod
    def golden_records(path, run):
        """Six records over three tags whose probabilities and attention
        weights are exact binary fractions; the utterances have 1 to 6 tokens,
        and the two runs weigh the three attention profiles differently."""
        tags = ("sd", "b", "qy")
        profiles = ([0.5, 0.25, 0.25], [0.25, 0.625, 0.125], [0.125, 0.125, 0.75])
        lines = []
        for i in range(6):
            gold, nc, wc = tags[i % 3], tags[(i + i % 2) % 3], tags[(i + run) % 3]
            lines.append(json.dumps({
                "conversation_id": f"c{i // 3}", "utterance_index": i % 3, "gold": gold,
                "nc_pred": nc, "wc_pred": wc,
                "nc_probs": [0.75 if t == nc else 0.125 for t in tags],
                "wc_probs": [0.625 if t == wc else 0.1875 for t in tags],
                "attention": profiles[(i * i + run) % 3],
                "n_tokens": i + 1}))
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    # sha256 of each chart ``analyze`` draws from the two golden record files
    GOLDEN_SVGS = {
        "attention_profile.svg":
            "86d03eaf5335233cb65237663cc2cfd86abff415ede44798e5956852f6466f5f",
        "attention_profile_runs.svg":
            "91577c38d875ecdeef1335a4b10ef5eec21d0e2cce0a89b719b1c663eff2fb58",
        "confidence.svg":
            "1016169db7b28d2851cb89262cf3efad4b9ccf99d82a0a79df03b86ca494aa07",
    }

    @pytest.mark.parametrize("short_max_tokens", [2, 0])
    def test_golden_outputs(self, tmp_path, short_max_tokens):
        config, _ = write_config(tmp_path, analysis={"short_max_tokens": short_max_tokens})
        paths = [self.golden_records(tmp_path / f"records{run}.jsonl", run) for run in (0, 1)]
        assert main(["--config", str(config), "analyze", "--records", *paths]) == 0
        out = tmp_path / "run"
        for name, digest in self.GOLDEN_SVGS.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        records = load_records(paths[0])
        short = [r.attention for r in records if r.n_tokens <= short_max_tokens]
        expected = {
            "max_tokens": short_max_tokens,
            "n_sliced": len(short),
            "slice_mean": np.mean(short, axis=0).tolist() if short else None,
            "full_mean": np.mean([r.attention for r in records], axis=0).tolist(),
        }
        assert (out / "short_utterance_profile.json").read_text() == json.dumps(expected) + "\n"

    CHARTS = ("attention_profile.svg", "attention_profile_runs.svg", "confidence.svg")

    @pytest.mark.parametrize("svg, runs, left", [
        (True, 1, ["attention_profile.svg", "confidence.svg"]),
        (False, 2, []),
    ], ids=["one-run", "svg-off"])
    def test_charts_not_drawn_are_removed(self, tmp_path, svg, runs, left):
        config, _ = write_config(tmp_path)
        paths = [self.golden_records(tmp_path / f"records{run}.jsonl", run) for run in (0, 1)]
        assert main(["--config", str(config), "analyze", "--records", *paths]) == 0
        assert all((tmp_path / "run" / name).exists() for name in self.CHARTS)
        config, _ = write_config(tmp_path, analysis={"svg": svg})
        assert main(["--config", str(config), "analyze", "--records", *paths[:runs]]) == 0
        assert [name for name in self.CHARTS if (tmp_path / "run" / name).exists()] == left

    def test_negative_short_max_tokens_exit_2_before_reading(self, tmp_path, capsys,
                                                             monkeypatch):
        from ctxda import cli as cli_mod

        config, _ = write_config(tmp_path, analysis={"short_max_tokens": -1})
        path = self.golden_records(tmp_path / "records.jsonl", 0)
        monkeypatch.setattr(cli_mod.ana, "load_records",
                            lambda path: pytest.fail("records read before the check"))
        assert main(["--config", str(config), "analyze", "--records", path]) == 2
        assert capsys.readouterr().err == (
            "error: analysis.short_max_tokens must be at least 0, got -1\n")
        assert [name for name in self.OUTPUTS if (tmp_path / "run" / name).exists()] == []


class TestConfig:
    def test_invalid_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["--config", str(bad), "synth"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_seed_flag_overrides(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert main(["--config", str(config), "--seed", "99", "synth"]) == 0
        first = (tmp_path / "run" / "corpus" / "train.jsonl").read_bytes()
        assert main(["--config", str(config), "synth"]) == 0
        assert (tmp_path / "run" / "corpus" / "train.jsonl").read_bytes() != first

    @pytest.mark.parametrize("config, key", [
        ({"hiden_dim": 3}, "hiden_dim"),
        ({"model": {"hiden_dim": 3}}, "model.hiden_dim"),
        ({"train": {"batchsize": 3}}, "train.batchsize"),
        ({"paths": {"corpus": "c"}}, "paths.corpus"),
        ({"swda": {"text": "t"}}, "swda.text"),
        ({"synthetic": {"classes": 3}}, "synthetic.classes"),
        ({"synthetic": {"seed": 3}}, "synthetic.seed"),
        ({"analysis": {"svgs": False}}, "analysis.svgs"),
        ({"train": 3}, "train"),
        ({"paths": ["a"]}, "paths"),
    ])
    def test_refused_key_exit_2_before_any_output(self, tmp_path, capsys, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path / "run"), **config}))
        assert main(["--config", str(path), "synth"]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("config, key", [
        ({"train": {"batch_size": "16"}}, "train.batch_size"),
        ({"train": {"batch_size": True}}, "train.batch_size"),
        ({"train": {"batch_size": 16.0}}, "train.batch_size"),
        ({"train": {"learning_rate": "1e-3"}}, "train.learning_rate"),
        ({"train": {"learning_rate": None}}, "train.learning_rate"),
        ({"train": {"split_by_conversation": 1}}, "train.split_by_conversation"),
        ({"seed": "0"}, "seed"),
        ({"model": {"attention_dim": "x"}}, "model.attention_dim"),
        ({"model": {"attention_dim": 4.0}}, "model.attention_dim"),
        ({"synthetic": {"transition": [1, 2]}}, "synthetic.transition"),
        ({"synthetic": {"response_words": ["ok", 3]}}, "synthetic.response_words"),
        ({"paths": {"embeddings": 3}}, "paths.embeddings"),
        ({"paths": {"features": "f.tsv"}}, "paths.features"),
        ({"paths": {"features": [1]}}, "paths.features"),
        ({"swda": {"tag_map": {"a": "b"}}}, "swda.tag_map"),
        ({"analysis": {"svg": "yes"}}, "analysis.svg"),
    ])
    def test_wrong_type_exit_2_before_any_output(self, tmp_path, capsys, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path / "run"), **config}))
        for command in (["synth"], ["train", "--model", "baseline"]):
            assert main(["--config", str(path), *command]) == 2
            assert f"config key '{key}' must be" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("config", [
        {"train": {"learning_rate": 1}},
        {"model": {"attention_dim": 4, "dropout_rate": 0}},
        {"model": {"attention_dim": None}},
        {"synthetic": {"transition": {"0": 1, "1": 0}, "response_words": []}},
        {"paths": {"embeddings": "e.txt", "features": ["a.tsv", "b.tsv"]}},
    ])
    def test_right_type_accepted(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        merged = load_config(str(path))
        for section, values in config.items():
            assert {k: merged[section][k] for k in values} == values

    def test_every_null_default_has_a_type(self):
        from ctxda.cli import _NULLABLE

        nulls = {f"{section}.{key}" for section, values in DEFAULT_CONFIG.items()
                 if isinstance(values, dict) for key, value in values.items() if value is None}
        assert nulls == set(_NULLABLE)

    def test_defaults_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(DEFAULT_CONFIG))
        assert load_config(str(path)) == DEFAULT_CONFIG == load_config(None)

    def test_readme_table_matches_the_defaults(self):
        text = README.read_text()
        block = text[text.index("## Config reference"):]
        block = block[block.index("```text\n") + 8:]
        block = block[:block.index("```")]
        documented = {}
        for line in block.splitlines():
            if line and not line[0].isspace():  # indented lines continue the one above
                match = re.match(r"(\S+) \((.*?)\)(?: {2,}|$)", line)
                assert match, line
                documented[match[1]] = json.loads(match[2])

        def leaves(cfg, prefix=""):
            for key, value in cfg.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield prefix + key, value

        assert documented == dict(leaves(DEFAULT_CONFIG))


# the package's writers that take a path: each writes version 0 or 1 of its output
WRITERS = {
    "write_json_file": lambda path, v: write_json_file(path, {"v": v, "values": [v / 3] * 40}),
    "write_records": lambda path, v: write_records(path, [
        EvalRecord("c", i, "sd", "sd", "b", [0.75, 0.25], [0.5, 0.5]) for i in range(2 + v)]),
    "write_pair_csv": lambda path, v: write_pair_csv(path, [
        ConfusionPairRow("sd", "b", "qy", n, 12.5) for n in range(2 + v)]),
    "write_history_csv": lambda path, v: write_history_csv(path, [
        EpochStats(epoch, 1e-3, 0.5 / epoch, 50.0) for epoch in range(1, 3 + v)]),
    "write_jsonl": lambda path, v: write_jsonl(path, [
        Conversation(f"c{k}", [Utterance(f"c{k}", 0, "hi there", "sd")]) for k in range(2 + v)]),
    "TagVocabulary.save": lambda path, v: TagVocabulary(["b", "qy", "sd", "sv"][:3 + v]).save(path),
}


class TestEveryOutputWholeOrNotAtAll:
    """A write that fails, cut off half way or refused at its final rename,
    leaves the earlier file at its path byte for byte and no temporary file."""

    @pytest.mark.parametrize("fault", ["fill_disk", "refuse_replace"])
    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch, writer, fault):
        write, probe, path = WRITERS[writer], tmp_path / "probe", tmp_path / "out" / "file"
        write(probe, 1)
        path.parent.mkdir()
        write(path, 0)
        earlier = path.read_bytes()
        assert probe.read_bytes() != earlier
        if fault == "fill_disk":
            fill_disk(monkeypatch, budget=len(probe.read_bytes()) // 2)
        else:
            refuse_replace(monkeypatch)
        with pytest.raises(OSError):
            write(path, 1)
        assert path.read_bytes() == earlier
        assert list(path.parent.iterdir()) == [path]

    @pytest.mark.parametrize("fault", ["fill_disk", "refuse_replace"])
    @pytest.mark.parametrize("name", ["attention_profile.csv", *TestAnalyze.CHARTS])
    def test_failed_analyze_output_keeps_the_earlier_file(self, tmp_path, capsys, monkeypatch,
                                                          name, fault):
        config, _ = write_config(tmp_path)
        r0, r1 = (TestAnalyze.golden_records(tmp_path / f"records{run}.jsonl", run)
                  for run in (0, 1))
        assert main(["--config", str(config), "analyze", "--records", r0, r1]) == 0
        earlier = (tmp_path / "run" / name).read_bytes()
        r2 = tmp_path / "records2.jsonl"  # run 1 with other WC confidences
        objs = [json.loads(line) for line in Path(r1).read_text().splitlines()]
        for obj in objs:
            obj["wc_probs"] = [0.5 if p == max(obj["wc_probs"]) else 0.25 for p in obj["wc_probs"]]
        r2.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        inject(monkeypatch, fault, name)
        capsys.readouterr()
        assert main(["--config", str(config), "analyze", "--records", str(r2), r0, r0]) == 2
        assert str(tmp_path / "run" / name) in capsys.readouterr().err  # the file that failed
        assert (tmp_path / "run" / name).read_bytes() == earlier
        assert list((tmp_path / "run").glob("*.tmp")) == []

    @pytest.mark.parametrize("fault", ["fill_disk", "refuse_replace"])
    def test_failed_embeddings_write_leaves_no_corpus(self, tmp_path, capsys, monkeypatch,
                                                      fault):
        # embeddings.txt belongs to the corpus it was cut for: the earlier one
        # is removed with that corpus, and the new set lacks its tags.txt
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"id": "a", "utterances": [{"text": "hi", "act_tag": "x"}]}\n')
        emb = tmp_path / "emb.txt"
        emb.write_text("hi 1.0 2.0 3.0 4.0 5.0\n")
        config, _ = write_config(tmp_path, paths={
            "raw_train": str(raw), "raw_test": str(raw), "embeddings": str(emb)})
        assert main(["--config", str(config), "prepare"]) == 0
        inject(monkeypatch, fault, "embeddings.txt")
        assert main(["--config", str(config), "prepare"]) == 2
        monkeypatch.undo()
        corpus = tmp_path / "run" / "corpus"
        assert sorted(p.name for p in corpus.iterdir()) == ["test.jsonl", "train.jsonl"]
        capsys.readouterr()
        assert main(["--config", str(config), "train", "--model", "baseline"]) == 2
        assert f"{corpus / 'tags.txt'} (run prepare or synth)" in capsys.readouterr().err
