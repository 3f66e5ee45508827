"""Each output check passes on the program's outputs and fails on a copy
with one value corrupted."""

import dataclasses
import json
import shutil
from collections import Counter, defaultdict

import pytest
from ctxda import corpus

import checks
from helpers import TINY, run_tiny


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_tiny(tmp_path_factory.mktemp("tiny"))


def edit_records(out_dir, edit):
    path = out_dir / "eval_records.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def nudge_probability(out_dir):
    def edit(records):
        probs = records[3]["wc_probs"]
        probs[0] += 1e-6  # keeps the argmax and, within the program's own tolerance, the sum
    edit_records(out_dir, edit)


def change_gold(out_dir):
    def edit(records):
        records[2]["gold"] = next(t for t in ("c0", "c1") if t != records[2]["gold"])
    edit_records(out_dir, edit)


def change_weight(out_dir):
    path = out_dir / "m1" / "uttattbirnn_word.ckpt.json"
    ckpt = json.loads(path.read_text())
    ckpt["params"]["out.bias"]["values"][0] += 1e-3
    path.write_text(json.dumps(ckpt))


def change_rescue_csv(out_dir):
    path = out_dir / "rescue_pairs.csv"
    lines = path.read_text().splitlines()
    lines.append("c0,c1,c0,1,0.01")
    path.write_text("\n".join(lines) + "\n")


def change_attention_csv(out_dir):
    path = out_dir / "attention_profile.csv"
    header, row = path.read_text().splitlines()[:2]
    cells = row.split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    path.write_text(header + "\n" + ",".join(cells) + "\n")


def change_bayes_bound(corpus_dir):
    path = corpus_dir / "synth_summary.json"
    summary = json.loads(path.read_text())
    summary["bayes_nocontext_accuracy"] += 1e-9
    path.write_text(json.dumps(summary))


def test_clean_outputs_pass(outputs):
    corpus_dir, out_dir = outputs
    errors, facts = checks.check_round(TINY, corpus_dir, out_dir)
    assert errors == []
    assert len(facts["digest"]) == 64


@pytest.mark.parametrize("corrupt, caught_by", [
    (nudge_probability, "wc_probs: record 3 differs from the reference"),
    (change_gold, "test.jsonl says"),
    (change_weight, "wc_probs: record"),
    (change_rescue_csv, "rescue_pairs.csv"),
    (change_attention_csv, "attention_profile.csv"),
])
def test_corrupted_output_fails(outputs, tmp_path, corrupt, caught_by):
    corpus_dir, out_dir = outputs
    copy = tmp_path / "round"
    shutil.copytree(out_dir, copy)
    corrupt(copy)
    errors, _ = checks.check_round(TINY, corpus_dir, copy)
    assert any(caught_by in e for e in errors), errors


def test_corrupted_bayes_bound_fails(outputs, tmp_path):
    corpus_dir, _ = outputs
    assert checks.check_synth(TINY, corpus_dir) is None
    copy = tmp_path / "corpus"
    shutil.copytree(corpus_dir, copy)
    change_bayes_bound(copy)
    assert "bayes_nocontext_accuracy" in checks.check_synth(TINY, copy)


def test_accuracy_gates_fail_below_their_thresholds(outputs):
    corpus_dir, out_dir = outputs
    strict = dataclasses.replace(TINY, beats_bayes=True, min_context_gain=101.0)
    errors, _ = checks.check_round(strict, corpus_dir, out_dir)
    assert any("points" in e for e in errors)


def test_reruns_are_byte_identical(outputs, tmp_path):
    _, out_dir = outputs
    _, again = run_tiny(tmp_path)
    assert checks.digest(TINY, again) == checks.digest(TINY, out_dir)


def test_bayes_bound_closed_form():
    assert checks.bayes_bound({"n_classes": 5, "conversation_length": 14,
                               "mode": "previous"}) == pytest.approx(3.6 / 14, abs=1e-15)
    assert checks.bayes_bound({"n_classes": 5, "conversation_length": 14,
                               "mode": "mixed"}) == pytest.approx(0.5 + 1.8 / 14, abs=1e-15)


@pytest.mark.parametrize("mode", ["previous", "mixed"])
def test_bayes_bound_matches_the_best_text_blind_rule(mode):
    """The closed form against the best rule that sees only the utterance
    text, scored on a large draw of the program's own generator. Given its
    class (or that it is a response), a text's words are drawn apart from
    its tag, so the rule needs only that key, and each key has thousands of
    utterances to take the majority tag over."""
    synthetic = {"n_classes": 5, "mode": mode, "n_conversations": 3000,
                 "conversation_length": 14}
    spec = corpus.SyntheticSpec(seed=3, **synthetic)
    key_of = {w: c for c in range(spec.n_classes) for w in spec.class_words(c)}
    key_of.update((w, "response") for w in spec.response_words)
    by_key: dict[object, Counter] = defaultdict(Counter)
    for conv in corpus.generate_synthetic(spec):
        for u in conv.utterances:
            by_key[key_of[u.text.split()[0]]][u.act_tag] += 1
    best = sum(c.most_common(1)[0][1] for c in by_key.values())
    total = sum(sum(c.values()) for c in by_key.values())
    assert best / total == pytest.approx(checks.bayes_bound(synthetic), abs=0.01)
