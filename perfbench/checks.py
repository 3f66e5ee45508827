"""Output checks of one round, made apart from the program.

Nothing here is compared against a stored copy of earlier output: gold tags
come from the benchmark's own parse of ``test.jsonl``, probabilities and
attention from :mod:`reference`, the Bayes bound from its closed form and
the analysis CSVs from the records. :func:`check_synth` judges the `synth`
operation; :func:`check_round` the rest of a round.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference

TOLERANCE = 1e-9   # probabilities and attention weights against the reference


def bayes_bound(synthetic: dict) -> float:
    """Expected accuracy of the best rule that sees only the current
    utterance's text, for the identity transition and start class 0 the
    workloads use.

    previous: the label is uniform except at position 0, where it is the
    start class, so the best text-blind guess is class 0 and scores
    (1 + (L - 1)/k)/L. mixed: half the utterances are self-informative; the
    other half are one response word, whose label has the same distribution
    as in previous mode, so the same guess scores that share on them.
    """
    k = synthetic["n_classes"]
    length = synthetic["conversation_length"]
    text_blind = (1 + Fraction(length - 1, k)) / length
    if synthetic["mode"] == "previous":
        return float(text_blind)
    if synthetic["mode"] == "mixed":
        return float(Fraction(1, 2) + text_blind / 2)
    return 1.0


def check_synth(workload, corpus_dir: Path) -> str | None:
    """Why the `synth` summary is wrong, or None: its Bayes bound must be
    the closed form."""
    with open(corpus_dir / "synth_summary.json", encoding="utf-8") as fh:
        reported = json.load(fh)["bayes_nocontext_accuracy"]
    bound = bayes_bound(workload.synthetic)
    if abs(reported - bound) > 1e-12:
        return f"synth reports bayes_nocontext_accuracy {reported!r}, closed form {bound!r}"
    return None


def digest(workload, out_dir: Path) -> str:
    """sha256 of the round's deterministic outputs: records, checkpoints,
    training histories and analysis CSVs."""
    files = [out_dir / "eval_records.jsonl"]
    for d in workload.model_dirs(out_dir):
        files += sorted(d.glob("*.ckpt.json")) + sorted(d.glob("*_history.csv"))
    files += [out_dir / n for n in ("failure_pairs.csv", "rescue_pairs.csv",
                                    "attention_profile.csv")]
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_records(records: list[dict], convs, tags: list[str]) -> list[str]:
    errors = []
    expected = [(cid, i, tag) for cid, utts in convs for i, (_, tag) in enumerate(utts)]
    if len(records) != len(expected):
        return [f"{len(records)} records for {len(expected)} test utterances"]
    for r, (cid, i, tag) in zip(records, expected):
        where = f"record ({r['conversation_id']}, {r['utterance_index']})"
        if (r["conversation_id"], r["utterance_index"]) != (cid, i):
            errors.append(f"{where}: expected utterance ({cid}, {i})")
        if r["gold"] != tag:
            errors.append(f"{where}: gold {r['gold']!r}, test.jsonl says {tag!r}")
        for side in ("nc", "wc"):
            top = tags[int(np.argmax(r[f"{side}_probs"]))]
            if r[f"{side}_pred"] != top:
                errors.append(f"{where}: {side}_pred {r[f'{side}_pred']!r} is not the "
                              f"argmax {top!r}")
    return errors


def check_reference(records: list[dict], convs, nc_paths, wc_paths) -> list[str]:
    """Every record's probabilities and attention against the ensemble mean
    of the reference forward over each checkpoint."""
    cache: dict = {}
    errors = []
    fields = {"nc_probs": [], "wc_probs": [], "attention": []}
    for paths, side in ((nc_paths, "nc"), (wc_paths, "wc")):
        for path in paths:
            probs, attention = reference.predict(reference.load_checkpoint(path), convs, cache)
            fields[f"{side}_probs"].append(probs)
            if side == "wc":
                fields["attention"].append(attention)
    for name, per_model in fields.items():
        got = np.array([r[name] for r in records], dtype=np.float64)
        want = np.mean(per_model, axis=0)
        if got.shape != want.shape:
            errors.append(f"{name}: shape {got.shape}, reference {want.shape}")
            continue
        worst = float(np.max(np.abs(got - want)))
        if not worst <= TOLERANCE:
            row = int(np.argmax(np.max(np.abs(got - want), axis=1)))
            errors.append(f"{name}: record {row} differs from the reference by {worst:.3g}")
    return errors


def check_rescue_csv(records: list[dict], path: Path) -> list[str]:
    counts: dict[tuple[str, str, str], int] = {}
    for r in records:
        if r["wc_pred"] == r["gold"] and r["nc_pred"] != r["gold"]:
            key = (r["gold"], r["nc_pred"], r["wc_pred"])
            counts[key] = counts.get(key, 0) + 1
    want = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = _read_csv(path)
    if rows[:1] != [["gt", "nc", "wc", "num", "pct"]] or len(rows) - 1 != len(want):
        return [f"{path.name}: {len(rows) - 1} rows, expected {len(want)}"]
    errors = []
    for row, (key, num) in zip(rows[1:], want):
        share = 100 * num / len(records)
        if tuple(row[:3]) != key or int(row[3]) != num or abs(float(row[4]) - share) > 0.005 + 1e-9:
            errors.append(f"{path.name}: row {row}, expected {list(key)} {num} ({share:.4f}%)")
    return errors


def check_attention_csv(records: list[dict], path: Path) -> list[str]:
    width = len(records[0]["attention"])
    want = [math.fsum(r["attention"][k] for r in records) / len(records) for k in range(width)]
    rows = _read_csv(path)
    if rows[0] != ["slot"] + [f"a{k}" for k in range(width)] or rows[1][0] != "mean":
        return [f"{path.name}: unexpected layout {rows[:2]}"]
    got = [float(v) for v in rows[1][1:]]
    if len(got) != width or max(abs(g - w) for g, w in zip(got, want)) > 1e-12:
        return [f"{path.name}: mean profile {got}, records give {want}"]
    return []


def accuracies(records: list[dict]) -> dict[str, float]:
    n = len(records)
    return {side: 100.0 * sum(r[f"{side}_pred"] == r["gold"] for r in records) / n
            for side in ("nc", "wc")}


def check_round(workload, corpus_dir: Path, out_dir: Path) -> tuple[list[str], dict]:
    """(errors, facts) of one finished round; facts carry the accuracies,
    the Bayes bound and the digest of the deterministic outputs."""
    convs = reference.load_corpus(corpus_dir / "test.jsonl")
    with open(corpus_dir / "tags.txt", encoding="utf-8") as fh:
        tags = [line.rstrip("\n") for line in fh if line.strip()]
    records = _read_records(out_dir / "eval_records.jsonl")

    bound = bayes_bound(workload.synthetic)
    errors = check_records(records, convs, tags)
    errors += check_reference(records, convs,
                              workload.checkpoints(out_dir, "baseline"),
                              workload.checkpoints(out_dir, "uttattbirnn"))
    errors += check_rescue_csv(records, out_dir / "rescue_pairs.csv")
    errors += check_attention_csv(records, out_dir / "attention_profile.csv")
    acc = accuracies(records)
    if workload.beats_bayes and not acc["wc"] > 100 * bound:
        errors.append(f"WC accuracy {acc['wc']:.2f}% does not beat the Bayes bound "
                      f"{100 * bound:.2f}%")
    if workload.min_context_gain is not None and acc["wc"] - acc["nc"] < workload.min_context_gain:
        errors.append(f"WC beats NC by {acc['wc'] - acc['nc']:.2f} points, "
                      f"less than {workload.min_context_gain}")
    facts = {"nc_accuracy": acc["nc"], "wc_accuracy": acc["wc"], "bayes_bound": bound,
             "digest": digest(workload, out_dir)}
    return errors, facts
