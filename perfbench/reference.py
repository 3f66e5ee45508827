"""Plain-numpy forward pass over v1 checkpoint JSON, written from the README.

It shares no code with ``ctxda``: it reads the checkpoint file and the test
corpus JSONL itself, and batches every window of a split into one matrix
product per step, so its arithmetic differs from the kernel's one-window
graph. Agreement to a tight tolerance therefore checks the program's
numbers, and stays a valid check when the kernel reorders its arithmetic.

Covered: one-hot word-mean features, character mLSTM mean-state features,
their concatenation (character part first), the no-context MLP and the
context BiRNN with attention, padding visible to attention. The attention
profile is reported current-utterance-first. Any other configuration raises,
so a workload cannot drift outside what the reference checks.
"""

from __future__ import annotations

import json
import re

import numpy as np

_TOKEN = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase; runs of word characters, and each other non-space character."""
    return _TOKEN.findall(text.lower())


def load_corpus(path) -> list[tuple[str, list[tuple[str, str]]]]:
    """JSONL conversations as [(id, [(text, act_tag), ...]), ...]."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                out.append((str(obj["id"]),
                            [(str(u["text"]), str(u["act_tag"])) for u in obj["utterances"]]))
    return out


def load_checkpoint(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        ckpt = json.load(fh)
    if ckpt.get("format") != "ctxda-checkpoint" or ckpt.get("version") != 1:
        raise ValueError(f"{path}: not a v1 ctxda checkpoint")
    return ckpt


def _matrix(entry: dict) -> np.ndarray:
    return np.array(entry["values"], dtype=np.float64).reshape(entry["rows"], entry["cols"])


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# --- utterance features ------------------------------------------------------


def _word_features(cfg: dict, texts: list[str]) -> np.ndarray:
    if cfg["source"]["kind"] != "onehot":
        raise ValueError(f"word source {cfg['source']['kind']!r} is not covered")
    row = {tok: i for i, tok in enumerate(cfg["source"]["vocabulary"])}
    out = np.zeros((len(texts), len(row)))
    for n, text in enumerate(texts):
        hits = [row[t] for t in tokenize(text) if t in row]  # out-of-vocabulary tokens skip
        if hits:
            out[n] = np.bincount(hits, minlength=len(row)) / len(hits)
    return out


def _char_features(cfg: dict, texts: list[str]) -> np.ndarray:
    if cfg.get("reduce", "mean") != "mean":
        raise ValueError(f"char reduce {cfg['reduce']!r} is not covered")
    w = {name: _matrix(entry) for name, entry in cfg["weights"].items()}
    hidden = cfg["hidden_dim"]
    chars = list(dict.fromkeys(cfg["chars"]))
    index = {ch: i + 1 for i, ch in enumerate(chars)}  # 0 is the unknown character
    # the input is one-hot, so every input product is a column of the weight
    w_x = np.vstack([w["w_ix"], w["w_fx"], w["w_ox"], w["w_cx"]])
    w_m = np.vstack([w["w_im"], w["w_fm"], w["w_om"], w["w_cm"]])
    bias = np.concatenate([w["b_i"], w["b_f"], w["b_o"], w["b_c"]]).ravel()
    out = np.zeros((len(texts), hidden))
    for n, text in enumerate(texts):
        if not text:
            continue
        h = np.zeros(hidden)
        c = np.zeros(hidden)
        total = np.zeros(hidden)
        for ch in text:
            k = index.get(ch, 0)
            m = w["w_mx"][:, k] * (w["w_mh"] @ h)
            z = w_x[:, k] + w_m @ m + bias
            i = _sigmoid(z[:hidden])
            f = _sigmoid(z[hidden:2 * hidden])
            o = _sigmoid(z[2 * hidden:3 * hidden])
            c = f * c + i * np.tanh(z[3 * hidden:])
            h = o * np.tanh(c)
            total += h
        out[n] = total / len(text)
    return out


def features(cfg: dict, texts: list[str]) -> np.ndarray:
    """(len(texts), dim) utterance features for an encoder description."""
    kind = cfg.get("type")
    if kind == "word":
        return _word_features(cfg, texts)
    if kind == "char":
        return _char_features(cfg, texts)
    if kind == "concat":
        return np.hstack([features(cfg["char"], texts), features(cfg["word"], texts)])
    raise ValueError(f"encoder type {kind!r} is not covered")


def windows(feats: np.ndarray, conv_lengths: list[int], n_context: int) -> np.ndarray:
    """Every window of a split as (N, n+1, D), oldest slot first. Slots before
    a conversation start are zero vectors."""
    out, at = [], 0
    for length in conv_lengths:
        for t in range(length):
            w = np.zeros((n_context + 1, feats.shape[1]))
            for slot, k in enumerate(range(t - n_context, t + 1)):
                if k >= 0:
                    w[slot] = feats[at + k]
            out.append(w)
        at += length
    return np.array(out)


# --- models -------------------------------------------------------------------


def nc_forward(params: dict, u: np.ndarray) -> np.ndarray:
    """(N, C) probabilities of the no-context MLP over (N, D) features."""
    p = {k: _matrix(v) for k, v in params.items()}
    h1 = np.tanh(u @ p["mlp.w1"].T + p["mlp.b1"].T)
    h2 = np.tanh(h1 @ p["mlp.w2"].T + p["mlp.b2"].T)
    return _softmax_rows(h2 @ p["mlp.w_out"].T + p["mlp.b_out"].T)


def wc_forward(params: dict, x: np.ndarray):
    """(N, C) probabilities and the (N, n+1) current-first attention profile
    of the BiRNN over (N, n+1, D) windows."""
    p = {k: _matrix(v) for k, v in params.items()}
    n, steps, _ = x.shape

    def direction(prefix, order):
        h = np.zeros((n, p[prefix + ".w_rec"].shape[0]))
        states = [None] * steps
        for t in order:
            h = np.tanh(h @ p[prefix + ".w_rec"].T + x[:, t] @ p[prefix + ".w_in"].T
                        + p[prefix + ".bias"].T)
            states[t] = h
        return states

    fwd = direction("fwd", range(steps))
    bwd = direction("bwd", reversed(range(steps)))
    s = np.stack([np.hstack([f, b]) for f, b in zip(fwd, bwd)], axis=1)  # (N, T, 2H)
    projected = np.tanh(s @ p["att.proj"].T)                         # (N, T, A)
    scores = (projected @ p["att.score"])[:, :, 0]                    # (N, T)
    weights = _softmax_rows(scores)
    summary = np.tanh(np.einsum("nt,nth->nh", weights, s))
    probs = _softmax_rows(summary @ p["out.weight"].T + p["out.bias"].T)
    return probs, weights[:, ::-1]


def predict(ckpt: dict, convs, feature_cache: dict | None = None):
    """Probabilities, and the WC attention profile (None for NC), of one
    checkpoint on a corpus, one row per utterance in corpus order."""
    key = json.dumps(ckpt["encoder"], sort_keys=True)
    cache = feature_cache if feature_cache is not None else {}
    if key not in cache:
        cache[key] = features(ckpt["encoder"], [text for _, utts in convs for text, _ in utts])
    feats = cache[key]
    if ckpt["kind"] == "baseline":
        return nc_forward(ckpt["params"], feats), None
    config = ckpt["model"]
    if ckpt["kind"] != "uttattbirnn" or config["head"] != "attention" or config["mask_padding"]:
        raise ValueError(f"{ckpt['kind']} model {config} is not covered")
    x = windows(feats, [len(u) for _, u in convs], config["n_context"])
    return wc_forward(ckpt["params"], x)
