"""Utterance encoders: word-embedding mean, character mLSTM, concatenation.

Every encoder turns one utterance into a fixed-dimension feature vector
(a 1-D float64 array). Encoders are read-only after construction and expose
``dim`` plus ``encode_utterance(utt)``; the precomputed variant looks
features up by (conversation_id, utterance index) instead of re-deriving
them from text.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

from .optim import Adam, cross_entropy
from .tensor import (
    CheckpointError,
    Parameter,
    Tensor2D,
    add_bias,
    backward,
    init_params,
    matmul,
    params_from_json,
    params_to_json,
    softmax_columns,
)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, detach punctuation as separate tokens.

    Runs of word characters stay together; every other non-space character
    becomes its own token, so "don't" -> ["don", "'", "t"].
    """
    return _TOKEN_RE.findall(text.lower())


class EmbeddingTable:
    """token -> vector map with a fixed dimension.

    Lookup of an absent token returns None, which callers must treat as
    distinct from a present zero vector.
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError(f"embedding dimension must be positive, got {dim}")
        self.dim = dim
        self._entries: dict[str, np.ndarray] = {}

    def add(self, token: str, vector) -> None:
        vec = np.asarray(vector, dtype=np.float64).ravel()
        if vec.shape[0] != self.dim:
            raise ValueError(
                f"vector for {token!r} has length {vec.shape[0]}, table dim is {self.dim}"
            )
        self._entries[token] = vec

    def lookup(self, token: str) -> np.ndarray | None:
        return self._entries.get(token)

    def __len__(self) -> int:
        return len(self._entries)

    def tokens(self):
        return self._entries.keys()

    @classmethod
    def one_hot(cls, vocabulary: list[str]) -> "EmbeddingTable":
        """Indicator embeddings over a closed vocabulary (synthetic runs)."""
        table = cls(len(vocabulary))
        for tok, vec in zip(vocabulary, np.eye(len(vocabulary))):
            table.add(tok, vec)
        return table


def load_embeddings(path) -> EmbeddingTable:
    """Read a text embedding file: one "token v1 ... vD" line per entry.

    An optional first line "count dim" (two integers) is treated as a header.
    Duplicate tokens keep the last occurrence. A line whose vector length
    disagrees with the table dimension, or that holds a NaN or an infinity,
    raises with its line number.
    """
    table: EmbeddingTable | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    _count, dim = int(parts[0]), int(parts[1])
                except ValueError:
                    pass
                else:
                    table = EmbeddingTable(dim)
                    continue
            token, rest = parts[0], parts[1:]
            try:
                vec = [float(x) for x in rest]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric embedding value") from exc
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}:{lineno}: non-finite embedding value")
            if table is None:
                if not vec:
                    raise ValueError(f"{path}:{lineno}: no values on first line")
                table = EmbeddingTable(len(vec))
            if len(vec) != table.dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {table.dim} values, got {len(vec)}"
                )
            table.add(token, np.array(vec))
    if table is None:
        raise ValueError(f"{path}: empty embedding file with no header")
    return table


def word_mean(tokens: list[str], table: EmbeddingTable) -> np.ndarray:
    """Mean embedding over in-vocabulary tokens; OOV tokens are skipped.

    An utterance with no in-vocabulary tokens maps to the zero vector.
    """
    hits = [table.lookup(tok) for tok in tokens]
    hits = [v for v in hits if v is not None]
    if not hits:
        return np.zeros(table.dim)
    return np.mean(hits, axis=0)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class WordMeanEncoder:
    """Mean word embedding. ``source`` says where the table came from (a file
    path with its sha256, or a one-hot vocabulary) for the checkpoint; None
    stores the table inline."""

    def __init__(self, table: EmbeddingTable, source: dict | None = None):
        self.table = table
        self.source = source
        self.dim = table.dim

    @classmethod
    def from_file(cls, path) -> "WordMeanEncoder":
        """The table of the embedding file ``path``, stored by its path and sha256."""
        source = {"kind": "file", "path": str(path), "sha256": _sha256(path)}
        return cls(load_embeddings(path), source)

    def encode_utterance(self, utt) -> np.ndarray:
        return word_mean(tokenize(utt.text), self.table)


class CharVocab:
    """Character inventory with index 0 reserved for unknown characters."""

    UNK = 0

    def __init__(self, chars: str | None = None):
        if chars is None:
            chars = "".join(chr(i) for i in range(32, 127))  # printable ASCII
        self._chars = list(dict.fromkeys(chars))
        self._index = {ch: i + 1 for i, ch in enumerate(self._chars)}

    @property
    def size(self) -> int:
        return len(self._chars) + 1

    @property
    def chars(self) -> str:
        return "".join(self._chars)

    def index(self, ch: str) -> int:
        return self._index.get(ch, self.UNK)

    def indices(self, text: str) -> list[int]:
        return [self.index(ch) for ch in text]


class MLSTMParams(dict):
    """Weights for one multiplicative-LSTM cell (Krause et al. 2016), as an
    ordered name -> Parameter registry in checkpoint order.

    The multiplicative state m = (w_mx x) * (w_mh h_prev) feeds every gate;
    each gate is an affine map of the raw input and m. Matrices are
    Glorot-uniform draws from ``rng`` (zeros without one); biases start at 0.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng=None):
        h, x = hidden_dim, input_dim
        super().__init__(init_params(rng, {
            "w_mx": (h, x), "w_mh": (h, h),
            "w_ix": (h, x), "w_im": (h, h), "b_i": h,
            "w_fx": (h, x), "w_fm": (h, h), "b_f": h,
            "w_ox": (h, x), "w_om": (h, h), "b_o": h,
            "w_cx": (h, x), "w_cm": (h, h), "b_c": h,
        }, prefix="mlstm."))
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim

    @classmethod
    def create(cls, input_dim: int, hidden_dim: int, seed: int = 0) -> "MLSTMParams":
        return cls(input_dim, hidden_dim, np.random.default_rng(seed))

    def parameters(self) -> list[Parameter]:
        return list(self.values())


# registry names stacked by role: input columns (w_mx on top), the matrices
# applied to m and the biases, gate rows in the order i, f, o, c
_X_NAMES = ("w_mx", "w_ix", "w_fx", "w_ox", "w_cx")
_M_NAMES = ("w_im", "w_fm", "w_om", "w_cm")
_B_NAMES = ("b_i", "b_f", "b_o", "b_c")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise logistic sigmoid, with no overflow for inputs of either sign."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _stacked(p: MLSTMParams):
    """The cell as w_x (5H, X), w_mh (H, H), w_gm (4H, H) and a (4H,) bias."""
    return (np.vstack([p[n].data for n in _X_NAMES]), p["w_mh"].data,
            np.vstack([p[n].data for n in _M_NAMES]),
            np.vstack([p[n].data for n in _B_NAMES]).ravel())


def _mlstm_run(xs, w_mh, w_gm, b, keep: bool):
    """The mLSTM from a zero state, in plain numpy, over the gathered input
    columns ``xs`` (row t is ``w_x[:, idx[t]]``; the input is one-hot, so
    the input products are columns of ``w_x``) and the rest of the stacked
    cell: the (H, T) hidden states, and the (H, T) cell states if ``keep``.
    Each step takes two matrix products.
    """
    hd, steps = w_mh.shape[0], len(xs)
    hs = np.empty((hd, steps))
    cs = np.empty((hd, steps)) if keep else None
    h, c = np.zeros(hd), np.zeros(hd)
    for t in range(steps):
        m = xs[t, :hd] * (w_mh @ h)
        z = xs[t, hd:] + w_gm @ m + b
        gates = sigmoid(z[: 3 * hd])  # i, f, o
        c = gates[hd : 2 * hd] * c + gates[:hd] * np.tanh(z[3 * hd :])
        h = gates[2 * hd :] * np.tanh(c)
        hs[:, t] = h
        if keep:
            cs[:, t] = c
    return hs, cs


def mlstm_states(idx, p: MLSTMParams) -> Tensor2D:
    """The (H, T) hidden states of the mLSTM over the input indices ``idx``,
    as one graph node whose parents are the cell's 14 Parameters.

    Its backward is hand-written BPTT: the gates are recomputed for all steps
    at once, one reverse loop carries the gradient through h and c, and the
    weight gradients are one matrix product per stacked matrix plus a
    scatter-add into the gathered input columns.
    """
    if not len(idx):
        raise ValueError("mlstm_states of an empty sequence")
    w_x, w_mh, w_gm, b = _stacked(p)
    xs = w_x.T[idx]
    hs, cs = _mlstm_run(xs, w_mh, w_gm, b, keep=True)
    hd, steps = hs.shape

    def backprop(g):
        h_prev, c_prev = (np.vstack([np.zeros((1, hd)), a.T[:-1]]) for a in (hs, cs))
        mh = h_prev @ w_mh.T
        m = xs[:, :hd] * mh
        z = xs[:, hd:] + m @ w_gm.T + b
        i, f, o = np.split(sigmoid(z[:, : 3 * hd]), 3, axis=1)
        cand, tc = np.tanh(z[:, 3 * hd :]), np.tanh(cs.T)
        dc_dh = o * (1.0 - tc * tc)
        # d(pre-activation)/d(c) for i, f and the candidate, d/d(h) for o
        dz_dcdh = np.hstack([cand * i * (1.0 - i), c_prev * f * (1.0 - f),
                             tc * o * (1.0 - o), i * (1.0 - cand * cand)])
        d_cols = np.empty((steps, 5 * hd))  # gradients of the gathered input columns
        d_mh = np.empty((steps, hd))
        dh_next, dc_next = np.zeros(hd), np.zeros(hd)
        for t in range(steps - 1, -1, -1):
            dh = g[:, t] + dh_next
            dc = dh * dc_dh[t] + dc_next
            dz = np.concatenate((dc, dc, dh, dc)) * dz_dcdh[t]
            dm = w_gm.T @ dz
            d_cols[t, :hd] = dm * mh[t]
            d_cols[t, hd:] = dz
            d_mh[t] = dm * xs[t, :hd]
            dh_next = w_mh.T @ d_mh[t]
            dc_next = dc * f[t]
        g_x = np.zeros((p.input_dim, 5 * hd))
        np.add.at(g_x, idx, d_cols)
        p["w_mh"].grad += d_mh.T @ h_prev
        for names, stacked in ((_X_NAMES, g_x.T), (_M_NAMES, d_cols[:, hd:].T @ m),
                               (_B_NAMES, d_cols[:, hd:].sum(axis=0)[:, None])):
            for name, part in zip(names, np.split(stacked, len(names))):
                p[name].grad += part

    return Tensor2D._result(hs, tuple(p.values()), backprop)


REDUCE_MODES = ("mean", "last")  # how char_encode turns hidden states into one vector


def char_encode(
    text: str, p: MLSTMParams, vocab: CharVocab, reduce: str = "mean"
) -> np.ndarray:
    """Run the mLSTM over the raw character sequence from a zero state.

    ``reduce="mean"`` averages all hidden states (the default path);
    ``reduce="last"`` returns the state after the final character. An empty
    character sequence maps to the zero vector.
    """
    if reduce not in REDUCE_MODES:
        raise ValueError(f"unknown reduce mode {reduce!r}")
    if not text:
        return np.zeros(p.hidden_dim)
    w_x, *cell = _stacked(p)
    hs, _ = _mlstm_run(w_x.T[vocab.indices(text)], *cell, keep=False)
    if reduce == "last":
        return hs[:, -1].copy()
    return np.mean(list(hs.T), axis=0)


class CharMLSTMEncoder:
    def __init__(self, params: MLSTMParams, vocab: CharVocab, reduce: str = "mean"):
        self.params = params
        self.vocab = vocab
        self.reduce = reduce
        self.dim = params.hidden_dim

    def encode_utterance(self, utt) -> np.ndarray:
        return char_encode(utt.text, self.params, self.vocab, self.reduce)


def _char_lm_step(text, params, head, vocab, adam) -> float:
    """One Adam step on the mean next-character loss of ``text``; returns
    that loss. The text's graph is freed when this returns."""
    states = mlstm_states(vocab.indices(text[:-1]), params)
    probs = softmax_columns(add_bias(matmul(head["out_w"], states), head["out_b"]))
    loss = cross_entropy(probs, vocab.indices(text[1:]))
    adam.zero_grad()
    backward(loss)
    adam.step()
    return loss.item()


def train_char_lm(
    texts: list[str],
    vocab: CharVocab,
    hidden_dim: int = 64,
    epochs: int = 2,
    learning_rate: float = 1e-3,
    seed: int = 0,
    max_chars: int = 64,
) -> tuple[MLSTMParams, list[float]]:
    """Fit the mLSTM as a next-character language model on the task corpus.

    This is the desk-scale stand-in for a large pretrained character model:
    a small cell trained for a few epochs on the corpus text itself, one
    Adam step per text on its mean loss over the characters after the
    first. Returns the cell weights and the per-epoch mean losses. Texts are
    truncated to ``max_chars`` to bound the backpropagation through time.
    """
    if learning_rate <= 0:
        raise ValueError("char LM learning_rate must be positive")
    if epochs < 1:
        raise ValueError("char LM epochs must be positive")
    if max_chars < 2:  # a text needs two characters for one prediction
        raise ValueError(f"char LM max_chars must be at least 2, got {max_chars}")
    params = MLSTMParams.create(vocab.size, hidden_dim, seed=seed)
    rng = np.random.default_rng(seed)
    head = init_params(
        rng, {"out_w": (vocab.size, hidden_dim), "out_b": vocab.size}, prefix="lm."
    )
    adam = Adam(params.parameters() + list(head.values()), learning_rate=learning_rate)

    usable = [t[:max_chars] for t in texts if len(t) >= 2]
    if not usable:
        raise ValueError("char LM training needs at least one text of length >= 2")
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(usable))
        epoch_loss = sum(_char_lm_step(usable[k], params, head, vocab, adam) for k in order)
        losses.append(epoch_loss / len(usable))
    return params, losses


class ConcatEncoder:
    def __init__(self, char_encoder, word_encoder):
        self.char_encoder = char_encoder
        self.word_encoder = word_encoder
        self.dim = char_encoder.dim + word_encoder.dim

    def encode_utterance(self, utt) -> np.ndarray:
        return np.concatenate([self.char_encoder.encode_utterance(utt),
                               self.word_encoder.encode_utterance(utt)])


def load_feature_file(path) -> dict[tuple[str, int], np.ndarray]:
    """Read precomputed per-utterance features.

    Format: one record per line, "conversation_id TAB utterance_index TAB
    v1,v2,...,vD". All records must share one dimension, and every value
    must be finite.
    """
    table: dict[tuple[str, int], np.ndarray] = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            conv_id, idx_s, values = parts
            try:
                idx = int(idx_s)
                vec = np.array([float(x) for x in values.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed record") from exc
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}:{lineno}: non-finite feature value")
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} values, got {vec.shape[0]}"
                )
            table[(conv_id, idx)] = vec
    if dim is None:
        raise ValueError(f"{path}: empty feature file")
    return table


class PrecomputedEncoder:
    """Features by (conversation_id, utterance index), read from files of one dim."""

    def __init__(self, features: dict[tuple[str, int], np.ndarray], paths: list[str] | None = None,
                 digests: list[str] | None = None):
        if not features:
            raise ValueError("empty feature table")
        self.features = features
        self.dim = len(next(iter(features.values())))
        self.paths = list(paths or [])
        self.digests = list(digests or [])

    @classmethod
    def from_files(cls, paths) -> "PrecomputedEncoder":
        digests = [_sha256(path) for path in paths]
        tables = [load_feature_file(path) for path in paths]
        dims = [len(next(iter(table.values()))) for table in tables]
        for path, dim in zip(paths, dims):
            if dim != dims[0]:
                raise ValueError(f"{path}: features of dim {dim}, but {paths[0]} has dim {dims[0]}")
        merged = {key: vec for table in tables for key, vec in table.items()}
        return cls(merged, [str(p) for p in paths], digests)

    def encode_utterance(self, utt) -> np.ndarray:
        key = (utt.conversation_id, utt.index)
        if key not in self.features:
            raise KeyError(f"no precomputed features for {key}")
        return self.features[key]


# --- encoder persistence ------------------------------------------------------
#
# Checkpoints embed an encoder description so evaluation can rebuild the exact
# encoder used at training time. A word table or feature file is recorded by its
# path and sha256, and verified with its dim on load; other word tables are stored
# inline (token + vector lists), and mLSTM weights always are, in the
# checkpoint's parameter layout and with its checks on load.


def encoder_to_config(encoder) -> dict:
    if isinstance(encoder, WordMeanEncoder):
        if encoder.source:
            return {"type": "word", "dim": encoder.dim, "source": encoder.source}
        return {
            "type": "word",
            "dim": encoder.dim,
            "source": {
                "kind": "inline",
                "tokens": list(encoder.table.tokens()),
                "vectors": [encoder.table.lookup(t).tolist() for t in encoder.table.tokens()],
            },
        }
    if isinstance(encoder, CharMLSTMEncoder):
        return {
            "type": "char",
            "input_dim": encoder.params.input_dim,
            "hidden_dim": encoder.params.hidden_dim,
            "reduce": encoder.reduce,
            "chars": encoder.vocab.chars,
            "weights": params_to_json(encoder.params),
        }
    if isinstance(encoder, ConcatEncoder):
        return {
            "type": "concat",
            "char": encoder_to_config(encoder.char_encoder),
            "word": encoder_to_config(encoder.word_encoder),
        }
    if isinstance(encoder, PrecomputedEncoder):
        return {"type": "precomputed", "paths": encoder.paths, "sha256": encoder.digests,
                "dim": encoder.dim}
    raise TypeError(f"cannot serialize encoder of type {type(encoder).__name__}")


def encoder_from_config(cfg: dict):
    """The encoder ``cfg`` describes, as ``encoder_to_config`` wrote it. Fails
    closed with CheckpointError on a malformed description, as
    ``load_checkpoint`` does for the model part."""
    try:
        kind = cfg.get("type")
        if kind == "word":
            source = cfg["source"]
            if source["kind"] == "file":
                path = source["path"]
                # a source without a digest comes from a checkpoint written before them
                if "sha256" in source and _sha256(path) != source["sha256"]:
                    raise CheckpointError(f"word table {path} changed since the checkpoint "
                                          f"was written: its sha256 differs")
                table = load_embeddings(path)
                if table.dim != cfg["dim"]:
                    raise CheckpointError(f"word table {path} has dim {table.dim}, "
                                          f"the checkpoint stores {cfg['dim']}")
            elif source["kind"] == "onehot":
                table = EmbeddingTable.one_hot(source["vocabulary"])
            elif source["kind"] == "inline":
                table = EmbeddingTable(cfg["dim"])
                for token, vec in zip(source["tokens"], source["vectors"]):
                    table.add(token, vec)
            else:
                raise CheckpointError(f"unknown word-table source {source['kind']!r}")
            return WordMeanEncoder(table, source)
        if kind == "char":
            vocab = CharVocab(cfg["chars"])
            if vocab.size != cfg["input_dim"]:
                raise CheckpointError(
                    f"char encoder: {len(vocab.chars)} characters and the unknown index need "
                    f"input_dim {vocab.size}, but the stored input_dim is {cfg['input_dim']}"
                )
            params = MLSTMParams(cfg["input_dim"], cfg["hidden_dim"])
            params_from_json(params, cfg["weights"])
            return CharMLSTMEncoder(params, vocab, cfg.get("reduce", "mean"))
        if kind == "concat":
            return ConcatEncoder(
                encoder_from_config(cfg["char"]), encoder_from_config(cfg["word"])
            )
        if kind == "precomputed":
            encoder = PrecomputedEncoder.from_files(cfg["paths"])
            # a description without digests comes from a checkpoint written before them
            if cfg.get("sha256", encoder.digests) != encoder.digests:
                raise CheckpointError(f"feature files {encoder.paths} changed since the "
                                      f"checkpoint was written: their sha256 differs")
            if encoder.dim != cfg["dim"]:
                raise CheckpointError(f"feature files {encoder.paths} have dim {encoder.dim}, "
                                      f"the checkpoint stores {cfg['dim']}")
            return encoder
        raise CheckpointError(f"unknown encoder type {kind!r}")
    except (AttributeError, KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed encoder entry: {exc!r}") from exc
