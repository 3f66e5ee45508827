"""The two classifiers: a no-context feed-forward baseline and the
utterance-level attention BiRNN.

Both consume :class:`ContextWindow` objects (the baseline only reads the
newest slot) and produce one :class:`Prediction` per call: a probability
distribution over act tags for each window, plus - for the attention model -
each window's per-slot attention profile ordered current-utterance-first.

Layout of a window: slot 0 is the oldest context utterance, the last slot is
the current one. The attention profile reverses that, so its entry 0 always
belongs to the utterance being classified and entry k to the k-th preceding
one.

Windows are processed in batches: the slot inputs of B windows form one
(K, B, D) array, the BiRNN turns it into one (2H, K*B) state matrix with a
column per slot and window, and every later layer works on all columns at
once. A single window is a batch of one.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass

import numpy as np

from .optim import cross_entropy
from .tensor import (
    CheckpointError,
    DimensionError,
    Parameter,
    Tensor2D,
    add_bias,
    array_values,
    init_params,
    matmul,
    params_from_json,
    params_to_json,
    softmax_columns,
    write_json_file,
)

PROB_TOL = 1e-9


@dataclass
class ContextWindow:
    """The current utterance plus its n preceding ones, oldest to newest.

    ``features`` holds n+1 vectors; slots before the conversation start are
    zero vectors flagged False in ``pad_mask``. The newest slot is always a
    real utterance. ``conversation_id`` / ``index`` / ``n_tokens`` carry
    provenance for evaluation records and conversation-level splits.
    """

    features: list[np.ndarray]
    pad_mask: list[bool]
    label: int
    conversation_id: str = ""
    index: int = -1
    n_tokens: int = 0

    def __post_init__(self):
        if len(self.features) != len(self.pad_mask):
            raise ValueError("features and pad_mask lengths differ")
        if len(self.features) < 1:
            raise ValueError("window must contain at least the current utterance")
        if not self.pad_mask[-1]:
            raise ValueError("the newest slot must be a real utterance, not padding")
        for feat, real in zip(self.features, self.pad_mask):
            if not real and np.any(feat):
                raise ValueError("pad slots must hold the zero vector")

    @property
    def size(self) -> int:
        return len(self.features)


def off_simplex(values: np.ndarray, tol: float = PROB_TOL) -> np.ndarray:
    """Which rows of the float array ``values`` (1-D: one row) are no finite
    distribution: an entry below 0 or a sum off 1 by more than ``tol`` (NaN, inf)."""
    return ~((values >= 0.0).all(axis=-1) & (np.abs(values.sum(axis=-1) - 1.0) <= tol))


def check_distribution(name: str, values, tol: float = PROB_TOL) -> np.ndarray:
    """``values`` as a float64 array, refused unless each row is a distribution."""
    values = np.asarray(values, dtype=np.float64)
    if off_simplex(values, tol).any():
        raise ValueError(f"{name} are not a finite distribution")
    return values


@dataclass
class Prediction:
    """Distributions over tag indices, one row per window, with the attention
    profiles (current utterance first) when the model has them: (N, C) and
    (N, K) for a batch, (C,) and (K,) for a single window."""

    probs: np.ndarray
    attention: np.ndarray | None = None

    def __post_init__(self):
        self.probs = check_distribution("prediction probabilities", self.probs)
        if self.attention is not None:
            self.attention = check_distribution("attention weights", self.attention)

    @property
    def top_class(self) -> np.ndarray:
        return self.probs.argmax(axis=-1)


def _birnn_run(x: np.ndarray, params: dict) -> np.ndarray:
    """The BiRNN's forward pass in plain numpy: the (2H, K*B) state matrix
    that :func:`birnn_states` describes."""
    n_slots, batch, dim = x.shape
    hidden = params["fwd.bias"].rows
    states = np.empty((2 * hidden, n_slots * batch))
    blocks = states.reshape(2, hidden, n_slots, batch)  # [direction, :, slot]: views
    for d, order in enumerate((range(n_slots), range(n_slots - 1, -1, -1))):
        prefix = ("fwd", "bwd")[d]
        w_in, w_rec, bias = (params[f"{prefix}.{k}"].data for k in ("w_in", "w_rec", "bias"))
        if dim != w_in.shape[1]:
            raise DimensionError(f"birnn_states: inputs of size {dim} for {prefix}.w_in "
                                 f"{w_in.shape}")
        h = np.zeros((hidden, batch))
        for k in order:
            h = np.tanh((w_rec @ h + w_in @ x[k].T) + bias)
            blocks[d, :, k] = h
    return states


def birnn_states(x: np.ndarray, params: dict) -> Tensor2D:
    """The BiRNN over a batch's slot inputs, as one (2H, K*B) graph node whose
    parents are the registry's ``fwd.*`` and ``bwd.*`` Parameters.

    ``x`` is (K, B, D): slot k of B windows, oldest slot first. Each direction
    is a plain tanh RNN from a zero state, ``tanh((w_rec @ h + w_in @ x_k) +
    bias)``, the ``bwd`` one run newest to oldest. Rows are [forward;
    backward] and column k*B + j is slot k of window j. Its backward is
    hand-written BPTT: one reverse loop per direction in that direction's
    step order, then the input-weight gradients in slot order.
    """
    n_slots, batch, _ = x.shape
    orders = (range(n_slots), range(n_slots - 1, -1, -1))
    parents = tuple(params[f"{d}.{k}"] for d in ("fwd", "bwd") for k in ("w_in", "w_rec", "bias"))
    states = _birnn_run(x, params)
    hidden = parents[2].rows
    ys = states.reshape(2, hidden, n_slots, batch)  # ys[d, :, k]: direction d's state at slot k

    def backprop(g):
        for d, order in enumerate(orders):
            w_in, w_rec, bias = parents[3 * d : 3 * d + 3]
            g_dir = g[d * hidden : (d + 1) * hidden]
            dpre = [None] * n_slots
            d_next = None
            for step in range(n_slots - 1, -1, -1):
                k = order[step]
                d_out = g_dir[:, k * batch : (k + 1) * batch]
                if d_next is not None:
                    d_out = d_out + w_rec.data.T @ d_next
                d_next = dpre[k] = d_out * (1.0 - ys[d, :, k] * ys[d, :, k])
                bias.grad += d_next.sum(axis=1, keepdims=True)
                if step:  # the first step's previous state is the zero state
                    w_rec.grad += d_next @ ys[d, :, order[step - 1]].T
            for k in range(n_slots):
                w_in.grad += dpre[k] @ x[k]

    return Tensor2D._result(states, parents, backprop)


PREDICT_CHUNK = 64  # windows per forward pass when predicting a list; bounds eval memory


def _slot_inputs(windows, slots) -> np.ndarray:
    """The features of the given slots of every window as one (K, B, D)
    array: slot k of window j is row j of block k."""
    if not windows:
        raise ValueError("empty batch of windows")
    feats = np.array([[w.features[k] for w in windows] for k in slots], dtype=np.float64)
    if not np.isfinite(feats).all():
        raise ValueError("tensor entries must be finite")
    return feats.reshape(len(slots), len(windows), -1)


def _predict(forward, windows) -> Prediction:
    """Run ``forward(batch) -> (probs node, weights array)`` over one
    window or a sequence of them, in batches of at most PREDICT_CHUNK
    windows, giving one Prediction with a row per window (the row itself for
    a single window)."""
    single = isinstance(windows, ContextWindow)
    batch = [windows] if single else windows
    if not batch:
        raise ValueError("empty batch of windows")
    probs, profiles = [], []
    for start in range(0, len(batch), PREDICT_CHUNK):
        p, weights = forward(batch[start : start + PREDICT_CHUNK])
        probs.append(p.data.T)
        # window order is oldest->newest; report newest (current) first
        profiles.append(None if weights is None else weights[::-1].T)
    probs = np.concatenate(probs)
    attention = None if profiles[0] is None else np.concatenate(profiles)
    if single:
        probs, attention = probs[0], None if attention is None else attention[0]
    return Prediction(probs, attention)


class _Registry:
    """What both models share. ``params`` is the model's ordered
    name -> Parameter registry: it fixes the initialisation order, the order
    ``parameters()`` gives the optimiser, and the checkpoint's names and order.
    ``config()`` holds the constructor's arguments as the model keeps them."""

    params: dict[str, Parameter]

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def config(self) -> dict:
        return {name: getattr(self, name) for name in inspect.signature(type(self)).parameters}


class UttAttBiRNN(_Registry):
    """Context classifier: BiRNN over the window, attention pooling, softmax.

    ``head="direct"`` skips attention and classifies the final-step state
    pair directly (the no-attention ablation). ``mask_padding`` restricts the
    attention softmax to real utterances.

    ``predict`` takes one window or a list of them and returns one
    Prediction; ``loss`` takes a batch, a list of windows, and returns its
    mean cross-entropy, with dropout on the step states when it is given an
    ``rng`` and ``dropout_rate`` is above 0. Both run the same batched
    forward pass.
    """

    kind = "uttattbirnn"

    def __init__(
        self,
        feature_dim: int,
        n_classes: int,
        hidden_dim: int = 64,
        attention_dim: int | None = None,
        n_context: int = 4,
        dropout_rate: float = 0.2,
        head: str = "attention",
        mask_padding: bool = False,
        seed: int = 0,
    ):
        if head not in ("attention", "direct"):
            raise ValueError(f"unknown head {head!r}")
        if not (0.0 <= dropout_rate < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")
        self.feature_dim = feature_dim
        self.n_classes = n_classes
        self.hidden_dim = hidden_dim
        self.attention_dim = attention_dim if attention_dim is not None else 2 * hidden_dim
        self.n_context = n_context
        self.dropout_rate = dropout_rate
        self.head = head
        self.mask_padding = mask_padding
        self.seed = seed

        h, d, a, c = hidden_dim, feature_dim, self.attention_dim, n_classes
        self.params = init_params(np.random.default_rng(seed), {
            "fwd.w_in": (h, d), "fwd.w_rec": (h, h), "fwd.bias": h,
            "bwd.w_in": (h, d), "bwd.w_rec": (h, h), "bwd.bias": h,
            "att.proj": (a, 2 * h), "att.score": (a, 1),
            "out.weight": (c, 2 * h), "out.bias": c,
        })

    def _forward(self, windows, rng=None, record=False) -> tuple[Tensor2D, np.ndarray | None]:
        """(C, B) class distributions and the (n+1, B) attention weights in
        window order (None for the direct head), one column per window;
        dropout draws from ``rng`` when one is given.

        Everything below the head is plain numpy. With ``record``, the
        BiRNN is a graph node and the (2H, B) summaries are one more, whose
        parents are the BiRNN node and the attention Parameters and whose
        backward is hand-written; without it, the summaries enter the head
        as a constant.
        """
        n_slots, batch = (windows[0].size if windows else 0), len(windows)
        if any(w.size != n_slots for w in windows):
            raise ValueError("windows in one batch must have the same number of slots")
        x = _slot_inputs(windows, range(n_slots))
        node = birnn_states(x, self.params) if record else None
        states = node.data if record else _birnn_run(x, self.params)
        n = states.shape[0]
        keep = None  # the dropout mask, scaled
        if rng is not None and self.dropout_rate > 0.0:
            # one draw, window by window then slot by slot: the masks, in order,
            # that the windows would draw as batches of one
            draws = rng.random((batch, n_slots, n)).transpose(2, 1, 0).reshape(n, -1)
            keep = (draws >= self.dropout_rate) / (1.0 - self.dropout_rate)
            states = states * keep
        weights = None
        if self.head == "direct":  # the final slot's states
            summary = states[:, -batch:].copy()
            parents = (node,)
        else:
            proj, score = self.params["att.proj"], self.params["att.score"]
            parents = (node, proj, score)
            projected = np.tanh(proj.data @ states)  # (A, K*B)
            scores = (score.data.T @ projected).reshape(n_slots, batch)
            if self.mask_padding:
                scores = np.where(np.array([w.pad_mask for w in windows]).T, scores, -np.inf)
            e = np.exp(scores - scores.max(axis=0, keepdims=True))
            weights = e / e.sum(axis=0, keepdims=True)  # (K, B), a softmax down each column
            stacked = np.ascontiguousarray(states.reshape(n, n_slots, batch).transpose(1, 0, 2))
            summary = np.tanh((stacked * weights[:, None, :]).sum(axis=0))  # (2H, B)

        if record:
            def backprop(g):
                if self.head == "direct":
                    node.grad[:, -batch:] += g if keep is None else g * keep[:, -batch:]
                    return
                g = g * (1.0 - summary * summary)
                d_states = (g * weights[:, None, :]).transpose(1, 0, 2).reshape(n, -1)
                d_weights = (stacked * g).sum(axis=1)
                d_scores = weights * (d_weights - (weights * d_weights).sum(axis=0, keepdims=True))
                d_scores = d_scores.reshape(1, -1)
                score.grad += (d_scores @ projected.T).T
                d_pre = (score.data @ d_scores) * (1.0 - projected * projected)
                proj.grad += d_pre @ states.T
                d_states += proj.data.T @ d_pre
                node.grad += d_states if keep is None else d_states * keep

            pooled = Tensor2D._result(summary, parents, backprop)
        else:
            pooled = Tensor2D(summary)
        out_weight, out_bias = self.params["out.weight"], self.params["out.bias"]
        return softmax_columns(add_bias(matmul(out_weight, pooled), out_bias)), weights

    def predict(self, windows):
        return _predict(self._forward, windows)

    def loss(self, windows, rng=None) -> Tensor2D:
        probs, _ = self._forward(windows, rng, record=True)
        return cross_entropy(probs, [w.label for w in windows])


class BaselineMLP(_Registry):
    """No-context classifier over the current utterance's features alone:
    tanh -> tanh -> softmax, with dropout after each tanh layer when ``loss``
    is given an ``rng`` and ``dropout_rate`` is above 0.

    ``predict`` and ``loss`` take windows as :class:`UttAttBiRNN` does.
    """

    kind = "baseline"

    def __init__(
        self,
        feature_dim: int,
        n_classes: int,
        hidden1: int = 300,
        hidden2: int = 100,
        dropout_rate: float = 0.0,
        seed: int = 0,
    ):
        if not (0.0 <= dropout_rate < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")
        self.feature_dim = feature_dim
        self.n_classes = n_classes
        self.hidden1 = hidden1
        self.hidden2 = hidden2
        self.dropout_rate = dropout_rate
        self.seed = seed
        self.params = init_params(np.random.default_rng(seed), {
            "mlp.w1": (hidden1, feature_dim), "mlp.b1": hidden1,
            "mlp.w2": (hidden2, hidden1), "mlp.b2": hidden2,
            "mlp.w_out": (n_classes, hidden2), "mlp.b_out": n_classes,
        })

    def _forward(self, windows, rng=None, record=False) -> tuple[Tensor2D, None]:
        """(C, B) class distributions, one column per window, and no
        attention; dropout draws from ``rng`` when one is given.

        The two tanh layers are plain numpy. With ``record`` they are one
        graph node whose parents are the ``mlp.w1``, ``mlp.b1``, ``mlp.w2``
        and ``mlp.b2`` Parameters and whose backward is hand-written; without
        it, their output enters the head as a constant.
        """
        params = self.params
        h = _slot_inputs(windows, [-1])[0].T
        keeps = (None, None)
        if rng is not None and self.dropout_rate > 0.0:
            # one draw, window by window then layer by layer: the masks, in order,
            # that the windows would draw as batches of one
            draws = np.split(rng.random((h.shape[1], self.hidden1 + self.hidden2)).T, [self.hidden1])
            keeps = [(u >= self.dropout_rate) / (1.0 - self.dropout_rate) for u in draws]
        layers = []  # per layer: its input, its tanh output and its dropout mask
        for layer, keep in zip("12", keeps):
            y = np.tanh(params[f"mlp.w{layer}"].data @ h + params[f"mlp.b{layer}"].data)
            layers.append((h, y, keep))
            h = y if keep is None else y * keep
        if record:
            def backprop(g):
                for layer, (h_in, y, keep) in zip("21", reversed(layers)):
                    if keep is not None:
                        g = g * keep
                    g = g * (1.0 - y * y)
                    params[f"mlp.b{layer}"].grad += g.sum(axis=1, keepdims=True)
                    params[f"mlp.w{layer}"].grad += g @ h_in.T
                    if layer == "2":
                        g = params["mlp.w2"].data.T @ g

            parents = tuple(params[name] for name in ("mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2"))
            hidden = Tensor2D._result(h, parents, backprop)
        else:
            hidden = Tensor2D(h)
        return softmax_columns(add_bias(matmul(params["mlp.w_out"], hidden),
                                        params["mlp.b_out"])), None

    def predict(self, windows):
        return _predict(self._forward, windows)

    def loss(self, windows, rng=None) -> Tensor2D:
        probs, _ = self._forward(windows, rng, record=True)
        return cross_entropy(probs, [w.label for w in windows])


MODEL_KINDS = {"baseline": BaselineMLP, "uttattbirnn": UttAttBiRNN}

CHECKPOINT_FORMAT = "ctxda-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, model, encoder_config: dict, tags: list[str], seed: int) -> None:
    """Write a self-describing JSON checkpoint.

    Layout (stable, documented in the README): format marker and version,
    model kind + constructor config, encoder configuration, the ordered tag
    vocabulary, the training seed, and every parameter tensor with its shape
    and row-major values at full float64 precision. The file appears whole
    or not at all; a non-finite weight raises ValueError and writes nothing.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "model": model.config(),
        "encoder": encoder_config,
        "tags": list(tags),
        "seed": seed,
        "params": params_to_json(model.params),
    }
    write_json_file(path, payload)


def load_checkpoint(path):
    """Rebuild (model, metadata) from a checkpoint file.

    Metadata is a dict with ``encoder``, ``tags`` and ``seed``. Raises
    CheckpointError on any structural problem.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, object_hook=array_values)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {payload.get('version')}")
    kind = payload.get("kind")
    if kind not in MODEL_KINDS:
        raise CheckpointError(f"unknown model kind {kind!r}")
    try:
        model = MODEL_KINDS[kind](**payload["model"])
        params_from_json(model.params, payload["params"])
        encoder, tags, seed = payload["encoder"], payload["tags"], payload["seed"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)
            and len(set(tags)) == len(tags) == model.n_classes):
        raise CheckpointError(f"{path}: tags must be {model.n_classes} distinct strings")
    return model, {"encoder": encoder, "tags": tags, "seed": seed}
