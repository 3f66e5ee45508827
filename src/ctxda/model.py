"""The two classifiers: a no-context feed-forward baseline and the
utterance-level attention BiRNN.

Both consume :class:`ContextWindow` objects (the baseline only reads the
newest slot) and produce a :class:`Prediction`: a probability distribution
over act tags, plus - for the attention model - the per-slot attention
profile ordered current-utterance-first.

Layout of a window: slot 0 is the oldest context utterance, the last slot is
the current one. The attention profile reverses that, so ``attention[0]``
always belongs to the utterance being classified and ``attention[k]`` to the
k-th preceding one.

Windows are processed in batches: slot k of B windows forms one (D, B)
input, one column per window, and every layer works on all columns at once.
A single window is a batch of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionError,
    Parameter,
    Tensor2D,
    add,
    add_bias,
    hadamard,
    hstack,
    matmul,
    reshape,
    softmax_columns,
    tanh_map,
    transpose,
    vstack,
    weighted_sum,
)

PROB_TOL = 1e-9
ATTENTION_TOL = 1e-6


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


@dataclass
class Prediction:
    """Distribution over tag indices, with the attention profile when the
    model has one."""

    probs: np.ndarray
    attention: np.ndarray | None = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64).ravel()
        if np.any(self.probs < 0.0) or abs(self.probs.sum() - 1.0) > PROB_TOL:
            raise ValueError("prediction probabilities must form a distribution")
        if self.attention is not None:
            self.attention = np.asarray(self.attention, dtype=np.float64).ravel()

    @property
    def top_class(self) -> int:
        return int(np.argmax(self.probs))

    @property
    def confidence(self) -> float:
        return float(self.probs.max())


@dataclass
class RNNDirectionParams:
    w_in: Parameter   # input -> hidden
    w_rec: Parameter  # hidden -> hidden
    bias: Parameter


@dataclass
class BiRNNParams:
    forward: RNNDirectionParams
    backward: RNNDirectionParams
    hidden_dim: int

    def __post_init__(self):
        for direction in (self.forward, self.backward):
            h = self.hidden_dim
            if direction.w_rec.shape != (h, h) or direction.w_in.shape[0] != h:
                raise DimensionError("BiRNN direction shapes inconsistent with hidden_dim")
        if self.forward.w_in.shape != self.backward.w_in.shape:
            raise DimensionError("forward and backward directions must share shapes")


@dataclass
class AttentionParams:
    proj: Parameter   # (attention_dim, 2 * hidden_dim) projection of step states
    score: Parameter  # (attention_dim, 1) scoring vector


@dataclass
class OutputParams:
    weight: Parameter  # (n_classes, 2 * hidden_dim)
    bias: Parameter    # (n_classes, 1)


@dataclass
class BaselineMLPParams:
    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter
    w_out: Parameter
    b_out: Parameter


def _glorot(rng, rows: int, cols: int, name: str) -> Parameter:
    s = np.sqrt(6.0 / (rows + cols))
    return Parameter(rng.uniform(-s, s, (rows, cols)), name=name)


def _zeros(rows: int, name: str) -> Parameter:
    return Parameter(np.zeros((rows, 1)), name=name)


def apply_dropout(
    h: Tensor2D, rate: float, rng, training: bool, uniforms: np.ndarray | None = None
) -> Tensor2D:
    """Inverted dropout: zero entries with probability ``rate`` and scale the
    survivors by 1/(1-rate). Identity at inference or at rate 0.

    ``uniforms`` are the U[0, 1) draws deciding each entry, of ``h``'s shape;
    when omitted they are drawn from ``rng``.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return h
    if uniforms is None:
        uniforms = rng.random(h.shape)
    keep = (uniforms >= rate) / (1.0 - rate)
    return hadamard(h, Tensor2D._result(keep, (), None))


def rnn_direction(
    seq: list[Tensor2D], params: RNNDirectionParams, reverse: bool = False
) -> list[Tensor2D]:
    """Plain tanh RNN over the sequence from a zero initial state.

    Each input is (D, B), one column per example, and each state (H, B).
    ``reverse=True`` iterates newest to oldest; outputs are re-aligned so
    entry k always corresponds to input slot k.
    """
    hidden = Tensor2D._result(np.zeros((params.bias.rows, seq[0].cols)), (), None)
    steps = reversed(seq) if reverse else seq
    states = []
    for u in steps:
        hidden = tanh_map(
            add_bias(add(matmul(params.w_rec, hidden), matmul(params.w_in, u)), params.bias)
        )
        states.append(hidden)
    if reverse:
        states.reverse()
    return states


def birnn_forward(features: list[Tensor2D], params: BiRNNParams) -> list[Tensor2D]:
    """Per-step concatenation [forward_state; backward_state], forward first."""
    fwd = rnn_direction(features, params.forward, reverse=False)
    bwd = rnn_direction(features, params.backward, reverse=True)
    return [vstack([f, b]) for f, b in zip(fwd, bwd)]


def attention(
    steps: list[Tensor2D], params: AttentionParams, keep: np.ndarray | None = None
) -> tuple[Tensor2D, Tensor2D]:
    """Score the step states and collapse them into one summary per column.

    ``steps`` holds the n+1 step states in window order (oldest first), each
    (2H, B). Returns (weights, summary): ``weights`` is an (n+1, B) node whose
    columns are simplices over the steps; ``summary`` (2H, B) is tanh of the
    weighted sum of the step states. ``keep`` (n+1, B) masks steps out of the
    softmax, giving them weight 0.
    """
    stacked = hstack(steps)                                  # (2H, (n+1)*B), slot-major
    projected = tanh_map(matmul(params.proj, stacked))       # (A, (n+1)*B)
    scores = matmul(transpose(params.score), projected)      # (1, (n+1)*B)
    weights = softmax_columns(reshape(scores, len(steps), steps[0].cols), keep)
    summary = tanh_map(weighted_sum(steps, weights))         # (2H, B)
    return weights, summary


def classify(u_final: Tensor2D, params: OutputParams) -> Tensor2D:
    """Softmax head over the summary vectors, one distribution per column."""
    return softmax_columns(add_bias(matmul(params.weight, u_final), params.bias))


PREDICT_CHUNK = 64  # windows per forward pass when predicting a list; bounds eval memory


def _slot_inputs(windows, slots) -> list[Tensor2D]:
    """The features of the given slots of every window, one (D, B) input per
    slot with one column per window."""
    if not windows:
        raise ValueError("empty batch of windows")
    feats = np.array([[w.features[k] for k in slots] for w in windows], dtype=np.float64)
    feats = feats.reshape(len(windows), len(slots), -1)
    return [Tensor2D(feats[:, k, :].T) for k in range(len(slots))]


def _predict(forward, windows, training: bool, rng):
    """Run ``forward(batch, training, rng) -> (probs, weights)`` over one
    window (giving a Prediction) or a sequence of them (giving a list), in
    batches of at most PREDICT_CHUNK windows."""
    if isinstance(windows, ContextWindow):
        return _predict(forward, [windows], training, rng)[0]
    preds = []
    for start in range(0, len(windows), PREDICT_CHUNK):
        chunk = windows[start : start + PREDICT_CHUNK]
        probs, weights = forward(chunk, training, rng)
        for j in range(len(chunk)):
            # window order is oldest->newest; report newest (current) first
            profile = None if weights is None else weights.data[::-1, j].copy()
            preds.append(Prediction(probs.data[:, j].copy(), attention=profile))
    return preds


class UttAttBiRNN:
    """Context classifier: BiRNN over the window, attention pooling, softmax.

    ``head="direct"`` skips attention and classifies the final-step state
    pair directly (the no-attention ablation). ``mask_padding`` restricts the
    attention softmax to real utterances.

    ``predict`` takes one window (returning a Prediction) or a list of them
    (returning a list); ``loss`` takes a batch, a list of windows, and
    returns its mean cross-entropy. Both run the same batched forward pass.
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

        rng = np.random.default_rng(seed)
        h, d, a, c = hidden_dim, feature_dim, self.attention_dim, n_classes
        self.birnn = BiRNNParams(
            forward=RNNDirectionParams(
                w_in=_glorot(rng, h, d, "fwd.w_in"),
                w_rec=_glorot(rng, h, h, "fwd.w_rec"),
                bias=_zeros(h, "fwd.bias"),
            ),
            backward=RNNDirectionParams(
                w_in=_glorot(rng, h, d, "bwd.w_in"),
                w_rec=_glorot(rng, h, h, "bwd.w_rec"),
                bias=_zeros(h, "bwd.bias"),
            ),
            hidden_dim=h,
        )
        self.att = AttentionParams(
            proj=_glorot(rng, a, 2 * h, "att.proj"),
            score=_glorot(rng, a, 1, "att.score"),
        )
        self.out = OutputParams(
            weight=_glorot(rng, c, 2 * h, "out.weight"),
            bias=_zeros(c, "out.bias"),
        )

    def param_items(self) -> list[tuple[str, Parameter]]:
        return [
            ("fwd.w_in", self.birnn.forward.w_in),
            ("fwd.w_rec", self.birnn.forward.w_rec),
            ("fwd.bias", self.birnn.forward.bias),
            ("bwd.w_in", self.birnn.backward.w_in),
            ("bwd.w_rec", self.birnn.backward.w_rec),
            ("bwd.bias", self.birnn.backward.bias),
            ("att.proj", self.att.proj),
            ("att.score", self.att.score),
            ("out.weight", self.out.weight),
            ("out.bias", self.out.bias),
        ]

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.param_items()]

    def config(self) -> dict:
        return {
            "feature_dim": self.feature_dim,
            "n_classes": self.n_classes,
            "hidden_dim": self.hidden_dim,
            "attention_dim": self.attention_dim,
            "n_context": self.n_context,
            "dropout_rate": self.dropout_rate,
            "head": self.head,
            "mask_padding": self.mask_padding,
            "seed": self.seed,
        }

    def _forward(self, windows, training: bool, rng) -> tuple[Tensor2D, Tensor2D | None]:
        """(C, B) class distributions and the (n+1, B) attention weights in
        window order (None for the direct head), one column per window."""
        n_slots = windows[0].size if windows else 0
        if any(w.size != n_slots for w in windows):
            raise ValueError("windows in one batch must have the same number of slots")
        steps = birnn_forward(_slot_inputs(windows, range(n_slots)), self.birnn)
        if training and self.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("training forward pass needs an rng for dropout")
            # one draw, window by window then slot by slot: the masks, in order,
            # that the windows would draw as batches of one
            draws = rng.random((len(windows), n_slots, 2 * self.hidden_dim))
            steps = [apply_dropout(s, self.dropout_rate, rng, True, uniforms=draws[:, k, :].T)
                     for k, s in enumerate(steps)]
        if self.head == "direct":
            return classify(steps[-1], self.out), None
        keep = np.array([w.pad_mask for w in windows], dtype=bool).T if self.mask_padding else None
        weights, summary = attention(steps, self.att, keep)
        return classify(summary, self.out), weights

    def predict(self, windows, training: bool = False, rng=None):
        return _predict(self._forward, windows, training, rng)

    def loss(self, windows, training: bool = False, rng=None) -> Tensor2D:
        from .optim import cross_entropy

        probs, _ = self._forward(windows, training, rng)
        return cross_entropy(probs, [w.label for w in windows])


def baseline_forward(
    u: Tensor2D,
    params: BaselineMLPParams,
    training: bool = False,
    rng=None,
    dropout_rate: float = 0.0,
) -> Tensor2D:
    """tanh -> tanh -> softmax over utterance vectors, one per column of ``u``."""
    draws = (None, None)
    if training and dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training forward pass needs an rng for dropout")
        # one draw, window by window then layer by layer: the masks, in order,
        # that the windows would draw as batches of one
        h1 = params.b1.rows
        both = rng.random((u.cols, h1 + params.b2.rows))
        draws = (both[:, :h1].T, both[:, h1:].T)
    h1 = tanh_map(add_bias(matmul(params.w1, u), params.b1))
    h1 = apply_dropout(h1, dropout_rate, rng, training, uniforms=draws[0])
    h2 = tanh_map(add_bias(matmul(params.w2, h1), params.b2))
    h2 = apply_dropout(h2, dropout_rate, rng, training, uniforms=draws[1])
    return softmax_columns(add_bias(matmul(params.w_out, h2), params.b_out))


class BaselineMLP:
    """No-context classifier over the current utterance's features alone.

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
        rng = np.random.default_rng(seed)
        self.params = BaselineMLPParams(
            w1=_glorot(rng, hidden1, feature_dim, "mlp.w1"),
            b1=_zeros(hidden1, "mlp.b1"),
            w2=_glorot(rng, hidden2, hidden1, "mlp.w2"),
            b2=_zeros(hidden2, "mlp.b2"),
            w_out=_glorot(rng, n_classes, hidden2, "mlp.w_out"),
            b_out=_zeros(n_classes, "mlp.b_out"),
        )

    def param_items(self) -> list[tuple[str, Parameter]]:
        p = self.params
        return [
            ("mlp.w1", p.w1), ("mlp.b1", p.b1),
            ("mlp.w2", p.w2), ("mlp.b2", p.b2),
            ("mlp.w_out", p.w_out), ("mlp.b_out", p.b_out),
        ]

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.param_items()]

    def config(self) -> dict:
        return {
            "feature_dim": self.feature_dim,
            "n_classes": self.n_classes,
            "hidden1": self.hidden1,
            "hidden2": self.hidden2,
            "dropout_rate": self.dropout_rate,
            "seed": self.seed,
        }

    def _forward(self, windows, training: bool, rng) -> tuple[Tensor2D, None]:
        (current,) = _slot_inputs(windows, [-1])
        probs = baseline_forward(current, self.params, training=training, rng=rng,
                                 dropout_rate=self.dropout_rate)
        return probs, None

    def predict(self, windows, training: bool = False, rng=None):
        return _predict(self._forward, windows, training, rng)

    def loss(self, windows, training: bool = False, rng=None) -> Tensor2D:
        from .optim import cross_entropy

        probs, _ = self._forward(windows, training, rng)
        return cross_entropy(probs, [w.label for w in windows])


MODEL_KINDS = {"baseline": BaselineMLP, "uttattbirnn": UttAttBiRNN}

CHECKPOINT_FORMAT = "ctxda-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is missing, malformed, or inconsistent."""


def save_checkpoint(path, model, encoder_config: dict, tags: list[str], seed: int) -> None:
    """Write a self-describing JSON checkpoint.

    Layout (stable, documented in the README): format marker and version,
    model kind + constructor config, encoder configuration, the ordered tag
    vocabulary, the training seed, and every parameter tensor with its shape
    and row-major values at full float64 precision.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "model": model.config(),
        "encoder": encoder_config,
        "tags": list(tags),
        "seed": seed,
        "params": {
            name: {
                "rows": p.rows,
                "cols": p.cols,
                "values": p.values.tolist(),
            }
            for name, p in model.param_items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path):
    """Rebuild (model, metadata) from a checkpoint file.

    Metadata is a dict with ``encoder``, ``tags`` and ``seed``. Raises
    CheckpointError on any structural problem.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
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
        for name, p in model.param_items():
            entry = payload["params"][name]
            arr = np.array(entry["values"], dtype=np.float64).reshape(
                entry["rows"], entry["cols"]
            )
            if arr.shape != p.shape:
                raise CheckpointError(
                    f"parameter {name}: checkpoint shape {arr.shape} != model shape {p.shape}"
                )
            p.data[:] = arr
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    meta = {
        "encoder": payload.get("encoder", {}),
        "tags": payload.get("tags", []),
        "seed": payload.get("seed", 0),
    }
    return model, meta
