"""Loss, Adam and the training loop with learning-rate decay and early stopping."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .tensor import DimensionError, Parameter, Tensor2D, atomic_text, backward

LOSS_FLOOR = 1e-12


class TrainingDiverged(RuntimeError):
    """A non-finite gradient or loss appeared during training."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


def cross_entropy(probs: Tensor2D, gold) -> Tensor2D:
    """Categorical cross-entropy, the mean over columns j of
    -log(max(probs[gold[j], j], LOSS_FLOOR)), as a (1, 1) graph node.

    ``probs`` holds one probability column per example and ``gold`` the gold
    index of each column. The floor keeps an entry that has underflowed to
    zero finite; entries at or below it get zero gradient.
    """
    gold = np.asarray(gold, dtype=np.intp)
    n_classes, n = probs.data.shape
    if gold.shape != (n,):
        raise DimensionError(f"cross_entropy: {gold.size} gold indices for {n} columns")
    if np.any((gold < 0) | (gold >= n_classes)):
        raise ValueError(f"cross_entropy: gold index out of range for {n_classes} classes")
    cols = np.arange(n)
    picked = probs.data[gold, cols]
    clipped = np.maximum(picked, LOSS_FLOOR)
    active = picked > LOSS_FLOOR

    def backprop(g):
        probs.grad[gold, cols] += np.where(active, -(g[0, 0] / n) / clipped, 0.0)

    return Tensor2D._result(np.array([[-np.log(clipped).mean()]]), (probs,), backprop)


class Adam:
    """Bias-corrected Adam (Kingma & Ba 2014) with a mutable learning rate.

    The constructor copies its Parameters' values and gradients into the flat
    arrays ``data`` and ``grad``, with moments ``m`` and ``v``, and rebinds
    each Parameter's ``data`` and ``grad`` to views of them. The views must
    stay views: write the Parameters in place only. A Parameter belongs to at
    most one Adam. A step works in place on two scratch buffers of the same
    size and allocates no array.
    """

    beta1 = 0.9  # the moment decays and eps are Kingma & Ba's defaults
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Parameter], learning_rate: float = 1e-4):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self.data = np.concatenate([p.data.ravel() for p in self.params])
        self.grad = np.concatenate([p.grad.ravel() for p in self.params])
        ends = np.cumsum([p.data.size for p in self.params])[:-1]
        for p, data, grad in zip(self.params, np.split(self.data, ends), np.split(self.grad, ends)):
            p.data, p.grad = data.reshape(p.data.shape), grad.reshape(p.data.shape)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self._scratch = (np.empty_like(self.data), np.empty_like(self.data))
        self._finite = np.empty(self.data.shape, dtype=bool)

    def zero_grad(self) -> None:
        self.grad[:] = 0.0

    def step(self) -> None:
        """``data -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` after the moment
        updates, each operation in that order, so the result is bitwise that
        expression's."""
        if not np.isfinite(self.grad, out=self._finite).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise TrainingDiverged(f"non-finite gradient in parameter {bad.name or repr(bad)}")
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        g, m, v, (a, b) = self.grad, self.m, self.v, self._scratch
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=a)
        v *= self.beta2
        np.multiply(g, g, out=a)
        v += np.multiply(a, 1.0 - self.beta2, out=a)
        np.divide(m, bc1, out=a)
        a *= self.learning_rate
        np.sqrt(np.divide(v, bc2, out=b), out=b)
        b += self.eps
        a /= b
        self.data -= a


def split_validation(windows, fraction: float, seed: int, by_conversation: bool = False):
    """Seeded shuffle-and-split into (train, validation).

    Window-level by default; ``by_conversation`` keeps whole conversations
    together so context never leaks across the boundary. At least one window
    lands in each side.
    """
    if len(windows) < 2:
        raise ValueError("need at least 2 windows to split")
    rng = np.random.default_rng(seed)
    n_val = int(round(fraction * len(windows)))
    n_val = min(max(n_val, 1), len(windows) - 1)

    if by_conversation:
        by_conv: dict[str, list] = {}
        for w in windows:
            by_conv.setdefault(w.conversation_id, []).append(w)
        conv_ids = list(by_conv)
        if len(conv_ids) < 2:
            raise ValueError("conversation-level split needs at least 2 conversations")
        rng.shuffle(conv_ids)
        groups = [by_conv[cid] for cid in conv_ids]
        val, train = [], []
        for group in groups:
            target = val if len(val) < n_val else train
            target.extend(group)
        if not train:
            # every conversation fit under the quota; keep the last one for training
            train = groups[-1]
            val = [w for g in groups[:-1] for w in g]
        return train, val

    order = rng.permutation(len(windows))
    val_idx = set(order[:n_val].tolist())
    train = [w for i, w in enumerate(windows) if i not in val_idx]
    val = [w for i, w in enumerate(windows) if i in val_idx]
    return train, val


@dataclass
class TrainConfig:
    n_context: int = 4
    batch_size: int = 64
    max_epochs: int = 100
    learning_rate: float = 1e-4
    lr_decay: float = 0.95
    val_fraction: float = 0.15
    patience: int = 5
    seed: int = 0
    split_by_conversation: bool = False
    track_train_accuracy: bool = False  # per-epoch accuracy over the train split

    def __post_init__(self):
        if not (0.0 < self.val_fraction < 1.0):
            raise ValueError("val_fraction must be in (0, 1)")
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.lr_decay <= 0:
            raise ValueError("lr_decay must be positive")


@dataclass
class EpochStats:
    epoch: int
    learning_rate: float
    train_loss: float
    val_accuracy: float
    train_accuracy: float | None = None


@dataclass
class TrainResult:
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_accuracy: float = 0.0


def evaluate_accuracy(model, windows) -> float:
    """Percent of windows whose argmax prediction matches the gold label;
    ``predict`` refuses an empty list."""
    labels = np.array([w.label for w in windows])
    correct = int(np.count_nonzero(model.predict(windows).top_class == labels))
    return 100.0 * correct / len(windows)


def train(model, windows, cfg: TrainConfig) -> TrainResult:
    """Shuffled mini-batch Adam with per-epoch validation and early stopping.

    Deterministic for a fixed config seed and a fixed model init. The model
    is left holding the parameters of the best validation epoch, which may
    differ from the final epoch.
    """
    if not windows:
        raise ValueError("empty training set")
    train_set, val_set = split_validation(
        windows, cfg.val_fraction, cfg.seed, by_conversation=cfg.split_by_conversation
    )
    rng = np.random.default_rng(cfg.seed)
    adam = Adam(model.parameters(), learning_rate=cfg.learning_rate)
    result = TrainResult(best_val_accuracy=-np.inf)
    best_data = None  # a copy of adam.data at the best epoch

    for epoch in range(1, cfg.max_epochs + 1):
        adam.learning_rate = cfg.learning_rate * cfg.lr_decay ** (epoch - 1)
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[start : start + cfg.batch_size]]
            adam.zero_grad()
            loss = model.loss(batch, rng=rng)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}", epoch=epoch)
            backward(loss)
            epoch_loss += value * len(batch)
            try:
                adam.step()
            except TrainingDiverged as exc:
                raise TrainingDiverged(str(exc), epoch=epoch) from None

        val_accuracy = evaluate_accuracy(model, val_set)
        train_accuracy = (
            evaluate_accuracy(model, train_set) if cfg.track_train_accuracy else None
        )
        result.history.append(
            EpochStats(epoch, adam.learning_rate, epoch_loss / len(train_set),
                       val_accuracy, train_accuracy)
        )
        if val_accuracy > result.best_val_accuracy:  # a tie is no improvement
            result.best_epoch, result.best_val_accuracy = epoch, val_accuracy
            best_data = adam.data.copy()
        elif epoch - result.best_epoch >= cfg.patience:
            break

    adam.data[:] = best_data
    return result


def write_history_csv(path, history: list[EpochStats]) -> None:
    with atomic_text(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "train_loss", "val_accuracy"])
        for row in history:
            writer.writerow([row.epoch, repr(row.learning_rate),
                             repr(row.train_loss), repr(row.val_accuracy)])
