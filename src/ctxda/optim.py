"""Loss, Adam, learning-rate decay, early stopping, and the training loop."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .tensor import Parameter, Tensor2D, backward, mean_neg_log_gather

LOSS_FLOOR = 1e-12


class TrainingDiverged(RuntimeError):
    """A non-finite gradient or loss appeared during training."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


def cross_entropy(probs: Tensor2D, gold) -> Tensor2D:
    """Categorical cross-entropy -log(max(p_gold, 1e-12)) as a graph node.

    ``probs`` holds one probability column per example. ``gold`` is the gold
    index of each column, or a single int for a single column; the result
    is the mean over the columns, a (1, 1) node.
    """
    golds = [gold] if isinstance(gold, (int, np.integer)) else gold
    return mean_neg_log_gather(probs, golds, floor=LOSS_FLOOR)


class Adam:
    """Bias-corrected Adam with a mutable learning rate.

    Highlights: first/second moment estimates per parameter, step counter,
    update = lr * m_hat / (sqrt(v_hat) + eps) with epsilon outside the root.
    """

    def __init__(
        self,
        params: list[Parameter],
        learning_rate: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.base_learning_rate = learning_rate
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for p in self.params:
            if not np.isfinite(p.grad).all():
                name = p.name if isinstance(p, Parameter) and p.name else repr(p)
                raise TrainingDiverged(f"non-finite gradient in parameter {name}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def decay_lr(base_lr: float, gamma: float, epoch: int) -> float:
    """Exponential schedule: base_lr * gamma**epoch (epoch 0 -> base rate)."""
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    return base_lr * gamma**epoch


class EarlyStopping:
    """Stop after ``patience`` epochs without a validation-accuracy improvement.

    Keeps a snapshot of the best-scoring parameters; improvement is strictly
    greater-than, so ties count against patience.
    """

    def __init__(self, patience: int = 5):
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.patience = patience
        self.best_accuracy = -np.inf
        self.best_epoch = 0
        self.epochs_since_improvement = 0
        self.best_snapshot: list[np.ndarray] | None = None

    def update(self, accuracy: float, snapshot: list[np.ndarray], epoch: int) -> bool:
        """Record one epoch's result; returns True when training should stop."""
        if accuracy > self.best_accuracy:
            self.best_accuracy = accuracy
            self.best_epoch = epoch
            self.best_snapshot = [a.copy() for a in snapshot]
            self.epochs_since_improvement = 0
        else:
            self.epochs_since_improvement += 1
        return self.epochs_since_improvement >= self.patience


def split_validation(windows, fraction: float, seed: int, by_conversation: bool = False):
    """Seeded shuffle-and-split into (train, validation).

    Window-level by default; ``by_conversation`` keeps whole conversations
    together so context never leaks across the boundary. At least one window
    lands in each side.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"validation fraction must be in (0, 1), got {fraction}")
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
    dropout_rate: float = 0.2
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
    stopped_early: bool = False


def evaluate_accuracy(model, windows) -> float:
    """Percent of windows whose argmax prediction matches the gold label."""
    if not windows:
        raise ValueError("cannot evaluate on an empty window list")
    correct = sum(
        1 for w, p in zip(windows, model.predict(windows)) if p.top_class == w.label
    )
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
    params = model.parameters()
    adam = Adam(params, learning_rate=cfg.learning_rate)
    stopper = EarlyStopping(cfg.patience)
    result = TrainResult()

    for epoch in range(1, cfg.max_epochs + 1):
        adam.learning_rate = decay_lr(cfg.learning_rate, cfg.lr_decay, epoch - 1)
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[start : start + cfg.batch_size]]
            adam.zero_grad()
            loss = model.loss(batch, training=True, rng=rng)
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
        if stopper.update(val_accuracy, [p.data for p in params], epoch):
            result.stopped_early = True
            break

    if stopper.best_snapshot is not None:
        for p, best in zip(params, stopper.best_snapshot):
            p.data[:] = best
    result.best_epoch = stopper.best_epoch
    result.best_val_accuracy = stopper.best_accuracy
    return result


def write_history_csv(path, history: list[EpochStats]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "train_loss", "val_accuracy"])
        for row in history:
            writer.writerow([row.epoch, repr(row.learning_rate),
                             repr(row.train_loss), repr(row.val_accuracy)])
