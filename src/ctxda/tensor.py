"""Dense 2-D float64 kernel with recorded reverse-mode differentiation.

Everything numerical in this package runs on :class:`Tensor2D`: a row-major
matrix of 64-bit floats that doubles as a node in a computation graph. Each
operation returns a fresh node that remembers its parents and how to push
gradients back to them; :func:`backward` walks the recorded graph in reverse
topological order, handing each node's backward closure the gradient of that
node. Closures refer only to their inputs, never to their own output, so a
graph holds no reference cycles and is freed as soon as its root is dropped.
Trainable values are :class:`Parameter` nodes, whose gradients persist and
accumulate across backward calls until ``zero_grad``.

Conventions: vectors are column vectors of shape ``(n, 1)``; scalar results
are ``(1, 1)``. A batch is a matrix whose columns are examples: B vectors of
size n side by side form an ``(n, B)`` matrix, and the column-wise ops
(:func:`add_bias`, :func:`softmax_columns`, :func:`weighted_sum`,
:func:`mean_neg_log_gather`) treat each column independently;
:func:`add_bias` adds one ``(n, 1)`` column to every column.

:func:`finite_difference_grad` is the independent oracle for the analytic
backward passes. It evaluates the function being checked through plain
forward calls only and never consults any ``.grad`` field.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DimensionError",
    "GraphError",
    "Tensor2D",
    "Parameter",
    "matmul",
    "add",
    "hadamard",
    "scale",
    "tanh_map",
    "sigmoid_map",
    "softmax",
    "softmax_columns",
    "add_bias",
    "weighted_sum",
    "reshape",
    "transpose",
    "hstack",
    "vstack",
    "pick",
    "sum_all",
    "mean_columns",
    "neg_log",
    "mean_neg_log_gather",
    "backward",
    "finite_difference_grad",
]


class DimensionError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class GraphError(RuntimeError):
    """backward() was invoked without a usable recorded computation."""


def _as_matrix(data) -> np.ndarray:
    arr = np.array(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise DimensionError(f"expected at most 2 dimensions, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("empty tensors are not supported")
    return arr


class Tensor2D:
    """Row-major float64 matrix and computation-graph node.

    ``data`` holds the value, ``grad`` the accumulated gradient of the same
    shape. Constructing from user data copies and checks finiteness; results
    of recorded operations skip those checks (they are produced internally
    from already-validated inputs).
    """

    __slots__ = ("data", "grad", "_parents", "_backprop")

    def __init__(self, data):
        self.data = _as_matrix(data)
        if not np.isfinite(self.data).all():
            raise ValueError("tensor entries must be finite")
        self.grad = np.zeros_like(self.data)
        self._parents: tuple = ()
        self._backprop: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _result(cls, data: np.ndarray, parents: tuple, backprop) -> "Tensor2D":
        out = Tensor2D.__new__(Tensor2D)
        out.data = data
        out.grad = np.zeros_like(data)
        out._parents = parents
        out._backprop = backprop
        return out

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Tensor2D":
        if rows <= 0 or cols <= 0:
            raise ValueError(f"rows and cols must be positive, got ({rows}, {cols})")
        return cls(np.zeros((rows, cols)))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def values(self) -> np.ndarray:
        """Entries in row-major order, length rows*cols."""
        return self.data.ravel()

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ValueError(f"item() requires a (1, 1) tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def zero_grad(self) -> None:
        self.grad[:] = 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.data.shape})"


class Parameter(Tensor2D):
    """Trainable value/gradient pair.

    Unlike intermediate nodes, a Parameter's gradient survives across
    backward calls (each call adds its exact contribution) until explicitly
    reset with ``zero_grad``. ``name`` is used in optimizer diagnostics.
    """

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data)
        self.name = name

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"Parameter({label}, shape={self.data.shape})"


def _check_same_shape(op: str, a: Tensor2D, b: Tensor2D) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def matmul(a: Tensor2D, b: Tensor2D) -> Tensor2D:
    """Matrix product, shape (a.rows, b.cols)."""
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions differ for shapes {a.data.shape} and {b.data.shape}"
        )

    def backprop(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    return Tensor2D._result(a.data @ b.data, (a, b), backprop)


def add(a: Tensor2D, b: Tensor2D) -> Tensor2D:
    """Elementwise sum of two same-shape tensors."""
    _check_same_shape("add", a, b)

    def backprop(g):
        a.grad += g
        b.grad += g

    return Tensor2D._result(a.data + b.data, (a, b), backprop)


def add_bias(t: Tensor2D, bias: Tensor2D) -> Tensor2D:
    """Add the column vector ``bias`` (n, 1) to every column of ``t`` (n, B).

    The bias gradient is the sum of the output gradient over columns.
    """
    if bias.data.shape != (t.data.shape[0], 1):
        raise DimensionError(
            f"add_bias: bias shape {bias.data.shape} does not fit {t.data.shape}"
        )

    def backprop(g):
        t.grad += g
        bias.grad += g.sum(axis=1, keepdims=True)

    return Tensor2D._result(t.data + bias.data, (t, bias), backprop)


def hadamard(a: Tensor2D, b: Tensor2D) -> Tensor2D:
    """Elementwise product of two same-shape tensors."""
    _check_same_shape("hadamard", a, b)

    def backprop(g):
        a.grad += g * b.data
        b.grad += g * a.data

    return Tensor2D._result(a.data * b.data, (a, b), backprop)


def scale(a: Tensor2D, k: float) -> Tensor2D:
    """Multiply every entry by the constant ``k``."""
    k = float(k)

    def backprop(g):
        a.grad += g * k

    return Tensor2D._result(a.data * k, (a,), backprop)


def tanh_map(t: Tensor2D) -> Tensor2D:
    """Elementwise tanh; outputs lie in (-1, 1)."""
    y = np.tanh(t.data)

    def backprop(g):
        t.grad += g * (1.0 - y * y)

    return Tensor2D._result(y, (t,), backprop)


def sigmoid_map(t: Tensor2D) -> Tensor2D:
    """Elementwise logistic sigmoid; outputs lie in (0, 1)."""
    y = np.empty_like(t.data)
    pos = t.data >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-t.data[pos]))
    ez = np.exp(t.data[~pos])
    y[~pos] = ez / (1.0 + ez)

    def backprop(g):
        t.grad += g * y * (1.0 - y)

    return Tensor2D._result(y, (t,), backprop)


def softmax(v: Tensor2D) -> Tensor2D:
    """Stable softmax of a column vector; output sums to 1.

    Computed with max-subtraction, so shifting all inputs by a constant
    leaves the output unchanged. The single-column case of
    :func:`softmax_columns`.
    """
    if v.data.shape[1] != 1:
        raise ValueError(f"softmax expects a column vector, got shape {v.data.shape}")
    return softmax_columns(v)


def softmax_columns(t: Tensor2D, keep=None) -> Tensor2D:
    """Stable softmax down each column; every column sums to 1.

    ``keep`` is an optional boolean mask of ``t``'s shape: entries where it
    is False get weight exactly 0 and no gradient, and each column is
    normalised over its kept entries alone. Every column must keep at least
    one entry.
    """
    x = t.data
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != x.shape:
            raise DimensionError(f"softmax_columns: mask {keep.shape} vs {x.shape}")
        if not keep.any(axis=0).all():
            raise ValueError("softmax_columns: a column keeps no entry")
        x = np.where(keep, x, -np.inf)
    e = np.exp(x - x.max(axis=0, keepdims=True))
    y = e / e.sum(axis=0, keepdims=True)

    def backprop(g):
        t.grad += y * (g - (y * g).sum(axis=0, keepdims=True))

    return Tensor2D._result(y, (t,), backprop)


def weighted_sum(parts: Sequence[Tensor2D], weights: Tensor2D) -> Tensor2D:
    """Column-wise weighted sum of K same-shape (n, B) tensors.

    ``weights`` is (K, B); column j of the result is
    sum_k weights[k, j] * parts[k][:, j], so each part is scaled by one row
    of ``weights`` broadcast down its rows.
    """
    if len(parts) != weights.data.shape[0]:
        raise DimensionError(
            f"weighted_sum: {len(parts)} parts but {weights.data.shape[0]} weight rows"
        )
    shape = (parts[0].data.shape[0], weights.data.shape[1])
    for p in parts:
        if p.data.shape != shape:
            raise DimensionError(f"weighted_sum: part shape {p.data.shape}, expected {shape}")
    stacked = np.stack([p.data for p in parts])  # (K, n, B)
    w = weights.data

    def backprop(g):
        for k, p in enumerate(parts):
            p.grad += g * w[k]
        weights.grad += (stacked * g).sum(axis=1)

    return Tensor2D._result((stacked * w[:, None, :]).sum(axis=0), (*parts, weights), backprop)


def transpose(t: Tensor2D) -> Tensor2D:
    def backprop(g):
        t.grad += g.T

    return Tensor2D._result(t.data.T.copy(), (t,), backprop)


def reshape(t: Tensor2D, rows: int, cols: int) -> Tensor2D:
    """The same entries in row-major order, as a (rows, cols) tensor."""
    if rows * cols != t.data.size:
        raise DimensionError(f"reshape: cannot view {t.data.shape} as {(rows, cols)}")
    shape = t.data.shape

    def backprop(g):
        t.grad += g.reshape(shape)

    return Tensor2D._result(t.data.reshape(rows, cols).copy(), (t,), backprop)


def hstack(parts: Sequence[Tensor2D]) -> Tensor2D:
    """Concatenate tensors side by side (all must share a row count)."""
    if not parts:
        raise ValueError("hstack of no tensors")
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.shape[0] != rows:
            raise DimensionError(
                f"hstack: row counts differ ({rows} vs {p.data.shape[0]})"
            )
    widths = [p.data.shape[1] for p in parts]

    def backprop(g):
        at = 0
        for p, w in zip(parts, widths):
            p.grad += g[:, at : at + w]
            at += w

    return Tensor2D._result(np.hstack([p.data for p in parts]), tuple(parts), backprop)


def vstack(parts: Sequence[Tensor2D]) -> Tensor2D:
    """Concatenate tensors top to bottom (all must share a column count)."""
    if not parts:
        raise ValueError("vstack of no tensors")
    cols = parts[0].data.shape[1]
    for p in parts:
        if p.data.shape[1] != cols:
            raise DimensionError(
                f"vstack: column counts differ ({cols} vs {p.data.shape[1]})"
            )
    heights = [p.data.shape[0] for p in parts]

    def backprop(g):
        at = 0
        for p, h in zip(parts, heights):
            p.grad += g[at : at + h, :]
            at += h

    return Tensor2D._result(np.vstack([p.data for p in parts]), tuple(parts), backprop)


def pick(t: Tensor2D, i: int, j: int) -> Tensor2D:
    """Select one entry as a (1, 1) tensor."""
    r, c = t.data.shape
    if not (0 <= i < r and 0 <= j < c):
        raise IndexError(f"pick({i}, {j}) out of range for shape {(r, c)}")

    def backprop(g):
        t.grad[i, j] += g[0, 0]

    return Tensor2D._result(t.data[i : i + 1, j : j + 1].copy(), (t,), backprop)


def sum_all(t: Tensor2D) -> Tensor2D:
    """Sum of all entries as a (1, 1) tensor."""

    def backprop(g):
        t.grad += g[0, 0]

    return Tensor2D._result(np.array([[t.data.sum()]]), (t,), backprop)


def mean_columns(t: Tensor2D) -> Tensor2D:
    """Mean over columns, returned as a column vector."""
    n = t.data.shape[1]

    def backprop(g):
        t.grad += g / n

    return Tensor2D._result(t.data.mean(axis=1, keepdims=True), (t,), backprop)


def neg_log(t: Tensor2D, floor: float = 1e-12) -> Tensor2D:
    """Elementwise -log(max(t, floor)).

    The floor guards against -inf on entries that have underflowed to zero;
    entries at or below the floor get zero gradient (the max branch).
    """
    clipped = np.maximum(t.data, floor)
    active = t.data > floor

    def backprop(g):
        t.grad += np.where(active, -g / clipped, 0.0)

    return Tensor2D._result(-np.log(clipped), (t,), backprop)


def mean_neg_log_gather(t: Tensor2D, rows, floor: float = 1e-12) -> Tensor2D:
    """Mean over columns j of -log(max(t[rows[j], j], floor)), as (1, 1).

    One entry is gathered per column (the gold class of each example in a
    batch of probability columns). As in :func:`neg_log`, entries at or
    below the floor get zero gradient.
    """
    rows = np.asarray(rows, dtype=np.intp)
    r, n = t.data.shape
    if rows.shape != (n,):
        raise DimensionError(f"mean_neg_log_gather: {rows.size} rows for {n} columns")
    if np.any((rows < 0) | (rows >= r)):
        raise ValueError(f"mean_neg_log_gather: row index out of range for {r} rows")
    cols = np.arange(n)
    picked = t.data[rows, cols]
    clipped = np.maximum(picked, floor)
    active = picked > floor

    def backprop(g):
        t.grad[rows, cols] += np.where(active, -(g[0, 0] / n) / clipped, 0.0)

    return Tensor2D._result(np.array([[-np.log(clipped).mean()]]), (t,), backprop)


def _topo_order(root: Tensor2D) -> list[Tensor2D]:
    # Iterative post-order: mLSTM graphs over long strings overflow the
    # recursion limit.
    order: list[Tensor2D] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor2D, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Tensor2D) -> None:
    """Accumulate d(root)/d(node) into ``grad`` for every node below ``root``.

    ``root`` must be scalar and must be the result of at least one recorded
    operation. Intermediate gradients are reset on every call; Parameter
    gradients accumulate across calls (exactly one contribution per call)
    until ``zero_grad``.
    """
    if root.data.shape != (1, 1):
        raise GraphError(f"backward requires a scalar root, got shape {root.data.shape}")
    if not root._parents:
        raise GraphError("backward called before any recorded computation")
    order = _topo_order(root)
    for node in order:
        if not isinstance(node, Parameter):
            node.grad[:] = 0.0
    root.grad[:] = 1.0
    for node in reversed(order):
        if node._backprop is not None:
            node._backprop(node.grad)


def _scalar(x) -> float:
    if isinstance(x, Tensor2D):
        return x.item()
    return float(x)


def finite_difference_grad(
    f: Callable[[Tensor2D], float], at: Tensor2D, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Perturbs one coordinate at a time: (f(x + h e_ij) - f(x - h e_ij)) / 2h.
    ``f`` receives a fresh plain Tensor2D and may return a float or a
    (1, 1) tensor.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    base = np.array(at.data if isinstance(at, Tensor2D) else at, dtype=np.float64)
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        plus = base.copy()
        plus[ij] += h
        minus = base.copy()
        minus[ij] -= h
        grad[ij] = (_scalar(f(Tensor2D(plus))) - _scalar(f(Tensor2D(minus)))) / (2.0 * h)
    return grad
