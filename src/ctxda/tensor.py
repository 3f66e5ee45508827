"""Dense 2-D float64 kernel with recorded reverse-mode differentiation.

Everything numerical in this package runs on :class:`Tensor2D`: a row-major
matrix of 64-bit floats that doubles as a node in a computation graph. Each
operation returns a fresh node that remembers its parents and how to push
gradients back to them; :func:`backward` walks the recorded graph in reverse
topological order, handing each node's backward closure the gradient of that
node. Closures refer only to their inputs, never to their own output, so a
graph holds no reference cycles and is freed as soon as its root is dropped.
Trainable values are :class:`Parameter` nodes, whose gradient is made (zeros)
on first read, then accumulates across backward calls until the optimizer
zeroes it; every other node gets one only when :func:`backward` walks it, so
a model that only predicts holds no gradient. Every model and cell keeps its
Parameters in one ordered registry built by :func:`init_params`,
stored by :func:`params_to_json` and :func:`write_json_file`, and loaded,
with checks, by :func:`array_values` and :func:`params_from_json`.

Conventions: vectors are column vectors of shape ``(n, 1)``; scalar results
are ``(1, 1)``. A batch is a matrix whose columns are examples: B vectors of
size n side by side form an ``(n, B)`` matrix, and the column-wise ops
(:func:`add_bias`, :func:`softmax_columns`, and the loss ``cross_entropy`` in
:mod:`ctxda.optim`) treat each column independently; :func:`add_bias` adds
one ``(n, 1)`` column to every column. These ops and :func:`matmul` make the
classifier head that every model shares.

Fused ops elsewhere record nodes the same way, through ``Tensor2D._result``,
each one node with a hand-written backward: the mLSTM sequence op
``mlstm_states`` in :mod:`ctxda.encoders`, and in :mod:`ctxda.model` the
BiRNN op ``birnn_states``, the attention pooling over its states and the
baseline's two hidden layers.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Callable

import numpy as np

__all__ = [
    "DimensionError",
    "GraphError",
    "Tensor2D",
    "Parameter",
    "matmul",
    "softmax_columns",
    "add_bias",
    "backward",
]


class DimensionError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class GraphError(RuntimeError):
    """backward() was invoked without a usable recorded computation."""


class Tensor2D:
    """Row-major float64 matrix and computation-graph node.

    ``data`` holds the value. ``grad``, of the same shape, is None until
    :func:`backward` walks the node and gives it one. Constructing from user
    data copies and checks finiteness; results of recorded operations skip
    those checks (they are produced internally from already-validated
    inputs).
    """

    __slots__ = ("data", "grad", "_parents", "_backprop")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim != 2:
            raise DimensionError(f"expected at most 2 dimensions, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("empty tensors are not supported")
        if not np.isfinite(arr).all():
            raise ValueError("tensor entries must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backprop: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _result(cls, data: np.ndarray, parents: tuple, backprop) -> "Tensor2D":
        out = Tensor2D.__new__(Tensor2D)
        out.data = data
        out.grad = None
        out._parents = parents
        out._backprop = backprop
        return out

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ValueError(f"item() requires a (1, 1) tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.data.shape})"


class Parameter(Tensor2D):
    """Trainable value/gradient pair.

    Unlike intermediate nodes, a Parameter's gradient is made (zeros) on first
    read and survives across backward calls (each call adds its exact
    contribution) until written to zero. ``name`` is used in diagnostics.
    """

    __slots__ = ("name", "_grad")

    def __init__(self, data, name: str = ""):
        super().__init__(data)
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"Parameter({label}, shape={self.data.shape})"


# --- parameter registries ------------------------------------------------------
#
# A model or cell keeps its Parameters in one ordered name -> Parameter dict.
# That order is the initialisation order, the optimiser order and the order of
# the stored entries, and the names are the stored names.


class CheckpointError(ValueError):
    """A checkpoint file is missing, malformed, or inconsistent."""


def init_params(rng, shapes: dict, prefix: str = "") -> dict[str, Parameter]:
    """A parameter registry built in ``shapes`` order.

    A ``(rows, cols)`` shape is a Glorot-uniform matrix drawn from ``rng``
    (zeros when ``rng`` is None); an int ``rows`` is a zero bias column,
    which draws nothing. Each Parameter is named ``prefix + name``.
    """
    params = {}
    for name, shape in shapes.items():
        if isinstance(shape, int):
            data = np.zeros((shape, 1))
        elif rng is None:
            data = np.zeros(shape)
        else:
            s = np.sqrt(6.0 / (shape[0] + shape[1]))
            data = rng.uniform(-s, s, shape)
        params[name] = Parameter(data, name=prefix + name)
    return params


def params_to_json(params: dict[str, Parameter]) -> dict:
    """Each parameter as ``{"rows", "cols", "values"}``, its values a flat
    row-major float64 view of the live data, which is written as a list."""
    return {
        name: {"rows": p.rows, "cols": p.cols, "values": p.data.ravel()}
        for name, p in params.items()
    }


# list entries per C-encoder call when write_json_file streams a long list
_JSON_SLICE = 1024


def _json_chunks(obj):
    """The text of ``json.dumps(obj, allow_nan=False)`` in pieces: dicts are
    walked here, an ndarray (as its list) or a list longer than _JSON_SLICE
    is encoded one slice at a time, and every other value in one call."""
    if isinstance(obj, dict):
        yield "{"
        sep = ""
        for key, value in obj.items():
            if not isinstance(key, str):  # json.dumps would coerce it
                raise TypeError(f"dict keys must be str, not {type(key).__name__}")
            yield sep + json.dumps(key) + ": "
            yield from _json_chunks(value)
            sep = ", "
        yield "}"
    elif isinstance(obj, np.ndarray) or (isinstance(obj, list) and len(obj) > _JSON_SLICE):
        yield "["
        for start in range(0, len(obj), _JSON_SLICE):
            piece = obj[start:start + _JSON_SLICE]
            text = json.dumps(piece if isinstance(piece, list) else piece.tolist(),
                              allow_nan=False)[1:-1]
            yield text if start == 0 else ", " + text
        yield "]"
    else:
        yield json.dumps(obj, allow_nan=False)


@contextlib.contextmanager
def atomic_text(path):
    """The one way this package writes an output file: text for ``path`` goes to
    ``<path>.<pid>.tmp`` (UTF-8, line ends as given), which ``os.replace`` moves
    onto ``path`` when the block ends. A block that fails removes it and re-raises,
    so ``path`` appears whole or not at all and an earlier file there stays as it was.
    An OSError is re-raised as one of its class that names ``path``, with its strerror."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise type(exc)(exc.errno, exc.strerror or str(exc), os.fspath(path)) from exc
        raise


def write_json_file(path, obj) -> None:
    """Write ``json.dumps(obj)`` and a newline to ``path`` (an ndarray as its list)
    through :func:`atomic_text`, streamed through the C encoder. A NaN or infinite
    float raises ValueError and a non-str dict key TypeError; ``path`` is untouched."""
    with atomic_text(path) as fh:
        for chunk in _json_chunks(obj):
            fh.write(chunk)
        fh.write("\n")


def array_values(entry: dict) -> dict:
    """``json.load``'s ``object_hook`` for parameter documents: the ``values``
    list of a ``{"rows", "cols", "values"}`` entry becomes a float64 array as
    soon as the parser closes the entry. Values numpy cannot convert stay as
    they are, for :func:`params_from_json` to refuse."""
    if entry.keys() == {"rows", "cols", "values"} and isinstance(entry["values"], list):
        with contextlib.suppress(TypeError, ValueError):
            entry["values"] = np.array(entry["values"], dtype=np.float64)
    return entry


def params_from_json(params: dict[str, Parameter], stored) -> None:
    """Overwrite the registry ``params`` with the entries of ``stored``.

    Fails closed with CheckpointError: ``stored`` must hold exactly the
    registry's names, and each entry the live parameter's shape, rows*cols
    values (a list or an array) and only finite ones.
    """
    try:
        if set(stored) != set(params):
            raise CheckpointError(f"stored parameters {sorted(stored)}, expected {sorted(params)}")
        for name, p in params.items():
            entry = stored[name]
            values = np.asarray(entry["values"], dtype=np.float64)
            if (entry["rows"], entry["cols"]) != p.shape or values.shape != (p.data.size,):
                raise CheckpointError(
                    f"parameter {name}: stored as ({entry['rows']}, {entry['cols']}) with "
                    f"{values.size} values, expected {p.shape}"
                )
            if not np.isfinite(values).all():
                raise CheckpointError(f"parameter {name}: stored values are not all finite")
            p.data[:] = values.reshape(p.shape)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed parameter entry: {exc!r}") from exc


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


def softmax_columns(t: Tensor2D) -> Tensor2D:
    """Stable softmax down each column; every column sums to 1.

    Computed with max-subtraction, so shifting a column by a constant leaves
    its output unchanged.
    """
    e = np.exp(t.data - t.data.max(axis=0, keepdims=True))
    y = e / e.sum(axis=0, keepdims=True)

    def backprop(g):
        t.grad += y * (g - (y * g).sum(axis=0, keepdims=True))

    return Tensor2D._result(y, (t,), backprop)


def _topo_order(root: Tensor2D) -> list[Tensor2D]:
    # Iterative post-order: deep graphs of elementary ops, such as the op-by-op
    # cells of tests/reference_ops.py over a long text, overflow the recursion limit.
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
    operation. Every other node walked gets a fresh zero gradient on every
    call; Parameter gradients accumulate across calls (exactly one
    contribution per call) until written to zero.
    """
    if root.data.shape != (1, 1):
        raise GraphError(f"backward requires a scalar root, got shape {root.data.shape}")
    if not root._parents:
        raise GraphError("backward called before any recorded computation")
    order = _topo_order(root)
    for node in order:
        if not isinstance(node, Parameter):
            node.grad = np.zeros_like(node.data)
    root.grad[:] = 1.0
    for node in reversed(order):
        if node._backprop is not None:
            node._backprop(node.grad)

