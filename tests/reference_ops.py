"""Kernel ops that only the tests use: reductions to a scalar for gradient
checks, and the per-entry reference for the gathered cross-entropy.

They record graph nodes exactly as the ops in ``ctxda.tensor`` do, so the
kernel's ``backward`` walks them like any other op.
"""

import numpy as np

from ctxda.tensor import Tensor2D


def scale(a: Tensor2D, k: float) -> Tensor2D:
    """Multiply every entry by the constant ``k``."""
    k = float(k)

    def backprop(g):
        a.grad += g * k

    return Tensor2D._result(a.data * k, (a,), backprop)


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
