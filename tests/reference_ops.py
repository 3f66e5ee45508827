"""Kernel ops that only the tests use: reductions to a scalar for gradient
checks, the per-entry reference for the gathered cross-entropy, and the
mLSTM cell as a graph of elementary ops, the oracle for the fused
``ctxda.encoders.mlstm_states``.

They record graph nodes exactly as the ops in ``ctxda.tensor`` do, so the
kernel's ``backward`` walks them like any other op.
"""

import numpy as np

from ctxda.encoders import sigmoid
from ctxda.tensor import Tensor2D, add, add_bias, hadamard, matmul, tanh_map


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


def sigmoid_map(t: Tensor2D) -> Tensor2D:
    """Elementwise logistic sigmoid; outputs lie in (0, 1)."""
    y = sigmoid(t.data)

    def backprop(g):
        t.grad += g * y * (1.0 - y)

    return Tensor2D._result(y, (t,), backprop)


def mlstm_step(x_t: Tensor2D, h_prev: Tensor2D, c_prev: Tensor2D, p) -> tuple[Tensor2D, Tensor2D]:
    """One mLSTM transition of the cell ``p`` (an ``MLSTMParams``): returns
    (h_t, c_t) as graph nodes.

    The input ``x_t`` is (X, B) and the states are (H, B), one column per
    sequence; the biases are added to every column.
    """
    m = hadamard(matmul(p["w_mx"], x_t), matmul(p["w_mh"], h_prev))
    i = sigmoid_map(add_bias(add(matmul(p["w_ix"], x_t), matmul(p["w_im"], m)), p["b_i"]))
    f = sigmoid_map(add_bias(add(matmul(p["w_fx"], x_t), matmul(p["w_fm"], m)), p["b_f"]))
    o = sigmoid_map(add_bias(add(matmul(p["w_ox"], x_t), matmul(p["w_om"], m)), p["b_o"]))
    cand = tanh_map(add_bias(add(matmul(p["w_cx"], x_t), matmul(p["w_cm"], m)), p["b_c"]))
    c_t = add(hadamard(f, c_prev), hadamard(i, cand))
    h_t = hadamard(o, tanh_map(c_t))
    return h_t, c_t


def mlstm_reference_states(idx, p) -> list[Tensor2D]:
    """The reference cell stepped over the input indices ``idx`` from a zero
    state, one one-hot column per step; the hidden state of every step."""
    h = Tensor2D(np.zeros((p.hidden_dim, 1)))
    c = Tensor2D(np.zeros((p.hidden_dim, 1)))
    states = []
    for k in idx:
        x = np.zeros((p.input_dim, 1))
        x[k, 0] = 1.0
        h, c = mlstm_step(Tensor2D(x), h, c, p)
        states.append(h)
    return states
