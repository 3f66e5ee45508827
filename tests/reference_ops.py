"""Kernel ops that only the tests use: reductions to a scalar for gradient
checks, the per-entry reference for the gathered cross-entropy, the
elementwise ops, stacking, transpose, reshape, the blockwise weighted sum and
the masked softmax, and the models as graphs of elementary ops: the mLSTM
cell, the BiRNN, dropout, attention and the classifier head; the dense
scatter of the mLSTM's input gradients; and the fused mLSTM op with its
backward written step by step, in the character-LM fit over every input
column. They are the oracles for the fused
``ctxda.encoders.mlstm_states``, ``ctxda.encoders.train_char_lm``,
``ctxda.model.birnn_states`` and the two models' forward and backward passes.
Beside them are the per-record eval-record writer and the per-utterance word
mean, the oracles for ``ctxda.analysis.write_records`` and
``ctxda.encoders.word_mean``.

They record graph nodes exactly as the ops in ``ctxda.tensor`` do, so the
kernel's ``backward`` walks them like any other op.
"""

import json
from dataclasses import fields
from typing import Sequence

import numpy as np

from ctxda.analysis import EvalRecord

from ctxda.encoders import (_B_NAMES, _M_NAMES, _X_NAMES, MLSTMParams, _mlstm_steps, _stacked,
                            sigmoid)
from ctxda.model import _slot_inputs
from ctxda.optim import Adam, cross_entropy
from ctxda.tensor import (DimensionError, Tensor2D, add_bias, backward, init_params, matmul,
                          softmax_columns)


def dense_input_scatter(idx, step_grads: np.ndarray, input_dim: int) -> np.ndarray:
    """The gradient of one input matrix of ``mlstm_states`` as a dense scatter:
    column t of ``step_grads`` (H, T), the gradient of the input column that
    step t gathered, added with ``np.add.at`` in step order into column
    ``idx[t]`` of an (H, input_dim) zero matrix."""
    out = np.zeros((input_dim, step_grads.shape[0]))
    np.add.at(out, idx, step_grads.T)
    return out.T


def tanh_map(t: Tensor2D) -> Tensor2D:
    """Elementwise tanh; outputs lie in (-1, 1)."""
    y = np.tanh(t.data)

    def backprop(g):
        t.grad += g * (1.0 - y * y)

    return Tensor2D._result(y, (t,), backprop)


def weighted_sum(parts: Tensor2D, weights: Tensor2D) -> Tensor2D:
    """Column-wise weighted sum of the K blocks of an (n, K*B) tensor.

    ``weights`` is (K, B) and block k is columns k*B to (k+1)*B - 1 of
    ``parts``; column j of the result is
    sum_k weights[k, j] * parts[:, k*B + j], so each block is scaled by one
    row of ``weights`` broadcast down its rows.
    """
    (k, b), n = weights.data.shape, parts.data.shape[0]
    if parts.data.shape[1] != k * b:
        raise DimensionError(
            f"weighted_sum: parts {parts.data.shape} do not hold {k} blocks of {b} columns"
        )
    stacked = np.ascontiguousarray(parts.data.reshape(n, k, b).transpose(1, 0, 2))  # (K, n, B)
    w = weights.data

    def backprop(g):
        parts.grad += (g * w[:, None, :]).transpose(1, 0, 2).reshape(n, k * b)
        weights.grad += (stacked * g).sum(axis=1)

    return Tensor2D._result((stacked * w[:, None, :]).sum(axis=0), (parts, weights), backprop)


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


def _check_same_shape(op: str, a: Tensor2D, b: Tensor2D) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor2D, b: Tensor2D) -> Tensor2D:
    """Elementwise sum of two same-shape tensors."""
    _check_same_shape("add", a, b)

    def backprop(g):
        a.grad += g
        b.grad += g

    return Tensor2D._result(a.data + b.data, (a, b), backprop)


def hadamard(a: Tensor2D, b: Tensor2D) -> Tensor2D:
    """Elementwise product of two same-shape tensors."""
    _check_same_shape("hadamard", a, b)

    def backprop(g):
        a.grad += g * b.data
        b.grad += g * a.data

    return Tensor2D._result(a.data * b.data, (a, b), backprop)


def _concat(parts: Sequence[Tensor2D], axis: int) -> Tensor2D:
    """The tensors joined along ``axis``; all must share the other dimension."""
    if not parts:
        raise ValueError("stacking no tensors")
    across = {p.data.shape[1 - axis] for p in parts}
    if len(across) != 1:
        raise DimensionError(f"stacking along axis {axis}: sizes {sorted(across)} across it differ")
    sizes = [p.data.shape[axis] for p in parts]

    def backprop(g):
        at = 0
        for p, n in zip(parts, sizes):
            p.grad += g[:, at : at + n] if axis else g[at : at + n]
            at += n

    return Tensor2D._result(np.concatenate([p.data for p in parts], axis=axis), tuple(parts),
                            backprop)


def hstack(parts: Sequence[Tensor2D]) -> Tensor2D:
    """Concatenate tensors side by side (all must share a row count)."""
    return _concat(parts, 1)


def vstack(parts: Sequence[Tensor2D]) -> Tensor2D:
    """Concatenate tensors top to bottom (all must share a column count)."""
    return _concat(parts, 0)


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


def loop_mlstm_states(idx, p) -> Tensor2D:
    """The fused mLSTM op of ``ctxda.encoders.mlstm_states`` with the plain
    form of its backward: every store of a step's gradients inside the
    reverse loop, each input character's step rows grouped with
    ``np.unique`` and summed in step order, the stacked gradients cut with
    ``np.split``. The bitwise oracle of the fused op's backward."""
    w_x, w_mh, w_gm, b = _stacked(p)
    hd, steps, xs = p.hidden_dim, len(idx), w_x.T[idx]
    hs, cs = (np.concatenate(a, axis=2)[0]
              for a in zip(*_mlstm_steps(xs[:, None, :, None], 1, w_mh, w_gm, b)))

    def backprop(g):
        h_prev, c_prev = (np.vstack([np.zeros((1, hd)), a.T[:-1]]) for a in (hs, cs))
        mh = h_prev @ w_mh.T
        m = xs[:, :hd] * mh
        z = xs[:, hd:] + m @ w_gm.T + b
        i, f, o = np.split(sigmoid(z[:, : 3 * hd]), 3, axis=1)
        cand, tc = np.tanh(z[:, 3 * hd :]), np.tanh(cs.T)
        dc_dh = o * (1.0 - tc * tc)
        dz_dcdh = np.hstack([cand * i * (1.0 - i), c_prev * f * (1.0 - f),
                             tc * o * (1.0 - o), i * (1.0 - cand * cand)])
        d_cols = np.empty((steps, 5 * hd))
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
        chars, rows, counts = np.unique(idx, return_inverse=True, return_counts=True)
        order = np.argsort(rows, kind="stable")  # each character's steps, in step order
        rank = np.arange(steps) - (np.cumsum(counts) - counts)[rows[order]]
        g_chars = np.zeros((len(chars), 5 * hd))
        for k in range(counts.max()):  # the k-th step of every character at once
            at = order[rank == k]
            g_chars[rows[at]] += d_cols[at]
        for name, part in zip(_X_NAMES, np.split(g_chars, 5, axis=1)):
            p[name].grad[:, chars] += part.T
        p["w_mh"].grad += d_mh.T @ h_prev
        for names, stacked in ((_M_NAMES, d_cols[:, hd:].T @ m),
                               (_B_NAMES, d_cols[:, hd:].sum(axis=0)[:, None])):
            for name, part in zip(names, np.split(stacked, len(names))):
                p[name].grad += part

    return Tensor2D._result(hs, tuple(p.values()), backprop)


def full_column_char_lm(texts, vocab, hidden_dim, epochs, learning_rate, seed, max_chars):
    """``ctxda.encoders.train_char_lm`` fitting all ``vocab.size`` input
    columns of the cell on :func:`loop_mlstm_states`, the text's indices
    looked up again at every step: the same draws, step order and Adam
    settings. Returns the cell and the per-epoch mean losses."""
    params = MLSTMParams.create(vocab.size, hidden_dim, seed=seed)
    rng = np.random.default_rng(seed)
    head = init_params(
        rng, {"out_w": (vocab.size, hidden_dim), "out_b": vocab.size}, prefix="lm."
    )
    adam = Adam(params.parameters() + list(head.values()), learning_rate=learning_rate)

    def step(text):
        states = loop_mlstm_states(vocab.indices(text[:-1]), params)
        probs = softmax_columns(add_bias(matmul(head["out_w"], states), head["out_b"]))
        loss = cross_entropy(probs, vocab.indices(text[1:]))
        adam.zero_grad()
        backward(loss)
        adam.step()
        return loss.item()

    usable = [t[:max_chars] for t in texts if len(t) >= 2]
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(usable))
        losses.append(sum(step(usable[k]) for k in order) / len(usable))
    return params, losses


def rnn_direction(
    seq: list[Tensor2D], params: dict, reverse: bool = False, prefix: str = "fwd"
) -> list[Tensor2D]:
    """Plain tanh RNN over the sequence from a zero initial state, with the
    registry's ``<prefix>.w_in``, ``<prefix>.w_rec`` and ``<prefix>.bias``,
    five graph nodes per step.

    Each input is (D, B), one column per example, and each state (H, B).
    ``reverse=True`` iterates newest to oldest; outputs are re-aligned so
    entry k always corresponds to input slot k.
    """
    w_in, w_rec, bias = (params[f"{prefix}.{k}"] for k in ("w_in", "w_rec", "bias"))
    hidden = Tensor2D(np.zeros((bias.rows, seq[0].cols)))
    steps = reversed(seq) if reverse else seq
    states = []
    for u in steps:
        hidden = tanh_map(add_bias(add(matmul(w_rec, hidden), matmul(w_in, u)), bias))
        states.append(hidden)
    if reverse:
        states.reverse()
    return states


def birnn_forward(features: list[Tensor2D], params: dict) -> list[Tensor2D]:
    """Per-slot concatenation [forward_state; backward_state], forward first,
    from the registry's ``fwd.*`` and ``bwd.*`` directions."""
    fwd = rnn_direction(features, params)
    bwd = rnn_direction(features, params, reverse=True, prefix="bwd")
    return [vstack([f, b]) for f, b in zip(fwd, bwd)]


def apply_dropout(h: Tensor2D, rate: float, uniforms: np.ndarray) -> Tensor2D:
    """Inverted dropout: zero the entries of ``h`` whose U[0, 1) draw in
    ``uniforms`` (of ``h``'s shape) is below ``rate``, and scale the
    survivors by 1/(1-rate). The mask is a constant, so ``h`` is the node's
    only parent."""
    keep = (uniforms >= rate) / (1.0 - rate)

    def backprop(g):
        h.grad += g * keep

    return Tensor2D._result(h.data * keep, (h,), backprop)


def masked_softmax_columns(t: Tensor2D, keep=None) -> Tensor2D:
    """``softmax_columns`` under an optional boolean mask of ``t``'s shape:
    entries where ``keep`` is False get weight exactly 0 and no gradient, and
    each column is normalised over its kept entries alone. Every column must
    keep at least one entry."""
    if keep is None:
        return softmax_columns(t)
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != t.data.shape:
        raise DimensionError(f"masked_softmax_columns: mask {keep.shape} vs {t.data.shape}")
    if not keep.any(axis=0).all():
        raise ValueError("masked_softmax_columns: a column keeps no entry")
    x = np.where(keep, t.data, -np.inf)
    e = np.exp(x - x.max(axis=0, keepdims=True))
    y = e / e.sum(axis=0, keepdims=True)

    def backprop(g):
        t.grad += y * (g - (y * g).sum(axis=0, keepdims=True))

    return Tensor2D._result(y, (t,), backprop)


def attention(
    states: Tensor2D, params: dict, n_slots: int, keep: np.ndarray | None = None
) -> tuple[Tensor2D, Tensor2D]:
    """Score the step states and collapse them into one summary per column,
    with the registry's ``att.proj`` (A, 2H) projection and ``att.score``
    (A, 1) scoring vector.

    ``states`` is the (2H, K*B) output of ``birnn_states``, slot k of window
    j in column k*B + j, with ``n_slots`` = K slots in window order (oldest
    first). Returns (weights, summary): ``weights`` is a (K, B) node whose
    columns are simplices over the slots; ``summary`` (2H, B) is tanh of the
    weighted sum of the slot states. ``keep`` (K, B) masks slots out of the
    softmax, giving them weight 0.
    """
    projected = tanh_map(matmul(params["att.proj"], states))       # (A, K*B)
    scores = matmul(transpose(params["att.score"]), projected)      # (1, K*B)
    weights = masked_softmax_columns(reshape(scores, n_slots, states.cols // n_slots), keep)
    summary = tanh_map(weighted_sum(states, weights))             # (2H, B)
    return weights, summary


def classify(u_final: Tensor2D, params: dict) -> Tensor2D:
    """Softmax head over the summary vectors, one distribution per column,
    with the registry's ``out.weight`` (C, 2H) and ``out.bias``."""
    return softmax_columns(add_bias(matmul(params["out.weight"], u_final), params["out.bias"]))


def graph_forward(model, windows, rng=None):
    """``UttAttBiRNN``'s forward pass with the BiRNN and dropout built from
    elementary graph ops, one node per slot and step and one mask leaf per
    slot: (C, B) class distributions and the (K, B) attention weights (None
    for the direct head). It draws dropout as the model does."""
    x = _slot_inputs(windows, range(windows[0].size))
    steps = birnn_forward([Tensor2D(xk.T) for xk in x], model.params)
    if rng is not None and model.dropout_rate > 0.0:
        draws = rng.random((len(windows), len(steps), 2 * model.hidden_dim))
        steps = [hadamard(s, Tensor2D((draws[:, k, :].T >= model.dropout_rate)
                                      / (1.0 - model.dropout_rate)))
                 for k, s in enumerate(steps)]
    if model.head == "direct":
        return classify(steps[-1], model.params), None
    keep = np.array([w.pad_mask for w in windows], dtype=bool).T if model.mask_padding else None
    weights, summary = attention(hstack(steps), model.params, len(steps), keep)
    return classify(summary, model.params), weights


def mlp_graph_forward(model, windows, rng=None):
    """``BaselineMLP``'s forward pass as a graph of elementary ops: the (C, B)
    class distributions. It draws dropout as the model does."""
    params = model.params
    h = Tensor2D(_slot_inputs(windows, [-1])[0].T)
    draws = (None, None)
    if rng is not None and model.dropout_rate > 0.0:
        draws = np.split(rng.random((h.cols, model.hidden1 + model.hidden2)).T, [model.hidden1])
    for layer, uniforms in zip("12", draws):
        h = tanh_map(add_bias(matmul(params[f"mlp.w{layer}"], h), params[f"mlp.b{layer}"]))
        if uniforms is not None:
            h = apply_dropout(h, model.dropout_rate, uniforms)
    return softmax_columns(add_bias(matmul(params["mlp.w_out"], h), params["mlp.b_out"]))


def write_records_one_by_one(path, records) -> None:
    """EvalRecords as JSON lines, one ``json.dumps(vars(record))`` each."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(vars(r), allow_nan=False) + "\n")


def record_columns(records) -> dict:
    """The columns ``ctxda.analysis.write_records`` takes, from EvalRecords
    that all have an attention profile or all have none."""
    columns = {f.name: [getattr(r, f.name) for r in records] for f in fields(EvalRecord)}
    if all(a is None for a in columns["attention"]):
        columns["attention"] = None
    return columns


def word_mean_one(tokens, table) -> np.ndarray:
    """The mean embedding of one utterance's in-vocabulary tokens with
    ``np.mean``; the zero vector when it has none."""
    hits = [v for v in (table.lookup(tok) for tok in tokens) if v is not None]
    return np.mean(hits, axis=0) if hits else np.zeros(table.dim)
