import gc
import math
import tracemalloc

import numpy as np
import pytest

from ctxda import model as M
from ctxda.model import (
    BaselineMLP,
    CheckpointError,
    ContextWindow,
    Prediction,
    UttAttBiRNN,
    birnn_states,
    load_checkpoint,
    save_checkpoint,
)
from ctxda import tensor as T
from ctxda.optim import cross_entropy
from ctxda.tensor import DimensionError, Parameter, Tensor2D, backward
from faults import fill_disk
from gradcheck import max_gradient_error
from reference_ops import (
    apply_dropout,
    attention,
    classify,
    graph_forward,
    hadamard,
    mlp_graph_forward,
    sum_all,
)


def window(features, mask=None, label=0, **kw):
    feats = [np.asarray(f, dtype=np.float64) for f in features]
    if mask is None:
        mask = [True] * len(feats)
    return ContextWindow(features=feats, pad_mask=mask, label=label, **kw)


def direction_params(w_in, w_rec, bias, prefix="fwd"):
    return {f"{prefix}.w_in": Parameter(w_in), f"{prefix}.w_rec": Parameter(w_rec),
            f"{prefix}.bias": Parameter(bias)}


class TestContextWindow:
    def test_pad_slots_must_be_zero(self):
        with pytest.raises(ValueError):
            window([[1.0], [1.0]], mask=[False, True])

    def test_newest_never_padding(self):
        with pytest.raises(ValueError):
            window([[0.0], [0.0]], mask=[True, False])

    def test_valid_padding(self):
        w = window([[0.0], [2.0]], mask=[False, True])
        assert w.size == 2


def slot_blocks(states: Tensor2D, n_slots: int) -> list[np.ndarray]:
    """The (2H, B) block of each slot of a (2H, K*B) state matrix."""
    return np.split(states.data, n_slots, axis=1)


def directions(inputs, p):
    """``birnn_states`` over the (D, B) slot inputs; (fwd, bwd), each the K
    (H, B) slot states of one direction. A registry with only ``fwd.*`` runs
    its weights in both directions."""
    if "bwd.w_in" not in p:
        p = {**p, **{"bwd" + name[3:]: v for name, v in p.items()}}
    blocks = slot_blocks(birnn_states(np.stack([np.asarray(u).T for u in inputs]), p),
                         len(inputs))
    h = p["fwd.bias"].rows
    return [b[:h] for b in blocks], [b[h:] for b in blocks]


class TestRNNDirection:
    def test_zero_params_zero_states(self):
        p = direction_params(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 1)))
        states, _ = directions([np.ones((2, 1))] * 4, p)
        assert all(np.all(s == 0.0) for s in states)

    def test_no_recurrence_depends_only_on_own_input(self):
        rng = np.random.default_rng(0)
        p = direction_params(rng.uniform(-1, 1, (3, 2)), np.zeros((3, 3)),
                             rng.uniform(-1, 1, (3, 1)))
        inputs = [rng.uniform(-1, 1, (2, 1)) for _ in range(4)]
        states, _ = directions(inputs, p)
        solo = [directions([u], p)[0][0] for u in inputs]
        for got, want in zip(states, solo):
            assert np.array_equal(got, want)

    def test_two_step_hand_evaluation(self):
        # dims 1, all weights 0.5, inputs [1, -1]:
        #   h1 = tanh(0.5*0 + 0.5*1 + 0.5)       = tanh(1)
        #   h2 = tanh(0.5*h1 - 0.5 + 0.5)        = tanh(0.5*tanh(1))
        p = direction_params([[0.5]], [[0.5]], [[0.5]])
        states, _ = directions([[[1.0]], [[-1.0]]], p)
        assert states[0].item() == pytest.approx(math.tanh(1.0), abs=1e-15)
        assert states[1].item() == pytest.approx(
            math.tanh(0.5 * math.tanh(1.0)), abs=1e-15
        )

    def test_reverse_direction_realigned(self):
        rng = np.random.default_rng(1)
        p = direction_params(rng.uniform(-1, 1, (2, 2)), np.zeros((2, 2)),
                             np.zeros((2, 1)))
        inputs = [rng.uniform(-1, 1, (2, 1)) for _ in range(3)]
        fwd, bwd = directions(inputs, p)
        # no recurrence: both directions see only the slot's own input
        for f, b in zip(fwd, bwd):
            assert np.allclose(f, b)


def small_birnn(seed=0, feature_dim=2, hidden=3):
    rng = np.random.default_rng(seed)

    def direction(tag):
        return {
            f"{tag}.w_in": Parameter(rng.uniform(-1, 1, (hidden, feature_dim)), name=f"{tag}.w_in"),
            f"{tag}.w_rec": Parameter(rng.uniform(-1, 1, (hidden, hidden)), name=f"{tag}.w_rec"),
            f"{tag}.bias": Parameter(rng.uniform(-1, 1, (hidden, 1)), name=f"{tag}.bias"),
        }

    return {**direction("fwd"), **direction("bwd")}


class TestBiRNNForward:
    def test_zero_params_zero_matrix(self):
        p = {
            **direction_params(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 1))),
            **direction_params(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 1)), "bwd"),
        }
        states = birnn_states(np.ones((5, 1, 2)), p)
        assert states.shape == (6, 5) and np.all(states.data == 0.0)

    def test_pad_rows_equal_without_recurrence(self):
        # one real utterance plus zero pads, recurrence off: every pad slot
        # produces the same bias-only state in both directions
        rng = np.random.default_rng(2)
        p = small_birnn(seed=2)
        p["fwd.w_rec"].data[:] = 0.0
        p["bwd.w_rec"].data[:] = 0.0
        feats = np.zeros((5, 1, 2))
        feats[4, 0] = rng.uniform(-1, 1, 2)
        steps = slot_blocks(birnn_states(feats, p), 5)
        for pad_step in steps[1:4]:
            assert np.allclose(pad_step, steps[0])
        assert not np.allclose(steps[4], steps[0])

    def test_reversal_swaps_direction_blocks(self):
        rng = np.random.default_rng(3)
        p = small_birnn(seed=3)
        swapped = {{"fwd": "bwd", "bwd": "fwd"}[n[:3]] + n[3:]: v for n, v in p.items()}
        feats = np.stack([rng.uniform(-1, 1, (2, 1)).T for _ in range(5)])
        steps = slot_blocks(birnn_states(feats, p), 5)
        rev_steps = slot_blocks(birnn_states(feats[::-1].copy(), swapped), 5)
        h = p["fwd.w_rec"].rows
        for k in range(5):
            orig = steps[4 - k]
            got = rev_steps[k]
            assert np.allclose(got[:h], orig[h:])  # new fwd block = old bwd block
            assert np.allclose(got[h:], orig[:h])  # new bwd block = old fwd block


def grid_batch(head, mask_padding, rate, feature_dim, hidden, batch, n_slots):
    """A seeded model and a batch of windows with 1..K real slots each."""
    model = UttAttBiRNN(feature_dim, 5, hidden_dim=hidden, n_context=n_slots - 1,
                        dropout_rate=rate, head=head, mask_padding=mask_padding, seed=3)
    return model, padded_windows(np.random.default_rng(hidden + batch),
                                 model, [1 + j % n_slots for j in range(batch)])


def fused_and_graph(model, windows, graph_forward):
    """(loss, Parameter gradients, probabilities, attention) of ``model.loss``
    + ``backward`` and ``model.predict``, then the same of the graph model
    ``graph_forward(model, windows, rng) -> (probs node, weights node)``; both
    draw dropout from a generator seeded 7."""
    labels = [w.label for w in windows]
    results = []
    for loss_of, predict in (
        (lambda rng: model.loss(windows, rng), lambda: model.predict(windows)),
        (lambda rng: cross_entropy(graph_forward(model, windows, rng)[0], labels),
         lambda: graph_forward(model, windows)),
    ):
        for p in model.parameters():
            p.grad[:] = 0.0
        loss = loss_of(np.random.default_rng(7))
        backward(loss)
        pred = predict()
        if isinstance(pred, Prediction):
            probs, weights = pred.probs, pred.attention
        else:  # the graph model's nodes: columns are windows, slots oldest first
            probs = pred[0].data.T
            weights = None if pred[1] is None else pred[1].data[::-1].T
        results.append((loss.item(), [p.grad.copy() for p in model.parameters()],
                        probs, weights))
    return results


def assert_bitwise(model, results):
    (loss, grads, probs, weights), (ref_loss, ref_grads, ref_probs, ref_weights) = results
    assert loss == ref_loss
    for p, g, ref in zip(model.parameters(), grads, ref_grads):
        assert np.array_equal(g, ref), p.name
    assert np.array_equal(probs, ref_probs)
    assert (weights is None) == (ref_weights is None)
    assert weights is None or np.array_equal(weights, ref_weights)


class TestBiRNNStates:
    """The fused BiRNN op and the model built on it against the graph model
    in ``reference_ops``: five nodes per slot, step and direction, a dropout
    mask leaf per slot, and attention and the head op by op."""

    @pytest.mark.parametrize("shape", [(18, 8, 16, 5), (15, 64, 16, 5), (7, 3, 1, 3)],
                             ids=lambda s: "D{}-H{}-B{}-K{}".format(*s))
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("mask_padding", [False, True])
    @pytest.mark.parametrize("head", ["attention", "direct"])
    def test_model_is_bitwise_the_graph_model(self, head, mask_padding, rate, shape):
        model, windows = grid_batch(head, mask_padding, rate, *shape)
        results = fused_and_graph(model, windows, graph_forward)
        assert (results[0][3] is None) == (head == "direct")
        assert_bitwise(model, results)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(31)
        p = small_birnn(seed=31, feature_dim=3, hidden=2)
        x = rng.uniform(-1, 1, (4, 2, 3))  # K, B, D
        probe = Tensor2D(rng.uniform(-1, 1, (4, 8)))

        def loss():
            return sum_all(hadamard(birnn_states(x, p), probe))

        assert max_gradient_error(loss, list(p.values())) < 1e-6

    def test_parents_are_the_six_parameters(self):
        p = small_birnn(seed=32)
        assert birnn_states(np.ones((3, 2, 2)), p)._parents == tuple(p.values())

    def test_input_size_must_match_w_in(self):
        with pytest.raises(DimensionError):
            birnn_states(np.ones((3, 2, 4)), small_birnn(seed=33))


class TestAttention:
    def test_identical_rows_uniform_weights(self):
        rng = np.random.default_rng(4)
        att = {
            "att.proj": Parameter(rng.uniform(-1, 1, (4, 6))),
            "att.score": Parameter(rng.uniform(-1, 1, (4, 1))),
        }
        row = rng.uniform(-1, 1, (6, 1))
        weights, summary = attention(Tensor2D(np.tile(row, 5)), att, 5)
        assert np.allclose(weights.data, 0.2, atol=1e-12)
        assert np.allclose(summary.data, np.tanh(row), atol=1e-12)

    def test_saturated_scores_select_one_step(self):
        # project onto the first coordinate and blow the score up: softmax
        # saturates onto the step with the largest first coordinate, and the
        # summary collapses to tanh of that step's state
        att = {
            "att.proj": Parameter([[1.0, 0.0]]), "att.score": Parameter([[1000.0]])
        }
        steps = np.array([[0.1, 1.0, 0.3], [0.2, -1.0, 0.4]])  # one column per step
        weights, summary = attention(Tensor2D(steps), att, 3)
        assert weights.data.ravel()[1] > 1.0 - 1e-9
        assert np.allclose(summary.data, np.tanh(steps[:, 1:2]), atol=1e-9)

    def test_simplex_and_range(self):
        rng = np.random.default_rng(5)
        att = {
            "att.proj": Parameter(rng.uniform(-1, 1, (3, 4))),
            "att.score": Parameter(rng.uniform(-1, 1, (3, 1))),
        }
        for _ in range(200):
            steps = np.hstack([rng.uniform(-2, 2, (4, 1)) for _ in range(5)])
            weights, summary = attention(Tensor2D(steps), att, 5)
            assert abs(weights.data.sum() - 1.0) < 1e-9
            assert np.all(weights.data >= 0.0)
            assert np.all(np.abs(summary.data) < 1.0)


class TestClassify:
    def test_zero_params_uniform_over_42(self):
        out = {"out.weight": Parameter(np.zeros((42, 6))),
               "out.bias": Parameter(np.zeros((42, 1)))}
        probs = classify(Tensor2D(np.random.default_rng(0).uniform(-1, 1, (6, 1))), out)
        assert np.allclose(probs.data, 1.0 / 42.0, atol=1e-15)

    def test_large_bias_wins_argmax(self):
        bias = np.zeros((5, 1))
        bias[3, 0] = 50.0
        out = {"out.weight": Parameter(np.zeros((5, 2))), "out.bias": Parameter(bias)}
        probs = classify(Tensor2D([[0.5], [0.5]]), out)
        assert int(np.argmax(probs.data)) == 3

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        out = {"out.weight": Parameter(rng.uniform(-1, 1, (7, 3))),
               "out.bias": Parameter(rng.uniform(-1, 1, (7, 1)))}
        for _ in range(50):
            probs = classify(Tensor2D(rng.uniform(-3, 3, (3, 1))), out)
            assert abs(probs.data.sum() - 1.0) < 1e-9


class TestDirectHead:
    def test_zero_params_uniform(self):
        model = UttAttBiRNN(2, 4, hidden_dim=2, seed=0, dropout_rate=0.0, head="direct")
        for p in model.parameters():
            p.data[:] = 0.0
        w = window([[0.3, 0.7], [1.0, -1.0]])
        probs = model.predict(w).probs
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_equals_classify_of_concatenated_final_states(self):
        rng = np.random.default_rng(7)
        p = small_birnn(seed=7)
        out = {"out.weight": Parameter(rng.uniform(-1, 1, (4, 6))),
               "out.bias": Parameter(rng.uniform(-1, 1, (4, 1)))}
        w = window([rng.uniform(-1, 1, 2) for _ in range(5)])
        model = UttAttBiRNN(2, 4, hidden_dim=3, seed=7, dropout_rate=0.0, head="direct")
        model.params.update({**p, **out})
        direct = model.predict(w).probs.reshape(-1, 1)
        states = birnn_states(M._slot_inputs([w], range(w.size)), p)
        via_classify = classify(Tensor2D(states.data[:, -1:]), out)
        assert np.allclose(direct, via_classify.data)


class TestDropout:
    def test_rate_zero_identity(self):
        # an rng at rate 0 draws nothing and leaves the loss as it is
        windows = padded_windows(np.random.default_rng(0), BATCH_MODELS["nc"](0.0), [1, 1])
        for kind in sorted(BATCH_MODELS):
            model, rng = BATCH_MODELS[kind](0.0), np.random.default_rng(0)
            assert model.loss(windows, rng=rng).item() == model.loss(windows).item()
            assert rng.random() == np.random.default_rng(0).random()

    def test_inference_identity_any_rate(self):
        # without an rng there is no dropout, whatever the rate
        windows = padded_windows(np.random.default_rng(0), BATCH_MODELS["nc"](0.0), [5, 2])
        for kind in sorted(BATCH_MODELS):
            assert (BATCH_MODELS[kind](0.9).loss(windows).item()
                    == BATCH_MODELS[kind](0.0).loss(windows).item())

    def test_survivor_scaling_preserves_mean(self):
        x = Tensor2D(np.ones((100, 1000)))
        out = apply_dropout(x, 0.5, np.random.default_rng(1).random(x.shape))
        assert abs(out.data.mean() - 1.0) < 0.02
        survivors = out.data[out.data != 0.0]
        assert np.allclose(survivors, 2.0)

    def test_invalid_rate(self):
        for rate in (1.0, -0.1):
            with pytest.raises(ValueError, match="dropout rate"):
                UttAttBiRNN(2, 2, hidden_dim=2, dropout_rate=rate)
            with pytest.raises(ValueError, match="dropout rate"):
                BaselineMLP(2, 2, hidden1=2, hidden2=2, dropout_rate=rate)


class TestBaselineMLP:
    def test_zero_params_uniform(self):
        model = BaselineMLP(3, 42, hidden1=5, hidden2=4, seed=0)
        for p in model.parameters():
            p.data[:] = 0.0
        pred = model.predict(window([[0.0, 0.0, 0.0], [0.5, -0.5, 1.0]],
                                    mask=[False, True]))
        assert np.allclose(pred.probs, 1.0 / 42.0, atol=1e-15)

    def test_inference_deterministic(self):
        model = BaselineMLP(3, 4, hidden1=6, hidden2=5, seed=1)
        w = window([[0.1, 0.2, 0.3]])
        a = model.predict(w).probs
        b = model.predict(w).probs
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_model_is_bitwise_the_graph_model(self, rate):
        model = BaselineMLP(15, 5, hidden1=30, hidden2=10, seed=4, dropout_rate=rate)
        windows = padded_windows(np.random.default_rng(4), model, [1 + j % 5 for j in range(16)])
        assert_bitwise(model, fused_and_graph(
            model, windows, lambda m, ws, rng=None: (mlp_graph_forward(m, ws, rng), None)))

    def test_gradcheck_end_to_end(self):
        model = BaselineMLP(4, 3, hidden1=6, hidden2=5, seed=2)
        w = window([np.random.default_rng(2).uniform(-1, 1, 4)], label=1)
        assert max_gradient_error(lambda: model.loss([w]), model.parameters()) < 1e-4


class TestUttAttBiRNN:
    def make_window(self, rng, model, n_real=5):
        feats, mask = [], []
        for k in range(model.n_context + 1):
            if k < model.n_context + 1 - n_real:
                feats.append(np.zeros(model.feature_dim))
                mask.append(False)
            else:
                feats.append(rng.uniform(-1, 1, model.feature_dim))
                mask.append(True)
        return ContextWindow(feats, mask, label=rng.integers(model.n_classes),
                             conversation_id="t", index=0)

    def test_prediction_simplex_and_profile(self):
        rng = np.random.default_rng(8)
        model = UttAttBiRNN(3, 6, hidden_dim=4, seed=8, dropout_rate=0.0)
        for _ in range(100):
            pred = model.predict(self.make_window(rng, model))
            assert abs(pred.probs.sum() - 1.0) < 1e-9
            assert abs(pred.attention.sum() - 1.0) < 1e-6
            assert np.all(pred.attention >= 0.0) and np.all(pred.attention <= 1.0)
            assert pred.attention.shape == (5,)

    def test_attention_profile_current_first(self):
        # pin the score so the newest step wins, then a_0 must be largest
        model = UttAttBiRNN(2, 3, hidden_dim=2, seed=0, dropout_rate=0.0)
        rng = np.random.default_rng(0)
        w = self.make_window(rng, model)
        states = birnn_states(M._slot_inputs([w], range(w.size)), model.params)
        weights, _ = attention(states, model.params, w.size)
        pred = model.predict(w)
        assert np.allclose(pred.attention, weights.data.ravel()[::-1])

    def test_full_gradcheck_attention_head(self):
        rng = np.random.default_rng(9)
        model = UttAttBiRNN(4, 5, hidden_dim=3, attention_dim=6, seed=9,
                            dropout_rate=0.0)
        w = self.make_window(rng, model, n_real=3)
        assert max_gradient_error(lambda: model.loss([w]), model.parameters()) < 1e-4

    def test_full_gradcheck_direct_head(self):
        rng = np.random.default_rng(10)
        model = UttAttBiRNN(3, 4, hidden_dim=2, seed=10, dropout_rate=0.0,
                            head="direct")
        w = self.make_window(rng, model)
        assert max_gradient_error(lambda: model.loss([w]), model.parameters()) < 1e-4

    def test_pad_masking_zeroes_pad_weights(self):
        rng = np.random.default_rng(11)
        model = UttAttBiRNN(3, 4, hidden_dim=3, seed=11, dropout_rate=0.0,
                            mask_padding=True)
        w = self.make_window(rng, model, n_real=2)
        pred = model.predict(w)
        # window slots 0..2 are pads; profile is current-first so entries 2..4
        assert np.all(pred.attention[2:] == 0.0)
        assert abs(pred.attention.sum() - 1.0) < 1e-9

    def test_permuting_context_permutes_weights_without_recurrence(self):
        # with recurrence disabled each per-step state depends only on its own
        # input, so shuffling the context slots must shuffle the attention
        # weights with them
        rng = np.random.default_rng(12)
        model = UttAttBiRNN(3, 4, hidden_dim=3, seed=12, dropout_rate=0.0)
        model.params["fwd.w_rec"].data[:] = 0.0
        model.params["bwd.w_rec"].data[:] = 0.0
        feats = [rng.uniform(-1, 1, 3) for _ in range(5)]
        w1 = ContextWindow(feats, [True] * 5, 0, conversation_id="p", index=0)
        perm = [2, 0, 3, 1]  # permutation of the four context slots
        w2 = ContextWindow([feats[i] for i in perm] + [feats[4]], [True] * 5, 0,
                           conversation_id="p", index=0)
        a1 = model.predict(w1).attention
        a2 = model.predict(w2).attention
        # profiles are current-first: a[0] untouched, context weights permuted
        assert a1[0] == pytest.approx(a2[0], abs=1e-12)
        pairs1 = sorted(zip([tuple(f) for f in feats[:4]], a1[1:][::-1]))
        pairs2 = sorted(zip([tuple(feats[i]) for i in perm], a2[1:][::-1]))
        for (f1, w1_), (f2, w2_) in zip(pairs1, pairs2):
            assert f1 == f2
            assert w1_ == pytest.approx(w2_, abs=1e-12)

    def test_inference_deterministic(self):
        model = UttAttBiRNN(3, 4, hidden_dim=3, seed=13)
        rng = np.random.default_rng(13)
        w = self.make_window(rng, model)
        assert np.array_equal(model.predict(w).probs, model.predict(w).probs)


def padded_windows(rng, model, n_real_counts):
    """One window per count: that many real slots, the rest leading pads."""
    size = getattr(model, "n_context", 4) + 1
    out = []
    for n_real in n_real_counts:
        feats = [np.zeros(model.feature_dim) if k < size - n_real
                 else rng.uniform(-1, 1, model.feature_dim) for k in range(size)]
        mask = [k >= size - n_real for k in range(size)]
        out.append(ContextWindow(feats, mask, label=int(rng.integers(model.n_classes))))
    return out


BATCH_MODELS = {
    "wc": lambda rate: UttAttBiRNN(3, 4, hidden_dim=3, attention_dim=5, seed=17,
                                   dropout_rate=rate),
    "wc-masked": lambda rate: UttAttBiRNN(3, 4, hidden_dim=3, seed=18, dropout_rate=rate,
                                          mask_padding=True),
    "wc-direct": lambda rate: UttAttBiRNN(3, 4, hidden_dim=3, seed=19, dropout_rate=rate,
                                          head="direct"),
    "nc": lambda rate: BaselineMLP(3, 4, hidden1=6, hidden2=5, seed=20, dropout_rate=rate),
}


class TestBatching:
    """A batch of B windows is B batches of one, computed side by side."""

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    @pytest.mark.parametrize("kind", sorted(BATCH_MODELS))
    def test_batch_loss_and_grads_equal_mean_over_singles(self, kind, rate):
        model = BATCH_MODELS[kind](rate)
        windows = padded_windows(np.random.default_rng(21), model, [5, 1, 3, 2, 5, 4, 1])
        params = model.parameters()

        for p in params:
            p.grad[:] = 0.0
        batch_rng = np.random.default_rng(22)
        batch_loss = model.loss(windows, rng=batch_rng)
        backward(batch_loss)
        batch_grads = [p.grad.copy() for p in params]

        for p in params:
            p.grad[:] = 0.0
        single_rng = np.random.default_rng(22)
        total = 0.0
        for w in windows:
            single = model.loss([w], rng=single_rng)
            backward(single)
            total += single.item()

        n = len(windows)
        assert abs(batch_loss.item() - total / n) < 1e-10
        for p, g in zip(params, batch_grads):
            assert np.max(np.abs(g - p.grad / n)) < 1e-10, p.name
        # the batch drew exactly the dropout masks the singles drew
        assert batch_rng.random() == single_rng.random()

    @pytest.mark.parametrize("kind", sorted(BATCH_MODELS))
    def test_predicting_a_list_equals_predicting_each_window(self, kind, monkeypatch):
        monkeypatch.setattr(M, "PREDICT_CHUNK", 3)  # several chunks, the last one short
        model = BATCH_MODELS[kind](0.2)
        windows = padded_windows(np.random.default_rng(23), model, [5, 1, 3, 2, 5, 4, 1])
        batched = model.predict(windows)
        assert batched.probs.shape == (len(windows), 4)
        for i, w in enumerate(windows):
            want = model.predict(w)
            assert np.allclose(batched.probs[i], want.probs, rtol=0, atol=1e-12)
            if want.attention is None:
                assert batched.attention is None
            else:
                assert np.allclose(batched.attention[i], want.attention, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", sorted(BATCH_MODELS))
    def test_predicting_a_list_builds_one_prediction(self, kind, monkeypatch):
        monkeypatch.setattr(M, "PREDICT_CHUNK", 3)
        built, check = [], M.Prediction.__post_init__
        monkeypatch.setattr(M.Prediction, "__post_init__",
                            lambda self: (built.append(self), check(self)))
        model = BATCH_MODELS[kind](0.2)
        windows = padded_windows(np.random.default_rng(23), model, [5, 1, 3, 2, 5, 4, 1])
        pred = model.predict(windows)
        assert built == [pred]
        assert pred.top_class.shape == (len(windows),)
        if pred.attention is not None:
            assert pred.attention.shape == (len(windows), model.n_context + 1)

    @pytest.mark.parametrize("kind", sorted(BATCH_MODELS))
    def test_predicting_no_windows_is_refused(self, kind):
        with pytest.raises(ValueError, match="empty batch"):
            BATCH_MODELS[kind](0.0).predict([])

    def test_windows_of_different_sizes_are_refused(self):
        model = UttAttBiRNN(2, 3, hidden_dim=2, seed=0)
        short = window([[0.1, 0.2], [0.3, 0.4]])
        full = window([[0.1, 0.2]] * 5)
        with pytest.raises(ValueError):
            model.loss([short, full])

    def test_dropped_graphs_leave_no_cycle_garbage(self):
        model = UttAttBiRNN(3, 4, hidden_dim=3, seed=24, dropout_rate=0.2, mask_padding=True)
        windows = padded_windows(np.random.default_rng(24), model, [5, 2, 1])
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            backward(model.loss(windows, rng=np.random.default_rng(0)))
            model.predict(windows)
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, Tensor2D)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []


def recorded_nodes(monkeypatch) -> list[Tensor2D]:
    """Every node ``Tensor2D._result`` makes from now on, in order."""
    made, result = [], Tensor2D._result
    monkeypatch.setattr(Tensor2D, "_result",
                        staticmethod(lambda *args: made.append(result(*args)) or made[-1]))
    return made


class TestGradientsOnlyInBackward:
    """A forward pass allocates no gradient; ``backward`` gives one to each
    node it walks."""

    @pytest.mark.parametrize("kind", sorted(BATCH_MODELS))
    def test_loss_graph_has_no_gradient_until_backward(self, kind):
        model = BATCH_MODELS[kind](0.2)
        windows = padded_windows(np.random.default_rng(25), model, [5, 2, 1])
        loss = model.loss(windows, rng=np.random.default_rng(0))
        nodes = [n for n in T._topo_order(loss) if not isinstance(n, Parameter)]
        # the hidden layers (for the WC model the BiRNN, then the pooled
        # summaries), the head's three ops and the loss
        assert len(nodes) == (5 if kind == "nc" else 6)
        assert all(n.grad is None for n in nodes)
        backward(loss)
        assert all(n.grad.shape == n.data.shape for n in nodes)

    @pytest.mark.parametrize("kind", sorted(BATCH_MODELS))
    def test_predict_allocates_no_gradient(self, kind, monkeypatch):
        made = recorded_nodes(monkeypatch)
        model = BATCH_MODELS[kind](0.2)
        windows = padded_windows(np.random.default_rng(26), model, [5, 2, 1])
        model.predict(windows)
        assert made and all(n.grad is None for n in made)
        assert all(np.all(p.grad == 0.0) for p in model.parameters())


class TestGraphSize:
    def test_wc_batch_records_few_nodes(self):
        # 6 nodes: the BiRNN, the pooled summaries, the head's matmul,
        # add_bias and softmax, and the loss; dropout and attention record none
        model = UttAttBiRNN(18, 5, hidden_dim=8, n_context=4, dropout_rate=0.3, seed=0)
        windows = padded_windows(np.random.default_rng(27), model, [5, 3, 1, 4, 2])
        loss = model.loss(windows, rng=np.random.default_rng(0))
        nodes = [n for n in T._topo_order(loss) if not isinstance(n, Parameter)]
        assert len(nodes) == 6

    @pytest.mark.parametrize("head", ["attention", "direct"])
    def test_predict_records_only_the_head(self, head, monkeypatch):
        # a recorded node keeps its inputs alive until the chunk's last node
        # is dropped; the BiRNN states and attention intermediates of a chunk
        # of 64 windows are many times the head's (C, 64)
        made = recorded_nodes(monkeypatch)
        model = UttAttBiRNN(18, 5, hidden_dim=64, head=head, seed=0)
        windows = padded_windows(np.random.default_rng(28), model,
                                 [1 + j % 5 for j in range(M.PREDICT_CHUNK)])
        model.predict(windows)
        assert len(made) == 3
        assert max(n.data.size for n in made) <= model.n_classes * 64

class TestPrediction:
    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            Prediction(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Prediction(np.array([-0.1, 1.1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_probabilities(self, bad):
        with pytest.raises(ValueError, match="not a finite distribution"):
            Prediction(np.array([bad, 0.5, 0.5]))
        with pytest.raises(ValueError, match="not a finite distribution"):
            Prediction(np.array([0.5, 0.5, bad]))

    @pytest.mark.parametrize("attention", [[0.5, math.nan, 0.5], [0.5, math.inf, 0.5],
                                           [0.6, 0.6, -0.2], [0.5, 0.2, 0.2]])
    def test_rejects_attention_off_the_simplex(self, attention):
        with pytest.raises(ValueError, match="attention weights"):
            Prediction(np.array([0.2, 0.8]), attention=np.array(attention))

    def test_keeps_a_simplex_attention(self):
        pred = Prediction(np.array([0.2, 0.8]), attention=[0.7, 0.2, 0.1])
        assert pred.attention.tolist() == [0.7, 0.2, 0.1]

    def test_top_class(self):
        pred = Prediction(np.array([0.2, 0.7, 0.1]))
        assert pred.top_class == 1

    def test_a_batch_is_checked_row_by_row(self):
        pred = Prediction([[0.2, 0.8], [0.9, 0.1]], attention=[[0.5, 0.5], [1.0, 0.0]])
        assert pred.top_class.tolist() == [1, 0]
        # every entry is a probability and the rows sum to 2 together, not to 1 each
        with pytest.raises(ValueError, match="not a finite distribution"):
            Prediction([[0.2, 0.2], [0.9, 0.7]])
        with pytest.raises(ValueError, match="attention weights"):
            Prediction([[0.2, 0.8], [0.9, 0.1]], attention=[[0.5, 0.5], [0.4, 0.4]])


class TestCheckpoint:
    def test_round_trip_uttatt(self, tmp_path):
        model = UttAttBiRNN(3, 5, hidden_dim=4, seed=15, dropout_rate=0.1)
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(path, model, {"encoder": "word", "dim": 3}, ["a", "b", "c", "d", "e"], 15)
        loaded, meta = load_checkpoint(path)
        assert meta["tags"] == ["a", "b", "c", "d", "e"]
        assert meta["encoder"]["encoder"] == "word"
        assert meta["seed"] == 15
        for (n1, p1), (n2, p2) in zip(model.params.items(), loaded.params.items()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)
        rng = np.random.default_rng(15)
        w = ContextWindow([rng.uniform(-1, 1, 3) for _ in range(5)], [True] * 5, 0)
        assert np.array_equal(model.predict(w).probs, loaded.predict(w).probs)

    def test_round_trip_baseline(self, tmp_path):
        model = BaselineMLP(4, 3, hidden1=6, hidden2=5, seed=16)
        path = tmp_path / "b.ckpt.json"
        save_checkpoint(path, model, {"encoder": "word"}, ["x", "y", "z"], 16)
        loaded, _ = load_checkpoint(path)
        assert isinstance(loaded, BaselineMLP)
        for (_, p1), (_, p2) in zip(model.params.items(), loaded.params.items()):
            assert np.array_equal(p1.data, p2.data)

    def test_io_holds_no_whole_model_float_lists(self, tmp_path):
        # a float in a list costs 32 B (a 24 B object and an 8 B slot), in an
        # array 8 B. Quarter-integer weights keep the file's text, which the
        # loader holds whole, near 6 B per weight, and the largest matrix is about
        # a fifth of the weights, since the parser lists one entry at a time.
        model = UttAttBiRNN(150, 5, hidden_dim=150, attention_dim=40, seed=17)
        rng = np.random.default_rng(17)
        for p in model.parameters():
            p.data[:] = rng.integers(-8, 8, p.shape) / 4
        n_weights = sum(p.data.size for p in model.parameters())
        assert n_weights >= 100_000
        path = tmp_path / "m.ckpt.json"
        tracemalloc.start()
        try:
            save_checkpoint(path, model, {}, list("abcde"), 17)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded, _ = load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(p.data.nbytes for p in loaded.parameters())
        assert save_peak < 16 * n_weights
        assert load_peak - kept < 16 * n_weights  # beyond the loaded weights
        assert all(np.array_equal(p.data, q.data)
                   for p, q in zip(model.parameters(), loaded.parameters()))

    @pytest.mark.parametrize("kind", ["wc", "nc"])
    def test_loaded_model_holds_its_weights_only(self, tmp_path, kind):
        # a gradient is made on first read, so neither loading nor predicting
        # allocates one beside the weights
        model = (UttAttBiRNN(64, 5, hidden_dim=64, seed=18) if kind == "wc"
                 else BaselineMLP(64, 5, hidden1=128, hidden2=64, seed=18))
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(path, model, {}, list("abcde"), 18)
        weight_bytes = sum(p.data.nbytes for p in model.parameters())
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded, _ = load_checkpoint(path)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 1.25 * weight_bytes
        windows = padded_windows(np.random.default_rng(18), loaded, [5, 2, 1])
        loaded.predict(windows)
        assert all(p._grad is None for p in loaded.parameters())

    def test_failed_save_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(path, BaselineMLP(4, 3, hidden1=6, hidden2=5, seed=1), {}, list("abc"), 1)
        good = path.read_bytes()
        fill_disk(monkeypatch, budget=len(good) // 2)
        with pytest.raises(OSError):
            save_checkpoint(path, BaselineMLP(4, 3, hidden1=6, hidden2=5, seed=2), {}, list("abc"), 2)
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt.json"]
        assert path.read_bytes() == good
        load_checkpoint(path)

    def test_non_finite_weight_writes_nothing(self, tmp_path):
        model = UttAttBiRNN(3, 5, hidden_dim=4, seed=15)
        model.params["fwd.w_rec"].data[1, 2] = np.nan
        with pytest.raises(ValueError, match="Out of range float"):
            save_checkpoint(tmp_path / "m.ckpt.json", model, {}, list("abcde"), 15)
        assert list(tmp_path.iterdir()) == []

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_param(self, tmp_path):
        model = BaselineMLP(2, 2, hidden1=3, hidden2=3, seed=0)
        path = tmp_path / "m.json"
        save_checkpoint(path, model, {}, ["a", "b"], 0)
        import json

        payload = json.loads(path.read_text())
        del payload["params"]["mlp.w1"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
