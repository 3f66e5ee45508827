import gc
import math

import numpy as np
import pytest

from ctxda import model as M
from ctxda.model import (
    AttentionParams,
    BaselineMLP,
    BiRNNParams,
    CheckpointError,
    ContextWindow,
    OutputParams,
    Prediction,
    RNNDirectionParams,
    UttAttBiRNN,
    attention,
    birnn_forward,
    classify,
    load_checkpoint,
    rnn_direction,
    save_checkpoint,
)
from ctxda.tensor import Parameter, Tensor2D, backward
from gradcheck import max_gradient_error


def window(features, mask=None, label=0, **kw):
    feats = [np.asarray(f, dtype=np.float64) for f in features]
    if mask is None:
        mask = [True] * len(feats)
    return ContextWindow(features=feats, pad_mask=mask, label=label, **kw)


def direction_params(w_in, w_rec, bias):
    return RNNDirectionParams(
        w_in=Parameter(w_in), w_rec=Parameter(w_rec), bias=Parameter(bias)
    )


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


class TestRNNDirection:
    def test_zero_params_zero_states(self):
        p = direction_params(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 1)))
        states = rnn_direction([Tensor2D(np.ones((2, 1)))] * 4, p)
        assert all(np.all(s.data == 0.0) for s in states)

    def test_no_recurrence_depends_only_on_own_input(self):
        rng = np.random.default_rng(0)
        p = direction_params(rng.uniform(-1, 1, (3, 2)), np.zeros((3, 3)),
                             rng.uniform(-1, 1, (3, 1)))
        inputs = [Tensor2D(rng.uniform(-1, 1, (2, 1))) for _ in range(4)]
        states = rnn_direction(inputs, p)
        solo = [rnn_direction([u], p)[0] for u in inputs]
        for got, want in zip(states, solo):
            assert np.array_equal(got.data, want.data)

    def test_two_step_hand_evaluation(self):
        # dims 1, all weights 0.5, inputs [1, -1]:
        #   h1 = tanh(0.5*0 + 0.5*1 + 0.5)       = tanh(1)
        #   h2 = tanh(0.5*h1 - 0.5 + 0.5)        = tanh(0.5*tanh(1))
        p = direction_params([[0.5]], [[0.5]], [[0.5]])
        states = rnn_direction([Tensor2D([[1.0]]), Tensor2D([[-1.0]])], p)
        assert states[0].item() == pytest.approx(math.tanh(1.0), abs=1e-15)
        assert states[1].item() == pytest.approx(
            math.tanh(0.5 * math.tanh(1.0)), abs=1e-15
        )

    def test_reverse_direction_realigned(self):
        rng = np.random.default_rng(1)
        p = direction_params(rng.uniform(-1, 1, (2, 2)), np.zeros((2, 2)),
                             np.zeros((2, 1)))
        inputs = [Tensor2D(rng.uniform(-1, 1, (2, 1))) for _ in range(3)]
        fwd = rnn_direction(inputs, p)
        bwd = rnn_direction(inputs, p, reverse=True)
        # no recurrence: both directions see only the slot's own input
        for f, b in zip(fwd, bwd):
            assert np.allclose(f.data, b.data)


def small_birnn(seed=0, feature_dim=2, hidden=3):
    rng = np.random.default_rng(seed)

    def direction(tag):
        return RNNDirectionParams(
            w_in=Parameter(rng.uniform(-1, 1, (hidden, feature_dim)), name=f"{tag}.w_in"),
            w_rec=Parameter(rng.uniform(-1, 1, (hidden, hidden)), name=f"{tag}.w_rec"),
            bias=Parameter(rng.uniform(-1, 1, (hidden, 1)), name=f"{tag}.bias"),
        )

    return BiRNNParams(forward=direction("fwd"), backward=direction("bwd"),
                       hidden_dim=hidden)


class TestBiRNNForward:
    def test_zero_params_zero_matrix(self):
        p = BiRNNParams(
            forward=direction_params(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 1))),
            backward=direction_params(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 1))),
            hidden_dim=3,
        )
        steps = birnn_forward([Tensor2D(np.ones((2, 1)))] * 5, p)
        assert all(s.shape == (6, 1) and np.all(s.data == 0.0) for s in steps)

    def test_pad_rows_equal_without_recurrence(self):
        # one real utterance plus zero pads, recurrence off: every pad slot
        # produces the same bias-only state in both directions
        rng = np.random.default_rng(2)
        p = small_birnn(seed=2)
        p.forward.w_rec.data[:] = 0.0
        p.backward.w_rec.data[:] = 0.0
        feats = [Tensor2D(np.zeros((2, 1))) for _ in range(4)]
        feats.append(Tensor2D(rng.uniform(-1, 1, (2, 1))))
        steps = birnn_forward(feats, p)
        for pad_step in steps[1:4]:
            assert np.allclose(pad_step.data, steps[0].data)
        assert not np.allclose(steps[4].data, steps[0].data)

    def test_reversal_swaps_direction_blocks(self):
        rng = np.random.default_rng(3)
        p = small_birnn(seed=3)
        swapped = BiRNNParams(forward=p.backward, backward=p.forward, hidden_dim=3)
        feats = [Tensor2D(rng.uniform(-1, 1, (2, 1))) for _ in range(5)]
        steps = birnn_forward(feats, p)
        rev_steps = birnn_forward(list(reversed(feats)), swapped)
        h = p.hidden_dim
        for k in range(5):
            orig = steps[4 - k].data
            got = rev_steps[k].data
            assert np.allclose(got[:h], orig[h:])  # new fwd block = old bwd block
            assert np.allclose(got[h:], orig[:h])  # new bwd block = old fwd block


class TestAttention:
    def test_identical_rows_uniform_weights(self):
        rng = np.random.default_rng(4)
        att = AttentionParams(
            proj=Parameter(rng.uniform(-1, 1, (4, 6))),
            score=Parameter(rng.uniform(-1, 1, (4, 1))),
        )
        row = Tensor2D(rng.uniform(-1, 1, (6, 1)))
        weights, summary = attention([row] * 5, att)
        assert np.allclose(weights.data, 0.2, atol=1e-12)
        assert np.allclose(summary.data, np.tanh(row.data), atol=1e-12)

    def test_saturated_scores_select_one_step(self):
        # project onto the first coordinate and blow the score up: softmax
        # saturates onto the step with the largest first coordinate, and the
        # summary collapses to tanh of that step's state
        att = AttentionParams(
            proj=Parameter([[1.0, 0.0]]), score=Parameter([[1000.0]])
        )
        steps = [Tensor2D([[0.1], [0.2]]), Tensor2D([[1.0], [-1.0]]), Tensor2D([[0.3], [0.4]])]
        weights, summary = attention(steps, att)
        assert weights.data.ravel()[1] > 1.0 - 1e-9
        assert np.allclose(summary.data, np.tanh(steps[1].data), atol=1e-9)

    def test_simplex_and_range(self):
        rng = np.random.default_rng(5)
        att = AttentionParams(
            proj=Parameter(rng.uniform(-1, 1, (3, 4))),
            score=Parameter(rng.uniform(-1, 1, (3, 1))),
        )
        for _ in range(200):
            steps = [Tensor2D(rng.uniform(-2, 2, (4, 1))) for _ in range(5)]
            weights, summary = attention(steps, att)
            assert abs(weights.data.sum() - 1.0) < 1e-9
            assert np.all(weights.data >= 0.0)
            assert np.all(np.abs(summary.data) < 1.0)


class TestClassify:
    def test_zero_params_uniform_over_42(self):
        out = OutputParams(weight=Parameter(np.zeros((42, 6))),
                           bias=Parameter(np.zeros((42, 1))))
        probs = classify(Tensor2D(np.random.default_rng(0).uniform(-1, 1, (6, 1))), out)
        assert np.allclose(probs.data, 1.0 / 42.0, atol=1e-15)

    def test_large_bias_wins_argmax(self):
        bias = np.zeros((5, 1))
        bias[3, 0] = 50.0
        out = OutputParams(weight=Parameter(np.zeros((5, 2))), bias=Parameter(bias))
        probs = classify(Tensor2D([[0.5], [0.5]]), out)
        assert int(np.argmax(probs.data)) == 3

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        out = OutputParams(weight=Parameter(rng.uniform(-1, 1, (7, 3))),
                           bias=Parameter(rng.uniform(-1, 1, (7, 1))))
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
        out = OutputParams(weight=Parameter(rng.uniform(-1, 1, (4, 6))),
                           bias=Parameter(rng.uniform(-1, 1, (4, 1))))
        w = window([rng.uniform(-1, 1, 2) for _ in range(5)])
        model = UttAttBiRNN(2, 4, hidden_dim=3, seed=7, dropout_rate=0.0, head="direct")
        model.birnn, model.out = p, out
        direct = model.predict(w).probs.reshape(-1, 1)
        steps = birnn_forward([Tensor2D(f) for f in w.features], p)
        via_classify = classify(steps[-1], out)
        assert np.allclose(direct, via_classify.data)


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor2D(np.ones((4, 4)))
        assert M.apply_dropout(x, 0.0, np.random.default_rng(0), True) is x

    def test_inference_identity_any_rate(self):
        x = Tensor2D(np.ones((4, 4)))
        assert M.apply_dropout(x, 0.9, np.random.default_rng(0), False) is x

    def test_survivor_scaling_preserves_mean(self):
        x = Tensor2D(np.ones((100, 1000)))
        out = M.apply_dropout(x, 0.5, np.random.default_rng(1), True)
        assert abs(out.data.mean() - 1.0) < 0.02
        survivors = out.data[out.data != 0.0]
        assert np.allclose(survivors, 2.0)

    def test_invalid_rate(self):
        x = Tensor2D(np.ones((2, 2)))
        with pytest.raises(ValueError):
            M.apply_dropout(x, 1.0, np.random.default_rng(0), True)


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
        steps = birnn_forward([Tensor2D(f) for f in w.features], model.birnn)
        weights, _ = attention(steps, model.att)
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
        model.birnn.forward.w_rec.data[:] = 0.0
        model.birnn.backward.w_rec.data[:] = 0.0
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

    def test_training_dropout_needs_rng(self):
        model = UttAttBiRNN(3, 4, hidden_dim=3, seed=14, dropout_rate=0.5)
        rng = np.random.default_rng(14)
        w = self.make_window(rng, model)
        with pytest.raises(ValueError):
            model.predict(w, training=True)


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
            p.zero_grad()
        batch_rng = np.random.default_rng(22)
        batch_loss = model.loss(windows, training=True, rng=batch_rng)
        backward(batch_loss)
        batch_grads = [p.grad.copy() for p in params]

        for p in params:
            p.zero_grad()
        single_rng = np.random.default_rng(22)
        total = 0.0
        for w in windows:
            single = model.loss([w], training=True, rng=single_rng)
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
        assert len(batched) == len(windows)
        for w, got in zip(windows, batched):
            want = model.predict(w)
            assert np.allclose(got.probs, want.probs, rtol=0, atol=1e-12)
            if want.attention is None:
                assert got.attention is None
            else:
                assert np.allclose(got.attention, want.attention, rtol=0, atol=1e-12)

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
            backward(model.loss(windows, training=True, rng=np.random.default_rng(0)))
            model.predict(windows)
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, Tensor2D)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []


class TestPrediction:
    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            Prediction(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Prediction(np.array([-0.1, 1.1]))

    def test_confidence_and_top_class(self):
        pred = Prediction(np.array([0.2, 0.7, 0.1]))
        assert pred.top_class == 1
        assert pred.confidence == pytest.approx(0.7)


class TestCheckpoint:
    def test_round_trip_uttatt(self, tmp_path):
        model = UttAttBiRNN(3, 5, hidden_dim=4, seed=15, dropout_rate=0.1)
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(path, model, {"encoder": "word", "dim": 3}, ["a", "b", "c", "d", "e"], 15)
        loaded, meta = load_checkpoint(path)
        assert meta["tags"] == ["a", "b", "c", "d", "e"]
        assert meta["encoder"]["encoder"] == "word"
        assert meta["seed"] == 15
        for (n1, p1), (n2, p2) in zip(model.param_items(), loaded.param_items()):
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
        for (_, p1), (_, p2) in zip(model.param_items(), loaded.param_items()):
            assert np.array_equal(p1.data, p2.data)

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
