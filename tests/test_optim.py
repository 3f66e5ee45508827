import math
import tracemalloc

import numpy as np
import pytest

from ctxda import optim as O
from ctxda.corpus import SyntheticSpec, TagVocabulary, build_all_windows, generate_synthetic
from ctxda.encoders import EmbeddingTable, WordMeanEncoder
from ctxda.model import BaselineMLP, ContextWindow, Prediction, UttAttBiRNN
from ctxda.optim import Adam, TrainConfig, TrainingDiverged
from ctxda.tensor import (
    DimensionError,
    Parameter,
    Tensor2D,
    backward,
    matmul,
    params_from_json,
    params_to_json,
    softmax_columns,
)
from gradcheck import max_gradient_error
from reference_ops import neg_log, pick


class TestCrossEntropy:
    def test_uniform_over_42(self):
        probs = softmax_columns(Tensor2D(np.zeros((42, 1))))
        loss = O.cross_entropy(probs, [0])
        assert loss.item() == pytest.approx(math.log(42.0), abs=1e-9)

    def test_certain_prediction_zero_loss(self):
        probs = Tensor2D([[1.0], [0.0]])
        assert O.cross_entropy(probs, [0]).item() == pytest.approx(0.0, abs=1e-12)

    def test_quarter_probability(self):
        probs = Tensor2D([[0.25], [0.75]])
        assert O.cross_entropy(probs, [0]).item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_floor_prevents_infinity(self):
        probs = Tensor2D([[0.0], [1.0]])
        assert O.cross_entropy(probs, [0]).item() == pytest.approx(-math.log(1e-12))

    def test_floor_blocks_gradient(self):
        p = Parameter([[0.0, 0.5], [1.0, 0.5]])
        backward(O.cross_entropy(p, [0, 0]))
        assert p.grad[0, 0] == 0.0
        assert p.grad[0, 1] == pytest.approx(-1.0 / (2 * 0.5))

    def test_gold_out_of_range(self):
        probs = Tensor2D([[0.5], [0.5]])
        with pytest.raises(ValueError):
            O.cross_entropy(probs, [2])

    def test_mean_over_columns(self):
        probs = Tensor2D([[0.5, 0.25], [0.5, 0.75]])
        out = O.cross_entropy(probs, [0, 1])
        assert out.item() == pytest.approx((math.log(2.0) + math.log(4.0 / 3.0)) / 2, abs=1e-15)
        with pytest.raises(DimensionError):
            O.cross_entropy(probs, [0])

    def test_one_column_equals_neg_log_pick(self):
        p = Parameter([[0.2], [0.7], [0.1]])
        q = Parameter(p.data)
        gathered = O.cross_entropy(p, [1])
        picked = neg_log(pick(q, 1, 0))
        backward(gathered)
        backward(picked)
        assert gathered.item() == picked.item()
        assert np.array_equal(p.grad, q.grad)

    def test_gradcheck(self):
        rng = np.random.default_rng(35)
        p = Parameter(rng.uniform(-1, 1, (4, 3)), name="logits")

        def loss():
            return O.cross_entropy(softmax_columns(p), [2, 0, 3])

        assert max_gradient_error(loss, [p]) < 1e-4

    def test_model_loss_of_a_batch_of_one(self):
        model = BaselineMLP(1, 2, hidden1=2, hidden2=2, seed=0)
        for p in model.parameters():
            p.data[:] = 0.0
        w = ContextWindow([np.array([0.5])], [True], label=1)
        assert model.loss([w]).item() == pytest.approx(math.log(2.0))


class TestAdam:
    def test_first_step_hand_evaluation(self):
        # t=1, g=1, lr=1e-4: m_hat = 1, v_hat = 1,
        # delta = -1e-4 * 1 / (1 + 1e-8)
        p = Parameter([[0.0]], name="w")
        adam = Adam([p], learning_rate=1e-4)
        p.grad[:] = 1.0
        adam.step()
        expected = -1e-4 * (1.0 / (1.0 + 1e-8))
        assert p.data[0, 0] == pytest.approx(expected, abs=1e-18)

    def test_zero_gradient_leaves_params_unchanged(self):
        p = Parameter([[3.0], [4.0]], name="w")
        adam = Adam([p], learning_rate=1e-2)
        adam.step()
        assert p.data.tolist() == [[3.0], [4.0]]

    def test_second_step_hand_evaluation(self):
        # gradient sequence g1=1, g2=0.5 at lr=1e-4, hand arithmetic:
        #   t=1: m=0.1, v=0.001, m_hat=1, v_hat=1
        #   t=2: m=0.14, v=0.001249, m_hat=0.14/0.19, v_hat=0.001249/0.001999
        p = Parameter([[0.0]], name="w")
        adam = Adam([p], learning_rate=1e-4)
        p.grad[:] = 1.0
        adam.step()
        w1 = -1e-4 / (1.0 + 1e-8)
        assert p.data[0, 0] == pytest.approx(w1, abs=1e-18)
        adam.zero_grad()
        p.grad[:] = 0.5
        adam.step()
        m2 = 0.9 * 0.1 + 0.1 * 0.5
        v2 = 0.999 * 0.001 + 0.001 * 0.25
        m_hat = m2 / (1.0 - 0.9**2)
        v_hat = v2 / (1.0 - 0.999**2)
        w2 = w1 - 1e-4 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert p.data[0, 0] == pytest.approx(w2, abs=1e-15)

    def test_constant_gradient_steps_are_equal(self):
        # bias correction makes m_hat = g and v_hat = g^2 for a constant
        # gradient, so consecutive updates coincide exactly
        p = Parameter([[0.0]], name="w")
        adam = Adam([p], learning_rate=1e-3)
        p.grad[:] = 2.0
        adam.step()
        first = p.data[0, 0]
        adam.zero_grad()
        p.grad[:] = 2.0
        adam.step()
        assert p.data[0, 0] - first == pytest.approx(first, abs=1e-15)

    def test_nan_gradient_names_parameter(self):
        p = Parameter([[0.0]], name="att.proj")
        adam = Adam([p])
        p.grad[:] = np.nan
        with pytest.raises(TrainingDiverged, match="att.proj"):
            adam.step()


def reference_adam_step(data, m, v, g, t, lr):
    """Adam's update written as one expression per line, the oracle for the
    in-place ``Adam.step``."""
    m *= Adam.beta1
    m += (1.0 - Adam.beta1) * g
    v *= Adam.beta2
    v += (1.0 - Adam.beta2) * (g * g)
    bc1, bc2 = 1.0 - Adam.beta1**t, 1.0 - Adam.beta2**t
    data -= lr * (m / bc1) / (np.sqrt(v / bc2) + Adam.eps)


class TestInPlaceStep:
    """``Adam.step`` on the flat buffers of a 300/100 baseline over 18
    features and 5 classes: 36,305 floats."""

    def make(self):
        adam = Adam(BaselineMLP(18, 5, seed=0).parameters(), learning_rate=1e-3)
        assert adam.data.size == 36305
        return adam

    def test_is_bitwise_the_expression(self):
        adam, rng = self.make(), np.random.default_rng(0)
        data, m, v = adam.data.copy(), np.zeros_like(adam.data), np.zeros_like(adam.data)
        for t in range(1, 201):
            adam.learning_rate = 1e-3 * 0.95 ** (t // 20)
            adam.grad[:] = rng.normal(0.0, 10.0 ** rng.uniform(-6, 1), adam.grad.shape)
            adam.step()
            reference_adam_step(data, m, v, adam.grad, t, adam.learning_rate)
            assert np.array_equal(adam.data, data), t
        assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)

    def test_a_step_allocates_no_buffer(self):
        adam = self.make()
        adam.grad[:] = np.random.default_rng(1).normal(size=adam.grad.shape)
        adam.step()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            adam.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < adam.data.nbytes

    def test_a_non_finite_gradient_still_names_its_parameter(self):
        adam = self.make()
        adam.step()
        before = adam.data.copy()
        adam.params[2].grad[3, 4] = np.nan
        with pytest.raises(TrainingDiverged, match="mlp.w2"):
            adam.step()
        assert np.array_equal(adam.data, before) and adam.step_count == 1


def assert_views(adam, params):
    """Each parameter's data and grad are views of the Adam's flat buffers."""
    for p in params:
        assert np.shares_memory(p.data, adam.data) and p.data.base is not None, p.name
        assert np.shares_memory(p.grad, adam.grad) and p.grad.base is not None, p.name


class TestFlatBuffer:
    def test_buffers_hold_the_parameters_in_order(self):
        model = UttAttBiRNN(3, 4, hidden_dim=3, seed=5)
        params = model.parameters()
        params[0].grad[:] = 2.0
        values = np.concatenate([p.data.ravel() for p in params])
        grads = np.concatenate([p.grad.ravel() for p in params])
        adam = Adam(params)
        assert np.array_equal(adam.data, values) and np.array_equal(adam.grad, grads)
        for flat in (adam.data, adam.grad, adam.m, adam.v):
            assert flat.shape == (sum(p.data.size for p in params),)
        assert_views(adam, params)

    def test_views_survive_loading_and_zero_grad(self):
        model = UttAttBiRNN(3, 4, hidden_dim=3, seed=5)
        adam = Adam(model.parameters())
        stored = params_to_json(UttAttBiRNN(3, 4, hidden_dim=3, seed=6).params)
        params_from_json(model.params, stored)
        assert_views(adam, model.parameters())
        loaded = params_to_json(model.params)
        assert list(loaded) == list(stored)
        for name, entry in loaded.items():
            assert (entry["rows"], entry["cols"]) == (stored[name]["rows"], stored[name]["cols"])
            assert np.array_equal(entry["values"], stored[name]["values"])
        adam.grad[:] = 3.0
        adam.zero_grad()
        assert_views(adam, model.parameters())
        assert all(np.all(p.grad == 0.0) for p in model.parameters())

    def test_views_survive_the_early_stopping_restore(self, monkeypatch):
        built = []

        class RecordingAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(O, "Adam", RecordingAdam)
        _, windows, vocab, encoder = tiny_corpus(seed=3, n_conversations=6)
        model = BaselineMLP(encoder.dim, len(vocab), hidden1=10, hidden2=6, seed=3)
        cfg = TrainConfig(batch_size=8, max_epochs=12, learning_rate=2e-3,
                          patience=3, seed=3, val_fraction=0.2)
        result = O.train(model, windows, cfg)
        assert result.best_epoch < len(result.history)  # the restore did run
        (adam,) = built
        assert_views(adam, model.parameters())

    def test_a_non_finite_gradient_names_its_parameter(self):
        a, b = Parameter([[0.0, 1.0]], name="first"), Parameter([[2.0], [3.0]], name="second")
        adam = Adam([a, b])
        b.grad[1, 0] = np.inf
        with pytest.raises(TrainingDiverged, match="second"):
            adam.step()
        assert a.data.tolist() == [[0.0, 1.0]] and adam.step_count == 0


class ScriptedModel:
    """A model whose validation accuracy is scripted: the k-th ``predict``
    call scores ``accuracies[k]`` percent. Its one parameter moves on every
    Adam step, and ``seen`` records its value at each ``predict`` call."""

    def __init__(self, accuracies):
        self.w = Parameter([[0.0]], name="w")
        self.accuracies = accuracies
        self.seen = []

    def parameters(self):
        return [self.w]

    def loss(self, windows, rng=None):
        return matmul(Tensor2D([[1.0]]), self.w)

    def predict(self, windows):
        self.seen.append(self.w.data.item())
        hits = len(windows) * self.accuracies[len(self.seen) - 1] // 100
        probs = np.zeros((len(windows), 2))
        probs[:hits, 0] = 1.0  # every label is 0
        probs[hits:, 1] = 1.0
        return Prediction(probs)


class TestEarlyStopping:
    """``train`` stops after ``patience`` epochs without a strict improvement
    in validation accuracy and restores the best epoch's parameters."""

    def run(self):
        # 60, then 61 at epoch 2 and five ties; an eighth epoch would score 70
        model = ScriptedModel([60, 61, 61, 61, 61, 61, 61, 70])
        windows = [ContextWindow([np.zeros(1)], [True], label=0) for _ in range(200)]
        cfg = TrainConfig(batch_size=200, max_epochs=8, learning_rate=0.1, patience=5,
                          val_fraction=0.5)
        return model, O.train(model, windows, cfg)

    def test_patience_scenario(self):
        _, result = self.run()
        assert [h.val_accuracy for h in result.history] == [60, 61, 61, 61, 61, 61, 61]
        assert result.best_epoch == 2 and result.best_val_accuracy == 61.0

    def test_snapshot_is_copied(self):
        model, _ = self.run()
        assert len(set(model.seen)) == 7  # every epoch's step moved the parameter
        assert model.w.data.item() == model.seen[1]


class TestSplitValidation:
    def make_windows(self, n, conversations=1):
        out = []
        for i in range(n):
            out.append(
                ContextWindow(
                    [np.array([float(i)])], [True], label=0,
                    conversation_id=f"c{i % conversations}", index=i,
                )
            )
        return out

    def test_sizes_100_at_15_percent(self):
        train, val = O.split_validation(self.make_windows(100), 0.15, seed=0)
        assert len(train) == 85 and len(val) == 15

    def test_tiny_fraction_keeps_one_validation_window(self):
        train, val = O.split_validation(self.make_windows(10), 0.001, seed=0)
        assert len(val) == 1 and len(train) == 9

    def test_seeded_split_is_stable(self):
        windows = self.make_windows(40)
        a = O.split_validation(windows, 0.25, seed=7)
        b = O.split_validation(windows, 0.25, seed=7)
        assert [w.index for w in a[0]] == [w.index for w in b[0]]
        assert [w.index for w in a[1]] == [w.index for w in b[1]]

    def test_conversation_level_keeps_groups_whole(self):
        windows = self.make_windows(40, conversations=8)
        train, val = O.split_validation(windows, 0.25, seed=3, by_conversation=True)
        train_convs = {w.conversation_id for w in train}
        val_convs = {w.conversation_id for w in val}
        assert not (train_convs & val_convs)
        assert len(train) + len(val) == 40


def tiny_corpus(mode="current", seed=0, n_conversations=4, length=6):
    spec = SyntheticSpec(
        n_classes=3, mode=mode, n_conversations=n_conversations,
        conversation_length=length, seed=seed,
    )
    convs = generate_synthetic(spec)
    vocab = TagVocabulary.from_conversations(convs)
    table = EmbeddingTable.one_hot(spec.vocabulary())
    encoder = WordMeanEncoder(table)
    windows = build_all_windows(convs, 2, encoder, vocab)
    return spec, windows, vocab, encoder


class TestTrain:
    @pytest.mark.parametrize("setting", [{"lr_decay": 0.0}, {"lr_decay": -1.0},
                                         {"learning_rate": 0.0}, {"max_epochs": 0}])
    def test_config_refuses_a_senseless_setting(self, setting):
        with pytest.raises(ValueError, match="must be positive"):
            TrainConfig(**setting)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_config_refuses_an_invalid_fraction(self, fraction):
        # split_validation trusts its fraction: TrainConfig is where it is checked
        with pytest.raises(ValueError, match="val_fraction must be in"):
            TrainConfig(val_fraction=fraction)

    def test_empty_training_set_rejected(self):
        model = BaselineMLP(2, 2, hidden1=3, hidden2=3)
        with pytest.raises(ValueError):
            O.train(model, [], TrainConfig())

    def test_loss_mostly_decreases_early(self):
        _, windows, vocab, encoder = tiny_corpus(seed=1)
        model = BaselineMLP(encoder.dim, len(vocab), hidden1=12, hidden2=8, seed=1)
        cfg = TrainConfig(batch_size=8, max_epochs=5, learning_rate=1e-3,
                          patience=5, seed=1, val_fraction=0.2)
        result = O.train(model, windows, cfg)
        losses = [h.train_loss for h in result.history]
        assert len(losses) == 5
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
        assert drops >= 4

    def test_seeded_training_bitwise_deterministic(self):
        def run():
            _, windows, vocab, encoder = tiny_corpus(seed=2)
            model = UttAttBiRNN(encoder.dim, len(vocab), hidden_dim=4,
                                n_context=2, seed=2, dropout_rate=0.2)
            cfg = TrainConfig(batch_size=8, max_epochs=3, learning_rate=1e-3,
                              seed=2, val_fraction=0.2)
            O.train(model, windows, cfg)
            return [p.data.copy() for p in model.parameters()]

        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)

    def test_restored_model_scores_best_recorded_accuracy(self):
        _, windows, vocab, encoder = tiny_corpus(seed=3, n_conversations=6)
        model = BaselineMLP(encoder.dim, len(vocab), hidden1=10, hidden2=6, seed=3)
        cfg = TrainConfig(batch_size=8, max_epochs=12, learning_rate=2e-3,
                          patience=3, seed=3, val_fraction=0.2)
        result = O.train(model, windows, cfg)
        _, val_set = O.split_validation(windows, cfg.val_fraction, cfg.seed)
        assert O.evaluate_accuracy(model, val_set) == pytest.approx(
            result.best_val_accuracy
        )
        assert result.best_val_accuracy == max(h.val_accuracy for h in result.history)

    def test_history_lr_follows_decay(self):
        _, windows, vocab, encoder = tiny_corpus(seed=4)
        model = BaselineMLP(encoder.dim, len(vocab), hidden1=6, hidden2=4, seed=4)
        cfg = TrainConfig(batch_size=16, max_epochs=3, learning_rate=1e-3,
                          lr_decay=0.5, seed=4, val_fraction=0.2)
        result = O.train(model, windows, cfg)
        assert [h.learning_rate for h in result.history] == [1e-3, 5e-4, 2.5e-4]

    def test_history_csv_round_trip(self, tmp_path):
        stats = [O.EpochStats(1, 1e-4, 3.5, 40.0), O.EpochStats(2, 9.5e-5, 3.1, 45.5)]
        path = tmp_path / "history.csv"
        O.write_history_csv(path, stats)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_accuracy"
        assert lines[1].startswith("1,0.0001,3.5,40.0")
