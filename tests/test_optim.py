import math

import numpy as np
import pytest

from ctxda import optim as O
from ctxda.corpus import SyntheticSpec, TagVocabulary, build_all_windows, generate_synthetic
from ctxda.encoders import EmbeddingTable, WordMeanEncoder
from ctxda.model import BaselineMLP, ContextWindow, UttAttBiRNN
from ctxda.optim import Adam, EarlyStopping, TrainConfig, TrainingDiverged
from ctxda.tensor import Parameter, Tensor2D, softmax


class TestCrossEntropy:
    def test_uniform_over_42(self):
        probs = softmax(Tensor2D(np.zeros((42, 1))))
        loss = O.cross_entropy(probs, 0)
        assert loss.item() == pytest.approx(math.log(42.0), abs=1e-9)

    def test_certain_prediction_zero_loss(self):
        probs = Tensor2D([[1.0], [0.0]])
        assert O.cross_entropy(probs, 0).item() == pytest.approx(0.0, abs=1e-12)

    def test_quarter_probability(self):
        probs = Tensor2D([[0.25], [0.75]])
        assert O.cross_entropy(probs, 0).item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_floor_prevents_infinity(self):
        probs = Tensor2D([[0.0], [1.0]])
        assert O.cross_entropy(probs, 0).item() == pytest.approx(-math.log(1e-12))

    def test_gold_out_of_range(self):
        probs = Tensor2D([[0.5], [0.5]])
        with pytest.raises(ValueError):
            O.cross_entropy(probs, 2)

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
        p.zero_grad()
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
        p.zero_grad()
        p.grad[:] = 2.0
        adam.step()
        assert p.data[0, 0] - first == pytest.approx(first, abs=1e-15)

    def test_nan_gradient_names_parameter(self):
        p = Parameter([[0.0]], name="att.proj")
        adam = Adam([p])
        p.grad[:] = np.nan
        with pytest.raises(TrainingDiverged, match="att.proj"):
            adam.step()


class TestDecay:
    def test_epoch_zero_base_rate(self):
        assert O.decay_lr(1e-4, 0.95, 0) == 1e-4

    def test_gamma_one_constant(self):
        assert O.decay_lr(5e-3, 1.0, 17) == 5e-3

    def test_ten_epochs(self):
        assert O.decay_lr(1e-4, 0.95, 10) == pytest.approx(5.9874e-5, rel=1e-4)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            O.decay_lr(1e-4, 0.95, -1)


class TestEarlyStopping:
    def test_patience_scenario(self):
        # accuracies [60, 61, 61, 61, 61, 61, 61]: improvement at epoch 2,
        # then five stagnant epochs -> stop after epoch 7, best epoch is 2
        stopper = EarlyStopping(patience=5)
        accs = [60, 61, 61, 61, 61, 61, 61]
        stopped_at = None
        for epoch, acc in enumerate(accs, start=1):
            if stopper.update(acc, [np.array([[float(epoch)]])], epoch):
                stopped_at = epoch
                break
        assert stopped_at == 7
        assert stopper.best_epoch == 2
        assert stopper.best_snapshot[0][0, 0] == 2.0
        assert stopper.epochs_since_improvement == stopper.patience

    def test_snapshot_is_copied(self):
        stopper = EarlyStopping(patience=2)
        live = np.array([[1.0]])
        stopper.update(50.0, [live], 1)
        live[0, 0] = 99.0
        assert stopper.best_snapshot[0][0, 0] == 1.0


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

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            O.split_validation(self.make_windows(10), 0.0, seed=0)

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
    def test_empty_training_set_rejected(self):
        model = BaselineMLP(2, 2, hidden1=3, hidden2=3)
        with pytest.raises(ValueError):
            O.train(model, [], TrainConfig())

    def test_loss_mostly_decreases_early(self):
        _, windows, vocab, encoder = tiny_corpus(seed=1)
        model = BaselineMLP(encoder.dim, len(vocab), hidden1=12, hidden2=8, seed=1)
        cfg = TrainConfig(batch_size=8, max_epochs=5, learning_rate=1e-3,
                          patience=5, seed=1, dropout_rate=0.0, val_fraction=0.2)
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
                          patience=3, seed=3, dropout_rate=0.0, val_fraction=0.2)
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
                          lr_decay=0.5, seed=4, dropout_rate=0.0, val_fraction=0.2)
        result = O.train(model, windows, cfg)
        assert [h.learning_rate for h in result.history] == [1e-3, 5e-4, 2.5e-4]

    def test_history_csv_round_trip(self, tmp_path):
        stats = [O.EpochStats(1, 1e-4, 3.5, 40.0), O.EpochStats(2, 9.5e-5, 3.1, 45.5)]
        path = tmp_path / "history.csv"
        O.write_history_csv(path, stats)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_accuracy"
        assert lines[1].startswith("1,0.0001,3.5,40.0")
