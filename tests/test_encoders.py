import numpy as np
import pytest

from ctxda import encoders as E
from ctxda.corpus import Utterance
from ctxda.tensor import DimensionError, Tensor2D, sum_all
from gradcheck import max_gradient_error


class TestTokenize:
    def test_punctuation_detached(self):
        assert E.tokenize("Yes.") == ["yes", "."]

    def test_empty(self):
        assert E.tokenize("") == []

    def test_apostrophe_split(self):
        assert E.tokenize("But they don't have") == ["but", "they", "don", "'", "t", "have"]

    def test_deterministic_and_lowercased(self):
        text = "So, THAT'S it?!"
        assert E.tokenize(text) == E.tokenize(text)
        assert E.tokenize(text) == ["so", ",", "that", "'", "s", "it", "?", "!"]


class TestEmbeddingTable:
    def test_lookup_absent_is_none_not_zero(self):
        table = E.EmbeddingTable(2)
        table.add("zero", [0.0, 0.0])
        assert table.lookup("zero") is not None
        assert table.lookup("missing") is None

    def test_one_hot(self):
        table = E.EmbeddingTable.one_hot(["a", "b", "c"])
        assert table.dim == 3
        assert table.lookup("b").tolist() == [0.0, 1.0, 0.0]

    def test_wrong_length_rejected(self):
        table = E.EmbeddingTable(3)
        with pytest.raises(ValueError):
            table.add("x", [1.0, 2.0])


class TestLoadEmbeddings:
    def test_basic_file(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0 0.0\nb 0.0 1.0\n")
        table = E.load_embeddings(p)
        assert table.dim == 2 and len(table) == 2
        assert table.lookup("a").tolist() == [1.0, 0.0]

    def test_header_line(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("2 3\na 1 2 3\nb 4 5 6\n")
        table = E.load_embeddings(p)
        assert table.dim == 3 and len(table) == 2

    def test_header_only_gives_empty_table(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("0 300\n")
        table = E.load_embeddings(p)
        assert table.dim == 300 and len(table) == 0

    def test_empty_headerless_is_error(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("")
        with pytest.raises(ValueError):
            E.load_embeddings(p)

    def test_bad_length_reports_line_number(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 2 3\nb 4 5\n")
        with pytest.raises(ValueError, match=":2:"):
            E.load_embeddings(p)

    def test_duplicate_token_last_wins(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 1\na 2 2\n")
        assert E.load_embeddings(p).lookup("a").tolist() == [2.0, 2.0]


class TestWordMean:
    def make_table(self):
        table = E.EmbeddingTable(2)
        table.add("a", [1.0, 0.0])
        table.add("b", [0.0, 1.0])
        return table

    def test_two_token_mean(self):
        assert E.word_mean(["a", "b"], self.make_table()).tolist() == [0.5, 0.5]

    def test_all_oov_zero_vector(self):
        assert E.word_mean(["x", "y"], self.make_table()).tolist() == [0.0, 0.0]

    def test_oov_skipped_not_zero_substituted(self):
        table = E.EmbeddingTable(2)
        table.add("a", [2.0, 4.0])
        assert E.word_mean(["a", "a", "zzz"], table).tolist() == [2.0, 4.0]

    def test_permutation_invariant(self):
        table = E.EmbeddingTable.random(["a", "b", "c", "d"], 5, seed=1)
        fwd = E.word_mean(["a", "b", "c", "d"], table)
        rev = E.word_mean(["d", "c", "b", "a"], table)
        assert np.array_equal(fwd, rev)

    def test_encoder_wrapper_deterministic(self):
        table = E.EmbeddingTable.random(["hi", "there"], 4, seed=2)
        enc = E.WordMeanEncoder(table)
        utt = Utterance("c1", 0, "hi there", "x")
        assert np.array_equal(enc.encode_utterance(utt), enc.encode_utterance(utt))


class TestCharVocab:
    def test_printable_ascii_default(self):
        vocab = E.CharVocab()
        assert vocab.size == 96  # 95 printable + UNK
        assert vocab.index("a") > 0

    def test_unknown_maps_to_unk(self):
        vocab = E.CharVocab("ab")
        assert vocab.index("z") == E.CharVocab.UNK
        assert vocab.index("é") == E.CharVocab.UNK

    def test_from_text(self):
        vocab = E.CharVocab.from_text(["aba", "cb"])
        assert vocab.size == 4  # a, b, c + UNK


class TestMLSTM:
    def test_zero_params_zero_cell_gives_zero(self):
        p = E.MLSTMParams.zeros(4, 3)
        x = Tensor2D(np.zeros((4, 1)))
        x.data[1, 0] = 1.0
        h, c = E.mlstm_step(x, Tensor2D(np.zeros((3, 1))), Tensor2D(np.zeros((3, 1))), p)
        assert np.all(h.data == 0.0)
        assert np.all(c.data == 0.0)

    def test_zero_params_halves_previous_cell(self):
        # gates sit at sigmoid(0) = 0.5 and the candidate at tanh(0) = 0,
        # so c_t = 0.5 * c_prev exactly
        p = E.MLSTMParams.zeros(2, 3)
        c_prev = np.array([[0.4], [-1.2], [2.0]])
        x = Tensor2D([[1.0], [0.0]])
        h, c = E.mlstm_step(x, Tensor2D(np.zeros((3, 1))), Tensor2D(c_prev), p)
        assert np.allclose(c.data, 0.5 * c_prev, atol=1e-15)
        assert np.allclose(h.data, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_shape_mismatch(self):
        p = E.MLSTMParams.zeros(4, 3)
        with pytest.raises(DimensionError):
            E.mlstm_step(
                Tensor2D(np.zeros((5, 1))),
                Tensor2D(np.zeros((3, 1))),
                Tensor2D(np.zeros((3, 1))),
                p,
            )

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        p = E.MLSTMParams.create(3, 2, seed=9)
        params = p.parameters()
        x = rng.uniform(-1, 1, (3, 1))
        h0 = rng.uniform(-0.5, 0.5, (2, 1))
        c0 = rng.uniform(-0.5, 0.5, (2, 1))

        def loss():
            h, _ = E.mlstm_step(Tensor2D(x), Tensor2D(h0), Tensor2D(c0), p)
            return sum_all(h)

        assert max_gradient_error(loss, params) < 1e-4


class TestCharEncode:
    def test_single_char_is_first_state(self):
        p = E.MLSTMParams.create(96, 5, seed=3)
        vocab = E.CharVocab()
        states_mean = E.char_encode("a", p, vocab, reduce="mean")
        last = E.char_encode("a", p, vocab, reduce="last")
        assert np.array_equal(states_mean, last)

    def test_zero_params_zero_vector(self):
        p = E.MLSTMParams.zeros(96, 4)
        assert np.all(E.char_encode("hello", p, E.CharVocab()) == 0.0)

    def test_empty_text_zero_vector(self):
        p = E.MLSTMParams.create(96, 4, seed=0)
        out = E.char_encode("", p, E.CharVocab())
        assert out.shape == (4,) and np.all(out == 0.0)

    def test_order_sensitive(self):
        p = E.MLSTMParams.create(96, 6, seed=4)
        vocab = E.CharVocab()
        ab = E.char_encode("ab", p, vocab)
        ba = E.char_encode("ba", p, vocab)
        assert not np.allclose(ab, ba)

    def test_deterministic(self):
        p = E.MLSTMParams.create(96, 6, seed=5)
        vocab = E.CharVocab()
        utt = Utterance("c", 0, "well, yes", "x")
        enc = E.CharMLSTMEncoder(p, vocab)
        assert np.array_equal(enc.encode_utterance(utt), enc.encode_utterance(utt))

    def test_rejects_unknown_reduce(self):
        p = E.MLSTMParams.zeros(96, 4)
        with pytest.raises(ValueError):
            E.char_encode("a", p, E.CharVocab(), reduce="max")


class TestConcat:
    def test_order_char_first(self):
        assert E.concat_encode(np.array([1.0, 2.0]), np.array([3.0])).tolist() == [1, 2, 3]

    def test_zero_plus_zero(self):
        out = E.concat_encode(np.zeros(3), np.zeros(2))
        assert out.shape == (5,) and np.all(out == 0.0)

    def test_full_scale_dims(self):
        out = E.concat_encode(np.zeros(4096), np.zeros(300))
        assert out.shape == (4396,)


class TestPrecomputed:
    def test_round_trip(self, tmp_path):
        feats = {("c1", 0): np.array([1.5, -2.0]), ("c1", 1): np.array([0.0, 3.25])}
        path = tmp_path / "feat.tsv"
        E.write_feature_file(path, feats)
        loaded = E.load_feature_file(path)
        assert set(loaded) == set(feats)
        for key in feats:
            assert np.array_equal(loaded[key], feats[key])

    def test_encoder_lookup_and_missing_key(self, tmp_path):
        feats = {("c1", 0): np.array([1.0, 2.0])}
        enc = E.PrecomputedEncoder(feats)
        assert enc.dim == 2
        assert enc.encode_utterance(Utterance("c1", 0, "hi", "x")).tolist() == [1.0, 2.0]
        with pytest.raises(KeyError):
            enc.encode_utterance(Utterance("c2", 0, "hi", "x"))

    def test_inconsistent_dim_reports_line(self, tmp_path):
        path = tmp_path / "feat.tsv"
        path.write_text("c1\t0\t1.0,2.0\nc1\t1\t1.0\n")
        with pytest.raises(ValueError, match=":2:"):
            E.load_feature_file(path)


class TestCharLM:
    def test_training_reduces_loss(self):
        texts = ["abab abab", "baba baba", "abba abba"] * 4
        vocab = E.CharVocab.from_text(texts)
        params, losses = E.train_char_lm(
            texts, vocab, hidden_dim=8, epochs=4, learning_rate=5e-3, seed=1,
            max_chars=16,
        )
        assert params.hidden_dim == 8
        assert losses[-1] < losses[0]

    def test_needs_usable_text(self):
        with pytest.raises(ValueError):
            E.train_char_lm(["a"], E.CharVocab("a"), hidden_dim=4)
