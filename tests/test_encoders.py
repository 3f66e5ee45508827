import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxda import encoders as E
from ctxda.corpus import SyntheticSpec, Utterance, generate_synthetic
from ctxda.optim import Adam, cross_entropy
from ctxda.tensor import (
    CheckpointError,
    DimensionError,
    Tensor2D,
    array_values,
    backward,
    init_params,
    matmul,
    softmax_columns,
    write_json_file,
)
from gradcheck import max_gradient_error
from reference_ops import (add, dense_input_scatter, full_column_char_lm, hadamard, hstack,
                           loop_mlstm_states, mlstm_reference_states, mlstm_step, sum_all,
                           word_mean_one)

X_NAMES = ("w_mx", "w_ix", "w_fx", "w_ox", "w_cx")  # the mLSTM's input matrices


def char_vocab_from_text(texts) -> E.CharVocab:
    """The sorted inventory of the characters in ``texts``."""
    return E.CharVocab("".join(sorted({ch for text in texts for ch in text})))


def write_feature_file(path, features):
    """Write ``features`` in the format ``load_feature_file`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for (conv_id, idx), vec in features.items():
            joined = ",".join(repr(float(v)) for v in np.asarray(vec).ravel())
            fh.write(f"{conv_id}\t{idx}\t{joined}\n")


def random_table(vocabulary, dim, seed=0):
    """Standard-normal embeddings for ``vocabulary``, drawn in its order."""
    rng = np.random.default_rng(seed)
    table = E.EmbeddingTable(dim)
    for tok in vocabulary:
        table.add(tok, rng.normal(0.0, 1.0, dim))
    return table


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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line_number(self, tmp_path, bad):
        p = tmp_path / "emb.txt"
        p.write_text(f"a 1 2\nb 3 {bad}\n")
        with pytest.raises(ValueError, match=r"emb\.txt:2: non-finite"):
            E.load_embeddings(p)


class TestWordMean:
    def make_table(self):
        table = E.EmbeddingTable(2)
        table.add("a", [1.0, 0.0])
        table.add("b", [0.0, 1.0])
        return table

    def test_two_token_mean(self):
        assert E.word_mean(["a b"], self.make_table())[0].tolist() == [0.5, 0.5]

    def test_all_oov_zero_vector(self):
        assert E.word_mean(["x y"], self.make_table())[0].tolist() == [0.0, 0.0]

    def test_oov_skipped_not_zero_substituted(self):
        table = E.EmbeddingTable(2)
        table.add("a", [2.0, 4.0])
        assert E.word_mean(["a a zzz"], table)[0].tolist() == [2.0, 4.0]

    def test_permutation_invariant(self):
        table = random_table(["a", "b", "c", "d"], 5, seed=1)
        fwd, rev = E.word_mean(["a b c d", "d c b a"], table)
        assert np.array_equal(fwd, rev)

    def test_encoder_wrapper_deterministic(self):
        table = random_table(["hi", "there"], 4, seed=2)
        enc = E.WordMeanEncoder(table)
        utt = Utterance("c1", 0, "hi there", "x")
        assert np.array_equal(enc.encode([utt]), enc.encode([utt]))

    @pytest.mark.parametrize("kind", ["onehot", "file"])
    def test_split_encoding_is_the_per_utterance_mean(self, tmp_path, kind):
        # means of up to 12 rows, one-hot and dense: bit for bit np.mean's
        convs = generate_synthetic(SyntheticSpec(n_conversations=6, mode="mixed", seed=4))
        utts = [u for conv in convs for u in conv.utterances]
        vocab = sorted({tok for u in utts for tok in E.tokenize(u.text)})
        if kind == "onehot":
            enc = E.WordMeanEncoder(E.EmbeddingTable.one_hot(vocab))
        else:
            path = tmp_path / "table.txt"
            rng = np.random.default_rng(9)
            path.write_text("".join(f"{tok} {' '.join(map(repr, rng.normal(0.0, 1.0, 50).tolist()))}\n"
                                    for tok in vocab))
            enc = E.WordMeanEncoder.from_file(path)
        utts += [Utterance("c", 0, "zzz qqq", "x"), Utterance("c", 1, "", "x")]
        assert max(len(E.tokenize(u.text)) for u in utts) >= 3
        got = enc.encode(utts)
        want = np.array([word_mean_one(E.tokenize(u.text), enc.table) for u in utts])
        assert got.shape == (len(utts), enc.dim) and np.array_equal(got, want)
        assert not got[-2:].any()


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
        vocab = char_vocab_from_text(["aba", "cb"])
        assert vocab.size == 4  # a, b, c + UNK


class TestMLSTM:
    def test_zero_params_zero_cell_gives_zero(self):
        p = E.MLSTMParams(4, 3)
        x = Tensor2D(np.zeros((4, 1)))
        x.data[1, 0] = 1.0
        h, c = mlstm_step(x, Tensor2D(np.zeros((3, 1))), Tensor2D(np.zeros((3, 1))), p)
        assert np.all(h.data == 0.0)
        assert np.all(c.data == 0.0)

    def test_zero_params_halves_previous_cell(self):
        # gates sit at sigmoid(0) = 0.5 and the candidate at tanh(0) = 0,
        # so c_t = 0.5 * c_prev exactly
        p = E.MLSTMParams(2, 3)
        c_prev = np.array([[0.4], [-1.2], [2.0]])
        x = Tensor2D([[1.0], [0.0]])
        h, c = mlstm_step(x, Tensor2D(np.zeros((3, 1))), Tensor2D(c_prev), p)
        assert np.allclose(c.data, 0.5 * c_prev, atol=1e-15)
        assert np.allclose(h.data, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_shape_mismatch(self):
        p = E.MLSTMParams(4, 3)
        with pytest.raises(DimensionError):
            mlstm_step(
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
            h, _ = mlstm_step(Tensor2D(x), Tensor2D(h0), Tensor2D(c0), p)
            return sum_all(h)

        assert max_gradient_error(loss, params) < 1e-4

    def batch_inputs(self):
        rng = np.random.default_rng(12)
        p = E.MLSTMParams.create(4, 3, seed=12)
        for param in p.parameters():
            param.data += rng.normal(0.0, 0.3, param.shape)  # biases away from zero too
        x = rng.uniform(-1, 1, (4, 5))
        h0 = rng.uniform(-0.5, 0.5, (3, 5))
        c0 = rng.uniform(-0.5, 0.5, (3, 5))
        return p, x, h0, c0

    def test_batch_equals_one_column_steps(self):
        p, x, h0, c0 = self.batch_inputs()
        h, c = mlstm_step(Tensor2D(x), Tensor2D(h0), Tensor2D(c0), p)
        assert h.shape == c.shape == (3, 5)
        for j in range(5):
            col = slice(j, j + 1)
            h_j, c_j = mlstm_step(Tensor2D(x[:, col]), Tensor2D(h0[:, col]),
                                    Tensor2D(c0[:, col]), p)
            assert np.max(np.abs(h.data[:, col] - h_j.data)) <= 1e-12
            assert np.max(np.abs(c.data[:, col] - c_j.data)) <= 1e-12

    def test_batch_gradients_match_finite_differences(self):
        p, x, h0, c0 = self.batch_inputs()
        probe_h = Tensor2D(np.random.default_rng(13).uniform(-1, 1, (3, 5)))
        probe_c = Tensor2D(np.random.default_rng(14).uniform(-1, 1, (3, 5)))

        def loss():
            h, c = mlstm_step(Tensor2D(x), Tensor2D(h0), Tensor2D(c0), p)
            return add(sum_all(hadamard(h, probe_h)), sum_all(hadamard(c, probe_c)))

        assert max_gradient_error(loss, p.parameters()) < 1e-4


def moved_cell(input_dim, hidden_dim, seed):
    """A seeded cell with every parameter, biases too, moved off its initial value."""
    p = E.MLSTMParams.create(input_dim, hidden_dim, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for param in p.parameters():
        param.data += rng.normal(0.0, 0.5, param.shape)
    return p


def fused_and_reference_grads(idx, p, probe):
    """Gradients of sum(probe * states) through ``mlstm_states`` and through
    the reference cell, one list per path in registry order."""
    grads = []
    for states in (lambda: E.mlstm_states(idx, p),
                   lambda: hstack(mlstm_reference_states(idx, p))):
        for param in p.parameters():
            param.grad[:] = 0.0
        backward(sum_all(hadamard(states(), Tensor2D(probe))))
        grads.append([param.grad.copy() for param in p.parameters()])
    return grads


class TestMLSTMStates:
    """The fused sequence op against the reference cell in ``reference_ops``
    (the cell as a graph of elementary ops, stepped one character at a time)."""

    # T = 1 on the unknown index, repeats (scatter-added input columns), and both
    TEXTS = {"one-unk": [0], "repeats": [1, 2, 1, 1, 3, 2, 1], "mixed": [0, 3, 0, 2, 4, 4]}

    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_states_match_reference_cell(self, name):
        idx, p = self.TEXTS[name], moved_cell(5, 4, seed=21)
        states = E.mlstm_states(idx, p)
        reference = hstack(mlstm_reference_states(idx, p))
        assert states.shape == (4, len(idx))
        assert np.max(np.abs(states.data - reference.data)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_gradients_match_finite_differences(self, name):
        idx, p = self.TEXTS[name], moved_cell(5, 3, seed=22)
        probe = Tensor2D(np.random.default_rng(23).uniform(-1, 1, (3, len(idx))))

        def loss():
            return sum_all(hadamard(E.mlstm_states(idx, p), probe))

        assert max_gradient_error(loss, p.parameters()) < 1e-6

    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_gradients_match_reference_cell(self, name):
        idx, p = self.TEXTS[name], moved_cell(5, 4, seed=24)
        probe = np.random.default_rng(25).uniform(-1, 1, (4, len(idx)))
        fused, reference = fused_and_reference_grads(idx, p, probe)
        for key, a, b in zip(p, fused, reference):
            assert np.max(np.abs(a - b)) <= 1e-12, key

    @pytest.mark.parametrize("start", ["zero", "nonzero"])
    def test_input_gradients_are_the_dense_scatter_bit_for_bit(self, start):
        # per_step's input column t is p's column idx[t], so the same run over
        # the indices 0..T-1 gives each step's input-column gradient on its own
        idx, hd = self.TEXTS["repeats"], 4
        p, per_step = moved_cell(5, hd, seed=40), E.MLSTMParams(len(idx), hd)
        for name, param in p.items():
            per_step[name].data[:] = param.data[:, idx] if name in X_NAMES else param.data
        rng = np.random.default_rng(41)
        probe = Tensor2D(rng.uniform(-1, 1, (hd, len(idx))))
        before = {name: rng.uniform(-1, 1, param.shape) if start == "nonzero"
                  else np.zeros(param.shape) for name, param in p.items()}
        for name, param in p.items():
            param.grad[:] = before[name]
        backward(sum_all(hadamard(E.mlstm_states(idx, p), probe)))
        backward(sum_all(hadamard(E.mlstm_states(range(len(idx)), per_step), probe)))
        for name, param in p.items():
            step_grads = per_step[name].grad
            added = dense_input_scatter(idx, step_grads, 5) if name in X_NAMES else step_grads
            assert np.array_equal(param.grad, before[name] + added), name

    @pytest.mark.parametrize("hidden", [3, 64])
    @pytest.mark.parametrize("text", ["y", "ye", "yea", "aa", "a!a"])
    def test_backward_is_the_step_by_step_oracle_bit_for_bit(self, text, hidden):
        # on texts of 1-3 steps the bits of h_prev @ w_mh.T depend on h_prev's
        # memory layout, so the oracle pins it along with every other product
        vocab = E.CharVocab("aey")  # "!" is the unknown character
        idx = vocab.indices(text)
        probe = np.random.default_rng(44).uniform(-1, 1, (hidden, len(idx)))
        results = []
        for op in (E.mlstm_states, loop_mlstm_states):
            p, rng = moved_cell(vocab.size, hidden, seed=42), np.random.default_rng(43)
            for param in p.values():
                param.grad[:] = rng.uniform(-1, 1, param.shape)
            states = op(idx, p)
            backward(sum_all(hadamard(states, Tensor2D(probe))))
            results.append([states.data] + [param.grad for param in p.values()])
        for name, a, b in zip(["states", *p], *results):
            assert np.array_equal(a, b), name

    def test_unused_input_columns_get_no_gradient(self):
        p = moved_cell(5, 3, seed=26)
        backward(sum_all(E.mlstm_states([1, 1, 3], p)))
        for name in X_NAMES:
            assert np.all(p[name].grad[:, [0, 2, 4]] == 0.0), name
            assert np.all(p[name].grad[:, [1, 3]] != 0.0), name

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            E.mlstm_states([], moved_cell(5, 3, seed=27))

    @settings(max_examples=30, deadline=None)
    @given(text=st.text(alphabet="abcz ", min_size=1, max_size=8),
           seed=st.integers(0, 2**16))
    def test_property_forward_and_backward_match_reference_cell(self, text, seed):
        vocab = E.CharVocab("abc ")  # "z" is the unknown character
        idx, p = vocab.indices(text), moved_cell(vocab.size, 3, seed=seed)
        states = E.mlstm_states(idx, p)
        reference = hstack(mlstm_reference_states(idx, p))
        assert np.max(np.abs(states.data - reference.data)) <= 1e-12
        probe = np.random.default_rng(seed).uniform(-1, 1, (3, len(idx)))
        fused, ref_grads = fused_and_reference_grads(idx, p, probe)
        for key, a, b in zip(p, fused, ref_grads):
            assert np.max(np.abs(a - b)) <= 1e-12, key


class TestCharEncode:
    def test_mean_is_bit_identical_to_reference_cell(self):
        vocab = E.CharVocab("abcd ")
        p = moved_cell(vocab.size, 6, seed=30)
        for text in ("a", "abba dcab", "zebra cab"):
            reference = mlstm_reference_states(vocab.indices(text), p)
            expected = np.mean([h.data.ravel() for h in reference], axis=0)
            assert np.array_equal(E.char_encode(text, p, vocab), expected), text
            last = E.char_encode(text, p, vocab, reduce="last")
            assert np.array_equal(last, reference[-1].data.ravel()), text

    @pytest.mark.parametrize("hidden", [3, 8, 64])
    @pytest.mark.parametrize("reduce", E.REDUCE_MODES)
    def test_batch_is_bit_identical_to_each_text_alone(self, reduce, hidden):
        vocab = E.CharVocab("abcd ")
        p = moved_cell(vocab.size, hidden, seed=32)
        texts = ["abba dcab", "", "a", "zebra cab", "dd", "", "cab abba dcab a", "b"]
        batch = E.char_features(texts, p, vocab, reduce)
        assert batch.shape == (len(texts), hidden)
        for text, row in zip(texts, batch):
            states = [h.data.ravel() for h in mlstm_reference_states(vocab.indices(text), p)]
            expected = (np.zeros(hidden) if not text else np.mean(states, axis=0)
                        if reduce == "mean" else states[-1])
            assert np.array_equal(row, expected), text
            assert np.array_equal(row, E.char_encode(text, p, vocab, reduce)), text
        utts = [Utterance("c", k, text, "x") for k, text in enumerate(texts)]
        assert np.array_equal(E.CharMLSTMEncoder(p, vocab, reduce).encode(utts), batch)

    def test_builds_no_graph_node(self, monkeypatch):
        calls = []
        original = Tensor2D._result

        def counting(cls, *args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(Tensor2D, "_result", classmethod(counting))
        vocab = E.CharVocab("abcd ")
        E.char_encode("abba dcab", moved_cell(vocab.size, 4, seed=31), vocab)
        assert calls == []
        E.mlstm_states([1, 2], moved_cell(vocab.size, 4, seed=31))
        assert calls == [1]  # the counter does count graph nodes

    def test_single_char_is_first_state(self):
        p = E.MLSTMParams.create(96, 5, seed=3)
        vocab = E.CharVocab()
        states_mean = E.char_encode("a", p, vocab, reduce="mean")
        last = E.char_encode("a", p, vocab, reduce="last")
        assert np.array_equal(states_mean, last)

    def test_zero_params_zero_vector(self):
        p = E.MLSTMParams(96, 4)
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
        p = E.MLSTMParams(96, 4)
        with pytest.raises(ValueError):
            E.char_encode("a", p, E.CharVocab(), reduce="max")


class Fixed(E.Encoder):
    """An encoder that gives every utterance the vector ``vec``."""

    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=np.float64)
        self.dim = self.vec.size

    def encode_utterance(self, utt):
        return self.vec


class TestConcat:
    utterance = Utterance("c", 0, "hi", "x")

    def test_order_char_first(self):
        enc = E.ConcatEncoder(Fixed([1.0, 2.0]), Fixed([3.0]))
        assert enc.dim == 3
        assert enc.encode([self.utterance])[0].tolist() == [1, 2, 3]

    def test_zero_plus_zero(self):
        enc = E.ConcatEncoder(Fixed(np.zeros(3)), Fixed(np.zeros(2)))
        out = enc.encode([self.utterance])[0]
        assert out.shape == (5,) and np.all(out == 0.0)

    def test_full_scale_dims(self):
        enc = E.ConcatEncoder(Fixed(np.zeros(4096)), Fixed(np.zeros(300)))
        assert enc.dim == 4396 and enc.encode([self.utterance]).shape == (1, 4396)


class TestPrecomputed:
    def test_round_trip(self, tmp_path):
        feats = {("c1", 0): np.array([1.5, -2.0]), ("c1", 1): np.array([0.0, 3.25])}
        path = tmp_path / "feat.tsv"
        write_feature_file(path, feats)
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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, bad):
        path = tmp_path / "feat.tsv"
        path.write_text(f"c1\t0\t1.0,2.0\nc1\t1\t{bad},1.0\n")
        with pytest.raises(ValueError, match=r"feat\.tsv:2: non-finite"):
            E.load_feature_file(path)

    def test_files_of_different_dims_are_refused(self, tmp_path):
        paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        write_feature_file(paths[0], {("c1", 0): [1.0, 2.0]})
        write_feature_file(paths[1], {("c1", 1): [1.0, 2.0, 3.0]})
        with pytest.raises(ValueError, match=f"{re.escape(str(paths[1]))}: features of dim 3"):
            E.PrecomputedEncoder.from_files(paths)


class TestFileFeatures:
    """Precomputed features are stored by their files' paths and sha256
    digests, and verified with the stored dim when the encoder is rebuilt."""

    utterance = Utterance("c1", 1, "hi", "x")

    def stored(self, tmp_path):
        path = tmp_path / "feat.tsv"
        write_feature_file(path, {("c1", 0): [1.0, 2.0], ("c1", 1): [0.5, -3.0]})
        encoder = E.PrecomputedEncoder.from_files([path])
        return path, json.loads(json.dumps(E.encoder_to_config(encoder)))

    def test_config_holds_paths_and_sha256(self, tmp_path):
        path, cfg = self.stored(tmp_path)
        assert cfg == {"type": "precomputed", "paths": [str(path)], "dim": 2,
                       "sha256": [hashlib.sha256(path.read_bytes()).hexdigest()]}
        rebuilt = E.encoder_from_config(cfg)
        assert rebuilt.encode_utterance(self.utterance).tolist() == [0.5, -3.0]
        assert E.encoder_to_config(rebuilt) == cfg

    def test_rewritten_file_is_refused(self, tmp_path):
        path, cfg = self.stored(tmp_path)
        write_feature_file(path, {("c1", 0): [-1.0, -2.0], ("c1", 1): [-0.5, 3.0]})
        with pytest.raises(CheckpointError, match=re.escape(f"feature files {[str(path)]} changed")):
            E.encoder_from_config(cfg)

    def test_config_without_digests_checks_only_the_dim(self, tmp_path):
        path, cfg = self.stored(tmp_path)
        del cfg["sha256"]
        write_feature_file(path, {("c1", 1): [-0.5, 3.0]})  # unverifiable, as before digests
        assert E.encoder_from_config(cfg).encode_utterance(self.utterance).tolist() == [-0.5, 3.0]
        write_feature_file(path, {("c1", 1): [-0.5, 3.0, 1.0]})
        with pytest.raises(CheckpointError, match="have dim 3, the checkpoint stores 2"):
            E.encoder_from_config(cfg)


class TestCharLM:
    def test_training_reduces_loss(self):
        texts = ["abab abab", "baba baba", "abba abba"] * 4
        vocab = char_vocab_from_text(texts)
        params, losses = E.train_char_lm(
            texts, vocab, hidden_dim=8, epochs=4, learning_rate=5e-3, seed=1,
            max_chars=16,
        )
        assert params.hidden_dim == 8
        assert losses[-1] < losses[0]

    def test_one_forward_per_text_matches_per_step_reference(self):
        texts = ["abab ba", "x", "cab", "ba ab abba abab", "ab", "bbc a"]
        vocab = E.CharVocab("abc ")
        kwargs = dict(hidden_dim=5, epochs=2, learning_rate=1e-2, seed=4, max_chars=9)
        params, losses = E.train_char_lm(texts, vocab, **kwargs)
        ref_params, ref_losses = per_step_char_lm(texts, vocab, **kwargs)
        assert np.max(np.abs(np.array(losses) - ref_losses)) <= 1e-12
        for name, p in params.items():
            assert np.max(np.abs(p.data - ref_params[name].data)) <= 1e-12, name
        assert not np.allclose(params["w_mx"].data,
                               E.MLSTMParams.create(vocab.size, 5, seed=4)["w_mx"].data)

    # an unknown character ("~", index 0), a 2-character text, a text cut by
    # max_chars 9 (its "|" is then last, and "uthere" is never fed in), and
    # "z", which occurs only as a text's last character
    LM_TEXTS = ["ab~ba", "ab", "abcabcab|cut here", "caz", "bca ab"]
    LM_VOCAB = E.CharVocab("abcz |uther")
    LM_KWARGS = dict(epochs=2, learning_rate=1e-2, seed=5, max_chars=9)

    @pytest.mark.parametrize("hidden", [5, 64])
    def test_fit_is_the_full_column_fit_bit_for_bit(self, hidden):
        params, losses = E.train_char_lm(self.LM_TEXTS, self.LM_VOCAB, hidden, **self.LM_KWARGS)
        ref_params, ref_losses = full_column_char_lm(self.LM_TEXTS, self.LM_VOCAB, hidden,
                                                     **self.LM_KWARGS)
        assert np.array_equal(losses, ref_losses)
        assert list(params) == list(ref_params)
        for name, p in params.items():
            assert np.array_equal(p.data, ref_params[name].data), name

    def test_unused_input_columns_keep_their_initial_values(self):
        vocab = self.LM_VOCAB
        params, _ = E.train_char_lm(self.LM_TEXTS, vocab, 5, **self.LM_KWARGS)
        initial = E.MLSTMParams.create(vocab.size, 5, seed=self.LM_KWARGS["seed"])
        fed = vocab.indices("abc~ ")
        unused = [i for i in range(vocab.size) if i not in fed]
        assert vocab.indices("z|uther") == sorted(unused)
        for name, p in params.items():
            if name in X_NAMES:
                assert np.array_equal(p.data[:, unused], initial[name].data[:, unused]), name
                assert np.all(p.data[:, fed] != initial[name].data[:, fed]), name
            else:
                assert np.all(p.data != initial[name].data), name

    def test_needs_usable_text(self):
        with pytest.raises(ValueError):
            E.train_char_lm(["a"], E.CharVocab("a"), hidden_dim=4)

    @pytest.mark.parametrize("setting", [{"learning_rate": 0.0}, {"learning_rate": -0.01},
                                         {"epochs": 0}])
    def test_refuses_a_senseless_setting(self, setting):
        with pytest.raises(ValueError, match="must be positive"):
            E.train_char_lm(["ab"], E.CharVocab("ab"), hidden_dim=4, **setting)


def per_step_char_lm(texts, vocab, hidden_dim, epochs, learning_rate, seed, max_chars):
    """Reference char-LM training: the cell stepped one character at a time,
    a softmax and a loss node per step summed with ``add``, and the summed
    gradient divided by the number of steps before each Adam step."""
    params = E.MLSTMParams.create(vocab.size, hidden_dim, seed=seed)
    rng = np.random.default_rng(seed)
    out_w, out_b = init_params(
        rng, {"out_w": (vocab.size, hidden_dim), "out_b": vocab.size}, prefix="lm."
    ).values()
    trainable = params.parameters() + [out_w, out_b]
    adam = Adam(trainable, learning_rate=learning_rate)
    usable = [t[:max_chars] for t in texts if len(t) >= 2]
    losses = []
    for _ in range(epochs):
        epoch_loss = 0.0
        for k in rng.permutation(len(usable)):
            idxs = vocab.indices(usable[k])
            h = Tensor2D(np.zeros((hidden_dim, 1)))
            c = Tensor2D(np.zeros((hidden_dim, 1)))
            loss = None
            for pos in range(len(idxs) - 1):
                x = np.zeros((vocab.size, 1))
                x[idxs[pos], 0] = 1.0
                h, c = mlstm_step(Tensor2D(x), h, c, params)
                probs = softmax_columns(add(matmul(out_w, h), out_b))
                step_loss = cross_entropy(probs, [idxs[pos + 1]])
                loss = step_loss if loss is None else add(loss, step_loss)
            adam.zero_grad()
            backward(loss)
            for p in trainable:
                p.grad /= len(idxs) - 1
            adam.step()
            epoch_loss += loss.item() / (len(idxs) - 1)
        losses.append(epoch_loss / len(usable))
    return params, losses


ROUND_TRIP_UTTERANCES = [Utterance("c", i, text, "x")
                         for i, text in enumerate(["ab c", "dab!", "", "Zz top", "c"])]


def round_trip_encoder(kind):
    words = sorted({tok for u in ROUND_TRIP_UTTERANCES for tok in E.tokenize(u.text)})
    if kind == "word-inline":
        return E.WordMeanEncoder(random_table(words[:-1], 3, seed=2))
    if kind == "word-onehot":
        return E.WordMeanEncoder(E.EmbeddingTable.one_hot(words),
                                 {"kind": "onehot", "vocabulary": words})
    vocab = E.CharVocab("abcd")
    params = E.MLSTMParams.create(vocab.size, 3, seed=3)
    rng = np.random.default_rng(3)
    for p in params.parameters():
        p.data += rng.normal(0.0, 0.5, p.shape)  # biases away from zero too
    if kind == "char":
        return E.CharMLSTMEncoder(params, vocab, reduce="last")
    return E.ConcatEncoder(E.CharMLSTMEncoder(params, vocab), round_trip_encoder("word-onehot"))


class TestEncoderConfigRoundTrip:
    """encoder_to_config -> JSON -> encoder_from_config rebuilds the encoder."""

    @pytest.mark.parametrize("kind", ["word-inline", "word-onehot", "char", "concat"])
    def test_same_features_and_same_config(self, kind, tmp_path):
        def written(config) -> str:
            write_json_file(tmp_path / "config.json", config)
            return (tmp_path / "config.json").read_text(encoding="utf-8")

        encoder = round_trip_encoder(kind)
        stored = written(E.encoder_to_config(encoder))
        rebuilt = E.encoder_from_config(json.loads(stored, object_hook=array_values))
        assert rebuilt.dim == encoder.dim
        assert np.array_equal(rebuilt.encode(ROUND_TRIP_UTTERANCES),
                              encoder.encode(ROUND_TRIP_UTTERANCES))
        assert written(E.encoder_to_config(rebuilt)) == stored


class TestFileWordTable:
    """A file-backed word table is stored by its path and sha256, and
    verified with the stored dim when the encoder is rebuilt."""

    utterance = Utterance("c", 0, "ab dab", "x")

    def stored(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("ab 1.0 2.0\ndab 3.0 -4.0\n")
        return path, json.loads(json.dumps(E.encoder_to_config(E.WordMeanEncoder.from_file(path))))

    def test_source_holds_path_and_sha256(self, tmp_path):
        path, cfg = self.stored(tmp_path)
        assert cfg["source"] == {"kind": "file", "path": str(path),
                                 "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        rebuilt = E.encoder_from_config(cfg)
        assert np.array_equal(rebuilt.encode([self.utterance]), [[2.0, -1.0]])
        assert E.encoder_to_config(rebuilt) == cfg

    def test_rewritten_file_is_refused(self, tmp_path):
        path, cfg = self.stored(tmp_path)
        path.write_text("ab 1.0 2.0\ndab 3.0 4.0\n")
        with pytest.raises(CheckpointError, match=f"word table {re.escape(str(path))} changed"):
            E.encoder_from_config(cfg)

    def test_source_without_a_digest_still_loads(self, tmp_path):
        path, cfg = self.stored(tmp_path)
        del cfg["source"]["sha256"]
        path.write_text("ab 1.0 2.0\ndab 3.0 4.0\n")  # unverifiable, as before digests
        assert np.array_equal(E.encoder_from_config(cfg).encode([self.utterance]), [[2.0, 3.0]])

    @pytest.mark.parametrize("digest", [True, False])
    def test_dim_other_than_stored_is_refused(self, tmp_path, digest):
        path, cfg = self.stored(tmp_path)
        path.write_text("ab 1.0 2.0 0.0\n")
        if digest:
            cfg["source"]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            del cfg["source"]["sha256"]
        with pytest.raises(CheckpointError, match=f"word table {re.escape(str(path))} has dim 3"):
            E.encoder_from_config(cfg)
