from collections import Counter, defaultdict

import numpy as np
import pytest

from ctxda.corpus import (
    Conversation,
    SyntheticSpec,
    TagVocabulary,
    Utterance,
    bayes_nocontext_accuracy,
    build_all_windows,
    generate_synthetic,
    load_jsonl,
    load_swda_csv,
    normalize_damsl_tag,
    write_jsonl,
)
from ctxda.encoders import EmbeddingTable, WordMeanEncoder
from baselines import majority_baseline


def conv(conv_id, pairs):
    return Conversation(
        conv_id,
        [Utterance(conv_id, i, text, tag) for i, (text, tag) in enumerate(pairs)],
    )


class TestConversation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Conversation("c", [])

    def test_rejects_gapped_indices(self):
        with pytest.raises(ValueError):
            Conversation("c", [Utterance("c", 0, "a", "x"), Utterance("c", 2, "b", "y")])


class TestTagVocabulary:
    def test_bijective(self):
        vocab = TagVocabulary(["b", "a", "sd"])
        assert vocab.index_of("a") == 1
        assert vocab.tag_of(1) == "a"
        assert len(vocab) == 3

    def test_unknown_tag(self):
        with pytest.raises(KeyError):
            TagVocabulary(["a"]).index_of("zz")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            TagVocabulary(["a", "a"])

    def test_save_load_stable_indices(self, tmp_path):
        vocab = TagVocabulary(["sv", "sd", "b", "ny"])
        path = tmp_path / "tags.txt"
        vocab.save(path)
        loaded = TagVocabulary.load(path)
        assert loaded.tags == vocab.tags
        for tag in vocab.tags:
            assert loaded.index_of(tag) == vocab.index_of(tag)


class TestJsonl:
    def test_one_line_two_utterances(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "c1", "utterances": [{"text": "hi", "act_tag": "fp"}, '
            '{"text": "yes", "act_tag": "ny"}]}\n'
        )
        convs = load_jsonl(path)
        assert len(convs) == 1 and len(convs[0]) == 2
        assert convs[0].utterances[1].index == 1
        assert convs[0].utterances[1].act_tag == "ny"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert load_jsonl(path) == []

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        line = '{"id": "dup", "utterances": [{"text": "a", "act_tag": "x"}]}\n'
        path.write_text(line + line)
        with pytest.raises(ValueError, match="dup"):
            load_jsonl(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "utterances": [{"text": "a", "act_tag": "x"}]}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_jsonl(path)

    def test_empty_conversation_rejected_with_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "hollow", "utterances": []}\n')
        with pytest.raises(ValueError, match="hollow"):
            load_jsonl(path)

    def test_round_trip(self, tmp_path):
        convs = [
            conv("a", [("Hi there.", "fp"), ("Yes.", "ny")]),
            conv("b", [("What?", "qw")]),
        ]
        path = tmp_path / "out.jsonl"
        write_jsonl(path, convs)
        loaded = load_jsonl(path)
        assert len(loaded) == 2
        for orig, back in zip(convs, loaded):
            assert orig.id == back.id
            for u1, u2 in zip(orig.utterances, back.utterances):
                assert (u1.text, u1.act_tag, u1.index) == (u2.text, u2.act_tag, u2.index)


class TestDamslNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("sd", "sd"),
            ("sv^e", "sv"),
            ("qy^d", "qy^d"),
            ("qw^d", "qw^d"),
            ("b^m", "b^m"),
            ("nn^e", "ng"),
            ("ny^e", "na"),
            ("qr", "qy"),
            ("fe", "ba"),
            ("oo", "oo_co_cc"),
            ("cc", "oo_co_cc"),
            ("fx", "sv"),
            ("aap", "aap_am"),
            ("arp", "arp_nd"),
            ("fo", 'fo_o_fw_"_by_bc'),
            ('"', 'fo_o_fw_"_by_bc'),
            ("sd(^q)", "sd"),
            ("sd,qy^d", "sd"),
            ("ny^e;b", "na"),
            ("+", "+"),
            ("b@", "b"),
        ],
    )
    def test_clustering(self, raw, expected):
        assert normalize_damsl_tag(raw) == expected


SWDA_HEADER = "conversation_no,caller,act_tag,text\n"


class TestSwdaCsv:
    def write(self, tmp_path, name, rows):
        path = tmp_path / name
        path.write_text(SWDA_HEADER + "".join(rows))
        return path

    def test_loads_and_normalizes(self, tmp_path):
        self.write(
            tmp_path,
            "sw_0001.utt.csv",
            ["4325,A,qy,Do you like it? /\n", "4325,B,ny^e,Yes. /\n"],
        )
        convs = load_swda_csv(tmp_path)
        assert len(convs) == 1
        assert convs[0].id == "4325"
        assert [u.act_tag for u in convs[0].utterances] == ["qy", "na"]

    def test_continuation_joined_to_same_caller(self, tmp_path):
        self.write(
            tmp_path,
            "sw_0002.utt.csv",
            [
                "4326,A,sd,So we were going --\n",
                "4326,B,b,Uh-huh. /\n",
                "4326,A,+,-- to the lake. /\n",
            ],
        )
        convs = load_swda_csv(tmp_path)
        assert len(convs[0]) == 2
        assert convs[0].utterances[0].text == "So we were going -- -- to the lake. /"

    def test_tag_map_override(self, tmp_path):
        self.write(tmp_path, "sw_0004.utt.csv", ["4328,A,foo,Hello. /\n"])
        convs = load_swda_csv(tmp_path, tag_map={"foo": "sd"})
        assert convs[0].utterances[0].act_tag == "sd"

    def test_missing_directory_contents(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_swda_csv(tmp_path / "nothing")


class TestBuildWindows:
    def encoder(self):
        table = EmbeddingTable.one_hot(["a", "b", "c", "d"])
        return WordMeanEncoder(table)

    def test_three_utterance_conversation_window_at_t2(self):
        c = conv("x", [("a", "t1"), ("b", "t2"), ("c", "t3")])
        vocab = TagVocabulary(["t1", "t2", "t3"])
        windows = build_all_windows([c], 4, self.encoder(), vocab)
        w = windows[2]
        assert w.pad_mask == [False, False, True, True, True]
        assert np.all(w.features[0] == 0.0) and np.all(w.features[1] == 0.0)
        assert w.features[2].tolist() == [1, 0, 0, 0]
        assert w.label == vocab.index_of("t3")

    def test_first_window_all_pads_but_current(self):
        c = conv("x", [("a", "t1"), ("b", "t1")])
        vocab = TagVocabulary(["t1"])
        w = build_all_windows([c], 4, self.encoder(), vocab)[0]
        assert w.pad_mask == [False, False, False, False, True]

    def test_pad_count_over_ten_utterances(self):
        pairs = [("a", "t")] * 10
        c = conv("x", pairs)
        vocab = TagVocabulary(["t"])
        windows = build_all_windows([c], 4, self.encoder(), vocab)
        assert len(windows) == 10
        pads = sum(not m for w in windows for m in w.pad_mask)
        assert pads == 4 + 3 + 2 + 1

    def test_windows_never_cross_conversations(self):
        convs = [conv("one", [("a", "t"), ("b", "t")]), conv("two", [("c", "t")])]
        vocab = TagVocabulary(["t"])
        windows = build_all_windows(convs, 4, self.encoder(), vocab)
        assert len(windows) == 3
        assert [w.conversation_id for w in windows] == ["one", "one", "two"]
        # first window of "two" must not see "one"'s utterances
        assert windows[2].pad_mask == [False, False, False, False, True]

    @staticmethod
    def per_slot_windows(c, n, encoder):
        """The features and pad mask of each window of ``c``, slot by slot."""
        encoded = [encoder.encode([u])[0] for u in c.utterances]
        out = []
        for t in range(len(c)):
            slots = [(np.zeros(encoder.dim), False) if k < 0 else (encoded[k], True)
                     for k in range(t - n, t + 1)]
            out.append(([f for f, _ in slots], [m for _, m in slots]))
        return out

    @pytest.mark.parametrize("n", range(6))
    def test_same_windows_as_a_per_slot_loop(self, n):
        words = [f"w{k}" for k in range(8)]
        encoder = WordMeanEncoder(EmbeddingTable.one_hot(words))
        convs = [conv(f"c{length}", [(" ".join(words[t:t + 2]), "t") for t in range(length)])
                 for length in range(1, 9)]
        windows = build_all_windows(convs, n, encoder, TagVocabulary(["t"]))
        expected = [w for c in convs for w in self.per_slot_windows(c, n, encoder)]
        assert len(windows) == len(expected) == sum(range(1, 9))
        for w, (features, mask) in zip(windows, expected):
            assert w.pad_mask == mask
            assert len(w.features) == len(features) == n + 1
            assert all(np.array_equal(a, b) for a, b in zip(w.features, features))

    def test_encodes_the_split_in_one_call(self):
        encoder, calls = self.encoder(), []
        encode = encoder.encode
        encoder.encode = lambda utts: (calls.append([u.text for u in utts]), encode(utts))[1]
        convs = [conv("one", [("a", "t"), ("b c", "t")]), conv("two", [("d", "t")])]
        windows = build_all_windows(convs, 1, encoder, TagVocabulary(["t"]))
        assert calls == [["a", "b c", "d"]]
        assert [w.features[-1].tolist() for w in windows] == [
            [1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1]]

    def test_token_count_recorded(self):
        c = conv("x", [("a b c.", "t")])
        vocab = TagVocabulary(["t"])
        w = build_all_windows([c], 0, self.encoder(), vocab)[0]
        assert w.n_tokens == 4  # "a", "b", "c", "."


class TestMajorityBaseline:
    def test_single_class(self):
        assert majority_baseline(["x", "x"], ["x", "x", "x"]) == 100.0

    def test_uniform_two_class(self):
        assert majority_baseline(["a", "a", "b"], ["a", "b", "a", "b"]) == 50.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_baseline([], ["a"])


class TestSynthetic:
    def test_seed_reproducible(self):
        spec = SyntheticSpec(seed=5)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert len(a) == len(b)
        for c1, c2 in zip(a, b):
            for u1, u2 in zip(c1.utterances, c2.utterances):
                assert (u1.text, u1.act_tag) == (u2.text, u2.act_tag)

    def test_zero_conversations(self):
        assert generate_synthetic(SyntheticSpec(n_conversations=0)) == []

    def test_transition_must_cover_all_classes(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_classes=3, transition={0: 1, 1: 2})

    def test_transition_keys_may_be_decimal_strings(self):
        spec = SyntheticSpec(n_classes=3, transition={"0": 1, "1": 2, "2": 0})
        assert spec.transition == {0: 1, 1: 2, 2: 0}

    @pytest.mark.parametrize("transition", [
        {0: 1, 1: 2, 2: 7},            # a value outside the classes
        {0: 1, 1: 2, 2: -1},
        {0: 1, 1: 2, 2: "0"},          # a value that is not a class index
        {0: 1, 1: 2, 2: 0, 3: 0},      # a key outside the classes
        {0: 1, 1: 2, 2: 0, "x": 0},
        {"0": 1, "1": 2, "02": 0},     # not the decimal form of an index
    ])
    def test_transition_naming_no_class_is_refused(self, transition):
        with pytest.raises(ValueError, match="outside 0..2"):
            SyntheticSpec(n_classes=3, transition=transition)

    def test_previous_mode_label_recoverable_from_previous_text(self):
        spec = SyntheticSpec(mode="previous", n_conversations=10, seed=6)
        for c in generate_synthetic(spec):
            for t in range(1, len(c)):
                prev_word = c.utterances[t - 1].text.split()[0]
                prev_class = int(prev_word[1 : prev_word.index("_")])
                want = spec.tag_name(spec.transition[prev_class])
                assert c.utterances[t].act_tag == want

    def test_previous_mode_own_text_class_differs_from_label_sometimes(self):
        spec = SyntheticSpec(mode="previous", n_conversations=10, seed=7)
        mismatches = 0
        for c in generate_synthetic(spec):
            for u in c.utterances:
                own_class = int(u.text.split()[0][1 : u.text.split()[0].index("_")])
                if spec.tag_name(own_class) != u.act_tag:
                    mismatches += 1
        assert mismatches > 0

    def test_current_mode_label_matches_own_class(self):
        spec = SyntheticSpec(mode="current", n_conversations=5, seed=8)
        for c in generate_synthetic(spec):
            for u in c.utterances:
                own_class = int(u.text.split()[0][1 : u.text.split()[0].index("_")])
                assert u.act_tag == spec.tag_name(spec.transition[own_class])

    def test_bayes_bound_matches_enumerated_marginal(self):
        # oracle: the no-context optimum in "previous" mode is the majority
        # label; enumerate a large draw and compare its majority frequency
        spec = SyntheticSpec(mode="previous", n_conversations=400,
                             conversation_length=14, seed=9)
        counts = Counter(
            u.act_tag for c in generate_synthetic(spec) for u in c.utterances
        )
        total = sum(counts.values())
        empirical = max(counts.values()) / total
        assert bayes_nocontext_accuracy(spec) == pytest.approx(empirical, abs=0.02)

    def test_bayes_bound_previous_analytic_value(self):
        spec = SyntheticSpec(mode="previous", n_classes=5, conversation_length=14)
        # position 0 always carries transition(start); later positions uniform:
        # (1 + 13/5) / 14
        assert bayes_nocontext_accuracy(spec) == pytest.approx((1 + 13 / 5) / 14)

    def test_bayes_bound_mixed_analytic_value(self):
        spec = SyntheticSpec(mode="mixed", n_classes=5, conversation_length=14)
        # self-informative halves are certain; responses carry
        # transition(previous class), position 0 included, so they score the
        # "previous"-mode majority share (1 + 13/5) / 14
        assert bayes_nocontext_accuracy(spec) == pytest.approx(0.5 + 0.5 * (1 + 13 / 5) / 14)

    def test_bayes_bound_mixed_matches_best_text_only_rule(self):
        # oracle: the best rule that sees only the text maps each distinct
        # text to its majority label; score it on a large draw
        spec = SyntheticSpec(mode="mixed", n_conversations=1000,
                             conversation_length=14, seed=12)
        by_text = defaultdict(Counter)
        for c in generate_synthetic(spec):
            for u in c.utterances:
                by_text[u.text][u.act_tag] += 1
        best = sum(tags.most_common(1)[0][1] for tags in by_text.values())
        total = sum(sum(tags.values()) for tags in by_text.values())
        assert bayes_nocontext_accuracy(spec) == pytest.approx(best / total, abs=0.01)

    def test_bayes_bound_current_is_one(self):
        assert bayes_nocontext_accuracy(SyntheticSpec(mode="current")) == 1.0

    def test_mixed_mode_short_responses_exist(self):
        spec = SyntheticSpec(mode="mixed", n_conversations=10, seed=10)
        convs = generate_synthetic(spec)
        lengths = {len(u.text.split()) for c in convs for u in c.utterances}
        assert 1 in lengths and max(lengths) >= 3

    def test_vocabulary_covers_generated_words(self):
        spec = SyntheticSpec(mode="mixed", n_conversations=10, seed=11)
        vocab = set(spec.vocabulary())
        words = {w for c in generate_synthetic(spec) for u in c.utterances
                 for w in u.text.split()}
        assert words <= vocab
