import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxda.analysis import (
    EvalRecord,
    accuracy,
    attention_profile_mean,
    confidence_stats,
    ensemble_average,
    failure_pairs,
    load_records,
    pct,
    rescue_pairs,
    short_utterance_slice,
    svg_bar_chart,
    svg_confidence_chart,
    write_records,
)
from reference_ops import record_columns, write_records_one_by_one

TAGS = ["sd", "sv", "b", "ny", "aa"]


def dist(peak, n=5, p=0.6):
    rest = (1.0 - p) / (n - 1)
    return [p if i == peak else rest for i in range(n)]


def record(gold, nc, wc, attention=None, n_tokens=2, idx=0):
    return EvalRecord(
        conversation_id="c0",
        utterance_index=idx,
        gold=gold,
        nc_pred=nc,
        wc_pred=wc,
        nc_probs=dist(TAGS.index(nc)),
        wc_probs=dist(TAGS.index(wc), p=0.8),
        attention=attention,
        n_tokens=n_tokens,
    )


class TestEvalRecord:
    def test_rejects_bad_distribution(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records_one_by_one(path, [EvalRecord("c", 0, "sd", "sd", "sd", [0.5, 0.6],
                                                   [0.5, 0.5])])
        with pytest.raises(ValueError, match=":1: .*nc_probs is not a finite"):
            load_records(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        for attention in ([0.5, 0.2, 0.1, 0.1, 0.1], None):
            records = [record("sd", "sd", "sd", attention=attention),
                       record("sv", "sd", "sv", attention=attention, idx=1)]
            write_records(path, record_columns(records))
            loaded = load_records(path)
            assert loaded == records
            assert loaded[1].attention == attention

    @pytest.mark.parametrize("field", ["nc_probs", "wc_probs", "attention"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, tmp_path, field, bad):
        fields = {"nc_probs": [dist(0)], "wc_probs": [dist(1)], "attention": [[0.5, 0.5]]}
        fields[field][0][0] = bad
        columns = {**record_columns([record("sd", "sd", "sv")]), **fields}
        with pytest.raises(ValueError, match=f"{field} holds a non-finite number"):
            write_records(tmp_path / "records.jsonl", columns)
        assert not (tmp_path / "records.jsonl").exists()

    @pytest.mark.parametrize("attention", [[0.6, 0.6], [1.2, -0.2], [0.3, 0.3],
                                           [-5e-7, 1.0000005]])
    def test_rejects_attention_off_the_simplex(self, tmp_path, attention):
        path = tmp_path / "records.jsonl"
        good = EvalRecord("c", 0, "sd", "sd", "sd", dist(0), dist(0), attention=[0.5, 0.5])
        write_records_one_by_one(path, [good, EvalRecord("c", 1, "sd", "sd", "sd", dist(0),
                                                         dist(0), attention=attention)])
        with pytest.raises(ValueError, match=":2: .*attention is not a finite"):
            load_records(path)

    def test_write_refuses_a_record_made_non_finite(self, tmp_path):
        columns = record_columns([record("sd", "sd", "sd")])
        columns["wc_probs"][0][0] = math.nan
        with pytest.raises(ValueError):
            write_records(tmp_path / "records.jsonl", columns)

    # ids holding quotes, backslashes, control and non-ASCII characters; floats
    # whose shortest repr is in exponent form, the least subnormal, 0 and 1
    ODD_IDS = ["c\"1", "c\\2", "tab\there", "çonv", "会話", "emoji 😀", "\u2028"]

    @pytest.mark.parametrize("attention", [True, False], ids=["attention", "no-attention"])
    def test_write_matches_the_one_by_one_writer(self, tmp_path, attention):
        probs = [[1e-05, 0.99999], [5e-324, 1.0], [0.0, 1.0], [0.1, 0.9], [1.0, 0.0],
                 [0.3333333333333333, 0.6666666666666666], [2.5e-17, 1.0]]
        records = [EvalRecord(cid, i * 7, "sd", "ñö" if i % 2 else "sd", "b\"q", p, p[::-1],
                              p if attention else None, i)
                   for i, (cid, p) in enumerate(zip(self.ODD_IDS, probs))]
        want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
        write_records_one_by_one(want, records)
        write_records(got, record_columns(records))
        assert got.read_bytes() == want.read_bytes()
        columns = record_columns(records)  # as eval passes them: arrays
        for name in ("nc_probs", "wc_probs", "attention") if attention else ("nc_probs",):
            columns[name] = np.array(columns[name])
        write_records(got, columns)
        assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(st.tuples(st.text(max_size=6), st.integers(0, 10**6), st.text(max_size=3),
                                   st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)),
                         min_size=1, max_size=5))
    def test_property_write_matches_the_one_by_one_writer(self, tmp_path_factory, rows):
        records = [EvalRecord(cid, i, tag, tag, tag, p, p, p, i % 4) for cid, i, tag, p in rows]
        out = tmp_path_factory.mktemp("records")
        write_records_one_by_one(out / "want.jsonl", records)
        write_records(out / "got.jsonl", record_columns(records))
        assert (out / "got.jsonl").read_bytes() == (out / "want.jsonl").read_bytes()

    def test_load_names_the_first_failing_line(self, tmp_path):
        # the line checks and the column checks run apart; the earliest line is named
        path = tmp_path / "records.jsonl"
        lines = [json.dumps(vars(record("sd", "sd", "sd", idx=i))) for i in range(4)]
        lines[3] = lines[3].replace('"n_tokens": 2', '"n_tokens": "2"')
        lines[2] = lines[2].replace("0.6", "0.7", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":3: .*nc_probs is not a finite"):
            load_records(path)
        lines[1] = lines[1].replace('"nc_pred": "sd"', '"nc_pred": "sv"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2: .*predicted tag 'sv' at argmax 0"):
            load_records(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_load_refuses_non_finite_numbers(self, tmp_path, literal):
        path = tmp_path / "records.jsonl"
        write_records(path, record_columns([record("sd", "sd", "sd", attention=[0.5, 0.5]),
                                            record("sd", "sd", "sd", attention=[0.5, 0.5],
                                                   idx=1)]))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("[0.5, 0.5]", f"[0.5, {literal}]")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2:"):
            load_records(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_load_refuses_non_finite_constants_in_any_field(self, tmp_path, literal):
        path = tmp_path / "records.jsonl"
        write_records(path, record_columns([record("sd", "sd", "sd", n_tokens=2)]))
        path.write_text(path.read_text().replace('"n_tokens": 2', f'"n_tokens": {literal}'))
        with pytest.raises(ValueError, match=f":1:.*{literal} is not a JSON number"):
            load_records(path)

    @settings(max_examples=40, deadline=None)
    @given(field=st.sampled_from(["nc_probs", "wc_probs", "attention"]),
           at=st.integers(0, 4), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_property_non_finite_refused_on_build_and_load(self, tmp_path_factory,
                                                           field, at, bad):
        fields = {"nc_probs": dist(0), "wc_probs": dist(1), "attention": dist(2)}
        fields[field][at] = bad
        with pytest.raises(ValueError):
            write_records(tmp_path_factory.mktemp("records") / "records.jsonl",
                          record_columns([EvalRecord("c", 0, "sd", "sd", "sv", **fields)]))
        line = json.dumps({"conversation_id": "c", "utterance_index": 0, "gold": "sd",
                           "nc_pred": "sd", "wc_pred": "sv", "n_tokens": 1, **fields})
        path = tmp_path_factory.mktemp("records") / "records.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=":1:"):
            load_records(path)

    def test_load_pairs_each_tag_with_one_argmax(self, tmp_path):
        # NC and WC share one pairing, and a tie is the first index
        path = tmp_path / "records.jsonl"
        first = EvalRecord("c", 0, "sd", "sd", "sv", [0.5, 0.5], [0.25, 0.75])
        write_records(path, record_columns(
            [first, EvalRecord("c", 1, "sv", "sv", "sd", [0.0, 1.0], [0.6, 0.4])]))
        assert len(load_records(path)) == 2
        write_records(path, record_columns(
            [first, EvalRecord("c", 1, "sv", "sv", "sd", [0.5, 0.5], [0.6, 0.4])]))
        with pytest.raises(ValueError, match=r":2: .*tag 'sv' at argmax 0, .* pairs 0 with 'sd'"):
            load_records(path)

    def test_load_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{}\n")
        with pytest.raises(ValueError, match=":1:"):
            load_records(path)


class TestAccuracy:
    def test_all_correct(self):
        records = [record("sd", "sd", "sd") for _ in range(4)]
        assert accuracy(records) == {"nc": 100.0, "wc": 100.0}

    def test_none_correct(self):
        records = [record("sd", "sv", "b") for _ in range(4)]
        assert accuracy(records) == {"nc": 0.0, "wc": 0.0}

    def test_two_decimal_display_value(self):
        records = [record("sd", "sd", "sd")] * 3311 + [record("sd", "sv", "sv")] * (4186 - 3311)
        acc = accuracy(records)
        assert round(acc["nc"], 2) == 79.1  # displays as 79.10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([])


class TestEnsemble:
    def test_identity_on_identical_inputs(self):
        out = ensemble_average([[0.3, 0.7], [0.3, 0.7]])
        assert np.allclose(out, [0.3, 0.7])

    def test_opposite_one_hots(self):
        assert ensemble_average([[1.0, 0.0], [0.0, 1.0]]).tolist() == [0.5, 0.5]

    def test_argmax_can_flip(self):
        out = ensemble_average([[0.6, 0.4], [0.1, 0.9]])
        assert np.allclose(out, [0.35, 0.65])
        assert int(np.argmax(out)) == 1

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ensemble_average([[1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_batches_average_row_by_row(self):
        out = ensemble_average([[[0.6, 0.4], [1.0, 0.0]], [[0.1, 0.9], [0.0, 1.0]]])
        assert out.tolist() == [[0.35, 0.65], [0.5, 0.5]]

    def test_batches_of_different_sizes_are_refused(self):
        with pytest.raises(ValueError, match="mismatched shapes"):
            ensemble_average([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]]])

    def test_k_copies_is_identity(self):
        out = ensemble_average([[0.25, 0.75]] * 7)
        assert np.allclose(out, [0.25, 0.75])
        assert abs(out.sum() - 1.0) < 1e-12


class TestPct:
    @pytest.mark.parametrize(
        "num,expected",
        [(198, 4.73), (51, 1.22), (33, 0.79), (29, 0.69), (23, 0.55),
         (16, 0.38), (330, 7.88)],
    )
    def test_reference_counts_over_4186(self, num, expected):
        assert pct(num, 4186) == expected

    def test_twelve_over_4186_rounds_up(self):
        # 12/4186 = 0.28667%: correct 2-decimal rounding gives 0.29 (the
        # published table prints 0.28, which no consistent rule reproduces)
        assert pct(12, 4186) == 0.29

    @pytest.mark.parametrize(
        "num,total,expected",
        [(4186, 4186, 100.0), (2093, 4186, 50.0), (4185, 4186, 99.98), (1, 8, 12.5),
         (3, 4, 75.0)],
    )
    def test_value_depends_on_the_denominator(self, num, total, expected):
        # the reference counts round alike for totals 4186-4190; these do not
        # survive a denominator that is off by one
        assert pct(num, total) == expected


class TestFailureRescue:
    def build(self):
        records = []
        records += [record("sv", "sd", "sd") for _ in range(5)]   # both wrong
        records += [record("sd", "sv", "sv") for _ in range(2)]   # both wrong
        records += [record("ny", "b", "ny") for _ in range(3)]    # rescued
        records += [record("b", "aa", "b")]                       # rescued
        records += [record("aa", "aa", "aa") for _ in range(9)]   # nc correct
        return records

    def test_failure_groups_sorted(self):
        rows = failure_pairs(self.build())
        assert [(r.gt, r.nc, r.wc, r.num) for r in rows] == [
            ("sv", "sd", "sd", 5),
            ("sd", "sv", "sv", 2),
        ]
        assert rows[0].pct == pct(5, 20)

    def test_no_shared_failures_empty(self):
        rows = failure_pairs([record("sd", "sd", "sd")])
        assert rows == []

    def test_rescue_summary(self):
        summary = rescue_pairs(self.build())
        assert [(r.gt, r.nc, r.wc, r.num) for r in summary.rows] == [
            ("ny", "b", "ny", 3),
            ("b", "aa", "b", 1),
        ]
        assert summary.total_rescued == 4
        assert summary.pct_rescued == pct(4, 20)

    def test_partition_of_test_set(self):
        records = self.build()
        n_fail = sum(r.num for r in failure_pairs(records))
        summary = rescue_pairs(records)
        n_nc_correct = sum(1 for r in records if r.nc_correct)
        # note: nc-correct includes nc-correct-but-wc-wrong; the three groups
        # below partition the set exactly
        assert n_fail + summary.total_rescued + n_nc_correct == len(records)

    def test_ties_break_lexicographically(self):
        records = [record("sv", "sd", "sd"), record("aa", "b", "b")]
        rows = failure_pairs(records)
        assert [(r.gt) for r in rows] == ["aa", "sv"]


class TestConfidence:
    def test_uniform_confidence(self):
        uniform = [1.0 / 5] * 5
        r = EvalRecord("c", 0, "sd", "sd", "sd", uniform, uniform)
        stats = confidence_stats([r])
        assert stats.nc_mean == pytest.approx(0.2)
        assert stats.wc_mean == pytest.approx(0.2)

    def test_one_hot_confidence(self):
        onehot = [1.0, 0.0, 0.0, 0.0, 0.0]
        r = EvalRecord("c", 0, "sd", "sd", "sd", onehot, onehot)
        stats = confidence_stats([r])
        assert stats.nc_mean == 1.0 and stats.wc_median == 1.0

    def test_mixed_mean_hand_computed(self):
        records = [record("sd", "sd", "sd"), record("sv", "sv", "sv")]
        stats = confidence_stats(records)
        assert stats.nc_mean == pytest.approx(0.6)   # both nc dists peak at 0.6
        assert stats.wc_mean == pytest.approx(0.8)
        assert len(stats.series) == 2
        assert stats.series[0]["wc_confidence"] == pytest.approx(0.8)


class TestAttentionProfiles:
    def test_uniform_profiles(self):
        records = [record("sd", "sd", "sd", attention=[0.2] * 5) for _ in range(3)]
        assert np.allclose(attention_profile_mean(records), 0.2)

    def test_single_record_identity(self):
        profile = [0.5, 0.3, 0.1, 0.06, 0.04]
        records = [record("sd", "sd", "sd", attention=profile)]
        assert attention_profile_mean(records).tolist() == profile

    def test_two_one_hot_profiles(self):
        records = [
            record("sd", "sd", "sd", attention=[1, 0, 0, 0, 0]),
            record("sd", "sd", "sd", attention=[0, 1, 0, 0, 0]),
        ]
        assert attention_profile_mean(records).tolist() == [0.5, 0.5, 0, 0, 0]

    def test_mean_stays_on_simplex(self):
        rng = np.random.default_rng(0)
        records = []
        for i in range(50):
            raw = rng.random(5)
            records.append(record("sd", "sd", "sd", attention=(raw / raw.sum()).tolist(), idx=i))
        mean = attention_profile_mean(records)
        assert abs(mean.sum() - 1.0) < 1e-6

    def test_runs_average_of_averages(self):
        run1 = [record("sd", "sd", "sd", attention=[1, 0, 0, 0, 0])] * 3
        run2 = [record("sd", "sd", "sd", attention=[0, 0, 0, 0, 1])]
        mean = attention_profile_mean([], runs=[run1, run2])
        assert mean.tolist() == [0.5, 0, 0, 0, 0.5]

    def test_missing_profile_is_usage_error(self):
        with pytest.raises(ValueError):
            attention_profile_mean([record("sd", "sd", "sd")])


class TestShortSlice:
    def records(self):
        return [
            record("sd", "sd", "sd", attention=[0.6, 0.2, 0.1, 0.05, 0.05], n_tokens=1),
            record("sd", "sd", "sd", attention=[0.2, 0.5, 0.1, 0.1, 0.1], n_tokens=2, idx=1),
            record("sd", "sd", "sd", attention=[0.4, 0.3, 0.1, 0.1, 0.1], n_tokens=9, idx=2),
        ]

    def test_huge_threshold_equals_full_mean(self):
        result = short_utterance_slice(self.records(), max_tokens=10_000)
        assert np.allclose(result.slice_mean, result.full_mean)
        assert result.n_sliced == 3

    def test_empty_slice_absent_not_error(self):
        result = short_utterance_slice(self.records(), max_tokens=0)
        assert result.slice_mean is None
        assert result.n_sliced == 0

    def test_slice_restricted_to_short(self):
        result = short_utterance_slice(self.records(), max_tokens=2)
        assert result.n_sliced == 2
        expected = np.mean([[0.6, 0.2, 0.1, 0.05, 0.05], [0.2, 0.5, 0.1, 0.1, 0.1]], axis=0)
        assert np.allclose(result.slice_mean, expected)


class TestSvg:
    def test_bar_chart_well_formed(self):
        svg = svg_bar_chart([0.5, 0.2, 0.3], ["a0", "a1", "a2"], title="profile")
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<rect") == 3

    def test_untitled_bar_chart_bytes(self):
        svg = svg_bar_chart([0.5, 0.25, 0.125, 0.125], ["a0", "a1", "a2", "a3"])
        assert "font-size=\"14\"" not in svg  # no title element
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "af3326eeaa84b703eee69caf5ff39d9c722909f3cc132bed0db7a5c3dfac6e9e")

    def test_confidence_chart(self):
        stats = confidence_stats([record("sd", "sd", "sd", idx=i) for i in range(40)])
        svg = svg_confidence_chart(stats.series)
        assert svg.count("<polyline") == 2

    def test_bar_chart_rejects_mismatch(self):
        with pytest.raises(ValueError):
            svg_bar_chart([1.0], ["a", "b"])
