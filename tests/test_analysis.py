import numpy as np
import pytest

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
    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            EvalRecord("c", 0, "sd", "sd", "sd", [0.5, 0.6], [0.5, 0.5])

    def test_round_trip(self, tmp_path):
        records = [
            record("sd", "sd", "sd", attention=[0.5, 0.2, 0.1, 0.1, 0.1]),
            record("sv", "sd", "sv", idx=1),
        ]
        path = tmp_path / "records.jsonl"
        write_records(path, records)
        loaded = load_records(path)
        assert len(loaded) == 2
        assert loaded[0].attention == [0.5, 0.2, 0.1, 0.1, 0.1]
        assert loaded[1].attention is None
        assert loaded[1].nc_probs == records[1].nc_probs

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

    def test_confidence_chart(self):
        stats = confidence_stats([record("sd", "sd", "sd", idx=i) for i in range(40)])
        svg = svg_confidence_chart(stats.series, batch=30)
        assert svg.count("<polyline") == 2

    def test_bar_chart_rejects_mismatch(self):
        with pytest.raises(ValueError):
            svg_bar_chart([1.0], ["a", "b"])
