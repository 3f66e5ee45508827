"""Acceptance suite: one numbered test per exit criterion.

Run with:  pytest tests/test_acceptance.py -v -s

Each test prints a [PASS]/[FAIL] line for its criterion. Criterion 9 skips
itself (with a [SKIP] line) unless the SwDA corpus is supplied through
CTXDA_SWDA_TRAIN_DIR / CTXDA_SWDA_TEST_DIR.
"""

import math
import os
import time
from contextlib import contextmanager
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from ctxda import analysis as ana
from ctxda.corpus import (
    SyntheticSpec,
    TagVocabulary,
    build_all_windows,
    bayes_nocontext_accuracy,
    generate_synthetic,
    load_swda_csv,
)
from ctxda.encoders import EmbeddingTable, MLSTMParams, WordMeanEncoder
from ctxda.model import BaselineMLP, ContextWindow, UttAttBiRNN, birnn_states
from ctxda.optim import Adam, TrainConfig, cross_entropy, train
from ctxda.tensor import Parameter, Tensor2D, softmax_columns
from baselines import majority_baseline
from gradcheck import max_gradient_error
from reference_ops import mlstm_step


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    print(f"\n[PASS] criterion {number}: {description}")


# --- shared synthetic experiments (criteria 5, 6, 7) --------------------------

N_RUNS = 10
EXPERIMENT = dict(
    n_classes=5,
    n_conversations=30,
    conversation_length=14,
    test_conversations=10,
    n_context=4,
    hidden_dim=8,
    dropout_rate=0.2,
    learning_rate=1e-2,
    batch_size=32,
    max_epochs=60,
    patience=12,
    val_fraction=0.15,
)


def run_experiment(seed: int, mode: str) -> SimpleNamespace:
    """Train the baseline and the context model on one seeded synthetic draw
    and evaluate both on a held-out draw, returning eval records."""
    e = EXPERIMENT
    train_spec = SyntheticSpec(
        n_classes=e["n_classes"], mode=mode, n_conversations=e["n_conversations"],
        conversation_length=e["conversation_length"], seed=seed,
    )
    test_spec = SyntheticSpec(
        n_classes=e["n_classes"], mode=mode, n_conversations=e["test_conversations"],
        conversation_length=e["conversation_length"], seed=seed + 10_000,
    )
    train_convs = generate_synthetic(train_spec)
    test_convs = generate_synthetic(test_spec)
    vocab = TagVocabulary.from_conversations(train_convs + test_convs)
    encoder = WordMeanEncoder(EmbeddingTable.one_hot(train_spec.vocabulary()))
    train_windows = build_all_windows(train_convs, e["n_context"], encoder, vocab)
    test_windows = build_all_windows(test_convs, e["n_context"], encoder, vocab)

    cfg = TrainConfig(
        n_context=e["n_context"], batch_size=e["batch_size"],
        max_epochs=e["max_epochs"], learning_rate=e["learning_rate"],
        patience=e["patience"], seed=seed, val_fraction=e["val_fraction"],
    )
    nc = BaselineMLP(encoder.dim, len(vocab), hidden1=32, hidden2=16, seed=seed)
    train(nc, train_windows, cfg)
    wc = UttAttBiRNN(
        encoder.dim, len(vocab), hidden_dim=e["hidden_dim"],
        n_context=e["n_context"], dropout_rate=e["dropout_rate"], seed=seed,
    )
    train(wc, train_windows, cfg)

    nc_pred = nc.predict(test_windows)
    wc_pred = wc.predict(test_windows)
    records = [
        ana.EvalRecord(
            conversation_id=w.conversation_id,
            utterance_index=w.index,
            gold=vocab.tag_of(w.label),
            nc_pred=vocab.tag_of(nc_pred.top_class[i]),
            wc_pred=vocab.tag_of(wc_pred.top_class[i]),
            nc_probs=nc_pred.probs[i].tolist(),
            wc_probs=wc_pred.probs[i].tolist(),
            attention=wc_pred.attention[i].tolist(),
            n_tokens=w.n_tokens,
        )
        for i, w in enumerate(test_windows)
    ]
    acc = ana.accuracy(records)
    return SimpleNamespace(
        seed=seed,
        records=records,
        nc_accuracy=acc["nc"],
        wc_accuracy=acc["wc"],
        bayes_nocontext=100.0 * bayes_nocontext_accuracy(test_spec),
    )


@pytest.fixture(scope="module")
def previous_runs():
    t0 = time.time()
    runs = [run_experiment(seed, "previous") for seed in range(N_RUNS)]
    return SimpleNamespace(runs=runs, elapsed=time.time() - t0)


@pytest.fixture(scope="module")
def current_runs():
    return [run_experiment(seed, "current") for seed in range(N_RUNS)]


# --- criterion 1: gradient correctness ----------------------------------------


def test_criterion_1_gradient_correctness():
    with criterion(1, "reverse-mode gradients match finite differences (< 1e-4)"):
        t0 = time.time()
        rng = np.random.default_rng(101)

        baseline = BaselineMLP(5, 4, hidden1=7, hidden2=6, dropout_rate=0.0, seed=101)
        w_base = ContextWindow([rng.uniform(-1, 1, 5)], [True], label=2)
        err_base = max_gradient_error(
            lambda: baseline.loss([w_base]), baseline.parameters(), h=1e-5
        )

        model = UttAttBiRNN(4, 4, hidden_dim=3, attention_dim=5, n_context=4,
                            dropout_rate=0.0, seed=102)
        feats = [np.zeros(4), np.zeros(4)] + [rng.uniform(-1, 1, 4) for _ in range(3)]
        w_ctx = ContextWindow(feats, [False, False, True, True, True], label=1)
        err_ctx = max_gradient_error(
            lambda: model.loss([w_ctx]), model.parameters(), h=1e-5
        )

        elapsed = time.time() - t0
        print(f"  baseline max rel err {err_base:.2e}; "
              f"Utt-Att-BiRNN max rel err {err_ctx:.2e}; {elapsed:.1f}s")
        assert err_base < 1e-4
        assert err_ctx < 1e-4
        assert elapsed < 30.0


# --- criterion 2: simplex invariants ------------------------------------------


def test_criterion_2_simplex_invariants():
    with criterion(2, "10^4 random passes: distributions sum to 1, entries in [0, 1]"):
        t0 = time.time()
        rng = np.random.default_rng(202)
        ctx = UttAttBiRNN(6, 7, hidden_dim=8, dropout_rate=0.0, seed=202)
        base = BaselineMLP(6, 7, hidden1=8, hidden2=8, seed=202)
        worst_prob, worst_att = 0.0, 0.0
        for _ in range(10_000):
            n_real = int(rng.integers(1, 6))
            feats, mask = [], []
            for k in range(5):
                if k < 5 - n_real:
                    feats.append(np.zeros(6))
                    mask.append(False)
                else:
                    feats.append(rng.uniform(-5, 5, 6))
                    mask.append(True)
            window = ContextWindow(feats, mask, label=0)
            pred = ctx.predict(window)
            worst_prob = max(worst_prob, abs(pred.probs.sum() - 1.0))
            worst_att = max(worst_att, abs(pred.attention.sum() - 1.0))
            assert np.all(pred.probs >= 0.0) and np.all(pred.probs <= 1.0)
            assert np.all(pred.attention >= 0.0) and np.all(pred.attention <= 1.0)
            bpred = base.predict(window)
            worst_prob = max(worst_prob, abs(bpred.probs.sum() - 1.0))
        elapsed = time.time() - t0
        print(f"  worst |sum(probs)-1| {worst_prob:.2e} (tol 1e-9); "
              f"worst |sum(attention)-1| {worst_att:.2e} (tol 1e-6); {elapsed:.1f}s")
        assert worst_prob < 1e-9
        assert worst_att < 1e-6
        assert elapsed < 60.0


# --- criterion 3: hand-oracle equivalence --------------------------------------


def test_criterion_3_hand_oracles():
    with criterion(3, "hand-evaluated RNN/mLSTM/Adam/cross-entropy values (1e-9)"):
        # two-step RNN, dims 1, all weights 0.5, inputs [1, -1]
        p = {f"{d}.{name}": Parameter([[0.5]])
             for d in ("fwd", "bwd") for name in ("w_in", "w_rec", "bias")}
        x = np.array([[[1.0]], [[-1.0]]])  # (K, B, D) = (2, 1, 1)
        fwd = birnn_states(x, p).data[0]  # the forward row, one column per slot
        assert abs(fwd[0] - math.tanh(1.0)) < 1e-9
        assert abs(fwd[1] - math.tanh(0.5 * math.tanh(1.0))) < 1e-9

        # zero-parameter mLSTM: gates at 0.5, candidate at 0
        mp = MLSTMParams(3, 2)
        x = Tensor2D([[1.0], [0.0], [0.0]])
        h0 = Tensor2D(np.zeros((2, 1)))
        h, c = mlstm_step(x, h0, Tensor2D(np.zeros((2, 1))), mp)
        assert np.max(np.abs(h.data)) < 1e-9 and np.max(np.abs(c.data)) < 1e-9
        c_prev = np.array([[0.8], [-0.4]])
        _, c2 = mlstm_step(x, h0, Tensor2D(c_prev), mp)
        assert np.max(np.abs(c2.data - 0.5 * c_prev)) < 1e-9

        # Adam t=1 then t=2 with gradients 1.0 and 0.5 at lr 1e-4
        w = Parameter([[0.0]], name="w")
        adam = Adam([w], learning_rate=1e-4)
        w.grad[:] = 1.0
        adam.step()
        w1 = -1e-4 * (1.0 / (1.0 + 1e-8))
        assert abs(w.data[0, 0] - w1) < 1e-9
        adam.zero_grad()
        w.grad[:] = 0.5
        adam.step()
        m2 = 0.9 * 0.1 + 0.1 * 0.5
        v2 = 0.999 * 0.001 + 0.001 * 0.25
        w2 = w1 - 1e-4 * (m2 / (1 - 0.9**2)) / (math.sqrt(v2 / (1 - 0.999**2)) + 1e-8)
        assert abs(w.data[0, 0] - w2) < 1e-9

        # cross-entropy of the uniform 42-class distribution
        loss = cross_entropy(softmax_columns(Tensor2D(np.zeros((42, 1)))), [7]).item()
        assert abs(loss - math.log(42.0)) < 1e-9
        assert abs(loss - 3.737670) < 1e-6
        print(f"  ln 42 = {loss:.9f}; adam t=1 delta {w1:.12e}")


# --- criterion 4: overfit sanity ------------------------------------------------


def test_criterion_4_overfit_sanity():
    with criterion(4, "20-window corpus reaches 100% train accuracy in <= 500 epochs"):
        t0 = time.time()
        spec = SyntheticSpec(n_classes=4, mode="current", n_conversations=4,
                             conversation_length=5, seed=11)
        convs = generate_synthetic(spec)
        vocab = TagVocabulary.from_conversations(convs)
        encoder = WordMeanEncoder(EmbeddingTable.one_hot(spec.vocabulary()))
        windows = build_all_windows(convs, 4, encoder, vocab)
        assert len(windows) == 20
        cfg = TrainConfig(batch_size=4, max_epochs=500, learning_rate=2e-2,
                          patience=500, seed=11, val_fraction=0.15,
                          track_train_accuracy=True)
        for name, model in (
            ("baseline", BaselineMLP(encoder.dim, len(vocab), hidden1=16,
                                     hidden2=12, seed=11)),
            ("uttattbirnn", UttAttBiRNN(encoder.dim, len(vocab), hidden_dim=6,
                                        n_context=4, dropout_rate=0.0, seed=11)),
        ):
            result = train(model, windows, cfg)
            reached = [h.epoch for h in result.history if h.train_accuracy == 100.0]
            print(f"  {name}: 100% train accuracy first reached at epoch "
                  f"{reached[0] if reached else 'never'}")
            assert reached, f"{name} never reached 100% train accuracy in 500 epochs"
            assert reached[0] <= 500
        elapsed = time.time() - t0
        print(f"  {elapsed:.1f}s")
        assert elapsed < 120.0


# --- criterion 5: context effect ------------------------------------------------


def test_criterion_5_context_effect(previous_runs):
    with criterion(5, "context model beats no-context baseline by >= 20 points "
                      "and beats the Bayes no-context bound"):
        canonical = previous_runs.runs[0]
        gaps = [r.wc_accuracy - r.nc_accuracy for r in previous_runs.runs]
        print(f"  canonical run: WC {canonical.wc_accuracy:.1f}% vs NC "
              f"{canonical.nc_accuracy:.1f}% (bayes-NC bound "
              f"{canonical.bayes_nocontext:.1f}%)")
        print(f"  gaps across {N_RUNS} runs: "
              + " ".join(f"{g:.0f}" for g in gaps)
              + f"; experiment block took {previous_runs.elapsed:.0f}s")
        assert canonical.wc_accuracy - canonical.nc_accuracy >= 20.0
        assert canonical.wc_accuracy > canonical.bayes_nocontext
        assert previous_runs.elapsed < 600.0


# --- criterion 6: attention ordering --------------------------------------------


def test_criterion_6_attention_ordering(previous_runs, current_runs):
    with criterion(6, "mean attention: a1 beats a2/a3/a4 when only the previous "
                      "utterance is informative; a0 largest when the current one is"):
        prev_profile = ana.attention_profile_mean(
            [], runs=[r.records for r in previous_runs.runs]
        )
        print("  previous-informative profile (a0..a4): "
              + " ".join(f"{v:.3f}" for v in prev_profile))
        assert prev_profile[1] > prev_profile[2]
        assert prev_profile[1] > prev_profile[3]
        assert prev_profile[1] > prev_profile[4]

        cur_profile = ana.attention_profile_mean(
            [], runs=[r.records for r in current_runs]
        )
        print("  current-informative profile (a0..a4): "
              + " ".join(f"{v:.3f}" for v in cur_profile))
        assert int(np.argmax(cur_profile)) == 0


# --- criterion 7: confidence effect ---------------------------------------------


def test_criterion_7_confidence_effect(previous_runs):
    with criterion(7, "context model is more confident in >= 8 of 10 runs"):
        wins = 0
        for r in previous_runs.runs:
            stats = ana.confidence_stats(r.records)
            if stats.wc_mean > stats.nc_mean:
                wins += 1
        print(f"  context model more confident in {wins}/{N_RUNS} runs")
        assert wins >= 8


# --- criterion 8: analysis arithmetic, exact ------------------------------------


def published_counts_records():
    """4,186 records reproducing the published failure/rescue counts."""
    tags = ["sd", "sv", "b", "ny", "aa", "%", "qy"]

    def make(gold, nc, wc, count):
        def spread(peak):
            vec = [0.04] * len(tags)
            vec[tags.index(peak)] = 1.0 - 0.04 * (len(tags) - 1)
            return vec

        return [
            ana.EvalRecord("fixture", i, gold, nc, wc, spread(nc), spread(wc))
            for i in range(count)
        ]

    records = []
    records += make("sv", "sd", "sd", 198)   # dominant shared failure
    records += make("sd", "sv", "sv", 51)    # reverse shared failure
    records += make("ny", "b", "ny", 33)     # rescues, per the published table
    records += make("aa", "b", "aa", 29)
    records += make("aa", "sd", "aa", 12)
    records += make("b", "aa", "b", 23)
    records += make("b", "%", "b", 16)
    records += make("qy", "sd", "qy", 330 - 113)  # remaining rescued samples
    records += make("sd", "sd", "sd", 4186 - 198 - 51 - 330)
    assert len(records) == 4186
    return records


def exact_pct(num: int) -> Decimal:
    """100 * num / 4186 rounded half-up to 2 decimals, worked out from the
    exact fraction. A percentage over 4186 lies at least 1/418600 from any
    rounding tie, so the 28 significant digits of the decimal division decide
    the rounding exactly."""
    share = Fraction(100 * num, 4186)
    quotient = Decimal(share.numerator) / Decimal(share.denominator)
    return quotient.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


# Erratum in the source rescue table: the ("aa", "sd", "aa") row prints 0.28
# for 12 of 4,186 samples, but 12/4186 = 0.0028667 = 0.28667 %, which is 0.29
# at 2 decimals.
ERRATUM = ("rescue", ("aa", "sd", "aa"))
ERRATUM_PRINTED = Decimal("0.28")
ERRATUM_CORRECT = Decimal("0.29")


def test_criterion_8_analysis_arithmetic():
    """The analysis reproduces the published failure/rescue tables at 2 decimals.

    Each row is asserted against the value the source tables print, with one
    erratum. The rescue row ("aa", "sd", "aa") prints 0.28 for 12/4186
    samples, but 12/4186 = 0.28667 %, which is 0.29 at 2 decimals. The rest
    of the tables show that the printed 0.28 is the slip, not the program:

    - every other row, and the 330/4186 = 7.88 % rescue total, reproduce
      exactly, which fixes the denominator at 4,186;
    - they fix the rule as rounding: truncation gives 1.21, 0.78 and 0.54 for
      51, 33 and 23 samples, where the tables print 1.22, 0.79 and 0.55;
    - no total between 3,000 and 6,000 gives all eight printed values under
      2-decimal rounding.

    The erratum row is asserted against the exact value, worked out here in
    rational arithmetic independently of ``analysis.pct``. The test also
    checks that the printed value misses it by exactly 0.01, and that no other
    printed value disagrees with the exact arithmetic.
    """
    with criterion(8, "published failure/rescue percentages reproduced at 2 decimals"):
        records = published_counts_records()
        failures = {(r.gt, r.nc, r.wc): r for r in ana.failure_pairs(records)}
        rescue = ana.rescue_pairs(records)
        rescues = {(r.gt, r.nc, r.wc): r for r in rescue.rows}

        published = [
            ("failure", ("sv", "sd", "sd"), 198, 4.73),
            ("failure", ("sd", "sv", "sv"), 51, 1.22),
            ("rescue", ("ny", "b", "ny"), 33, 0.79),
            ("rescue", ("aa", "b", "aa"), 29, 0.69),
            ("rescue", ("aa", "sd", "aa"), 12, 0.28),  # ERRATUM
            ("rescue", ("b", "aa", "b"), 23, 0.55),
            ("rescue", ("b", "%", "b"), 16, 0.38),
        ]
        errata = []
        for kind, key, num, printed in published:
            row = (failures if kind == "failure" else rescues)[key]
            assert row.num == num
            exact = exact_pct(num)
            if Decimal(str(printed)) != exact:
                errata.append((kind, key))
            if (kind, key) == ERRATUM:
                assert Decimal(str(printed)) == ERRATUM_PRINTED
                assert exact == ERRATUM_CORRECT
                assert exact - ERRATUM_PRINTED == Decimal("0.01")
                assert row.pct == float(exact), (
                    f"{kind} {key}: computed {row.pct} for num={num}, "
                    f"exact {exact} (table misprints {printed})"
                )
            else:
                assert row.pct == printed, (
                    f"{kind} {key}: computed {row.pct} for num={num}, "
                    f"table prints {printed}"
                )
        assert errata == [ERRATUM]
        assert rescue.total_rescued == 330
        assert rescue.pct_rescued == 7.88
        assert exact_pct(330) == Decimal("7.88")
        print(f"  rescue total 330 -> {rescue.pct_rescued}%; "
              f"{len(published)}/{len(published)} rows reproduced "
              f"({len(errata)} documented erratum: 12/4186 printed "
              f"{ERRATUM_PRINTED}, exact {ERRATUM_CORRECT})")


# --- criterion 9: SwDA corpus statistics (conditional) ---------------------------


def test_criterion_9_swda_corpus_stats():
    train_dir = os.environ.get("CTXDA_SWDA_TRAIN_DIR")
    test_dir = os.environ.get("CTXDA_SWDA_TEST_DIR")
    if not (train_dir and test_dir):
        print("\n[SKIP] criterion 9: SwDA corpus not available "
              "(set CTXDA_SWDA_TRAIN_DIR and CTXDA_SWDA_TEST_DIR)")
        pytest.skip("SwDA corpus not available")
    with criterion(9, "SwDA loader statistics and majority baseline"):
        train_convs = load_swda_csv(train_dir)
        test_convs = load_swda_csv(test_dir)
        n_train_utts = sum(len(c) for c in train_convs)
        n_test_utts = sum(len(c) for c in test_convs)
        tags = {u.act_tag for c in train_convs + test_convs for u in c.utterances}
        print(f"  train {len(train_convs)}/{n_train_utts}, "
              f"test {len(test_convs)}/{n_test_utts}, {len(tags)} tags")
        assert len(train_convs) == 1115
        assert n_train_utts == 196258
        assert len(test_convs) == 19
        assert n_test_utts == 4186
        assert len(tags) == 42
        maj = majority_baseline(
            [u.act_tag for c in train_convs for u in c.utterances],
            [u.act_tag for c in test_convs for u in c.utterances],
        )
        print(f"  majority baseline {maj:.2f}%")
        assert round(maj, 2) == 31.50


# --- module-example check (not a numbered criterion) ------------------------------


def test_short_utterance_slice_on_mixed_corpus():
    """Constructed-corpus demonstration: when short utterances are ambiguous
    alone, their slice attends to the closest preceding utterance more than
    the full set does."""
    seed = 1
    e = EXPERIMENT
    train_spec = SyntheticSpec(n_classes=5, mode="mixed",
                               n_conversations=e["n_conversations"],
                               conversation_length=e["conversation_length"], seed=seed)
    test_spec = SyntheticSpec(n_classes=5, mode="mixed",
                              n_conversations=e["test_conversations"],
                              conversation_length=e["conversation_length"],
                              seed=seed + 10_000)
    train_convs = generate_synthetic(train_spec)
    test_convs = generate_synthetic(test_spec)
    vocab = TagVocabulary.from_conversations(train_convs + test_convs)
    encoder = WordMeanEncoder(EmbeddingTable.one_hot(train_spec.vocabulary()))
    cfg = TrainConfig(batch_size=e["batch_size"], max_epochs=e["max_epochs"],
                      learning_rate=e["learning_rate"], patience=e["patience"],
                      seed=seed, val_fraction=e["val_fraction"])
    model = UttAttBiRNN(encoder.dim, len(vocab), hidden_dim=e["hidden_dim"],
                        n_context=4, dropout_rate=e["dropout_rate"], seed=seed)
    train(model, build_all_windows(train_convs, 4, encoder, vocab), cfg)

    test_windows = build_all_windows(test_convs, 4, encoder, vocab)
    pred = model.predict(test_windows)
    records = []
    for i, w in enumerate(test_windows):
        top = vocab.tag_of(pred.top_class[i])
        records.append(ana.EvalRecord(w.conversation_id, w.index,
                                      vocab.tag_of(w.label), top, top,
                                      pred.probs[i].tolist(), pred.probs[i].tolist(),
                                      attention=pred.attention[i].tolist(),
                                      n_tokens=w.n_tokens))
    result = ana.short_utterance_slice(records, max_tokens=1)
    print(f"\n  short-slice a1 {result.slice_mean[1]:.3f} vs full a1 "
          f"{result.full_mean[1]:.3f} over {result.n_sliced}/{len(records)} records")
    assert result.slice_mean[1] > result.full_mean[1]
