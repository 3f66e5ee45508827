"""Span arithmetic of the traced run, and a clean uninstall."""

import time

import pytest

from ctxda import cli, encoders, model, optim, tensor

import tracing
from helpers import run_tiny


def check_nesting(spans):
    selfs = tracing.self_times(spans)
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)
    for i, s in enumerate(spans):
        kids = children.get(i, [])
        assert selfs[i] + sum(spans[k].duration for k in kids) == pytest.approx(
            s.duration, abs=1e-12)
        assert selfs[i] >= -1e-12
        for k in kids:
            assert s.start <= spans[k].start <= spans[k].end <= s.end


def test_self_plus_children_is_the_span():
    t = tracing.Tracer()
    leaf = t.spanned("leaf", lambda: time.sleep(0.002))

    def middle():
        leaf()
        time.sleep(0.001)
        leaf()

    top = t.spanned("top", t.spanned("middle", middle))
    top()
    top()
    assert [s.name for s in t.spans] == ["top", "middle", "leaf", "leaf"] * 2
    assert [s.parent for s in t.spans[:4]] == [-1, 0, 1, 1]
    check_nesting(t.spans)
    selfs = tracing.self_times(t.spans)
    assert selfs[1] == pytest.approx(0.001, abs=5e-3)


def test_traced_pipeline(tmp_path):
    originals = (cli.load_checkpoint, optim.backward, encoders.backward, model.matmul,
                 model.UttAttBiRNN.__dict__["predict"])
    tracer = tracing.install()
    try:
        run_tiny(tmp_path)
    finally:
        tracer.uninstall()
    assert (cli.load_checkpoint, optim.backward, encoders.backward, model.matmul,
            model.UttAttBiRNN.__dict__["predict"]) == originals
    assert optim.backward is tensor.backward

    spans = tracer.spans
    check_nesting(spans)
    metrics = tracing.layer_metrics(spans, 0, len(spans))
    assert set(metrics) == set(tracing.LAYER_METRICS) - {"trace.overhead_s"}
    assert metrics["corpus.generate_s"] > 0
    assert metrics["encoders.char_lm_calls"] == 0
    assert metrics["model.ckpt_bytes"] > 0
    assert metrics["tensor.ops_per_wc_window"] > 0
    assert metrics["optim.adam_steps"] > 0
    assert metrics["cli.eval_rss_growth_mb"] >= 0


def test_a_missing_function_is_an_error():
    t = tracing.Tracer()
    with pytest.raises(AttributeError):
        t.wrap(optim, "no_such_function", "optim.none")
    assert t._patches == []
