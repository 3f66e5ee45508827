"""Spans around the public functions of each ctxda layer, installed from outside.

Nothing under ``src/`` knows about tracing: :func:`install` replaces module
attributes and class methods where the caller looks them up (``model.py``,
``optim.py`` and ``cli.py`` import names directly, so for example the
wrapper for ``load_checkpoint`` goes into ``ctxda.cli`` and the one for
``backward`` into ``ctxda.optim`` and ``ctxda.encoders``). :meth:`Tracer.uninstall`
puts every original back.

A span records its name, start, end and the index of the span that was open
when it started. Spans stay in memory until the run ends. Calls to the ops
in ``ctxda.tensor.__all__`` are counted, not spanned: each one bumps a
counter, and a span's op count is the counter's growth while it was open.
"""

from __future__ import annotations

import functools
import inspect
import os
from time import perf_counter

# the per-layer metrics, in report order, with their units
LAYER_METRICS = {
    "cli.train_self_s": "s",
    "cli.eval_self_s": "s",
    "cli.eval_rss_growth_mb": "MB",
    "corpus.generate_s": "s",
    "corpus.windows_self_us_per_window": "us",
    "corpus.windows_built": "count",
    "encoders.char_lm_s": "s",
    "encoders.char_lm_us_per_char": "us",
    "encoders.char_lm_calls": "count",
    "encoders.char_encode_us_per_char": "us",
    "encoders.char_encode_chars": "count",
    "model.wc_train_us_per_window": "us",
    "model.nc_train_us_per_window": "us",
    "model.wc_predict_us_per_window": "us",
    "model.nc_predict_us_per_window": "us",
    "model.ckpt_save_s": "s",
    "model.ckpt_load_s": "s",
    "model.ckpt_bytes": "bytes",
    "tensor.backward_us_per_window": "us",
    "tensor.ops_per_wc_window": "count",
    "tensor.ops_per_char": "count",
    "optim.adam_step_us": "us",
    "optim.adam_steps": "count",
    "optim.validation_s": "s",
    "optim.train_self_s": "s",
    "optim.wc_windows_per_s": "1/s",
    "analysis.records_io_s": "s",
    "analysis.tables_s": "s",
    "trace.overhead_s": "s",
}

# analysis functions that make the tables, profiles and charts of `analyze`
TABLE_FUNCTIONS = (
    "failure_pairs",
    "rescue_pairs",
    "write_pair_csv",
    "confidence_stats",
    "attention_profile_mean",
    "short_utterance_slice",
    "svg_bar_chart",
    "svg_confidence_chart",
)


def rss_mb() -> float:
    """Current resident set size of this process, in MiB (Linux)."""
    with open("/proc/self/statm", "rb") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Span:
    __slots__ = ("name", "parent", "start", "end", "ops_start", "ops_end", "n", "info")

    def __init__(self, name: str, parent: int, ops_start: int):
        self.name = name
        self.parent = parent
        self.ops_start = ops_start
        self.ops_end = ops_start
        self.start = self.end = 0.0
        self.n = 0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.ops = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers -----------------------------------------------------------

    def spanned(self, name, fn, count=None, at_open=None):
        """``fn`` wrapped in a span. ``count(args, kwargs, result)`` sets the
        span's work count; ``at_open(args, kwargs)`` sets its ``info``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else -1, tracer.ops)
            if at_open is not None:
                span.info = at_open(args, kwargs)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                span.ops_end = tracer.ops
            if count is not None:
                span.n = count(args, kwargs, result)
            return result

        return traced

    def counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def op(*args, **kwargs):
            tracer.ops += 1
            return fn(*args, **kwargs)

        return op

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, **kwargs) -> None:
        if attr not in owner.__dict__:  # a layer that is not traced must not read as 0
            raise AttributeError(f"tracing: {owner.__name__} has no {attr!r} to trace")
        self.patch(owner, attr, self.spanned(name, owner.__dict__[attr], **kwargs))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _char_lm_steps(args, kwargs, result) -> int:
    """Character steps `train_char_lm` takes: (len - 1) per usable text per epoch."""
    from ctxda import encoders

    bound = inspect.signature(encoders.train_char_lm).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    per_epoch = sum(len(t[: a["max_chars"]]) - 1 for t in a["texts"] if len(t) >= 2)
    return per_epoch * a["epochs"]


def install() -> Tracer:
    """Wrap every traced boundary of the imported ctxda package."""
    from ctxda import analysis, cli, corpus, encoders, model, optim, tensor

    t = Tracer()
    t.wrap(cli, "cmd_synth", "cli.synth")
    t.wrap(cli, "cmd_train", "cli.train")
    t.wrap(cli, "cmd_eval", "cli.eval", at_open=lambda a, k: rss_mb())
    t.wrap(cli, "cmd_analyze", "cli.analyze")

    t.wrap(corpus, "generate_synthetic", "corpus.generate")
    t.wrap(corpus, "build_all_windows", "corpus.windows", count=lambda a, k, r: len(r))

    t.wrap(encoders, "word_mean", "encoders.word_mean")
    t.wrap(encoders, "char_encode", "encoders.char_encode",
           count=lambda a, k, r: len(a[0]) if a else len(k["text"]))
    t.wrap(encoders, "train_char_lm", "encoders.char_lm", count=_char_lm_steps)

    t.wrap(model.UttAttBiRNN, "loss", "model.wc_loss")
    t.wrap(model.UttAttBiRNN, "predict", "model.wc_predict")
    t.wrap(model.BaselineMLP, "loss", "model.nc_loss")
    t.wrap(model.BaselineMLP, "predict", "model.nc_predict")
    t.wrap(cli, "save_checkpoint", "model.ckpt_save",
           count=lambda a, k, r: os.path.getsize(a[0]))
    t.wrap(cli, "load_checkpoint", "model.ckpt_load")

    for owner in (optim, encoders):
        t.wrap(owner, "backward", "tensor.backward")
    ops = [name for name in tensor.__all__
           if inspect.isfunction(getattr(tensor, name))
           and name not in ("backward", "finite_difference_grad")]
    for owner in (model, encoders, optim):
        for name in ops:
            if owner.__dict__.get(name) is getattr(tensor, name):
                t.patch(owner, name, t.counted(getattr(tensor, name)))

    t.wrap(optim.Adam, "step", "optim.adam_step")
    t.wrap(optim, "evaluate_accuracy", "optim.validation")
    t.wrap(optim, "train", "optim.train", at_open=lambda a, k: a[0].kind)

    t.wrap(analysis, "write_records", "analysis.write_records", at_open=lambda a, k: rss_mb())
    t.wrap(analysis, "load_records", "analysis.load_records")
    for name in TABLE_FUNCTIONS:
        t.wrap(analysis, name, "analysis.table")
    return t


# --- aggregation ------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], first: int, last: int) -> dict[str, float]:
    """Per-layer metrics over the spans ``spans[first:last]`` (one round).

    Every parent index of a span in the range must also lie in the range or
    be -1, which holds when the range covers whole top-level calls.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i in range(first, last):
        by_name.setdefault(spans[i].name, []).append(i)

    def parent_name(i):
        return spans[spans[i].parent].name if spans[i].parent >= 0 else None

    def idx(name, parent=None, not_parent=None):
        out = by_name.get(name, [])
        if parent is not None:
            out = [i for i in out if parent_name(i) == parent]
        if not_parent is not None:
            out = [i for i in out if parent_name(i) != not_parent]
        return out

    def total(ix):
        return sum(spans[i].duration for i in ix)

    def self_total(ix):
        return sum(selfs[i] for i in ix)

    def work(ix):
        return sum(spans[i].n for i in ix)

    m: dict[str, float] = {}
    m["cli.train_self_s"] = self_total(idx("cli.train"))
    m["cli.eval_self_s"] = self_total(idx("cli.eval"))
    growth = 0.0
    for i in idx("analysis.write_records", parent="cli.eval"):
        growth = max(growth, spans[i].info - spans[spans[i].parent].info)
    m["cli.eval_rss_growth_mb"] = growth

    m["corpus.generate_s"] = total(idx("corpus.generate"))
    windows = idx("corpus.windows")
    m["corpus.windows_built"] = work(windows)
    m["corpus.windows_self_us_per_window"] = 1e6 * _ratio(self_total(windows), work(windows))

    lm = idx("encoders.char_lm")
    m["encoders.char_lm_s"] = total(lm)
    m["encoders.char_lm_us_per_char"] = 1e6 * _ratio(total(lm), work(lm))
    m["encoders.char_lm_calls"] = len(lm)
    chars = idx("encoders.char_encode")
    m["encoders.char_encode_us_per_char"] = 1e6 * _ratio(total(chars), work(chars))
    m["encoders.char_encode_chars"] = work(chars)

    wc_loss, nc_loss = idx("model.wc_loss"), idx("model.nc_loss")
    m["model.wc_train_us_per_window"] = 1e6 * _ratio(total(wc_loss), len(wc_loss))
    m["model.nc_train_us_per_window"] = 1e6 * _ratio(total(nc_loss), len(nc_loss))
    for kind in ("wc", "nc"):
        pred = idx(f"model.{kind}_predict", not_parent=f"model.{kind}_loss")
        m[f"model.{kind}_predict_us_per_window"] = 1e6 * _ratio(total(pred), len(pred))
    saves = idx("model.ckpt_save")
    m["model.ckpt_save_s"] = total(saves)
    m["model.ckpt_load_s"] = total(idx("model.ckpt_load"))
    m["model.ckpt_bytes"] = work(saves)

    back = idx("tensor.backward", parent="optim.train")
    m["tensor.backward_us_per_window"] = 1e6 * _ratio(total(back), len(back))
    m["tensor.ops_per_wc_window"] = _ratio(
        sum(spans[i].ops_end - spans[i].ops_start for i in wc_loss), len(wc_loss))
    m["tensor.ops_per_char"] = _ratio(
        sum(spans[i].ops_end - spans[i].ops_start for i in chars), work(chars))

    steps = idx("optim.adam_step", parent="optim.train")
    m["optim.adam_step_us"] = 1e6 * _ratio(total(steps), len(steps))
    m["optim.adam_steps"] = len(steps)
    m["optim.validation_s"] = total(idx("optim.validation"))
    trains = idx("optim.train")
    m["optim.train_self_s"] = self_total(trains)
    wc_train = [i for i in trains if spans[i].info == "uttattbirnn"]
    m["optim.wc_windows_per_s"] = _ratio(len(wc_loss), total(wc_train))

    m["analysis.records_io_s"] = total(idx("analysis.write_records")) + total(
        idx("analysis.load_records"))
    m["analysis.tables_s"] = total(idx("analysis.table", not_parent="analysis.table"))
    return m

