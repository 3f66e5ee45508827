"""Evaluation artifacts: accuracy, ensembles, failure/rescue tables,
confidence comparison, attention profiles.

All operations are pure functions over lists of :class:`EvalRecord`, the
persisted per-utterance result of running both classifiers on a test set.
Records round-trip through JSONL so analyses can be re-run without models.

Terminology follows the evaluation convention used throughout: NC is the
no-context baseline, WC the context model; a "rescue" is a test utterance
the context model gets right where the baseline does not.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, fields
from statistics import median

import numpy as np

from .model import off_simplex
from .tensor import atomic_text

PROB_TOL = 1e-6


@dataclass
class EvalRecord:
    conversation_id: str
    utterance_index: int
    gold: str
    nc_pred: str
    wc_pred: str
    nc_probs: list[float]
    wc_probs: list[float]
    attention: list[float] | None = None
    n_tokens: int = 0

    @property
    def nc_correct(self) -> bool:
        return self.nc_pred == self.gold

    @property
    def wc_correct(self) -> bool:
        return self.wc_pred == self.gold

    @property
    def nc_confidence(self) -> float:
        return max(self.nc_probs)

    @property
    def wc_confidence(self) -> float:
        return max(self.wc_probs)


_FIELDS = [f.name for f in fields(EvalRecord)]
# ids and tags exactly str, indices exactly int (no bool), read once off the annotations
_EXACT_TYPES = {f.name: {"str": str, "int": int}[f.type] for f in fields(EvalRecord)
                if f.type in ("str", "int")}
_VECTORS = ("nc_probs", "wc_probs", "attention")
_LINE = "{{" + ", ".join(f'"{name}": {{}}' for name in _FIELDS) + "}}\n"  # fields' JSON texts


def write_records(path, columns: dict) -> None:
    """Write N records, each line byte for byte ``json.dumps(vars(record))``,
    from ``columns``: each EvalRecord field's N values, the vectors as (N, C)
    and (N, K) arrays (no attention: None). JSON has no non-finite number."""
    texts = dict(columns)
    for name in _VECTORS:
        if texts[name] is None:
            texts[name] = ["null"] * len(texts["gold"])
            continue
        values = np.asarray(texts[name], dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite number, which JSON cannot")
        texts[name] = values.tolist()  # a list of floats prints as its JSON
    for name in ("conversation_id", "gold", "nc_pred", "wc_pred"):
        encoded = {value: json.dumps(value) for value in set(texts[name])}  # each once
        texts[name] = [encoded[value] for value in texts[name]]
    with atomic_text(path) as fh:
        fh.writelines(map(_LINE.format, *(texts[name] for name in _FIELDS)))


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)  # made once, not per line


def _parse_record(line: str, seen: set, sizes: dict) -> EvalRecord:
    """One line's record, refused unless its ids and tags are str, its indices
    int (no bool) and at least 0, its vectors non-empty lists of numbers (no
    bool; the attention may be null), its key not in ``seen`` and its sizes
    those in ``sizes``."""
    r = EvalRecord(**_DECODER.decode(line))
    for name, want in _EXACT_TYPES.items():
        value = getattr(r, name)
        if type(value) is not want:
            raise TypeError(f"{name} must be {want.__name__}, got {value!r}")
        if want is int and value < 0:
            raise ValueError(f"{name} must be at least 0, got {value}")
    for name in _VECTORS if r.attention is not None else _VECTORS[:2]:
        values = getattr(r, name)
        if type(values) is not list or not (types := set(map(type, values))) <= {int, float}:
            raise TypeError(f"{name} must be a list of numbers, got {values!r}")
        if not values:
            raise ValueError(f"{name} is empty")
        if int in types:  # OverflowError for an int beyond the floats
            setattr(r, name, [float(v) for v in values])
    if len(r.nc_probs) != len(r.wc_probs):
        raise ValueError("nc_probs and wc_probs differ in length")
    key = (r.conversation_id, r.utterance_index)
    if key in seen:
        raise ValueError(f"utterance {key[1]} of {key[0]!r} is recorded twice")
    seen.add(key)
    for name, values in (("class count", r.nc_probs), ("attention length", r.attention)):
        if values is not None and sizes.setdefault(name, len(values)) != len(values):
            raise ValueError(f"{name} {len(values)}, where an earlier record has {sizes[name]}")
    return r


def load_records(path) -> list[EvalRecord]:
    """The records of one file, checked as a whole: each line in one pass
    (``_parse_record``), then the vectors before a refused line as stacked
    arrays, each a finite distribution within PROB_TOL, whose argmaxes pair
    one to one with the predicted tags. A refusal names the first failing line."""
    records, linenos, failures, seen, sizes = [], [], [], set(), {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                linenos.append(lineno)
                try:
                    records.append(_parse_record(line, seen, sizes))
                except (TypeError, ValueError, OverflowError) as exc:
                    failures.append((len(records), exc))
                    break
    tops = {"nc_probs": [], "wc_probs": []}
    for name in _VECTORS:
        rows = [i for i, r in enumerate(records) if getattr(r, name) is not None]
        if rows:  # each row a distribution; the first failing one is named
            values = np.array([getattr(records[i], name) for i in rows], dtype=np.float64)
            failures += [(rows[i], ValueError(f"{name} is not a finite distribution"))
                         for i in np.flatnonzero(off_simplex(values, PROB_TOL))[:1]]
            tops[name] = values.argmax(axis=1).tolist()
    pairs = {}
    try:
        for i, (r, nc_top, wc_top) in enumerate(zip(records, tops["nc_probs"], tops["wc_probs"])):
            for pred, top in ((r.nc_pred, nc_top), (r.wc_pred, wc_top)):
                for key, value in ((top, pred), (pred, top)):
                    if pairs.setdefault(key, value) != value:
                        raise ValueError(f"predicted tag {pred!r} at argmax {top}, where an "
                                         f"earlier record pairs {key!r} with {pairs[key]!r}")
    except ValueError as exc:
        failures.append((i, exc))
    if failures:
        i, exc = min(failures, key=lambda failure: failure[0])
        raise ValueError(f"{path}:{linenos[i]}: bad eval record: {exc}") from exc
    return records


def accuracy(records: list[EvalRecord]) -> dict[str, float]:
    """Percent correct per model over the record set."""
    if not records:
        raise ValueError("cannot compute accuracy of zero records")
    return {"nc": 100.0 * sum(r.nc_correct for r in records) / len(records),
            "wc": 100.0 * sum(r.wc_correct for r in records) / len(records)}


def ensemble_average(members) -> np.ndarray:
    """Elementwise mean of same-shape arrays: of the members' (N, C)
    probabilities, N distributions; of their (N, K) attention, N profiles."""
    if not members:
        raise ValueError("cannot ensemble zero members")
    arrays = [np.asarray(m, dtype=np.float64) for m in members]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ValueError(f"ensemble over mismatched shapes {sorted(shapes)}")
    return np.mean(arrays, axis=0)


def pct(num: int, total: int) -> float:
    """Share of the test set as a percentage, rounded to 2 decimals."""
    return round(100.0 * num / total, 2)


@dataclass
class ConfusionPairRow:
    gt: str
    nc: str
    wc: str
    num: int
    pct: float


def _group_pairs(records, keep) -> list[ConfusionPairRow]:
    total = len(records)
    counts = Counter((r.gold, r.nc_pred, r.wc_pred) for r in records if keep(r))
    rows = [ConfusionPairRow(*key, num=n, pct=pct(n, total)) for key, n in counts.items()]
    rows.sort(key=lambda row: (-row.num, row.gt, row.nc, row.wc))
    return rows


def failure_pairs(records: list[EvalRecord]) -> list[ConfusionPairRow]:
    """(gold, nc, wc) groups where both classifiers are wrong, largest first."""
    return _group_pairs(records, lambda r: not r.nc_correct and not r.wc_correct)


@dataclass
class RescueSummary:
    rows: list[ConfusionPairRow]
    total_rescued: int
    pct_rescued: float


def rescue_pairs(records: list[EvalRecord]) -> RescueSummary:
    """Groups the context model gets right where the baseline fails."""
    rows = _group_pairs(records, lambda r: r.wc_correct and not r.nc_correct)
    total = sum(row.num for row in rows)
    return RescueSummary(rows=rows, total_rescued=total,
                         pct_rescued=pct(total, len(records)) if records else 0.0)


def write_pair_csv(path, rows: list[ConfusionPairRow]) -> None:
    with atomic_text(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["gt", "nc", "wc", "num", "pct"])
        for row in rows:
            writer.writerow([row.gt, row.nc, row.wc, row.num, f"{row.pct:.2f}"])


@dataclass
class ConfidenceStats:
    nc_mean: float
    nc_median: float
    wc_mean: float
    wc_median: float
    series: list[dict]


def confidence_stats(records: list[EvalRecord]) -> ConfidenceStats:
    """Max-probability confidence per model, summarized and per example.

    ``series`` keeps one row per record (gold/predictions/confidences) for
    plotting batches of examples.
    """
    if not records:
        raise ValueError("cannot compute confidence of zero records")
    nc = [r.nc_confidence for r in records]
    wc = [r.wc_confidence for r in records]
    series = [{"conversation_id": r.conversation_id, "utterance_index": r.utterance_index,
               "gold": r.gold, "nc_pred": r.nc_pred, "wc_pred": r.wc_pred,
               "nc_confidence": r.nc_confidence, "wc_confidence": r.wc_confidence}
              for r in records]
    return ConfidenceStats(float(np.mean(nc)), float(median(nc)), float(np.mean(wc)),
                           float(median(wc)), series)


def attention_profile_mean(
    records: list[EvalRecord], runs: list[list[EvalRecord]] | None = None
) -> np.ndarray:
    """Mean attention weight per slot, ordered current-utterance-first.

    With ``runs`` (one record list per seeded run) the result is the mean of
    the per-run means, which is what a robustness average over repeated
    trainings reports.
    """
    if runs is not None:
        per_run = [attention_profile_mean(run) for run in runs]
        widths = {p.shape[0] for p in per_run}
        if len(widths) != 1:
            raise ValueError("runs report attention profiles of different lengths")
        return np.mean(per_run, axis=0)
    if not records:
        raise ValueError("cannot average attention over zero records")
    profiles = []
    for r in records:
        if r.attention is None:
            raise ValueError(
                f"record ({r.conversation_id}, {r.utterance_index}) has no attention profile"
            )
        profiles.append(r.attention)
    return np.mean(np.array(profiles, dtype=np.float64), axis=0)  # ragged ones raise ValueError


@dataclass
class ShortSliceResult:
    max_tokens: int
    n_sliced: int
    slice_mean: np.ndarray | None
    full_mean: np.ndarray


def short_utterance_slice(records: list[EvalRecord], max_tokens: int) -> ShortSliceResult:
    """Mean attention profile over records whose current utterance is short,
    reported alongside the full-set mean. An empty slice is marked absent."""
    full = attention_profile_mean(records)
    short = [r for r in records if r.n_tokens <= max_tokens]
    return ShortSliceResult(
        max_tokens=max_tokens,
        n_sliced=len(short),
        slice_mean=attention_profile_mean(short) if short else None,
        full_mean=full,
    )


# --- SVG rendering -----------------------------------------------------------


def _svg_frame(width: int, height: int, title: str) -> list[str]:
    """The opening of a chart: the svg element, the title when there is one,
    and the base line 40 px above the bottom between 40 px side margins."""
    margin, base = 40, height - 40
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    if title:
        parts.append(f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    parts.append(f'<line x1="{margin}" y1="{base}" x2="{width - margin}" y2="{base}" '
                 'stroke="black"/>')
    return parts


def svg_bar_chart(values, labels, title: str = "") -> str:
    """Minimal standalone bar chart (no plotting dependency)."""
    width, height = 480, 280
    values = [float(v) for v in values]
    labels = [str(x) for x in labels]
    if len(values) != len(labels) or not values:
        raise ValueError("values and labels must be equal-length and non-empty")
    top = max(max(values), 1e-12)
    margin, base = 40, height - 40
    slot = (width - 2 * margin) / len(values)
    bar_w = slot * 0.7
    parts = _svg_frame(width, height, title)
    for i, (v, label) in enumerate(zip(values, labels)):
        bar_h = (base - 50) * v / top
        x = margin + i * slot + (slot - bar_w) / 2
        parts += [f'<rect x="{x:.1f}" y="{base - bar_h:.1f}" width="{bar_w:.1f}" '
                  f'height="{bar_h:.1f}" fill="#4878a8"/>',
                  f'<text x="{x + bar_w / 2:.1f}" y="{base - bar_h - 5:.1f}" '
                  f'text-anchor="middle" font-size="11">{v:.3f}</text>',
                  f'<text x="{x + bar_w / 2:.1f}" y="{base + 16}" text-anchor="middle" '
                  f'font-size="12">{label}</text>']
    parts.append("</svg>")
    return "\n".join(parts)


def svg_confidence_chart(series: list[dict]) -> str:
    """Per-example confidence lines for the first 30 examples: the context
    model on top of the baseline."""
    width, height = 720, 260
    rows = series[:30]
    if not rows:
        raise ValueError("no examples to plot")
    margin, base = 40, height - 40
    span = width - 2 * margin
    step = span / max(len(rows) - 1, 1)
    parts = _svg_frame(width, height, f"prediction confidence (first {len(rows)} examples)")
    for key, color in (("wc_confidence", "#b03030"), ("nc_confidence", "#4878a8")):
        points = " ".join(
            f"{margin + i * step:.1f},{base - (base - 50) * row[key]:.1f}"
            for i, row in enumerate(rows)
        )
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     'stroke-width="2"/>')
    parts.append(f'<text x="{margin}" y="{height - 8}" font-size="11" '
                 'fill="#b03030">with context</text>')
    parts.append(f'<text x="{margin + 110}" y="{height - 8}" font-size="11" '
                 'fill="#4878a8">no context</text>')
    parts.append("</svg>")
    return "\n".join(parts)
