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

from .tensor import atomic_text

PROB_TOL = 1e-6


def _distribution(name: str, values) -> list[float]:
    """``values`` as floats, refused unless non-negative numbers (a bool is
    none) that form a finite distribution, summing to 1 within PROB_TOL."""
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise TypeError(f"{name} must hold numbers only")
    values = [float(v) for v in values]
    # a NaN or infinite entry fails one of the two comparisons
    if not (min(values) >= 0 and abs(sum(values) - 1.0) <= PROB_TOL):
        raise ValueError(f"{name} is not a finite probability distribution")
    return values


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

    def __post_init__(self):
        for name, want in _EXACT_TYPES.items():
            if type(getattr(self, name)) is not want:
                raise TypeError(f"{name} must be {want.__name__}, got {getattr(self, name)!r}")
        for name in ("nc_probs", "wc_probs", "attention"):
            if getattr(self, name) is not None:
                setattr(self, name, _distribution(name, getattr(self, name)))
        if len(self.nc_probs) != len(self.wc_probs):
            raise ValueError("nc_probs and wc_probs differ in length")
        if self.n_tokens < 0:
            raise ValueError(f"n_tokens must be at least 0, got {self.n_tokens}")

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


# ids and tags exactly str, indices exactly int (no bool), read once off the annotations
_EXACT_TYPES = {f.name: {"str": str, "int": int}[f.type] for f in fields(EvalRecord)
                if f.type in ("str", "int")}


def write_records(path, records: list[EvalRecord]) -> None:
    with atomic_text(path) as fh:
        for r in records:
            fh.write(json.dumps(vars(r), allow_nan=False) + "\n")


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_records(path) -> list[EvalRecord]:
    """The records of one file, checked as a whole: refused, naming the line,
    is a record that repeats an earlier one's (conversation_id,
    utterance_index), whose class count or attention length differs from an
    earlier record's (a record without attention has no length), or that
    breaks the earlier records' one-to-one pairing of predicted tag and argmax."""
    records, seen, sizes, pairs = [], set(), {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line, parse_constant=_refuse_constant)
                r = EvalRecord(**obj)
                key = (r.conversation_id, r.utterance_index)
                if key in seen:
                    raise ValueError(f"utterance {key[1]} of {key[0]!r} is recorded twice")
                seen.add(key)
                for name, values in (("class count", r.nc_probs), ("attention length", r.attention)):
                    if values is not None and sizes.setdefault(name, len(values)) != len(values):
                        raise ValueError(f"{name} {len(values)}, where an earlier record has "
                                         f"{sizes[name]}")
                for pred, probs in ((r.nc_pred, r.nc_probs), (r.wc_pred, r.wc_probs)):
                    top = probs.index(max(probs))
                    for key, value in ((top, pred), (pred, top)):
                        if pairs.setdefault(key, value) != value:
                            raise ValueError(f"predicted tag {pred!r} at argmax {top}, where an "
                                             f"earlier record pairs {key!r} with {pairs[key]!r}")
                records.append(r)
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad eval record: {exc}") from exc
    return records


def accuracy(records: list[EvalRecord]) -> dict[str, float]:
    """Percent correct per model over the record set."""
    if not records:
        raise ValueError("cannot compute accuracy of zero records")
    n = len(records)
    return {
        "nc": 100.0 * sum(r.nc_correct for r in records) / n,
        "wc": 100.0 * sum(r.wc_correct for r in records) / n,
    }


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
    rows = [
        ConfusionPairRow(gt=k[0], nc=k[1], wc=k[2], num=n, pct=pct(n, total))
        for k, n in counts.items()
    ]
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
    series = [
        {
            "conversation_id": r.conversation_id,
            "utterance_index": r.utterance_index,
            "gold": r.gold,
            "nc_pred": r.nc_pred,
            "wc_pred": r.wc_pred,
            "nc_confidence": r.nc_confidence,
            "wc_confidence": r.wc_confidence,
        }
        for r in records
    ]
    return ConfidenceStats(
        nc_mean=float(np.mean(nc)),
        nc_median=float(median(nc)),
        wc_mean=float(np.mean(wc)),
        wc_median=float(median(wc)),
        series=series,
    )


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
    widths = {len(p) for p in profiles}
    if len(widths) != 1:
        raise ValueError("attention profiles have inconsistent lengths")
    return np.mean(np.array(profiles, dtype=np.float64), axis=0)


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


def svg_bar_chart(values, labels, title: str = "", width: int = 480, height: int = 280) -> str:
    """Minimal standalone bar chart (no plotting dependency)."""
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
        parts.append(
            f'<rect x="{x:.1f}" y="{base - bar_h:.1f}" width="{bar_w:.1f}" '
            f'height="{bar_h:.1f}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{base - bar_h - 5:.1f}" '
            f'text-anchor="middle" font-size="11">{v:.3f}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{base + 16}" text-anchor="middle" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def svg_confidence_chart(
    series: list[dict], batch: int = 30, width: int = 720, height: int = 260
) -> str:
    """Per-example confidence lines for the first ``batch`` examples: the
    context model on top of the baseline."""
    rows = series[:batch]
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
