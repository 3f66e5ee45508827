"""Conversation ingestion, tag vocabulary, context windows, synthetic corpora.

The canonical interchange format is JSONL: one conversation object per line,
``{"id": ..., "utterances": [{"text": ..., "act_tag": ...}, ...]}``. The
SwDA CSV adapter maps the public corpus distribution into that shape once;
everything downstream reads JSONL.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoders import tokenize
from .model import ContextWindow
from .tensor import atomic_text


@dataclass
class Utterance:
    conversation_id: str
    index: int
    text: str
    act_tag: str


@dataclass
class Conversation:
    id: str
    utterances: list[Utterance]

    def __post_init__(self):
        if not self.utterances:
            raise ValueError(f"conversation {self.id!r} has no utterances")
        for expected, utt in enumerate(self.utterances):
            if utt.index != expected:
                raise ValueError(
                    f"conversation {self.id!r}: utterance index {utt.index} "
                    f"at position {expected}"
                )

    def __len__(self) -> int:
        return len(self.utterances)


class TagVocabulary:
    """Ordered act-tag inventory with a bijective tag<->index map."""

    def __init__(self, tags: list[str]):
        if len(set(tags)) != len(tags):
            raise ValueError("tag vocabulary contains duplicates")
        if not tags:
            raise ValueError("tag vocabulary is empty")
        self._tags = list(tags)
        self._index = {t: i for i, t in enumerate(self._tags)}

    @classmethod
    def from_conversations(cls, conversations) -> "TagVocabulary":
        seen = sorted({u.act_tag for c in conversations for u in c.utterances})
        return cls(seen)

    @property
    def tags(self) -> list[str]:
        return list(self._tags)

    def index_of(self, tag: str) -> int:
        if tag not in self._index:
            raise KeyError(f"unknown act tag {tag!r}")
        return self._index[tag]

    def check(self, path, conversations) -> None:
        """Refuse, with ValueError, an act tag of ``conversations`` (read from
        ``path``) outside this inventory, naming the file, conversation and tag."""
        for conv in conversations:
            for u in conv.utterances:
                if u.act_tag not in self._index:
                    raise ValueError(f"{path}: conversation {conv.id!r}: "
                                     f"unknown act tag {u.act_tag!r}")

    def tag_of(self, index: int) -> str:
        return self._tags[index]

    def __len__(self) -> int:
        return len(self._tags)

    def __iter__(self):
        return iter(self._tags)

    def save(self, path) -> None:
        with atomic_text(path) as fh:
            for tag in self._tags:
                fh.write(tag + "\n")

    @classmethod
    def load(cls, path) -> "TagVocabulary":
        with open(path, "r", encoding="utf-8") as fh:
            tags = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(tags)


def load_jsonl(path) -> list[Conversation]:
    """Read conversations from JSONL; errors carry the offending line number."""
    conversations: list[Conversation] = []
    seen_ids: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                conv_id, raw_utts = obj["id"], obj["utterances"]
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: missing id/utterances") from exc
            if not isinstance(conv_id, str):
                raise ValueError(f"{path}:{lineno}: id must be a string, got {conv_id!r}")
            if conv_id in seen_ids:
                raise ValueError(f"{path}:{lineno}: duplicate conversation id {conv_id!r}")
            seen_ids.add(conv_id)
            if not raw_utts:
                raise ValueError(f"{path}:{lineno}: conversation {conv_id!r} is empty")
            utts = []
            for i, u in enumerate(raw_utts):
                try:
                    text, tag = u["text"], u["act_tag"]
                except (KeyError, TypeError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: utterance {i} of {conv_id!r} malformed"
                    ) from exc
                for key, value in (("text", text), ("act_tag", tag)):
                    if not isinstance(value, str):
                        raise ValueError(f"{path}:{lineno}: utterance {i} of {conv_id!r}: "
                                         f"{key} must be a string, got {value!r}")
                utts.append(Utterance(conv_id, i, text, tag))
            conversations.append(Conversation(conv_id, utts))
    return conversations


def write_jsonl(path, conversations) -> None:
    with atomic_text(path) as fh:
        for conv in conversations:
            obj = {
                "id": conv.id,
                "utterances": [
                    {"text": u.text, "act_tag": u.act_tag} for u in conv.utterances
                ],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


# --- SwDA adapter -----------------------------------------------------------

_CARET_RE = re.compile(r"(.)\^.*")
_DECOR_RE = re.compile(r"[()@*]")

_KEEP_AS_IS = {"qy^d", "qw^d", "b^m"}
_MERGES = {
    "qr": "qy", "qy": "qy",
    "fe": "ba", "ba": "ba",
    "oo": "oo_co_cc", "co": "oo_co_cc", "cc": "oo_co_cc",
    "fx": "sv", "sv": "sv",
    "aap": "aap_am", "am": "aap_am",
    "arp": "arp_nd", "nd": "arp_nd",
    "fo": 'fo_o_fw_"_by_bc', "o": 'fo_o_fw_"_by_bc', "fw": 'fo_o_fw_"_by_bc',
    '"': 'fo_o_fw_"_by_bc', "by": 'fo_o_fw_"_by_bc', "bc": 'fo_o_fw_"_by_bc',
}


def normalize_damsl_tag(raw: str) -> str:
    """Cluster a raw DAMSL combination into the standard 42-class inventory.

    Takes the first tag of a comma/semicolon combination, keeps the three
    conventional exceptions (qy^d, qw^d, b^m), strips ^-suffixes and
    decoration characters, and applies the usual class merges. The
    continuation marker "+" survives normalization; the loader joins those
    segments onto their originating utterance.
    """
    parts = re.split(r"\s*[,;]\s*", raw.strip())
    tag = parts[0]
    if tag in _KEEP_AS_IS:
        return tag
    if tag == "nn^e":
        return "ng"
    if tag == "ny^e":
        return "na"
    tag = _CARET_RE.sub(r"\1", tag)
    tag = _DECOR_RE.sub("", tag)
    return _MERGES.get(tag, tag)


def load_tag_map(path) -> dict[str, str]:
    """Read "raw_tag TAB normalized_tag" lines."""
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'raw TAB normalized'")
            mapping[parts[0]] = parts[1]
    return mapping


def load_swda_csv(
    directory,
    text_col: str = "text",
    tag_col: str = "act_tag",
    conv_col: str = "conversation_no",
    caller_col: str = "caller",
    tag_map: dict[str, str] | None = None,
) -> list[Conversation]:
    """Load per-conversation CSV files in the public SwDA layout.

    Each CSV holds one conversation's rows with utterance-text and act-tag
    columns (names configurable). Tags are normalized with ``tag_map`` when
    given, otherwise with :func:`normalize_damsl_tag`; "+" continuation rows
    are appended to the most recent utterance by the same caller.
    """
    directory = Path(directory)
    files = sorted(directory.rglob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no CSV files under {directory}")
    conversations = []
    seen_ids: set[str] = set()
    for file in files:
        with open(file, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        if not rows:
            continue
        if text_col not in rows[0] or tag_col not in rows[0]:
            raise ValueError(f"{file}: missing column {text_col!r} or {tag_col!r}")
        conv_id = str(rows[0].get(conv_col) or file.stem)
        if conv_id in seen_ids:
            raise ValueError(f"duplicate conversation id {conv_id!r} in {file}")
        seen_ids.add(conv_id)

        utts: list[Utterance] = []
        last_by_caller: dict[str, Utterance] = {}
        for row in rows:
            raw_tag = (row[tag_col] or "").strip()
            text = (row[text_col] or "").strip()
            caller = (row.get(caller_col) or "").strip()
            if tag_map is not None:
                if raw_tag not in tag_map:
                    raise ValueError(f"{file}: tag {raw_tag!r} missing from tag map")
                tag = tag_map[raw_tag]
            else:
                tag = normalize_damsl_tag(raw_tag)
            if tag == "+":
                target = last_by_caller.get(caller) or (utts[-1] if utts else None)
                if target is not None:
                    target.text = (target.text + " " + text).strip()
                continue
            utt = Utterance(conv_id, len(utts), text, tag)
            utts.append(utt)
            if caller:
                last_by_caller[caller] = utt
        if utts:
            conversations.append(Conversation(conv_id, utts))
    return conversations


# --- windows ----------------------------------------------------------------


def build_all_windows(conversations, n, encoder, vocab) -> list[ContextWindow]:
    """One window per utterance: the utterance plus its n predecessors.

    Slots before the conversation start are zero vectors with
    ``pad_mask=False``; windows never cross conversation boundaries.
    """
    if n < 0:
        raise ValueError(f"context size must be non-negative, got {n}")
    zero = np.zeros(encoder.dim)
    windows = []
    for conv in conversations:
        encoded = [np.asarray(encoder.encode_utterance(u), dtype=np.float64)
                   for u in conv.utterances]
        for t, utt in enumerate(conv.utterances):
            pads = max(n - t, 0)
            windows.append(ContextWindow(
                features=[zero] * pads + encoded[max(t - n, 0):t + 1],
                pad_mask=[False] * pads + [True] * (n + 1 - pads),
                label=vocab.index_of(utt.act_tag),
                conversation_id=conv.id,
                index=t,
                n_tokens=len(tokenize(utt.text)),
            ))
    return windows


# --- synthetic corpus -------------------------------------------------------


@dataclass
class SyntheticSpec:
    """Generator for a desk-scale corpus with a controllable context effect.

    Every utterance gets a latent class drawn uniformly; its text is sampled
    from that class's private vocabulary. The act tag of utterance t is
    ``transition`` applied to the class of utterance t-1 ("previous" mode,
    with a fixed start class standing in before t=0) or of utterance t itself
    ("current" mode). In "previous" mode the utterance's own text is
    independent of its own tag, so a no-context classifier is capped at the
    majority-label rate while a context model can reach 100%. "mixed" mode
    interleaves self-informative long utterances with short ambiguous
    responses whose tag only the preceding utterance reveals.

    A ``transition`` key may also be the decimal string of its class index,
    the form a JSON object gives; every key and value must name a class.
    """

    n_classes: int = 5
    words_per_class: int = 3
    mode: str = "previous"  # previous | current | mixed
    transition: dict[int, int] | None = None  # default: identity
    n_conversations: int = 30
    conversation_length: int = 14
    min_tokens: int = 1
    max_tokens: int = 3
    start_class: int = 0
    seed: int = 0
    response_words: tuple[str, ...] = ("yeah", "okay", "right")

    def __post_init__(self):
        if self.mode not in ("previous", "current", "mixed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        classes = range(self.n_classes)
        if self.transition is None:
            self.transition = {c: c for c in classes}
        names = {str(c): c for c in classes}  # JSON object keys are strings
        rule = {}
        for key, value in self.transition.items():
            source = names.get(key) if isinstance(key, str) else key
            if source not in classes or value not in classes:
                raise ValueError(f"transition {key!r} -> {value!r} names a class "
                                 f"outside 0..{self.n_classes - 1}")
            rule[int(source)] = int(value)
        self.transition = rule
        missing = set(classes) - set(rule)
        if missing:
            raise ValueError(f"transition rule does not cover classes {sorted(missing)}")
        if not (0 <= self.start_class < self.n_classes):
            raise ValueError("start_class out of range")
        if not (1 <= self.min_tokens <= self.max_tokens):
            raise ValueError("token bounds must satisfy 1 <= min <= max")
        if self.words_per_class < 1:
            raise ValueError("words_per_class must be at least 1")
        if self.mode == "mixed" and not self.response_words:
            raise ValueError("mode 'mixed' needs at least one of response_words")

    def class_words(self, c: int) -> list[str]:
        return [f"w{c}_{k}" for k in range(self.words_per_class)]

    def tag_name(self, c: int) -> str:
        return f"c{c}"

    def vocabulary(self) -> list[str]:
        words = [w for c in range(self.n_classes) for w in self.class_words(c)]
        if self.mode == "mixed":
            words.extend(self.response_words)
        return words


def generate_synthetic(spec: SyntheticSpec) -> list[Conversation]:
    """Seeded corpus draw following the configured transition rule."""
    rng = np.random.default_rng(spec.seed)
    conversations = []
    for i in range(spec.n_conversations):
        conv_id = f"syn{i:04d}"
        classes = rng.integers(0, spec.n_classes, spec.conversation_length)
        utts = []
        for t in range(spec.conversation_length):
            c = int(classes[t])
            prev = int(classes[t - 1]) if t > 0 else spec.start_class
            if spec.mode in ("previous", "current"):
                label = spec.transition[prev if spec.mode == "previous" else c]
                n_words = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
                words = [spec.class_words(c)[int(k)]
                         for k in rng.integers(0, spec.words_per_class, n_words)]
            else:  # mixed
                if rng.random() < 0.5:
                    label = spec.transition[c]
                    n_words = int(rng.integers(3, spec.max_tokens + 3))
                    words = [spec.class_words(c)[int(k)]
                             for k in rng.integers(0, spec.words_per_class, n_words)]
                else:
                    label = spec.transition[prev]
                    words = [spec.response_words[int(rng.integers(len(spec.response_words)))]]
            utts.append(Utterance(conv_id, t, " ".join(words), spec.tag_name(label)))
        conversations.append(Conversation(conv_id, utts))
    return conversations


def bayes_nocontext_accuracy(spec: SyntheticSpec) -> float:
    """Expected accuracy of the best possible classifier that sees only the
    current utterance's text.

    "previous" mode: the text is independent of the label, so the optimum is
    the majority label; position 0 always carries transition(start_class) and
    later positions are distributed by the transition image of a uniform
    class draw. "current" mode: the text identifies the class, so 1.0.
    "mixed" mode: self-informative halves are fully predictable; response
    halves carry transition(previous class), exactly the labels of
    "previous" mode (position 0 included), so they fall back to its majority
    label.
    """
    if spec.mode == "current":
        return 1.0
    k = spec.n_classes
    length = spec.conversation_length
    image = Counter(spec.transition[c] for c in range(k))
    first = spec.transition[spec.start_class]
    previous_majority = max(
        ((1.0 if label == first else 0.0) + (length - 1) * cnt / k) / length
        for label, cnt in image.items()
    )
    if spec.mode == "previous":
        return previous_majority
    # mixed: half the slots are self-informative, the other half responses
    return 0.5 + 0.5 * previous_majority
