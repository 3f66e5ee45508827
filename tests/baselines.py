"""Reference baselines that only the tests compute."""

from collections import Counter


def majority_baseline(train_tags: list[str], test_tags: list[str]) -> float:
    """Accuracy (%) of always predicting the most frequent training tag."""
    if not train_tags or not test_tags:
        raise ValueError("majority baseline needs non-empty tag lists")
    counts = Counter(train_tags)
    top = max(counts, key=lambda t: (counts[t], t))
    hits = sum(1 for t in test_tags if t == top)
    return 100.0 * hits / len(test_tags)
