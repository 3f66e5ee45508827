"""A pipeline small enough for tests: two seeds of NC and WC, one epoch."""

from __future__ import annotations

import json
from pathlib import Path

from ctxda import cli

import worker
from workloads import Workload

TINY = Workload(
    name="tiny",
    why="test fixture",
    synthetic={"n_classes": 4, "mode": "previous", "n_conversations": 4,
               "conversation_length": 6, "test_conversations": 3},
    encoder="word",
    model={"hidden_dim": 4, "dropout_rate": 0.2, "baseline_hidden1": 8,
           "baseline_hidden2": 6},
    train={"batch_size": 8, "max_epochs": 1, "learning_rate": 1e-2},
    ensemble=2,
)


def run_tiny(root: Path, seed: int = 0, rounds: int = 1) -> tuple[Path, Path]:
    """Synthesize, then run whole rounds into ``root``; (corpus_dir, out_dir)."""
    corpus_dir, out_dir = root / "corpus", root / "round"
    config_path = root / "config.json"
    config_path.write_text(json.dumps(TINY.config(seed, corpus_dir, out_dir)))
    assert worker.run_cli(cli, ["--config", str(config_path), "synth"])[0] == 0
    for _ in range(rounds):
        result = worker.run_round(cli, TINY, seed, config_path, out_dir)
        assert result["failed"] == 0
    return corpus_dir, out_dir
