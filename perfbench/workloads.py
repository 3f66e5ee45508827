"""The benchmark's workloads: seeded synthetic corpora and the CLI calls of
one round of ``train NC -> train WC -> eval -> analyze``.

Every workload trains a fixed number of epochs (``train.patience`` equals
``train.max_epochs``), so the work done does not depend on when early
stopping would fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synthetic: dict
    encoder: str
    model: dict
    train: dict
    ensemble: int = 1                  # seeds per model kind; several form an ensemble
    beats_bayes: bool = False          # WC accuracy must exceed the no-context Bayes bound
    min_context_gain: float | None = None  # WC minus NC accuracy, in points

    def config(self, seed: int, corpus_dir: Path, out_dir: Path) -> dict:
        epochs = self.train["max_epochs"]
        return {
            "seed": seed,
            "out_dir": str(out_dir),
            "paths": {"corpus_dir": str(corpus_dir)},
            "encoder": self.encoder,
            "synthetic": dict(self.synthetic),
            "model": dict(self.model),
            "train": {**self.train, "patience": epochs},
        }

    def model_dirs(self, out_dir: Path) -> list[Path]:
        return [out_dir / f"m{j}" for j in range(self.ensemble)]

    def checkpoints(self, out_dir: Path, kind: str) -> list[Path]:
        return [d / f"{kind}_{self.encoder}.ckpt.json" for d in self.model_dirs(out_dir)]

    def commands(self, seed: int, config_path: Path, out_dir: Path) -> list[tuple[str, list[str]]]:
        """(stage, argv) of one round; stage is train, eval or analyze."""
        cfg = ["--config", str(config_path)]
        cmds = []
        for j, model_dir in enumerate(self.model_dirs(out_dir)):
            for kind in ("baseline", "uttattbirnn"):
                cmds.append(("train", cfg + ["--seed", str(seed + j), "--out", str(model_dir),
                                             "train", "--model", kind]))
        cmds.append(("eval", cfg + ["eval",
                                    "--nc", *map(str, self.checkpoints(out_dir, "baseline")),
                                    "--wc", *map(str, self.checkpoints(out_dir, "uttattbirnn"))]))
        cmds.append(("analyze", cfg + ["analyze", "--records",
                                       str(out_dir / "eval_records.jsonl")]))
        return cmds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="word-previous",
            why="tags set by the previous utterance, one-hot words, WC hidden 8: "
                "training dominates, and the tensor kernel's per-op Python overhead with it",
            synthetic={"n_classes": 5, "mode": "previous", "n_conversations": 30,
                       "conversation_length": 14, "test_conversations": 30},
            encoder="word",
            model={"hidden_dim": 8, "dropout_rate": 0.2},
            train={"batch_size": 16, "max_epochs": 10, "learning_rate": 1e-2},
            beats_bayes=True,
            min_context_gain=20.0,
        ),
        Workload(
            name="concat-mixed",
            why="mixed long and one-word utterances, character mLSTM plus word features: "
                "char-LM training and char encoding dominate",
            synthetic={"n_classes": 5, "mode": "mixed", "n_conversations": 8,
                       "conversation_length": 14, "test_conversations": 6},
            encoder="concat",
            model={"hidden_dim": 8, "dropout_rate": 0.2, "char_hidden_dim": 64,
                   "char_lm_epochs": 2},
            train={"batch_size": 16, "max_epochs": 3, "learning_rate": 1e-2},
        ),
        Workload(
            name="ensemble-eval",
            why="small train split, large test split, three NC and three WC seeds at "
                "hidden 64 ensembled in one eval: forward-only inference dominates",
            synthetic={"n_classes": 5, "mode": "previous", "n_conversations": 8,
                       "conversation_length": 14, "test_conversations": 45},
            encoder="word",
            model={"hidden_dim": 64, "dropout_rate": 0.2},
            train={"batch_size": 16, "max_epochs": 3, "learning_rate": 1e-2},
            ensemble=3,
            beats_bayes=True,
        ),
    )
}
