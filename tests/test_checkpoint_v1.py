"""Checkpoints in the v1 layout, written by an earlier version of the program
(the one that kept parameters in per-layer dataclasses), still load, predict
the same values bit for bit, and re-save to the same bytes.

The fixtures in ``tests/data``: an NC checkpoint with a one-hot word encoder;
a WC checkpoint (attention head) with a concat encoder, whose character part
has a 4-character vocabulary and hidden size 3; the conversations both were
run on (windows of 2 context slots); and the probabilities and attention
profiles they predicted there. Every parameter, biases included, was moved
away from its initial value before saving.
"""

import json
from pathlib import Path

import pytest

from ctxda import corpus as cor
from ctxda import encoders as enc
from ctxda.model import load_checkpoint, save_checkpoint

DATA = Path(__file__).parent / "data"
CHECKPOINTS = {"nc": "v1_nc_word.ckpt.json", "wc": "v1_wc_concat.ckpt.json"}


@pytest.fixture(scope="module")
def expected():
    return json.loads((DATA / "v1_expected.json").read_text())


@pytest.mark.parametrize("kind", sorted(CHECKPOINTS))
def test_predictions_are_bit_identical(kind, expected):
    model, meta = load_checkpoint(DATA / CHECKPOINTS[kind])
    encoder = enc.encoder_from_config(meta["encoder"])
    convs = cor.load_jsonl(DATA / "v1_conversations.jsonl")
    windows = cor.build_all_windows(convs, expected["n_context"], encoder,
                                    cor.TagVocabulary(meta["tags"]))
    pred = model.predict(windows)
    assert pred.probs.tolist() == expected[f"{kind}_probs"]
    attention = [None] * len(windows) if pred.attention is None else pred.attention.tolist()
    assert attention == expected.get(f"{kind}_attention", [None] * len(windows))


@pytest.mark.parametrize("kind", sorted(CHECKPOINTS))
def test_resaving_is_byte_identical(kind, tmp_path):
    path = DATA / CHECKPOINTS[kind]
    model, meta = load_checkpoint(path)
    encoder_config = enc.encoder_to_config(enc.encoder_from_config(meta["encoder"]))
    save_checkpoint(tmp_path / "again.json", model, encoder_config, meta["tags"], meta["seed"])
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
