"""The reference forward agrees with the program on freshly initialised models."""

import numpy as np
import pytest

from ctxda import corpus as cor
from ctxda import encoders as enc
from ctxda import model as mdl

import reference


def make_encoder(kind: str, convs):
    vocab = sorted({tok for c in convs for u in c.utterances for tok in enc.tokenize(u.text)})
    word = enc.WordMeanEncoder(enc.EmbeddingTable.one_hot(vocab))
    word.source = {"kind": "onehot", "vocabulary": vocab}
    chars = enc.CharVocab()
    char = enc.CharMLSTMEncoder(enc.MLSTMParams.create(chars.size, 6, seed=1), chars)
    return {"word": word, "char": char, "concat": enc.ConcatEncoder(char, word)}[kind]


MODELS = {
    "nc": lambda dim, c: mdl.BaselineMLP(dim, c, hidden1=7, hidden2=5, seed=2),
    "wc": lambda dim, c: mdl.UttAttBiRNN(dim, c, hidden_dim=4, n_context=3, seed=3),
}


@pytest.mark.parametrize("encoder_kind", ["word", "char", "concat"])
@pytest.mark.parametrize("model_kind", sorted(MODELS))
def test_reference_matches_program(tmp_path, encoder_kind, model_kind):
    mode = "mixed" if encoder_kind != "word" else "previous"
    convs = cor.generate_synthetic(cor.SyntheticSpec(
        n_classes=4, mode=mode, n_conversations=3, conversation_length=6, seed=7))
    tags = cor.TagVocabulary.from_conversations(convs)
    encoder = make_encoder(encoder_kind, convs)
    model = MODELS[model_kind](encoder.dim, len(tags))
    n_context = getattr(model, "n_context", 4)
    windows = cor.build_all_windows(convs, n_context, encoder, tags)
    preds = [model.predict(w) for w in windows]

    ckpt_path = tmp_path / "model.ckpt.json"
    mdl.save_checkpoint(ckpt_path, model, enc.encoder_to_config(encoder), tags.tags, 0)
    cor.write_jsonl(tmp_path / "test.jsonl", convs)
    probs, attention = reference.predict(reference.load_checkpoint(ckpt_path),
                                         reference.load_corpus(tmp_path / "test.jsonl"))

    np.testing.assert_allclose(probs, [p.probs for p in preds], rtol=0, atol=1e-12)
    if model_kind == "nc":
        assert attention is None
    else:
        np.testing.assert_allclose(attention, [p.attention for p in preds], rtol=0, atol=1e-12)


@pytest.mark.parametrize("options", [{"head": "direct"}, {"mask_padding": True}])
def test_uncovered_model_is_refused(tmp_path, options):
    convs = cor.generate_synthetic(cor.SyntheticSpec(n_conversations=1, conversation_length=3))
    tags = cor.TagVocabulary.from_conversations(convs)
    encoder = make_encoder("word", convs)
    model = mdl.UttAttBiRNN(encoder.dim, len(tags), hidden_dim=3, **options)
    mdl.save_checkpoint(tmp_path / "m.json", model, enc.encoder_to_config(encoder), tags.tags, 0)
    cor.write_jsonl(tmp_path / "test.jsonl", convs)
    with pytest.raises(ValueError, match="not covered"):
        reference.predict(reference.load_checkpoint(tmp_path / "m.json"),
                          reference.load_corpus(tmp_path / "test.jsonl"))
