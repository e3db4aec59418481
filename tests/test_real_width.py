"""The encoder computes only on real columns: it packs the rows' real spans
into rows as wide as the longest span, so every result equals the
computation on a shorter encoding of the same batch, or on each row alone."""

from dataclasses import replace

import numpy as np
import pytest

from adaptlm import fixtures, pretrain
from adaptlm.data import LabeledSentence, QAExample, RelationExample, RelationLabelSet
from adaptlm.encoder import (EncoderConfig, _packing_plan, affine_xent, backward_arrays,
                             forward_arrays, init_head, train_step, zero_grads)
from adaptlm.errors import InputError
from adaptlm.heads import TASKS, FinetuneConfig
from adaptlm.pretrain import MaskingPolicy, PretrainConfig, apply_masking, mlm_step_grads
from adaptlm.tags import TagScheme
from adaptlm.tokenizer import batch_arrays, encode_sequence
from adaptlm.vocab import load_vocabulary_file

MAX_LEN = 12  # the tiny encoder's max_positions; every batch below is shorter
SHORT_LEN = 8  # holds every real encoding of DATA and the MLM batch, untruncated

DATA = {
    "ner": ([LabeledSentence(("a", "b", "c", "d", "e"), ("B-G", "E-G", "O", "O", "S-G")),
             LabeledSentence(("f", "g"), ("O", "S-G"))], TagScheme(("G",))),
    "re": ([RelationExample("r1", "a b c", "positive"),
            RelationExample("r2", "d e f g h", "negative")],
           RelationLabelSet(("negative", "positive"))),
    "qa": ([QAExample("q1", "a b", "c d e", answers=(("d", 2),)),
            QAExample("q2", "a", "f g", answers=(("g", 2),))], None),
}


def _task_batch(task, weights, vocab, data=DATA, max_len=MAX_LEN):
    """(encodings, head) of one fine-tuning batch of the task, with a head."""
    data, space = data[task]
    spec = TASKS[task]
    weights.tensors.update(init_head(weights.config, task, spec.width(space), seed=3))
    encodings, targets = zip(*spec.prepare(data, vocab, FinetuneConfig(max_len=max_len), space))
    return encodings, spec.head(weights, task, encodings, targets)


def _loss_and_grads(task, weights, vocab, max_len):
    """The loss and gradients of one train_step on a mixed-length batch
    encoded at max_len."""
    if task == "mlm":
        texts = ("a b c d e f", "g h", "i j a")
        # the draws depend on the length they are made at, so both lengths
        # take the ones made at MAX_LEN
        masked = apply_masking([encode_sequence(t, None, vocab, MAX_LEN) for t in texts],
                               MaskingPolicy(mask_fraction=0.5, seed=2), vocab)
        batch = [encode_sequence(t, None, vocab, max_len).with_ids(item.ids[:max_len])
                 for t, item in zip(texts, masked.inputs)]
        assert batch_arrays(batch)[0].shape == (3, max_len)
        masked = replace(masked, inputs=batch, labels=masked.labels[:, :max_len])
        loss, _, grads = mlm_step_grads(masked, weights)
        return loss, grads
    encodings, head = _task_batch(task, weights, vocab, max_len=max_len)
    return train_step(weights, encodings, head, train=False)


def test_plan_width_is_one_past_the_last_real_column(toy_vocab):
    short = encode_sequence("a b", None, toy_vocab, MAX_LEN)  # 4 real positions
    holed = encode_sequence("c", None, toy_vocab, MAX_LEN)
    mask = holed.mask.copy()
    mask[6] = 1  # real again after a gap: the mask is not a prefix
    ids, _, mask = batch_arrays([short, replace(holed, mask=mask)])
    assert ids.shape == (2, MAX_LEN)
    plan = _packing_plan(mask > 0)
    assert plan.width == 7
    assert plan.spans.tolist() == [4, 7] and plan.n_rows == 2


@pytest.mark.parametrize("task", ["mlm", "ner", "re", "qa"])
def test_cut_and_padded_batches_train_alike(task, tiny_weights, toy_vocab):
    loss, grads = _loss_and_grads(task, tiny_weights, toy_vocab, SHORT_LEN)
    padded_loss, padded_grads = _loss_and_grads(task, tiny_weights, toy_vocab, MAX_LEN)
    assert loss == pytest.approx(padded_loss, rel=1e-6)
    assert grads.keys() == padded_grads.keys()
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, padded_grads[name], rtol=1e-5, atol=1e-7,
                                   err_msg=name)


@pytest.mark.parametrize("task", ["ner", "re", "qa"])
def test_cut_and_padded_batches_give_the_same_states(task, tiny_weights, toy_vocab):
    short, _ = _task_batch(task, tiny_weights, toy_vocab, max_len=SHORT_LEN)
    encodings, _ = _task_batch(task, tiny_weights, toy_vocab)
    assert len({e.real_length for e in encodings}) > 1
    assert [e.real_length for e in short] == [e.real_length for e in encodings]
    short_states = forward_arrays(tiny_weights, *batch_arrays(short))
    ids, segments, mask = batch_arrays(encodings)
    padded = forward_arrays(tiny_weights, ids, segments, mask)
    assert short_states.shape[1] == SHORT_LEN and padded.shape[1] == MAX_LEN
    real = mask == 1
    np.testing.assert_allclose(short_states[real[:, :SHORT_LEN]], padded[real],
                               rtol=1e-5, atol=1e-6)
    assert (padded[~real] == 0).all()


def test_spans_up_to_max_positions_run_inside_wider_arrays(tiny_weights):
    """max_positions bounds the longest span, not the width of the arrays."""
    limit = tiny_weights.config.max_positions
    ids = np.full((2, limit + 8), 5)
    mask = np.zeros_like(ids)
    mask[0, :limit] = 1
    mask[1, :3] = 1
    states = forward_arrays(tiny_weights, ids, np.zeros_like(ids), mask)
    assert states.shape == (2, limit + 8, tiny_weights.config.hidden)
    assert (states[0, limit:] == 0).all() and (states[1, 3:] == 0).all()
    mask[1, limit] = 1  # a span of limit + 1 columns
    with pytest.raises(InputError, match=f"sequence length {limit + 1} exceeds"):
        forward_arrays(tiny_weights, ids, np.zeros_like(ids), mask)


# ------------------------------------------------------------------ packing

# each batch holds one long row and two short ones that share a packed row
PACKING = {
    "ner": ([LabeledSentence(("a", "b", "c", "d", "e"), ("B-G", "E-G", "O", "O", "S-G")),
             LabeledSentence(("f", "g"), ("O", "S-G")),
             LabeledSentence(("h",), ("S-G",))], TagScheme(("G",))),
    "re": ([RelationExample("r1", "a b c", "positive"),
            RelationExample("r2", "d e f g h i j a", "negative"),
            RelationExample("r3", "i", "negative")],
           RelationLabelSet(("negative", "positive"))),
    "qa": ([QAExample("q1", "a b", "c d e f g h i", answers=(("d", 2),)),
            QAExample("q2", "a", "f g", answers=(("g", 2),)),
            QAExample("q3", "b", "e", answers=(("e", 0),))], None),
}


def _mlm_batch(weights, vocab):
    """(encodings, head) of one masked batch: the head mlm_step_grads uses."""
    batch = [encode_sequence(t, None, vocab, MAX_LEN)
             for t in ("a b c d e f g h", "g h", "i j a", "b")]
    masked = apply_masking(batch, MaskingPolicy(mask_fraction=0.5, seed=2), vocab)
    tensors = weights.tensors

    def head(hidden):
        loss, _, d_hidden, d_weight, d_bias = affine_xent(
            hidden, masked.labels, tensors["embeddings.token"].T, tensors["mlm.bias"])
        return loss, d_hidden, {"embeddings.token": d_weight.T, "mlm.bias": d_bias}
    return masked.inputs, head


def _packing_batch(task, weights, vocab):
    if task == "mlm":
        return _mlm_batch(weights, vocab)
    return _task_batch(task, weights, vocab, PACKING)


def _row_by_row(weights, encodings, head):
    """(states, loss, grads) with each row run alone, at its own real width,
    where nothing can pack; one head call over the assembled states."""
    ids, segments, mask = batch_arrays(encodings)
    hidden = np.zeros(ids.shape + (weights.config.hidden,), dtype=weights.dtype)
    caches = []
    for row, encoding in enumerate(encodings):
        n = encoding.real_length
        states, cache = forward_arrays(weights, ids[row:row + 1, :n], segments[row:row + 1, :n],
                                       mask[row:row + 1, :n], return_cache=True)
        hidden[row, :n] = states[0]
        caches.append(cache)
    loss, d_hidden, head_grads = head(hidden)
    grads = zero_grads(weights)
    for name, grad in head_grads.items():
        grads.setdefault(name, np.zeros_like(grad))
        grads[name] += grad
    for row, (encoding, cache) in enumerate(zip(encodings, caches)):
        backward_arrays(weights, cache, d_hidden[row:row + 1, :encoding.real_length], grads)
    return hidden, loss, grads


@pytest.mark.parametrize("task", ["mlm", "ner", "re", "qa"])
def test_packed_batch_equals_each_row_alone(task, tiny_weights, toy_vocab):
    encodings, head = _packing_batch(task, tiny_weights, toy_vocab)
    arrays = batch_arrays(encodings)
    states, cache = forward_arrays(tiny_weights, *arrays, return_cache=True)
    assert cache["plan"].n_rows < len(encodings)
    alone, alone_loss, alone_grads = _row_by_row(tiny_weights, encodings, head)
    real = arrays[2] == 1
    np.testing.assert_allclose(states[real], alone[real], rtol=1e-5, atol=1e-6)
    assert (states[~real] == 0).all()  # the mask is a prefix, so padding is outside every span

    loss, grads = train_step(tiny_weights, encodings, head, train=False)
    assert loss == pytest.approx(alone_loss, rel=1e-6)
    assert grads.keys() == alone_grads.keys()
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, alone_grads[name], rtol=1e-5, atol=1e-7,
                                   err_msg=name)


def _packed_probs(weights, ids, segments, mask):
    _, cache = forward_arrays(weights, ids, segments, mask, return_cache=True)
    # each layer's probs over all packed rows, joining the row groups
    n_layers = weights.config.layers
    return cache["plan"], [np.concatenate([layers[i]["probs"] for _, layers in cache["groups"]])
                           for i in range(n_layers)]


def test_a_holed_mask_keeps_its_masked_keys_masked(tiny_weights, toy_vocab):
    batch = [encode_sequence(t, None, toy_vocab, MAX_LEN) for t in ("a b c d e f", "g h", "i")]
    ids, segments, mask = batch_arrays(batch)
    mask[1, 2] = 0  # a hole inside row 1's span
    plan, probs = _packed_probs(tiny_weights, ids, segments, mask)
    assert plan.n_rows == 2 and plan.rows[1] == plan.rows[2]
    hole = plan.offsets[1] + 2
    for layer_probs in probs:
        assert (layer_probs[plan.rows[1], :, :, hole] == 0).all()
    states = forward_arrays(tiny_weights, ids, segments, mask)
    alone = forward_arrays(tiny_weights, ids[1:2, :4], segments[1:2, :4], mask[1:2, :4])
    np.testing.assert_allclose(states[1, :4], alone[0], rtol=1e-5, atol=1e-6)


def test_a_query_gives_no_weight_to_another_span(tiny_weights, toy_vocab):
    batch = [encode_sequence(t, None, toy_vocab, MAX_LEN)
             for t in ("a b c d e f g h", "a", "b c", "d")]
    ids, segments, mask = batch_arrays(batch)
    plan, probs = _packed_probs(tiny_weights, ids, segments, mask)
    assert plan.n_rows == 2 and plan.width == 10  # [CLS] a b c d e f g h [SEP]
    group = np.full((plan.n_rows, plan.width), -1)
    for row, (r, start, n) in enumerate(zip(plan.rows, plan.offsets, plan.spans)):
        group[r, start:start + n] = row
    for layer_probs in probs:
        for r in range(plan.n_rows):
            other = group[r][:, None] != group[r][None, :]
            assert (layer_probs[r][:, other] == 0.0).all()


def test_pretraining_batches_pack_into_fewer_rows(tmp_path, monkeypatch):
    """The first 100 batches train_mlm draws at the reference shape from the
    default-recipe corpus (16 segments of max_len 32) pack into at most 11.5
    rows on average."""
    fixtures.generate_fixtures(fixtures.FixtureRecipe(), 42, tmp_path)
    vocab = load_vocabulary_file(tmp_path / "vocab.txt")
    rows = []

    def count_rows(masked, weights, *, grads, **_):
        _, cache = forward_arrays(weights, *batch_arrays(masked.inputs), return_cache=True)
        rows.append(cache["plan"].n_rows)
        return 0.0, 0.0, grads

    monkeypatch.setattr(pretrain, "mlm_step_grads", count_rows)
    enc = EncoderConfig(vocab_size=len(vocab), hidden=64, layers=2, heads=4, ff_dim=128,
                        max_positions=40, dropout=0.0)
    pretrain.train_mlm(tmp_path / "domain_corpus.txt",
                       PretrainConfig(steps=100, batch_size=16, max_len=32, encoder=enc), vocab)
    assert len(rows) == 100
    assert np.mean(rows) <= 11.5
