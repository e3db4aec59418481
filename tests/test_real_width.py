"""The encoder computes only on real columns: tokenizer.batch_arrays cuts each
batch after its last real column, the encoder packs short rows together, and
every result equals the computation on the padded arrays, or on each row
alone."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adaptlm import encoder, fixtures, pretrain
from adaptlm.data import LabeledSentence, QAExample, RelationExample, RelationLabelSet
from adaptlm.encoder import (IGNORE_LABEL, EncoderConfig, affine_xent, backward_arrays,
                             forward_arrays, init_head, train_step, zero_grads)
from adaptlm.errors import ContractViolation
from adaptlm.heads import TASKS, FinetuneConfig
from adaptlm.pretrain import MaskingPolicy, PretrainConfig, apply_masking, mlm_step_grads
from adaptlm.tags import TagScheme
from adaptlm.tokenizer import batch_arrays, encode_sequence, stack_fields
from adaptlm.vocab import load_vocabulary_file

SRC = Path(__file__).resolve().parents[1] / "src" / "adaptlm"
MAX_LEN = 12  # the tiny encoder's max_positions; every batch below is shorter

DATA = {
    "ner": ([LabeledSentence(("a", "b", "c", "d", "e"), ("B-G", "E-G", "O", "O", "S-G")),
             LabeledSentence(("f", "g"), ("O", "S-G"))], TagScheme(("G",))),
    "re": ([RelationExample("r1", "a b c", "positive"),
            RelationExample("r2", "d e f g h", "negative")],
           RelationLabelSet(("negative", "positive"))),
    "qa": ([QAExample("q1", "a b", "c d e", answers=(("d", 2),)),
            QAExample("q2", "a", "f g", answers=(("g", 2),))], None),
}


def padded_arrays(batch):
    """(ids, segments, mask) at the encoding length, as stacked before the cut."""
    return stack_fields(batch, ("ids", "segments", "mask"))


def _task_batch(task, weights, vocab, data=DATA):
    """(encodings, head) of one fine-tuning batch of the task, with a head."""
    data, space = data[task]
    spec = TASKS[task]
    weights.tensors.update(init_head(weights.config, task, spec.width(space), seed=3))
    encodings, targets = zip(*spec.prepare(data, vocab, FinetuneConfig(max_len=MAX_LEN), space))
    return encodings, spec.head(weights, task, encodings, targets)


def _loss_and_grads(task, weights, vocab):
    """The loss and gradients of one train_step on a mixed-length batch."""
    if task == "mlm":
        batch = [encode_sequence(t, None, vocab, MAX_LEN) for t in ("a b c d e f", "g h", "i j a")]
        assert batch_arrays(batch)[0].shape == (3, 8)
        masked = apply_masking(batch, MaskingPolicy(mask_fraction=0.5, seed=2), vocab)
        loss, _, grads = mlm_step_grads(masked, weights)
        return loss, grads
    encodings, head = _task_batch(task, weights, vocab)
    return train_step(weights, encodings, head, train=False)


def test_batch_arrays_cuts_after_the_last_real_column(toy_vocab):
    short = encode_sequence("a b", None, toy_vocab, MAX_LEN)  # 4 real positions
    holed = encode_sequence("c", None, toy_vocab, MAX_LEN)
    mask = holed.mask.copy()
    mask[6] = 1  # real again after a gap: the mask is not a prefix
    batch = [short, replace(holed, mask=mask)]
    cut, padded = batch_arrays(batch), padded_arrays(batch)
    assert [a.shape for a in cut] == [(2, 7)] * 3
    for got, full in zip(cut, padded):
        np.testing.assert_array_equal(got, full[:, :7])


@pytest.mark.parametrize("task", ["mlm", "ner", "re", "qa"])
def test_cut_and_padded_batches_train_alike(task, tiny_weights, toy_vocab, monkeypatch):
    loss, grads = _loss_and_grads(task, tiny_weights, toy_vocab)
    monkeypatch.setattr(encoder, "batch_arrays", padded_arrays)
    padded_loss, padded_grads = _loss_and_grads(task, tiny_weights, toy_vocab)
    assert loss == pytest.approx(padded_loss, rel=1e-6)
    assert grads.keys() == padded_grads.keys()
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, padded_grads[name], rtol=1e-5, atol=1e-7,
                                   err_msg=name)


@pytest.mark.parametrize("task", ["ner", "re", "qa"])
def test_cut_and_padded_batches_give_the_same_states(task, tiny_weights, toy_vocab):
    encodings, _ = _task_batch(task, tiny_weights, toy_vocab)
    assert len({e.real_length for e in encodings}) > 1
    ids, segments, mask = batch_arrays(encodings)
    width = max(e.real_length for e in encodings)
    assert ids.shape == (len(encodings), width) and width < MAX_LEN
    cut = forward_arrays(tiny_weights, ids, segments, mask)
    padded = forward_arrays(tiny_weights, *padded_arrays(encodings))
    real = mask == 1
    np.testing.assert_allclose(cut[real], padded[:, :width][real], rtol=1e-5, atol=1e-6)


def test_a_label_past_the_cut_is_a_contract_violation(tiny_weights):
    hidden = np.zeros((2, 5, tiny_weights.config.hidden), dtype=np.float32)
    labels = np.full((2, MAX_LEN), IGNORE_LABEL)
    labels[1, 5] = 1
    weight, bias = np.zeros((tiny_weights.config.hidden, 3), np.float32), np.zeros(3, np.float32)
    with pytest.raises(ContractViolation, match="past column 5"):
        affine_xent(hidden, labels, weight, bias)
    labels[1, 5] = IGNORE_LABEL
    labels[1, 4] = 1
    assert affine_xent(hidden, labels, weight, bias)[0] == pytest.approx(np.log(3))


def test_an_admissible_position_past_the_cut_is_a_contract_violation(tiny_weights, toy_vocab):
    encodings, head = _task_batch("qa", tiny_weights, toy_vocab)
    hidden = forward_arrays(tiny_weights, *batch_arrays(encodings))
    head(hidden)
    with pytest.raises(ContractViolation, match="past column 6"):
        head(hidden[:, :6])


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None))


def _uncut_forwards(tree: ast.Module, module: str) -> list[str]:
    """module:line of each forward_arrays call whose arrays are not given as
    *batch_arrays(...)."""
    return [f"{module}:{node.lineno}" for node in ast.walk(tree)
            if _calls(node, "forward_arrays") and not (
                len(node.args) == 2 and isinstance(node.args[1], ast.Starred)
                and _calls(node.args[1].value, "batch_arrays"))]


def test_every_forward_in_the_package_takes_cut_arrays():
    hits, n_forwards = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        n_forwards += sum(_calls(node, "forward_arrays") for node in ast.walk(tree))
        hits += _uncut_forwards(tree, path.name)
    assert hits == []
    assert n_forwards == 3  # training, MLM scoring and task inference


def test_the_guard_sees_an_uncut_forward():
    tree = ast.parse("h = forward_arrays(w, *batch_arrays(b))\n"
                     "h = encoder.forward_arrays(w, ids, segments, mask)\n"
                     "arrays = batch_arrays(b)\n"
                     "h = forward_arrays(w, *arrays)\n"
                     "h = forward_arrays(w, *stack_fields(b, names), train=True)\n")
    assert _uncut_forwards(tree, "m.py") == ["m.py:2", "m.py:4", "m.py:5"]


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
    assert plan.n_rows == 2
    width = ids.shape[1]
    group = np.full((plan.n_rows, width), -1)
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
