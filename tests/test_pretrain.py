import io
import json
import math

import numpy as np
import pytest

from adaptlm.checkpoint import load_checkpoint, roundtrip_bytes
from adaptlm.encoder import EncoderConfig, init_weights
from adaptlm.errors import ConfigError, InputError, TransferError
from adaptlm.pretrain import (IGNORE_LABEL, MaskingPolicy, PretrainConfig,
                              apply_masking, mlm_loss, pack_documents, read_corpus,
                              seed_stream, subsample_documents, train_mlm)
from adaptlm.tokenizer import encode_sequence
from adaptlm.vocab import Vocabulary


def _corpus(text):
    return io.StringIO(text)


SMALL_CORPUS = "a b c d e\nf g h i j\n\nc c d a b\na f g h c\nb d e a f\n"


def test_policy_validation():
    MaskingPolicy().validate()
    with pytest.raises(ConfigError):
        MaskingPolicy(mask_fraction=1.0).validate()
    with pytest.raises(ConfigError):
        MaskingPolicy(mask_fraction=0.0).validate()


def test_masking_no_maskable_positions(toy_vocab):
    enc = encode_sequence("", None, toy_vocab, 5)  # [CLS] [SEP] [PAD]...
    masked = apply_masking([enc], MaskingPolicy(seed=1), toy_vocab)
    assert masked.mask_positions.shape[0] == 0
    assert np.array_equal(masked.inputs[0].ids, enc.ids)
    assert np.all(masked.labels == IGNORE_LABEL)


def test_masking_deterministic(toy_vocab):
    batch = [encode_sequence("a b c d e f g h", None, toy_vocab, 12)]
    m1 = apply_masking(batch, MaskingPolicy(seed=7), toy_vocab)
    m2 = apply_masking(batch, MaskingPolicy(seed=7), toy_vocab)
    assert np.array_equal(m1.inputs[0].ids, m2.inputs[0].ids)
    assert np.array_equal(m1.labels, m2.labels)
    assert np.array_equal(m1.mask_positions, m2.mask_positions)


def test_masking_never_touches_specials_or_padding(toy_vocab, rng):
    batch = [encode_sequence("a b c", "d e f", toy_vocab, 16),
             encode_sequence("g h", None, toy_vocab, 16)]
    for seed in range(20):
        masked = apply_masking(batch, MaskingPolicy(mask_fraction=0.9, seed=seed), toy_vocab)
        for b, pos in masked.mask_positions:
            item = batch[b]
            assert item.mask[pos] == 1
            assert item.word_index[pos] >= 0
        # labels agree with mask_positions exactly
        sel = np.zeros_like(masked.labels, dtype=bool)
        sel[tuple(masked.mask_positions.T)] = True
        assert np.all((masked.labels != IGNORE_LABEL) == sel)


def test_masking_statistics_small(toy_vocab):
    batch = [encode_sequence(" ".join("abcdefghij"[i % 10] for i in range(30)),
                             None, toy_vocab, 34) for _ in range(120)]
    masked = apply_masking(batch, MaskingPolicy(seed=3), toy_vocab)
    n_maskable = sum(int(((e.mask == 1) & (e.word_index >= 0)).sum()) for e in batch)
    frac = masked.mask_positions.shape[0] / n_maskable
    assert abs(frac - 0.15) < 0.03
    rows, cols = masked.mask_positions.T
    originals = np.stack([e.ids for e in batch])[rows, cols]
    corrupted = np.stack([e.ids for e in masked.inputs])[rows, cols]
    n = len(rows)
    mask_share = float((corrupted == toy_vocab.mask_id).sum()) / n
    keep_share = float((corrupted == originals).sum()) / n
    assert abs(mask_share - 0.80) < 0.08
    assert abs(keep_share - 0.10) < 0.06


def test_random_replacements_never_special(toy_vocab):
    batch = [encode_sequence(" ".join(["a"] * 30), None, toy_vocab, 34)]
    specials = toy_vocab.special_ids - {toy_vocab.mask_id}
    for seed in range(30):
        masked = apply_masking(batch, MaskingPolicy(mask_fraction=0.9, seed=seed), toy_vocab)
        corrupted = masked.inputs[0].ids
        for b, pos in masked.mask_positions:
            assert int(corrupted[pos]) not in specials


def test_mlm_loss_uniform_logits_is_log_v(toy_vocab, tiny_config):
    store = init_weights(tiny_config)
    for name in store.tensors:
        store.tensors[name][:] = 0.0  # zero weights -> identically zero logits
    batch = [encode_sequence("a b c d e", None, toy_vocab, 8)]
    masked = apply_masking(batch, MaskingPolicy(seed=2), toy_vocab)
    assert masked.mask_positions.shape[0] > 0
    loss, logits = mlm_loss(masked, store)
    assert abs(loss - math.log(tiny_config.vocab_size)) < 1e-5
    assert logits.shape == (masked.mask_positions.shape[0], tiny_config.vocab_size)


def test_mlm_loss_empty_mask_positions_is_zero(toy_vocab, tiny_weights):
    enc = encode_sequence("", None, toy_vocab, 6)
    masked = apply_masking([enc], MaskingPolicy(seed=1), toy_vocab)
    loss, logits = mlm_loss(masked, tiny_weights)
    assert loss == 0.0
    assert logits.shape[0] == 0


def test_fresh_model_loss_near_chance(toy_vocab, tiny_config):
    store = init_weights(tiny_config)
    batch = [encode_sequence("a b c d e f", None, toy_vocab, 10)]
    masked = apply_masking(batch, MaskingPolicy(seed=4), toy_vocab)
    loss, _ = mlm_loss(masked, store)
    assert 0.0 <= loss <= math.log(tiny_config.vocab_size) + 1.0


def test_read_corpus_documents():
    docs = read_corpus(_corpus(SMALL_CORPUS))
    assert [len(d) for d in docs] == [2, 3]


def test_pack_documents_respects_max_len(toy_vocab):
    docs = read_corpus(_corpus(SMALL_CORPUS))
    segments = pack_documents(docs, toy_vocab, 8)
    assert segments
    for seg in segments:
        assert len(seg) == 8
        assert seg.ids[0] == toy_vocab.cls_id
        assert int(seg.mask.sum()) <= 8


def test_pack_documents_hard_splits_overlong_sentence(toy_vocab):
    docs = [[" ".join(["a"] * 50)]]
    segments = pack_documents(docs, toy_vocab, 10)
    total = sum(int(((s.mask == 1) & (s.word_index >= 0)).sum()) for s in segments)
    assert total == 50


def test_subsample_documents_prefix(toy_vocab):
    docs = [[f"a {i}"] for i in range(10)]
    sub = subsample_documents(docs, 0.3, seed=5)
    assert len(sub) == 3
    assert subsample_documents(docs, 0.3, seed=5) == sub
    assert len(subsample_documents(docs, 1.0, seed=5)) == 10
    with pytest.raises(InputError):
        subsample_documents(docs, 0.0, seed=5)


def _pretrain_cfg(toy_vocab, steps=8, **kw):
    enc = EncoderConfig(vocab_size=len(toy_vocab), hidden=16, layers=1, heads=2,
                        ff_dim=32, max_positions=12, dropout=0.0, seed=1)
    defaults = dict(steps=steps, batch_size=4, max_len=10, learning_rate=3e-4,
                    masking=MaskingPolicy(seed=9), seed=13, encoder=enc)
    defaults.update(kw)
    return PretrainConfig(**defaults)


def test_train_mlm_runs_exact_steps_and_logs(toy_vocab, tmp_path):
    log = io.StringIO()
    cfg = _pretrain_cfg(toy_vocab, steps=6)
    weights, records = train_mlm(_corpus(SMALL_CORPUS), cfg, toy_vocab, log_sink=log)
    assert [r["step"] for r in records] == list(range(1, 7))
    lines = [json.loads(l) for l in log.getvalue().splitlines()]
    assert len(lines) == 6
    assert set(lines[0]) == {"step", "loss", "accuracy", "n_masked", "lr", "grad_norm",
                             "wall_ms"}
    assert lines[0]["grad_norm"] > 0 and lines[0]["lr"] > 0
    assert weights.metadata["vocab_fingerprint"] == toy_vocab.fingerprint()


def test_train_mlm_bit_identical_across_runs(toy_vocab):
    cfg = _pretrain_cfg(toy_vocab, steps=5)
    w1, _ = train_mlm(_corpus(SMALL_CORPUS), cfg, toy_vocab)
    w2, _ = train_mlm(_corpus(SMALL_CORPUS), cfg, toy_vocab)
    assert roundtrip_bytes(w1) == roundtrip_bytes(w2)


def test_train_mlm_zero_lr_probe_preserves_init(toy_vocab):
    """Continuation loads the checkpoint; with lr 0 the weights stay bit-equal."""
    init = init_weights(_pretrain_cfg(toy_vocab).encoder)
    init.metadata["vocab_fingerprint"] = toy_vocab.fingerprint()
    cfg = _pretrain_cfg(toy_vocab, steps=2, learning_rate=0.0, encoder=None)
    out, _ = train_mlm(_corpus(SMALL_CORPUS), cfg, toy_vocab, init=init)
    for name in init.tensors:
        assert np.array_equal(out.tensors[name], init.tensors[name]), name


def test_train_mlm_continued_differs_from_scratch(toy_vocab):
    base = _pretrain_cfg(toy_vocab).encoder
    init = init_weights(EncoderConfig(**{**base.__dict__, "seed": 77}))
    cfg = _pretrain_cfg(toy_vocab, steps=4, encoder=None)
    continued, _ = train_mlm(_corpus(SMALL_CORPUS), cfg, toy_vocab, init=init)
    scratch_cfg = _pretrain_cfg(toy_vocab, steps=4)
    scratch, _ = train_mlm(_corpus(SMALL_CORPUS), scratch_cfg, toy_vocab)
    assert not np.array_equal(continued.tensors["embeddings.token"],
                              scratch.tensors["embeddings.token"])


def test_train_mlm_empty_corpus_is_input_error(toy_vocab):
    with pytest.raises(InputError):
        train_mlm(_corpus(""), _pretrain_cfg(toy_vocab), toy_vocab)


def test_train_mlm_vocab_fingerprint_mismatch(toy_vocab):
    other = Vocabulary(tuple(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
                             + list("abcdefghij") + ["ab", "abd", "##a", "##b",
                                                     "##c", "##d", "##ab", "##bc",
                                                     ".", ","]))
    assert len(other) == len(toy_vocab)  # same size, different content
    init = init_weights(_pretrain_cfg(toy_vocab).encoder)
    init.metadata["vocab_fingerprint"] = other.fingerprint()
    cfg = _pretrain_cfg(toy_vocab, encoder=None)
    with pytest.raises(TransferError, match="vocabulary"):
        train_mlm(_corpus(SMALL_CORPUS), cfg, toy_vocab, init=init)


def test_train_mlm_shape_mismatch_lists_tensors(toy_vocab):
    small = EncoderConfig(vocab_size=len(toy_vocab), hidden=8, layers=1, heads=2,
                          ff_dim=16, max_positions=12, seed=1)
    init = init_weights(small)
    init.metadata["vocab_fingerprint"] = toy_vocab.fingerprint()
    cfg = _pretrain_cfg(toy_vocab)  # encoder hidden=16 disagrees
    with pytest.raises(TransferError, match="embeddings.token"):
        train_mlm(_corpus(SMALL_CORPUS), cfg, toy_vocab, init=init)


def test_train_mlm_saves_intermediate_checkpoints(toy_vocab, tmp_path):
    cfg = _pretrain_cfg(toy_vocab, steps=6, checkpoint_interval=2)
    train_mlm(_corpus(SMALL_CORPUS), cfg, toy_vocab, out_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
    assert names == ["final.ckpt", "step_000002.ckpt", "step_000004.ckpt",
                     "step_000006.ckpt"]
    with open(tmp_path / "final.ckpt", "rb") as f:
        load_checkpoint(f)


def test_reference_corpus_loss_halves_in_300_steps():
    """Regression band pinned from the reference run (observed ratio 0.41-0.47)."""
    from adaptlm.fixtures import FixtureRecipe, _build_world
    from adaptlm.vocab import Vocabulary

    world = _build_world(FixtureRecipe(), np.random.default_rng(42))
    vocab = Vocabulary(tuple(world.vocab_entries))
    r = np.random.default_rng(1)
    docs = []
    for _ in range(135):  # ~50 KB of bursty synthetic text
        pool = [world.general[int(r.integers(len(world.general)))] for _ in range(3)]
        docs.append("\n".join(" ".join(pool[int(r.integers(3))] for _ in range(8)) + " ."
                              for _ in range(8)))
    text = "\n\n".join(docs) + "\n"
    assert 45_000 < len(text.encode()) < 60_000

    enc = EncoderConfig(vocab_size=len(vocab), hidden=64, layers=2, heads=4,
                        ff_dim=128, max_positions=64, dropout=0.0, seed=0)
    cfg = PretrainConfig(steps=300, batch_size=16, max_len=48, learning_rate=5e-3,
                         warmup_fraction=0.02, masking=MaskingPolicy(seed=0),
                         seed=0, encoder=enc)
    _, records = train_mlm(io.StringIO(text), cfg, vocab)
    assert records[-1]["loss"] <= 0.5 * records[0]["loss"]


def test_heldout_accuracy_beats_chance_after_training(toy_vocab):
    cfg = _pretrain_cfg(toy_vocab, steps=120, learning_rate=1e-3)
    weights, _ = train_mlm(_corpus(SMALL_CORPUS), cfg, toy_vocab)
    held = [encode_sequence("c c d a b", None, toy_vocab, 10),
            encode_sequence("a f g h c", None, toy_vocab, 10)]
    hits = total = 0
    for seed in range(10):
        masked = apply_masking(held, MaskingPolicy(seed=seed), toy_vocab)
        if masked.mask_positions.shape[0] == 0:
            continue
        _, logits = mlm_loss(masked, weights)
        rows, cols = masked.mask_positions.T
        targets = masked.labels[rows, cols]
        hits += int((logits.argmax(axis=1) == targets).sum())
        total += len(targets)
    assert total > 0
    assert hits / total > 1.0 / len(toy_vocab)


def test_seed_stream_independence():
    a = seed_stream(5, "pretrain.mask").integers(0, 1000, 5)
    b = seed_stream(5, "pretrain.order").integers(0, 1000, 5)
    c = seed_stream(5, "pretrain.mask").integers(0, 1000, 5)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
