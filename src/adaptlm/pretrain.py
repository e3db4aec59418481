"""Masked-language-model pretraining with optional continuation from a checkpoint.

The corpus format is plain UTF-8 text, one sentence per line, blank line
between documents. Sentences are subword-split once, then packed into
[CLS] ... [SEP] segments of at most max_len tokens without crossing document
boundaries. Masks are re-drawn for every batch (dynamic masking).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .checkpoint import save_checkpoint_file
from .data import open_text
from .encoder import (IGNORE_LABEL, EncoderConfig, WeightStore, affine_xent,
                      expected_shapes, forward_arrays, init_weights, train_step)
from .errors import ConfigError, InputError, TransferError
from .optimizer import AdamW, linear_schedule
from .tokenizer import (EncodedInput, basic_tokenize, batch_arrays, encode_pieces, stack_fields,
                        wordpiece_split)
from .vocab import Vocabulary

# BERT's 80/10/10 split of selected positions: [MASK], a random id, unchanged.
REPLACE_WITH_MASK = 0.80
REPLACE_WITH_RANDOM = 0.10


@dataclass(frozen=True)
class MaskingPolicy:
    mask_fraction: float = 0.15
    seed: int = 0

    def validate(self) -> "MaskingPolicy":
        if not 0.0 < self.mask_fraction < 1.0:
            raise ConfigError("mask_fraction must lie in (0, 1)")
        return self


@dataclass
class MaskedBatch:
    """Corrupted inputs plus the information needed to score predictions.

    labels holds the original id at every selected position and IGNORE_LABEL
    elsewhere; mask_positions is an (n, 2) array of (row, position) pairs.
    """

    inputs: list[EncodedInput]
    labels: np.ndarray
    mask_positions: np.ndarray


@dataclass(frozen=True)
class PretrainConfig:
    steps: int
    batch_size: int = 16
    max_len: int = 32
    learning_rate: float = 1e-4
    warmup_fraction: float = 0.01
    weight_decay: float = 0.01
    masking: MaskingPolicy = field(default_factory=MaskingPolicy)
    seed: int = 0
    checkpoint_interval: int = 0
    encoder: EncoderConfig | None = None  # required when training from scratch

    def validate(self) -> "PretrainConfig":
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_len < 3:
            raise ConfigError("max_len must be >= 3")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError("warmup_fraction must lie in [0, 1)")
        self.masking.validate()
        if self.encoder is not None:
            self.encoder.validate()
        return self


def apply_masking(batch: list[EncodedInput], policy: MaskingPolicy, vocab: Vocabulary,
                  rng: np.random.Generator | None = None) -> MaskedBatch:
    """Independently select maskable positions and corrupt them.

    Maskable means a real (mask=1) non-special position. Selected positions
    become [MASK] / a random non-special id / stay unchanged with
    probabilities 0.8 / 0.1 / 0.1. Deterministic given policy.seed (or the
    supplied rng stream) and the batch.
    """
    policy.validate()
    if rng is None:
        rng = np.random.default_rng(policy.seed)
    # at the encoding length, so the draws do not depend on the batch's real width
    ids, mask, word_index = stack_fields(batch, ("ids", "mask", "word_index"))
    maskable = (mask == 1) & (word_index >= 0)

    selected = maskable & (rng.random(ids.shape) < policy.mask_fraction)
    action = rng.random(ids.shape)
    non_special = np.asarray(vocab.non_special_ids(), dtype=np.int32)
    random_ids = non_special[rng.integers(0, len(non_special), ids.shape)]

    t_random = REPLACE_WITH_MASK + REPLACE_WITH_RANDOM
    corrupted = ids.copy()
    corrupted[selected & (action < REPLACE_WITH_MASK)] = vocab.mask_id
    use_random = selected & (action >= REPLACE_WITH_MASK) & (action < t_random)
    corrupted[use_random] = random_ids[use_random]

    labels = np.where(selected, ids, IGNORE_LABEL).astype(np.int64)
    mask_positions = np.argwhere(selected)
    inputs = [item.with_ids(corrupted[i]) for i, item in enumerate(batch)]
    return MaskedBatch(inputs=inputs, labels=labels, mask_positions=mask_positions)


def mlm_logits(hidden_rows: np.ndarray, weights: WeightStore) -> np.ndarray:
    """Tied-embedding vocabulary projection for selected hidden rows."""
    return hidden_rows @ weights.tensors["embeddings.token"].T + weights.tensors["mlm.bias"]


def mlm_loss(masked: MaskedBatch, weights: WeightStore):
    """Mean cross-entropy over the masked positions; 0 when there are none.

    Returns (loss, logits) with logits of shape (n_masked, vocab_size) in the
    order of masked.mask_positions.
    """
    if masked.mask_positions.shape[0] == 0:
        return 0.0, np.zeros((0, weights.config.vocab_size), dtype=weights.dtype)
    hidden = forward_arrays(weights, *batch_arrays(masked.inputs),
                            read=masked.labels != IGNORE_LABEL)
    rows, cols = masked.mask_positions[:, 0], masked.mask_positions[:, 1]
    logits = mlm_logits(hidden[rows, cols], weights)
    targets = masked.labels[rows, cols]
    losses, _ = kernels.softmax_xent(logits, targets)
    return float(losses.mean()), logits


def mlm_step_grads(masked: MaskedBatch, weights: WeightStore, *,
                   train: bool = False, rng: np.random.Generator | None = None,
                   grads: dict[str, np.ndarray] | None = None):
    """Forward + backward for one masked batch.

    The encoder's last layer computes only at the masked positions.
    Returns (loss, accuracy, grads). Gradients cover every core tensor,
    including the tied token-embedding contribution from the output
    projection; they accumulate into grads when given (see train_step).
    """
    tensors = weights.tensors
    read = masked.labels != IGNORE_LABEL
    targets = masked.labels[read]

    def head(hidden):
        loss, logits, d_hidden, d_weight, d_bias = affine_xent(
            hidden, masked.labels, tensors["embeddings.token"].T, tensors["mlm.bias"])
        accuracy = float((logits.argmax(axis=1) == targets).mean()) if targets.size else 0.0
        return (loss, accuracy), d_hidden, {"embeddings.token": d_weight.T, "mlm.bias": d_bias}

    (loss, accuracy), grads = train_step(weights, masked.inputs, head, grads, read=read,
                                         train=train, rng=rng)
    return loss, accuracy, grads


# ---------------------------------------------------------------------------
# corpus handling
# ---------------------------------------------------------------------------

def read_corpus(source) -> list[list[str]]:
    """Documents as lists of sentence strings, from a path, file or iterable."""
    if isinstance(source, (str, os.PathLike)):
        return read_corpus(open_text(source))
    docs: list[list[str]] = []
    current: list[str] = []
    for raw in source:
        line = raw.rstrip("\n")
        if line.strip():
            current.append(line)
        elif current:
            docs.append(current)
            current = []
    if current:
        docs.append(current)
    return docs


def pack_documents(docs: list[list[str]], vocab: Vocabulary, max_len: int) -> list[EncodedInput]:
    """Greedily pack contiguous sentences of each document into fixed-length
    segments; a single overlong sentence is hard-split."""
    budget = max_len - 2
    segments: list[EncodedInput] = []
    for doc in docs:
        pieces: list[str] = []
        words: list[int] = []
        word_counter = 0

        def flush():
            nonlocal pieces, words
            if pieces:
                segments.append(encode_pieces(pieces, vocab, max_len, word_index=words))
                pieces, words = [], []

        for sentence in doc:
            sent_pieces: list[str] = []
            sent_words: list[int] = []
            for word, _, _ in basic_tokenize(sentence):
                for piece in wordpiece_split(word, vocab):
                    sent_pieces.append(piece)
                    sent_words.append(word_counter)
                word_counter += 1
            while len(sent_pieces) > budget:  # overlong sentence: hard split
                flush()
                head, sent_pieces = sent_pieces[:budget], sent_pieces[budget:]
                head_words, sent_words = sent_words[:budget], sent_words[budget:]
                segments.append(encode_pieces(head, vocab, max_len, word_index=head_words))
            if len(pieces) + len(sent_pieces) > budget:
                flush()
            pieces += sent_pieces
            words += sent_words
        flush()
    return segments


def subsample_documents(docs: list[list[str]], fraction: float, seed: int) -> list[list[str]]:
    """Deterministic prefix of the shuffled document list, for size ablations."""
    if not 0.0 < fraction <= 1.0:
        raise InputError("fraction must lie in (0, 1]")
    order = np.random.default_rng(seed).permutation(len(docs))
    keep = max(1, int(round(fraction * len(docs)))) if docs else 0
    return [docs[i] for i in order[:keep]]


def _batch_iterator(n_segments: int, batch_size: int, rng: np.random.Generator):
    """Deterministic infinite batches of indices; reshuffles each epoch and
    carries remainders across epoch boundaries."""
    pending: list[int] = []
    while True:
        pending.extend(rng.permutation(n_segments).tolist())
        while len(pending) >= batch_size:
            yield pending[:batch_size]
            pending = pending[batch_size:]


def seed_stream(global_seed: int, name: str) -> np.random.Generator:
    """Named random sub-stream so pipeline stages are independently reproducible."""
    import hashlib
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return np.random.default_rng(np.random.SeedSequence(
        [int(global_seed) & 0xFFFFFFFFFFFFFFFF, int.from_bytes(digest[:8], "little")]))


def train_mlm(corpus, config: PretrainConfig, vocab: Vocabulary,
              init: WeightStore | None = None, *,
              out_dir=None, log_sink=None):
    """Run exactly config.steps optimizer steps of masked-LM training.

    corpus may be a path, an open text file or an iterable of lines. With
    init given, training continues from those weights (shapes and vocabulary
    fingerprint must match). Emits one JSON record per step to log_sink when
    provided, saves step_NNNNNN.ckpt files every checkpoint_interval steps
    under out_dir, and returns (final WeightStore, list of step records).
    A non-finite loss or gradient stops the run with ContractViolation.
    """
    config.validate()
    docs = read_corpus(corpus)
    segments = pack_documents(docs, vocab, config.max_len)
    if not segments:
        raise InputError("empty corpus")

    if init is not None:
        if config.encoder is not None and config.encoder != init.config:
            mism = _shape_mismatches(config.encoder, init.config)
            raise TransferError(f"encoder config incompatible with checkpoint; "
                                f"mismatched tensors: {mism}")
        weights = init.clone()
    else:
        if config.encoder is None:
            raise ConfigError("training from scratch requires config.encoder")
        enc = config.encoder
        if enc.vocab_size != len(vocab):
            raise ConfigError(f"encoder vocab_size {enc.vocab_size} != vocabulary size {len(vocab)}")
        weights = init_weights(enc)
    weights.check_compatible(vocab, config.max_len)
    weights.metadata["vocab_fingerprint"] = vocab.fingerprint()

    opt = AdamW(weights, expected_shapes(weights.config), weight_decay=config.weight_decay)
    order_rng = seed_stream(config.seed, "pretrain.order")
    mask_rng = seed_stream(config.seed, "pretrain.mask")
    dropout_rng = seed_stream(config.seed, "pretrain.dropout")

    out_path = Path(out_dir) if out_dir is not None else None

    records = []
    batches = _batch_iterator(len(segments), config.batch_size, order_rng)
    for step in range(1, config.steps + 1):
        t0 = time.perf_counter()
        batch = [segments[i] for i in next(batches)]
        masked = apply_masking(batch, config.masking, vocab, rng=mask_rng)
        loss, accuracy, _ = mlm_step_grads(masked, weights, train=True, rng=dropout_rng,
                                           grads=opt.zero_grads())
        grad_norm = opt.checked_grad_norm(step, loss)
        lr = linear_schedule(step, config.steps, config.learning_rate, config.warmup_fraction)
        opt.step(lr)
        record = {"step": step, "loss": round(loss, 6), "accuracy": round(accuracy, 6),
                  "n_masked": int(masked.mask_positions.shape[0]), "lr": lr,
                  "grad_norm": round(grad_norm, 6),
                  "wall_ms": round((time.perf_counter() - t0) * 1000.0, 3)}
        records.append(record)
        if log_sink is not None:
            log_sink.write(json.dumps(record) + "\n")
        if (out_path is not None and config.checkpoint_interval > 0
                and step % config.checkpoint_interval == 0):
            save_checkpoint_file(weights, out_path / f"step_{step:06d}.ckpt")
    if out_path is not None:
        save_checkpoint_file(weights, out_path / "final.ckpt")
    return weights, records


def _shape_mismatches(a: EncoderConfig, b: EncoderConfig) -> list[str]:
    sa, sb = expected_shapes(a), expected_shapes(b)
    names = sorted(set(sa) | set(sb))
    return [n for n in names if sa.get(n) != sb.get(n)]
