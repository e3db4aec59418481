"""Task heads and fine-tuning: token-level BIOES tagging, sentence-level
relation classification on the position-0 vector, and start/end span
extraction, each a single affine layer on encoder outputs.

Fine-tuning trains the head plus all encoder weights end to end through
encoder.train_step and keeps the checkpoint with the best dev metric
(micro-F1 for tagging and relation classification, MRR for span
extraction). Other tasks' head tensors carried by the initial weights pass
through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .data import LabeledSentence, QAExample, RelationExample, RelationLabelSet
from .encoder import (HEAD_PREFIX, IGNORE_LABEL, WeightStore, affine_xent,
                      forward_arrays, init_head, train_step)
from .errors import ConfigError, InputError, NoAnswerError, TransferError
from .metrics import (EvalReport, classification_prf, entity_prf,
                      normalize_answer, qa_metrics, spans_from_tags)
from .optimizer import AdamW, linear_schedule
from .pretrain import seed_stream
from .tags import TagScheme, repair_bioes
from .tokenizer import (EncodedInput, NO_WORD, batch_arrays, encode_sequence,
                        split_with_offsets)
from .vocab import CLS, SEP, Vocabulary

GRID_BATCH_SIZES = (10, 16, 32, 64)
GRID_LEARNING_RATES = (5e-5, 3e-5, 1e-5)
EVAL_BATCH_SIZE = 32  # rows per inference forward

TASKS = ("ner", "re", "qa")


@dataclass(frozen=True)
class FinetuneConfig:
    batch_size: int = 16
    learning_rate: float = 3e-5
    epochs: int = 3
    seed: int = 0
    max_len: int = 128
    warmup_fraction: float = 0.1
    weight_decay: float = 0.01
    max_answer_subtokens: int = 30
    doc_stride: int = 128
    n_best: int = 5
    allow_nonstandard: bool = False

    def validate(self) -> "FinetuneConfig":
        if not self.allow_nonstandard:
            if self.batch_size not in GRID_BATCH_SIZES:
                raise ConfigError(f"batch_size {self.batch_size} outside the standard grid "
                                  f"{GRID_BATCH_SIZES}; set allow_nonstandard to override")
            if all(abs(self.learning_rate - lr) > 1e-12 for lr in GRID_LEARNING_RATES):
                raise ConfigError(f"learning_rate {self.learning_rate} outside the standard "
                                  f"grid {GRID_LEARNING_RATES}; set allow_nonstandard to override")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.max_len < 4 or self.doc_stride < 1 or self.max_answer_subtokens < 1 or self.n_best < 1:
            raise ConfigError("invalid task knobs")
        return self


# ---------------------------------------------------------------------------
# label alignment and decoding
# ---------------------------------------------------------------------------

def align_labels(sentence: LabeledSentence, encoded: EncodedInput,
                 scheme: TagScheme) -> np.ndarray:
    """Per-subtoken tag ids: the first subtoken of each word carries the
    word's tag, everything else (continuations, specials, padding) carries
    IGNORE_LABEL."""
    word_index = encoded.word_index
    n_words = len(sentence.words)
    real = word_index[encoded.mask == 1]
    if real.size and real.max() >= n_words:
        raise InputError(f"encoding references word {int(real.max())} but the "
                         f"sentence has {n_words} words")
    labels = np.full(len(encoded), IGNORE_LABEL, dtype=np.int64)
    seen: set[int] = set()
    for pos in range(len(encoded)):
        w = int(word_index[pos])
        if w == NO_WORD or encoded.mask[pos] == 0 or w in seen:
            continue
        labels[pos] = scheme.tag_id(sentence.tags[w])
        seen.add(w)
    return labels


def head_logits(hidden: np.ndarray, weights: WeightStore, task: str) -> np.ndarray:
    """Affine map of hidden vectors through the head.<task> tensors."""
    w = weights.tensors[f"{HEAD_PREFIX}{task}.weight"]
    b = weights.tensors[f"{HEAD_PREFIX}{task}.bias"]
    return hidden @ w + b


def ner_decode(logits: np.ndarray, encoded: EncodedInput, scheme: TagScheme,
               n_words: int) -> list[str]:
    """Word-level tags from per-position logits.

    Reads the argmax at each word's first subtoken (ties break toward the
    lowest tag id) and repairs invalid transitions so the output is always a
    valid BIOES sequence. Words truncated out of the encoding decode as O.
    """
    raw = ["O"] * n_words
    seen: set[int] = set()
    for pos in range(len(encoded)):
        w = int(encoded.word_index[pos])
        if w == NO_WORD or encoded.mask[pos] == 0 or w in seen or w >= n_words:
            continue
        raw[w] = scheme.tag(int(np.argmax(logits[pos])))
        seen.add(w)
    return repair_bioes(raw)


def re_forward(pooled: np.ndarray, weights: WeightStore,
               labels: RelationLabelSet) -> np.ndarray:
    """Class logits (batch, n_labels) from position-0 vectors; argmax (first
    wins on ties) is the predicted relation."""
    logits = head_logits(pooled, weights, "re")
    if logits.shape[-1] != len(labels.labels):
        raise InputError(f"head emits {logits.shape[-1]} classes for {len(labels.labels)} labels")
    return logits


def anonymize_entities(sentence: str, spans: list[tuple[int, int, str]],
                       tag_format: str = "@TYPE$") -> str:
    """Replace each (start, end, type) span with its typed placeholder.

    Spans must be in bounds and non-overlapping; replacements are applied
    right to left so earlier offsets stay valid. Exactly the provided spans
    are replaced: when an entity is mentioned several times, callers decide
    which mentions to anonymize.
    """
    ordered = sorted(spans, key=lambda s: (s[0], s[1]))
    prev_end = -1
    for start, end, _ in ordered:
        if not 0 <= start < end <= len(sentence):
            raise InputError(f"span ({start}, {end}) out of bounds for length {len(sentence)}")
        if start < prev_end:
            raise InputError(f"span ({start}, {end}) overlaps the previous one")
        prev_end = end
    out = sentence
    for start, end, entity_type in reversed(ordered):
        out = out[:start] + tag_format.replace("TYPE", entity_type) + out[end:]
    return out


# ---------------------------------------------------------------------------
# span extraction
# ---------------------------------------------------------------------------

class SpanPrediction(NamedTuple):
    start: int  # subtoken index
    end: int    # inclusive subtoken index
    text: str
    score: float


def admissible_positions(encoded: EncodedInput) -> np.ndarray:
    """Positions an answer may occupy: passage segment, unmasked, non-special."""
    return ((encoded.segments == 1) & (encoded.mask == 1)
            & (encoded.word_index != NO_WORD))


def extract_span(start_logits: np.ndarray, end_logits: np.ndarray,
                 encoded: EncodedInput, max_answer_subtokens: int = 30,
                 n_best: int = 5) -> tuple[SpanPrediction, list[SpanPrediction]]:
    """Best admissible (i, j) pair by start[i] + end[j], i <= j, length cap.

    Returns (best, top-n_best ranked list); the ranked list breaks score ties
    by lowest (i, j). Raises NoAnswerError when no admissible pair exists.
    """
    pos = np.flatnonzero(admissible_positions(encoded))
    gap = pos[None, :] - pos[:, None]
    rows, cols = np.nonzero((gap >= 0) & (gap < max_answer_subtokens))
    if rows.size == 0:
        raise NoAnswerError("no admissible (start, end) pair; passage may be fully truncated")
    if encoded.text_b is None:
        raise InputError("encoded input has no passage text to recover answers from")
    i, j = pos[rows], pos[cols]
    scores = start_logits[i] + end_logits[j]
    top = np.lexsort((j, i, -scores))[:n_best]
    ranked = [SpanPrediction(int(i[k]), int(j[k]),
                             encoded.text_b[encoded.offsets[i[k]][0]:encoded.offsets[j[k]][1]],
                             float(scores[k]))
              for k in top]
    return ranked[0], ranked


def encode_windows(question: str, passage: str, vocab: Vocabulary, max_len: int,
                   doc_stride: int = 128) -> list[EncodedInput]:
    """Sliding windows over a long passage, [CLS] Q [SEP] window [SEP].

    Offsets of window subtokens index the full passage string, so spans
    recovered from any window line up with the original text.
    """
    q_pieces, q_words, q_offs = split_with_offsets(question, vocab)
    cap_q = max_len - 3 - 1  # leave at least one passage position
    q_pieces, q_words, q_offs = q_pieces[:cap_q], q_words[:cap_q], q_offs[:cap_q]
    p_pieces, p_words, p_offs = split_with_offsets(passage, vocab)
    window_cap = max_len - 3 - len(q_pieces)

    windows = []
    start = 0
    while True:
        chunk = slice(start, start + window_cap)
        pieces = p_pieces[chunk]
        subtokens = [CLS] + q_pieces + [SEP] + pieces + [SEP]
        word_index = [NO_WORD] + q_words + [NO_WORD] + p_words[chunk] + [NO_WORD]
        offsets = [(0, 0)] + q_offs + [(0, 0)] + p_offs[chunk] + [(0, 0)]
        segments = [0] * (len(q_pieces) + 2) + [1] * (len(pieces) + 1)
        real = len(subtokens)
        pad_n = max_len - real
        ids = [vocab.id(t) for t in subtokens] + [vocab.pad_id] * pad_n
        windows.append(EncodedInput(
            ids=np.asarray(ids, dtype=np.int32),
            segments=np.asarray(segments + [0] * pad_n, dtype=np.int32),
            mask=np.asarray([1] * real + [0] * pad_n, dtype=np.int32),
            subtokens=tuple(subtokens + ["[PAD]"] * pad_n),
            word_index=np.asarray(word_index + [NO_WORD] * pad_n, dtype=np.int32),
            offsets=tuple(offsets + [(0, 0)] * pad_n),
            text_a=question, text_b=passage))
        if start + window_cap >= len(p_pieces):
            break
        start += doc_stride
    return windows


def filter_unanswerable(examples: list[QAExample], normalizer=normalize_answer):
    """Keep examples whose normalized gold answer occurs in the normalized
    passage; returns (kept, dropped_count)."""
    kept = []
    dropped = 0
    for ex in examples:
        golds = ex.gold_answers or tuple(t for t, _ in ex.answers)
        passage_norm = " ".join(ex.passage.casefold().split())
        if any(normalizer(g) and normalizer(g) in passage_norm for g in golds):
            kept.append(ex)
        else:
            dropped += 1
    return kept, dropped


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

class FinetuneResult(NamedTuple):
    weights: WeightStore
    report: EvalReport
    log: list[dict]


def _check_vocab(init: WeightStore, vocab: Vocabulary):
    stored = init.metadata.get("vocab_fingerprint")
    if stored is not None and stored != vocab.fingerprint():
        raise TransferError("checkpoint vocabulary fingerprint does not match the tokenizer")
    if init.config.vocab_size != len(vocab):
        raise TransferError(f"checkpoint vocab_size {init.config.vocab_size} != {len(vocab)}")


def _task_head(weights: WeightStore, task: str, encodings, targets):
    """The head(hidden) of one fine-tuning batch, for train_step.

    NER and RE score their affine layer with cross-entropy at labelled
    positions: first subtokens for NER, position 0 for RE. QA scores start and
    end positions with two softmaxes over each window's admissible positions,
    averaged over both ends and the batch.
    """
    names = (f"{HEAD_PREFIX}{task}.weight", f"{HEAD_PREFIX}{task}.bias")
    w, bias = (weights.tensors[name] for name in names)
    if task == "qa":
        spans = np.asarray(targets, dtype=np.int64)
        admissible = np.stack([admissible_positions(e) for e in encodings])

        def span_head(hidden):
            b, l, h = hidden.shape
            logits = hidden @ w + bias
            mask = np.where(admissible, hidden.dtype.type(0), hidden.dtype.type(-1e9))
            loss = 0.0
            d_cols = []
            for col in (0, 1):  # start, end
                losses, d = kernels.softmax_xent(
                    np.ascontiguousarray(logits[..., col] + mask), spans[:, col])
                loss += float(losses.mean()) / 2.0
                d_cols.append(d / (2 * b))
            d_logits = np.stack(d_cols, axis=-1)  # (B, L, 2)
            d_w = hidden.reshape(b * l, h).T @ d_logits.reshape(b * l, 2)
            return loss, d_logits @ w.T, dict(zip(names, (d_w, d_logits.sum(axis=(0, 1)))))
        return span_head

    if task == "ner":
        labels = np.stack(targets)
    else:
        labels = np.full((len(targets), len(encodings[0])), IGNORE_LABEL, dtype=np.int64)
        labels[:, 0] = targets

    def label_head(hidden):
        loss, _, d_hidden, d_w, d_b = affine_xent(hidden, labels, w, bias)
        return loss, d_hidden, dict(zip(names, (d_w, d_b)))
    return label_head


def _char_span_to_subtokens(encoded: EncodedInput, char_start: int, char_end: int):
    """Subtoken (start, end) covering [char_start, char_end) of the passage,
    or None when the window does not fully contain it."""
    ok = admissible_positions(encoded)
    start_pos = end_pos = None
    for pos in np.flatnonzero(ok):
        s, e = encoded.offsets[pos]
        if s <= char_start < e:
            start_pos = int(pos)
        if s < char_end <= e:
            end_pos = int(pos)
    if start_pos is None or end_pos is None or end_pos < start_pos:
        return None
    return start_pos, end_pos


def _prepare_qa_training(examples, vocab, config):
    """(window, (start, end)) pairs for every window containing a gold span."""
    items = []
    for ex in examples:
        for window in encode_windows(ex.question, ex.passage, vocab,
                                     config.max_len, config.doc_stride):
            target = None
            for text, start in ex.answers:
                target = _char_span_to_subtokens(window, start, start + len(text))
                if target is not None:
                    break
            if target is not None:
                items.append((window, target))
    return items


def _batched_logits(weights: WeightStore, encodings: list[EncodedInput], head,
                    batch_size: int = EVAL_BATCH_SIZE):
    """head(hidden) row by row for every encoding, in order, computed by
    inference forwards of at most batch_size rows each."""
    for lo in range(0, len(encodings), batch_size):
        out = forward_arrays(weights, *batch_arrays(encodings[lo:lo + batch_size]))
        yield from head(out.hidden)


def predict_ner(weights: WeightStore, sentences: list[LabeledSentence],
                vocab: Vocabulary, scheme: TagScheme, max_len: int,
                batch_size: int = EVAL_BATCH_SIZE) -> list[list[str]]:
    encodings = [encode_sequence(" ".join(s.words), None, vocab, max_len)
                 for s in sentences]
    logits = _batched_logits(weights, encodings,
                             lambda hidden: head_logits(hidden, weights, "ner"), batch_size)
    return [ner_decode(row, enc, scheme, len(s.words))
            for row, enc, s in zip(logits, encodings, sentences)]


def predict_re(weights: WeightStore, examples: list[RelationExample],
               vocab: Vocabulary, labels: RelationLabelSet, max_len: int,
               batch_size: int = EVAL_BATCH_SIZE) -> list[str]:
    encodings = [encode_sequence(ex.sentence, None, vocab, max_len) for ex in examples]
    logits = _batched_logits(
        weights, encodings,
        lambda hidden: re_forward(np.ascontiguousarray(hidden[:, 0]), weights, labels),
        batch_size)
    return [labels.labels[int(np.argmax(row))] for row in logits]


def predict_qa(weights: WeightStore, examples: list[QAExample], vocab: Vocabulary,
               config: FinetuneConfig) -> list[list[str]]:
    """Ranked answer strings per example, merged across windows and deduped
    by normalized text. The windows of all examples share batched forwards."""
    windows = [encode_windows(ex.question, ex.passage, vocab, config.max_len,
                              config.doc_stride) for ex in examples]
    logits = _batched_logits(weights, [w for ex_windows in windows for w in ex_windows],
                             lambda hidden: head_logits(hidden, weights, "qa"))
    ranked_all = []
    for ex_windows in windows:
        candidates: list[SpanPrediction] = []
        for window in ex_windows:
            row = next(logits)
            try:
                _, ranked = extract_span(row[:, 0], row[:, 1], window,
                                         config.max_answer_subtokens, config.n_best)
            except NoAnswerError:
                continue
            candidates.extend(ranked)
        candidates.sort(key=lambda sp: (-sp.score, sp.start, sp.end))
        seen: set[str] = set()
        answers = []
        for cand in candidates:
            key = normalize_answer(cand.text)
            if key in seen:
                continue
            seen.add(key)
            answers.append(cand.text)
            if len(answers) == config.n_best:
                break
        ranked_all.append(answers)
    return ranked_all


def evaluate_ner(weights, sentences, vocab, scheme, max_len,
                 dataset_name="dev", provenance="unspecified",
                 fingerprint="-") -> EvalReport:
    pred = predict_ner(weights, sentences, vocab, scheme, max_len)
    gold_spans = [spans_from_tags(list(s.tags)) for s in sentences]
    pred_spans = [spans_from_tags(t) for t in pred]
    p, r, f1, counts = entity_prf(gold_spans, pred_spans)
    report = EvalReport(task="ner", provenance=provenance, config_fingerprint=fingerprint)
    report.add_dataset(dataset_name, {"precision": p, "recall": r, "f1": f1}, counts)
    return report


def evaluate_re(weights, examples, vocab, labels, max_len,
                dataset_name="dev", provenance="unspecified",
                fingerprint="-") -> EvalReport:
    pred = predict_re(weights, examples, vocab, labels, max_len)
    gold = [ex.label for ex in examples]
    p, r, f1, counts = classification_prf(gold, pred, labels.positive)
    report = EvalReport(task="re", provenance=provenance, config_fingerprint=fingerprint)
    report.add_dataset(dataset_name, {"precision": p, "recall": r, "f1": f1}, counts)
    return report


def evaluate_qa(weights, examples, vocab, config,
                dataset_name="dev", provenance="unspecified",
                fingerprint="-") -> EvalReport:
    ranked = predict_qa(weights, examples, vocab, config)
    gold = [list(ex.gold_answers) for ex in examples]
    strict, lenient, mrr, tallies = qa_metrics(ranked, gold, n_best=config.n_best)
    report = EvalReport(task="qa", provenance=provenance, config_fingerprint=fingerprint)
    report.add_dataset(dataset_name, {"strict": strict, "lenient": lenient, "mrr": mrr}, tallies)
    return report


def finetune(task: str, train_data, dev_data, init: WeightStore,
             config: FinetuneConfig, vocab: Vocabulary, *,
             scheme: TagScheme | None = None,
             labels: RelationLabelSet | None = None,
             intermediate=None, provenance: str = "unspecified") -> FinetuneResult:
    """Train head plus encoder end to end; return the best-dev checkpoint,
    its EvalReport and the per-epoch log.

    For task "qa", intermediate may hold a warm-up span dataset trained first
    (the two phases are marked in the log); dev selection applies to the
    target phase.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    config.validate()
    _check_vocab(init, vocab)
    if not train_data and config.epochs > 0:
        raise InputError("empty training set")
    if config.max_len > init.config.max_positions:
        raise ConfigError(f"max_len {config.max_len} exceeds encoder max_positions "
                          f"{init.config.max_positions}")

    weights = init.clone()
    init_rng = seed_stream(config.seed, "finetune.init")
    head_seed = int(init_rng.integers(0, 2**31 - 1))
    if task == "ner":
        if scheme is None:
            raise ConfigError("ner fine-tuning needs a TagScheme")
        out_dim = len(scheme)
    elif task == "re":
        if labels is None:
            raise ConfigError("re fine-tuning needs a RelationLabelSet")
        out_dim = len(labels.labels)
    else:
        out_dim = 2
    weights.tensors.update(init_head(weights.config, task, out_dim, head_seed))

    data_rng = seed_stream(config.seed, "finetune.data")
    dropout_rng = seed_stream(config.seed, "finetune.dropout")

    def prepared(dataset):
        if task == "ner":
            enc = [encode_sequence(" ".join(s.words), None, vocab, config.max_len)
                   for s in dataset]
            lab = [align_labels(s, e, scheme) for s, e in zip(dataset, enc)]
            return list(zip(enc, lab))
        if task == "re":
            label_ids = {name: i for i, name in enumerate(labels.labels)}
            return [(encode_sequence(ex.sentence, None, vocab, config.max_len),
                     label_ids[ex.label]) for ex in dataset]
        return _prepare_qa_training(dataset, vocab, config)

    def evaluate(w) -> EvalReport:
        if task == "ner":
            return evaluate_ner(w, dev_data, vocab, scheme, config.max_len,
                                provenance=provenance)
        if task == "re":
            return evaluate_re(w, dev_data, vocab, labels, config.max_len,
                               provenance=provenance)
        return evaluate_qa(w, dev_data, vocab, config, provenance=provenance)

    log: list[dict] = []
    phases = []
    if task == "qa" and intermediate:
        phases.append(("intermediate", prepared(intermediate)))
    phases.append(("target", prepared(train_data)))

    opt = AdamW(list(weights.tensors), weights.tensors,
                weight_decay=config.weight_decay)
    steps_per_epoch = {name: max(1, (len(items) + config.batch_size - 1) // config.batch_size)
                       for name, items in phases}
    total_steps = max(1, config.epochs * sum(steps_per_epoch.values()))

    best_weights = weights.clone()
    best_report = evaluate(weights)
    best_metric = best_report.primary_metric()
    log.append({"phase": "init", "epoch": 0, "dev_metric": best_metric})

    step = 0
    for phase_name, items in phases:
        log.append({"phase": phase_name, "event": "start", "examples": len(items)})
        for epoch in range(1, config.epochs + 1):
            order = data_rng.permutation(len(items))
            epoch_loss = 0.0
            n_batches = 0
            for lo in range(0, len(items), config.batch_size):
                chunk = [items[i] for i in order[lo:lo + config.batch_size]]
                step += 1
                lr = linear_schedule(step, total_steps, config.learning_rate,
                                     config.warmup_fraction)
                encodings, targets = zip(*chunk)
                loss, grads = train_step(weights, encodings,
                                         _task_head(weights, task, encodings, targets),
                                         rng=dropout_rng)
                opt.step(weights.tensors, grads, lr)
                epoch_loss += loss
                n_batches += 1
            report = evaluate(weights)
            metric = report.primary_metric()
            record = {"phase": phase_name, "epoch": epoch,
                      "train_loss": round(epoch_loss / max(n_batches, 1), 6),
                      "dev_metric": round(metric, 6)}
            log.append(record)
            if phase_name == "target" and metric > best_metric:
                best_metric = metric
                best_weights = weights.clone()
                best_report = report
    return FinetuneResult(best_weights, best_report, log)
