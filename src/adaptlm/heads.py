"""Task heads and fine-tuning: token-level BIOES tagging, sentence-level
relation classification on the position-0 vector, and start/end span
extraction, each a single affine layer on encoder outputs. TASKS holds all
that differs between the three tasks, from reading a dataset to scoring.

Fine-tuning trains the head plus all encoder weights end to end through
encoder.train_step and keeps the checkpoint with the best dev metric
(micro-F1 for tagging and relation classification, MRR for span
extraction). Other tasks' head tensors carried by the initial weights pass
through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .data import (LabeledSentence, QAExample, RelationExample, RelationLabelSet, load_json,
                   load_ner_dataset, normalized_occurrences, parse_qa_json, parse_re_tsv)
from .encoder import (HEAD_PREFIX, IGNORE_LABEL, WeightStore, affine_xent,
                      expected_shapes, forward_arrays, init_head, train_step)
from .errors import ConfigError, FormatError, InputError, NoAnswerError
from .metrics import EvalReport, normalize_answer, score
from .optimizer import AdamW, check_schedule, linear_schedule
from .pretrain import seed_stream
from .tags import TagScheme, parse_tag, repair_bioes
from .tokenizer import (EncodedInput, NO_WORD, batch_arrays, encode_sequence,
                        encode_windows, first_subtokens)
from .vocab import Vocabulary

GRID_BATCH_SIZES = (10, 16, 32, 64)
GRID_LEARNING_RATES = (5e-5, 3e-5, 1e-5)
EVAL_BATCH_SIZE = 32  # rows per inference forward


@dataclass(frozen=True)
class FinetuneConfig:
    batch_size: int = 16
    learning_rate: float = 3e-5
    epochs: int = 3
    seed: int = 0
    max_len: int = 48
    warmup_fraction: float = 0.1
    weight_decay: float = 0.01
    max_answer_subtokens: int = 30
    doc_stride: int = 16
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
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        check_schedule(self.learning_rate, self.warmup_fraction, self.weight_decay)
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
    words, positions = first_subtokens(encoded)
    n_words = len(sentence.words)
    if words.size and words[-1] >= n_words:
        raise InputError(f"encoding references word {int(words[-1])} but the "
                         f"sentence has {n_words} words")
    labels = np.full(len(encoded), IGNORE_LABEL, dtype=np.int64)
    labels[positions] = [scheme.tag_id(sentence.tags[w]) for w in words]
    return labels


def head_logits(hidden: np.ndarray, weights: WeightStore, task: str, n_out: int) -> np.ndarray:
    """Affine map of hidden vectors through the head.<task> tensors, which
    must exist and emit n_out values per vector."""
    w = weights.tensors.get(f"{HEAD_PREFIX}{task}.weight")
    if w is None:
        raise InputError(f"the checkpoint has no {task} head")
    if w.shape[-1] != n_out:
        raise InputError(f"the {task} head emits {w.shape[-1]} values where {n_out} are expected")
    return hidden @ w + weights.tensors[f"{HEAD_PREFIX}{task}.bias"]


def ner_decode(logits: np.ndarray, encoded: EncodedInput, scheme: TagScheme,
               n_words: int) -> list[str]:
    """Word-level tags from per-position logits.

    Reads the argmax at each word's first subtoken (ties break toward the
    lowest tag id) and repairs invalid transitions so the output is always a
    valid BIOES sequence. Words truncated out of the encoding decode as O.
    """
    raw = ["O"] * n_words
    words, positions = first_subtokens(encoded)
    keep = words < n_words
    for w, tag_id in zip(words[keep], np.argmax(logits[positions[keep]], axis=-1)):
        raw[w] = scheme.tag(int(tag_id))
    return repair_bioes(raw)


def anonymize_entities(sentence: str, spans: list[tuple[int, int, str]]) -> str:
    """Replace each (start, end, type) span with its placeholder @type$.

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
        out = out[:start] + f"@{entity_type}$" + out[end:]
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


def filter_unanswerable(examples: list[QAExample]):
    """Keep examples with a gold answer that normalized_occurrences finds in
    the passage, as BioASQ conversion does; returns (kept, dropped_count)."""
    kept = [ex for ex in examples
            if any(normalized_occurrences(ex.passage, g) for g in ex.gold_answers)]
    return kept, len(examples) - len(kept)


# ---------------------------------------------------------------------------
# fine-tuning, prediction and the task table
# ---------------------------------------------------------------------------

class FinetuneResult(NamedTuple):
    weights: WeightStore
    report: EvalReport
    log: list[dict]


def _label_head(weights: WeightStore, task: str, encodings, targets):
    """(read, head) of one label-head batch (NER, RE), for train_step: head
    scores its affine layer with cross-entropy at every position whose
    target is not IGNORE_LABEL (first subtokens for NER, position 0 for RE),
    and read marks those positions."""
    names = (f"{HEAD_PREFIX}{task}.weight", f"{HEAD_PREFIX}{task}.bias")
    w, bias = (weights.tensors[name] for name in names)
    labels = np.stack(targets)

    def head(hidden):
        loss, _, d_hidden, d_w, d_b = affine_xent(hidden, labels, w, bias)
        return loss, d_hidden, dict(zip(names, (d_w, d_b)))
    return labels != IGNORE_LABEL, head


def _span_head(weights: WeightStore, task: str, encodings, targets):
    """(read, head) of one span-head batch (QA), for train_step: head scores
    start and end positions with two softmaxes over each window's admissible
    positions, averaged over both ends and the batch, and read marks those
    positions. Targets and hidden states share the encoding length."""
    names = (f"{HEAD_PREFIX}{task}.weight", f"{HEAD_PREFIX}{task}.bias")
    w, bias = (weights.tensors[name] for name in names)
    spans = np.asarray(targets, dtype=np.int64)
    admissible = np.stack([admissible_positions(e) for e in encodings])

    def head(hidden):
        b, l, h = hidden.shape
        logits = hidden @ w + bias
        mask = np.where(admissible, hidden.dtype.type(0), hidden.dtype.type(-1e9))
        loss = 0.0
        d_cols = []
        for col in (0, 1):  # start, end
            losses, d = kernels.softmax_xent(logits[..., col] + mask, spans[:, col])
            loss += float(losses.mean()) / 2.0
            d_cols.append(d / (2 * b))
        d_logits = np.stack(d_cols, axis=-1)  # (B, L, 2)
        d_w = hidden.reshape(b * l, h).T @ d_logits.reshape(b * l, 2)
        return loss, d_logits @ w.T, dict(zip(names, (d_w, d_logits.sum(axis=(0, 1)))))
    return admissible, head


def _prepare_ner(sentences, vocab, config, scheme):
    """(encoding, per-position tag ids) pairs, as align_labels gives them."""
    encodings = [encode_sequence(" ".join(s.words), None, vocab, config.max_len)
                 for s in sentences]
    return [(e, align_labels(s, e, scheme)) for s, e in zip(sentences, encodings)]


def _prepare_re(examples, vocab, config, labels):
    """(encoding, target row) pairs whose one target, at position 0, is the
    class id."""
    encodings = [encode_sequence(ex.sentence, None, vocab, config.max_len) for ex in examples]
    return [(e, np.where(np.arange(len(e)) == 0, labels.labels.index(ex.label), IGNORE_LABEL))
            for e, ex in zip(encodings, examples)]


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


def _prepare_qa(examples, vocab, config, _):
    """(window, (start, end)) pairs for every window containing a gold span."""
    items = []
    for ex in examples:
        for window in encode_windows(ex.question, ex.passage, vocab,
                                     config.max_len, config.doc_stride):
            for text, start in ex.answers:
                target = _char_span_to_subtokens(window, start, start + len(text))
                if target is not None:
                    items.append((window, target))
                    break
    return items


def _batched_logits(weights: WeightStore, encodings: list[EncodedInput], head, read):
    """head(hidden) row by row for every encoding, in order, computed by
    inference forwards of at most EVAL_BATCH_SIZE rows each. A row keeps its
    encoding's length and is zero outside the positions of its row of the
    (N, L) bool array read."""
    for lo in range(0, len(encodings), EVAL_BATCH_SIZE):
        hi = lo + EVAL_BATCH_SIZE
        yield from head(forward_arrays(weights, *batch_arrays(encodings[lo:hi]),
                                       read=read[lo:hi]))


def predict_ner(weights: WeightStore, sentences: list[LabeledSentence],
                vocab: Vocabulary, scheme: TagScheme, max_len: int) -> list[list[str]]:
    encodings = [encode_sequence(" ".join(s.words), None, vocab, max_len)
                 for s in sentences]
    read = np.zeros((len(encodings), max_len), dtype=bool)  # first subtokens, as ner_decode
    for row, enc in zip(read, encodings):
        row[first_subtokens(enc)[1]] = True
    logits = _batched_logits(weights, encodings,
                             lambda hidden: head_logits(hidden, weights, "ner", len(scheme)), read)
    return [ner_decode(row, enc, scheme, len(s.words))
            for row, enc, s in zip(logits, encodings, sentences)]


def predict_re(weights: WeightStore, examples: list[RelationExample],
               vocab: Vocabulary, labels: RelationLabelSet, max_len: int) -> list[str]:
    encodings = [encode_sequence(ex.sentence, None, vocab, max_len) for ex in examples]
    logits = _batched_logits(weights, encodings, lambda hidden: head_logits(
        np.ascontiguousarray(hidden[:, 0]), weights, "re", len(labels.labels)),
        np.broadcast_to(np.arange(max_len) == 0, (len(encodings), max_len)))
    # class logits from the position-0 vectors; the first label wins a tie
    return [labels.labels[int(np.argmax(row))] for row in logits]


def predict_qa(weights: WeightStore, examples: list[QAExample], vocab: Vocabulary,
               config: FinetuneConfig) -> list[list[str]]:
    """Ranked answer strings per example, merged across windows and deduped
    by normalized text. The windows of all examples share batched forwards,
    which read the admissible positions, as extract_span does."""
    windows = [encode_windows(ex.question, ex.passage, vocab, config.max_len,
                              config.doc_stride) for ex in examples]
    flat = [w for ex_windows in windows for w in ex_windows]
    read = np.array([admissible_positions(w) for w in flat], bool).reshape(-1, config.max_len)
    logits = _batched_logits(weights, flat,
                             lambda hidden: head_logits(hidden, weights, "qa", 2), read)
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
        answers: dict[str, str] = {}  # normalized text -> its best-scoring answer
        for cand in candidates:
            answers.setdefault(normalize_answer(cand.text), cand.text)
        ranked_all.append(list(answers.values())[:config.n_best])
    return ranked_all


def _relation_labels(section) -> RelationLabelSet:
    """The [section] labels setting; fewer than two unique labels is a config error."""
    try:
        return RelationLabelSet(tuple(section.list_of("labels", str, ("negative", "positive"))))
    except InputError as e:
        raise ConfigError(f"[{section.name}] labels: {e}") from None


def _tag_format(section) -> str:
    """The [section] scheme setting: how the CoNLL files it names write tags."""
    return section.choice("scheme", ("bioes", "bio"), "bioes")


def _tag_scheme(section, datasets, metadata) -> TagScheme:
    """The scheme a checkpoint's metadata records (the types joined by spaces,
    which tags cannot hold), else one over the entity types of the datasets.
    The section's scheme setting is checked first, even with no datasets."""
    _tag_format(section)
    if "entity_types" in metadata:
        return TagScheme(tuple(metadata["entity_types"].split(" ")))
    types = {parse_tag(tag)[1] for sentences in datasets for s in sentences for tag in s.tags}
    return TagScheme(tuple(sorted(types - {None})) or ("ENT",))


def _paired(section, gold, pred_rows) -> list:
    """The values of the (id, value) rows read from the [section] pred file,
    in the order of the gold examples' ids; an id repeated in a file, or in
    only one of them, is a data error."""
    paths = section.path("gold"), section.path("pred")
    ids, pred = {}, {}
    for path, rows, values in zip(paths, ([(ex.id, ex) for ex in gold], pred_rows), (ids, pred)):
        for key, value in rows:
            if key in values:
                raise InputError(f"{path}: id {key!r} is repeated")
            values[key] = value
    unpaired = sorted(ids.keys() ^ pred.keys())
    if unpaired:
        where, other = paths if unpaired[0] in ids else paths[::-1]
        raise InputError(f"id {unpaired[0]!r} is in {where} but not in {other}")
    return [pred[key] for key in ids]


def _qa_predictions(path) -> list:
    """(question id, ranked answers) rows of a QA prediction file."""
    pred = load_json(path)
    if not (isinstance(pred, dict) and all(
            isinstance(answers, list) and all(isinstance(a, str) for a in answers)
            for answers in pred.values())):
        raise FormatError(f"{path}: QA predictions must be a JSON object "
                          "mapping each question id to a list of answer strings")
    return pred.items()


class Task(NamedTuple):
    """Everything that differs between tasks. A `section` is the config
    section a command reads: anything with config.Section's name, path, str,
    bool and list_of. The predict entries call the module's predict_*
    functions by name, so a wrapper installed on the module sees each call."""

    read: Callable  # (section, key) -> the dataset at the path [section] key names
    width: Callable  # label space -> head outputs per position
    prepare: Callable  # (dataset, vocab, FinetuneConfig, space) -> [(encoding, target)]
    head: Callable  # (weights, task, encodings, targets) -> (read, head) for train_step
    predict: Callable  # (weights, dataset, vocab, space, FinetuneConfig) -> predictions
    gold: Callable  # dataset -> gold values, parallel to the predictions
    pairs: Callable  # (section, gold dataset) -> the [section] pred file's predictions, paired
    space: type = object  # the label space's kind; object for a task without one
    label_space: Callable = lambda section, datasets, metadata: None
    metadata: Callable = lambda space: {}  # the checkpoint metadata recording the space


TASKS = {
    "ner": Task(
        space=TagScheme,
        read=lambda section, key: load_ner_dataset(
            section.path(key), scheme=_tag_format(section),
            lenient=section.bool("lenient", False)),
        label_space=_tag_scheme,
        metadata=lambda scheme: {"entity_types": " ".join(scheme.entity_types)},
        width=len, prepare=_prepare_ner, head=_label_head,
        predict=lambda w, data, vocab, scheme, config: predict_ner(
            w, data, vocab, scheme, config.max_len),
        gold=lambda sentences: [s.tags for s in sentences],
        pairs=lambda section, gold: [s.tags for s in load_ner_dataset(  # in file order
            section.path("pred"), scheme=_tag_format(section), lenient=True)]),
    "re": Task(
        space=RelationLabelSet,
        read=lambda section, key: parse_re_tsv(section.path(key), _relation_labels(section)),
        label_space=lambda section, datasets, metadata: _relation_labels(section),
        width=lambda labels: len(labels.labels), prepare=_prepare_re, head=_label_head,
        predict=lambda w, data, vocab, labels, config: predict_re(
            w, data, vocab, labels, config.max_len),
        gold=lambda examples: [ex.label for ex in examples],
        pairs=lambda section, gold: _paired(section, gold, [
            (ex.id, ex.label) for ex in TASKS["re"].read(section, "pred")])),
    "qa": Task(
        read=lambda section, key: parse_qa_json(section.path(key)),
        width=lambda _: 2, prepare=_prepare_qa, head=_span_head,
        predict=lambda w, data, vocab, _, config: predict_qa(w, data, vocab, config),
        gold=lambda examples: [ex.gold_answers for ex in examples],
        pairs=lambda section, gold: _paired(section, gold,
                                            _qa_predictions(section.path("pred")))),
}


def _task(task: str, scheme, labels) -> tuple[Task, object]:
    """The task's table entry and label space: `scheme` or `labels`, whichever
    is of the task's kind (TagScheme for NER, RelationLabelSet for RE)."""
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    spec = TASKS[task]
    space = scheme if isinstance(scheme, spec.space) else labels
    if not isinstance(space, spec.space):
        raise ConfigError(f"{task} needs a {spec.space.__name__}")
    return spec, space


def evaluate(task: str, weights: WeightStore, data, vocab: Vocabulary,
             config: FinetuneConfig, *, scheme: TagScheme | None = None,
             labels: RelationLabelSet | None = None, dataset_name: str = "dev",
             provenance: str = "unspecified") -> EvalReport:
    """The model's predictions on data scored by the task's scorer, which
    counts the RE label space's positive labels and the first n_best QA
    answers; `scheme` or `labels` is the label space (see _task)."""
    spec, space = _task(task, scheme, labels)
    return score(task, spec.gold(data), spec.predict(weights, data, vocab, space, config),
                 dataset_name, provenance, positive=getattr(space, "positive", frozenset()),
                 n_best=config.n_best)


def evaluate_ner(weights, sentences, vocab, scheme, max_len,
                 dataset_name="dev", provenance="unspecified") -> EvalReport:
    return evaluate("ner", weights, sentences, vocab, FinetuneConfig(max_len=max_len),
                    scheme=scheme, dataset_name=dataset_name, provenance=provenance)


def evaluate_re(weights, examples, vocab, labels, max_len,
                dataset_name="dev", provenance="unspecified") -> EvalReport:
    return evaluate("re", weights, examples, vocab, FinetuneConfig(max_len=max_len),
                    labels=labels, dataset_name=dataset_name, provenance=provenance)


def evaluate_qa(weights, examples, vocab, config,
                dataset_name="dev", provenance="unspecified") -> EvalReport:
    return evaluate("qa", weights, examples, vocab, config,
                    dataset_name=dataset_name, provenance=provenance)


def finetune(task: str, train_data, dev_data, init: WeightStore,
             config: FinetuneConfig, vocab: Vocabulary, *,
             scheme: TagScheme | None = None,
             labels: RelationLabelSet | None = None,
             intermediate=None, provenance: str = "unspecified") -> FinetuneResult:
    """Train head plus encoder end to end; return the best-dev checkpoint,
    its EvalReport and the per-epoch log.

    `scheme` or `labels` is the task's label space (see _task). A non-empty
    `intermediate` dataset of the same task is trained first (the two phases
    are marked in the log); dev selection applies to the target phase.
    """
    spec, space = _task(task, scheme, labels)
    config.validate()
    init.check_compatible(vocab, config.max_len)
    if not train_data and config.epochs > 0:
        raise InputError("empty training set")

    weights = init.clone()
    init_rng = seed_stream(config.seed, "finetune.init")
    head_seed = int(init_rng.integers(0, 2**31 - 1))
    weights.metadata.update(spec.metadata(space))
    head_tensors = init_head(weights.config, task, spec.width(space), head_seed)
    weights.tensors.update(head_tensors)

    data_rng = seed_stream(config.seed, "finetune.data")
    dropout_rng = seed_stream(config.seed, "finetune.dropout")
    phases = [("intermediate", intermediate)] if intermediate else []
    phases = [(name, spec.prepare(data, vocab, config, space))
              for name, data in [*phases, ("target", train_data)]]

    opt = AdamW(weights, [*expected_shapes(weights.config), *head_tensors],
                weight_decay=config.weight_decay)
    steps_per_epoch = {name: max(1, (len(items) + config.batch_size - 1) // config.batch_size)
                       for name, items in phases}
    total_steps = max(1, config.epochs * sum(steps_per_epoch.values()))

    log: list[dict] = []
    best_weights = weights.clone()
    best_report = evaluate(task, weights, dev_data, vocab, config, labels=space,
                           provenance=provenance)
    log.append({"phase": "init", "epoch": 0, "dev_metric": best_report.primary_metric()})

    step = 0
    for phase_name, items in phases:
        log.append({"phase": phase_name, "event": "start", "examples": len(items)})
        for epoch in range(1, config.epochs + 1):
            order = data_rng.permutation(len(items))
            epoch_loss = 0.0
            for lo in range(0, len(items), config.batch_size):
                chunk = [items[i] for i in order[lo:lo + config.batch_size]]
                step += 1
                lr = linear_schedule(step, total_steps, config.learning_rate,
                                     config.warmup_fraction)
                encodings, targets = zip(*chunk)
                read, head = spec.head(weights, task, encodings, targets)
                loss, _ = train_step(weights, encodings, head, opt.zero_grads(), read=read,
                                     rng=dropout_rng)
                opt.checked_grad_norm(step, loss)
                opt.step(lr)
                epoch_loss += loss
            report = evaluate(task, weights, dev_data, vocab, config, labels=space,
                              provenance=provenance)
            metric = report.primary_metric()
            log.append({"phase": phase_name, "epoch": epoch,
                        "train_loss": round(epoch_loss / steps_per_epoch[phase_name], 6),
                        "dev_metric": round(metric, 6)})
            if phase_name == "target" and metric > best_report.primary_metric():
                best_weights = weights.clone()
                best_report = report
    return FinetuneResult(best_weights, best_report, log)
