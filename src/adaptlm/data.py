"""Dataset formats: CoNLL token/tag files, relation TSV, SQuAD-shaped QA JSON
and BioASQ-shaped factoid JSON, plus the one text reader and the one file
writer of the package.

Parsers validate eagerly and report line numbers; every writer's output
parses back to the same records.
"""

from __future__ import annotations

import io
import json
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError, InputError
from .metrics import normalize_answer
from .tags import bio_to_bioes, bioes_to_bio, check_bio, check_bioes, repair_bioes

DOCSTART = "-DOCSTART-"


@dataclass(frozen=True)
class LabeledSentence:
    words: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if len(self.words) != len(self.tags):
            raise InputError(f"{len(self.words)} words vs {len(self.tags)} tags")


@dataclass(frozen=True)
class RelationLabelSet:
    """Ordered relation labels; the first is the negative class."""

    labels: tuple[str, ...]
    required_placeholders: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.labels) < 2 or len(set(self.labels)) != len(self.labels):
            raise InputError("label set needs >= 2 unique labels")

    @property
    def positive(self) -> set[str]:
        return set(self.labels[1:])


@dataclass(frozen=True)
class RelationExample:
    id: str
    sentence: str  # already anonymized
    label: str


@dataclass(frozen=True)
class QAExample:
    id: str
    question: str
    passage: str
    answers: tuple[tuple[str, int], ...] = ()  # located (text, char start) spans
    gold_answers: tuple[str, ...] = ()  # answer strings for matching/scoring

    def __post_init__(self):
        for text, start in self.answers:
            if self.passage[start:start + len(text)] != text:
                raise InputError(
                    f"answer {text!r} does not match passage slice at {start} in {self.id}")
        if not self.gold_answers and self.answers:
            object.__setattr__(self, "gold_answers", tuple(t for t, _ in self.answers))


def open_text(path) -> io.StringIO:
    """A UTF-8 text file as a line-iterable stream with universal newlines.

    Undecodable bytes raise FormatError naming the file and line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise FormatError(f"{path}: line {line} is not valid UTF-8 ({e.reason})") from None
    return io.StringIO(text, newline=None)


@contextmanager
def atomic_write(path, binary: bool = False):
    """A file to write `path` through, whole or not at all.

    The file is opened on a hidden temporary name beside `path` (UTF-8 with LF
    newlines unless binary) and replaces `path` on a clean exit; on an
    exception it is deleted, so an artifact already at `path` survives. The
    parent directory is created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(doc, path, indent: int = 1, sort_keys: bool = True) -> None:
    """doc as JSON plus a final newline, written through atomic_write."""
    with atomic_write(path) as f:
        json.dump(doc, f, indent=indent, sort_keys=sort_keys)
        f.write("\n")


# ---------------------------------------------------------------------------
# CoNLL
# ---------------------------------------------------------------------------

def parse_conll(stream, scheme: str = "bioes", lenient: bool = False) -> list[LabeledSentence]:
    """Parse token/tag lines (last whitespace field is the tag; blank line
    ends a sentence; -DOCSTART- lines are skipped).

    scheme "bioes" or "bio" selects the validity check. With lenient=True an
    invalid sequence is repaired instead of rejected (a BIO one through
    repair_bioes, so a stray I-X opens an entity as B-X).
    """
    if isinstance(stream, (str, os.PathLike)):
        return parse_conll(open_text(stream), scheme, lenient)
    if scheme not in ("bioes", "bio"):
        raise FormatError(f"unknown tag scheme {scheme!r}")
    sentences = []
    words: list[str] = []
    tags: list[str] = []
    sentence_start = 1

    def flush(lineno):
        nonlocal words, tags, sentence_start
        if not words:
            return
        try:
            if scheme == "bio":
                check_bio(tags)
            else:
                check_bioes(tags)
            fixed = tags
        except InputError as e:
            if not lenient:
                raise FormatError(
                    f"invalid {scheme.upper()} sequence in sentence starting at line "
                    f"{sentence_start}: {e}") from None
            fixed = repair_bioes(tags) if scheme == "bioes" else bioes_to_bio(repair_bioes(tags))
        sentences.append(LabeledSentence(tuple(words), tuple(fixed)))
        words, tags = [], []
        sentence_start = lineno + 1

    lineno = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush(lineno)
            continue
        if line.startswith(DOCSTART):
            continue
        fields = line.split()
        if len(fields) < 2:
            raise FormatError(f"line {lineno}: expected token and tag, got {line!r}")
        words.append(fields[0])
        tags.append(fields[-1])
    flush(lineno)
    return sentences


def write_conll(sentences: list[LabeledSentence], path) -> None:
    with atomic_write(path) as f:
        for sentence in sentences:
            for word, tag in zip(sentence.words, sentence.tags):
                f.write(f"{word} {tag}\n")
            f.write("\n")


def load_ner_dataset(stream, scheme: str = "bioes", lenient: bool = False) -> list[LabeledSentence]:
    """Parse and normalize to BIOES (BIO files are converted on load)."""
    sentences = parse_conll(stream, scheme=scheme, lenient=lenient)
    if scheme == "bio":
        sentences = [LabeledSentence(s.words, tuple(bio_to_bioes(list(s.tags))))
                     for s in sentences]
    return sentences


# ---------------------------------------------------------------------------
# relation TSV
# ---------------------------------------------------------------------------

def parse_re_tsv(stream, labels: RelationLabelSet) -> list[RelationExample]:
    """Tab-separated id, sentence, label; optional header (first cell "id")."""
    if isinstance(stream, (str, os.PathLike)):
        return parse_re_tsv(open_text(stream), labels)
    examples = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        cells = line.split("\t")
        if lineno == 1 and cells and cells[0].strip().lower() == "id":
            continue
        if len(cells) != 3:
            raise FormatError(f"line {lineno}: expected 3 tab-separated columns, got {len(cells)}")
        ex_id, sentence, label = (c.strip() for c in cells)
        if label not in labels.labels:
            raise FormatError(f"line {lineno}: unknown label {label!r} "
                              f"(expected one of {list(labels.labels)})")
        for placeholder in labels.required_placeholders:
            if placeholder not in sentence:
                raise FormatError(f"line {lineno}: sentence lacks placeholder {placeholder}")
        examples.append(RelationExample(ex_id, sentence, label))
    return examples


def write_re_tsv(examples: list[RelationExample], path) -> None:
    with atomic_write(path) as f:
        f.write("id\tsentence\tlabel\n")
        for ex in examples:
            f.write(f"{ex.id}\t{ex.sentence}\t{ex.label}\n")


# ---------------------------------------------------------------------------
# QA JSON (SQuAD v1.1-shaped) and BioASQ-shaped factoid records
# ---------------------------------------------------------------------------

def parse_qa_json(source) -> list[QAExample]:
    """Read data -> paragraphs -> qas with id/question/answers{text, answer_start}."""
    doc = load_json(source)
    try:
        examples = []
        for article in doc["data"]:
            for paragraph in article["paragraphs"]:
                passage = _typed(paragraph["context"], str)
                for qa in paragraph["qas"]:
                    answers = tuple((_typed(a["text"], str), _typed(a["answer_start"], int))
                                    for a in qa["answers"])
                    examples.append(QAExample(
                        id=str(qa["id"]), question=_typed(qa["question"], str), passage=passage,
                        answers=answers))
    except (KeyError, TypeError) as e:
        raise FormatError(f"malformed QA JSON: {e!r}") from None
    _check_unique_ids(ex.id for ex in examples)
    return examples


def _check_unique_ids(ids) -> None:
    seen = set()
    for id_ in ids:
        if id_ in seen:
            raise FormatError(f"question id {id_!r} is repeated")
        seen.add(id_)


def _typed(value, kind: type):
    """value, unless it is not a `kind` (a bool is no int): TypeError."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def write_qa_json(examples: list[QAExample], path, title: str = "dataset") -> None:
    paragraphs = [{
        "context": ex.passage,
        "qas": [{
            "id": ex.id,
            "question": ex.question,
            "answers": [{"text": t, "answer_start": s} for t, s in ex.answers],
        }],
    } for ex in examples]
    doc = {"version": "1.1", "data": [{"title": title, "paragraphs": paragraphs}]}
    write_json(doc, path)


def normalized_occurrences(passage: str, answer: str) -> list[tuple[int, int]]:
    """(start, end) character spans of the passage whose normalization equals
    the normalized answer. Matching is performed on an incrementally
    normalized copy of the passage with an index map back to the original."""
    target = normalize_answer(answer)
    if not target:
        return []
    norm_chars: list[str] = []
    index_map: list[int] = []  # original index per normalized char
    pending_space = False
    for i, ch in enumerate(passage):
        if ch.isspace():
            pending_space = bool(norm_chars)
            continue
        if pending_space:
            norm_chars.append(" ")
            index_map.append(i)  # the space maps to the next real char
            pending_space = False
        for folded in ch.casefold():
            norm_chars.append(folded)
            index_map.append(i)
    norm = "".join(norm_chars)

    spans = []
    start = norm.find(target)
    while start != -1:
        end_norm = start + len(target) - 1
        orig_start = index_map[start]
        orig_end = index_map[end_norm] + 1
        spans.append((orig_start, orig_end))
        start = norm.find(target, start + 1)
    return spans


def read_bioasq_questions(source) -> list[dict]:
    doc = load_json(source)
    questions = doc.get("questions") if isinstance(doc, dict) else None
    if not (isinstance(questions, list) and all(
            isinstance(q, dict) and isinstance(q.get("documents", []), list) for q in questions)):
        raise FormatError("BioASQ JSON must contain a 'questions' list of objects, "
                          "each with a list of documents")
    return questions


def _gold_strings(exact_answer) -> list[str]:
    """BioASQ exact_answer may be a string, a list, or a list of synonym lists."""
    if isinstance(exact_answer, str):
        return [exact_answer]
    if not isinstance(exact_answer, list):
        raise FormatError(f"exact_answer holds {exact_answer!r}, not a string or a list")
    return [gold for item in exact_answer for gold in _gold_strings(item)]


def bioasq_to_extractive(questions: list[dict], passages: dict[str, str]):
    """Convert factoid questions to extractive QAExamples.

    Every factoid question needs an id of its own, and the example of its
    i-th passage is named <id>_<i>. For each (question, referenced passage)
    pair, every normalized occurrence of every gold answer becomes a located
    span; pairs with no occurrence are dropped and counted. Returns
    (examples, dropped_count, skipped_non_factoid).
    """
    if not (isinstance(passages, dict) and all(isinstance(p, str) for p in passages.values())):
        raise FormatError("passages must be a JSON object mapping ids to passage text")
    factoids = [q for q in questions if q.get("type") == "factoid"]
    skipped = len(questions) - len(factoids)
    missing = sorted({str(d) for q in factoids for d in q.get("documents", [])
                      if not (isinstance(d, str) and d in passages)})
    if missing:
        raise FormatError(f"questions reference unknown passage ids: {missing}")

    for n, q in enumerate(questions):
        if q.get("type") == "factoid" and not (isinstance(q.get("id"), str) and q["id"]):
            raise FormatError(f"factoid question {n} (from 0) has no id")
    _check_unique_ids(q["id"] for q in factoids)

    examples = []
    dropped = 0
    for q in factoids:
        if not isinstance(q.get("body", ""), str):
            raise FormatError(f"question {q['id']!r} has a body that is not a string")
        golds = tuple(_gold_strings(q.get("exact_answer", [])))
        doc_ids = q.get("documents", [])
        for i, doc_id in enumerate(doc_ids):
            passage = passages[doc_id]
            spans = []
            for gold in golds:
                for start, end in normalized_occurrences(passage, gold):
                    spans.append((passage[start:end], start))
            if spans:
                examples.append(QAExample(
                    id=f"{q['id']}_{i}", question=q.get("body", ""),
                    passage=passage, answers=tuple(spans), gold_answers=golds))
            else:
                dropped += 1
    return examples, dropped, skipped


def load_json(source):
    """A parsed JSON document from a path or text stream; undecodable or
    malformed input raises FormatError."""
    where = "stream"
    if isinstance(source, (str, os.PathLike)):
        where, source = source, open_text(source)
    try:
        return json.load(source)
    except (json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"{where}: malformed JSON: {e}") from None
