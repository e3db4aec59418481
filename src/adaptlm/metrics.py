"""Evaluation metrics: entity-level P/R/F1, classification P/R/F1, and the
ranked-answer triple (strict accuracy, lenient accuracy, MRR), with
micro-averaging across datasets by pooling raw counts. score() is the one
scorer of each task, for model predictions and prediction files alike.

Conventions, documented because scorers differ: 0/0 precision or recall is 0,
except when gold and predictions are empty everywhere, which scores 1.0
(perfect vacuous agreement). Raw counts are always reported so any other
convention can be re-derived.
"""

from __future__ import annotations

import hashlib
import json
import string
from dataclasses import dataclass, field

from .errors import ConfigError, InputError
from .tags import check_bioes, parse_tag

N_BEST_DEFAULT = 5


@dataclass(frozen=True, order=True)
class EntitySpan:
    start: int
    end: int  # inclusive word index
    entity_type: str

    def __post_init__(self):
        if self.start > self.end:
            raise InputError(f"span start {self.start} > end {self.end}")


def spans_from_tags(tags: list[str]) -> set[EntitySpan]:
    """Entity spans of a valid BIOES sequence: S singletons and B..E runs."""
    check_bioes(list(tags))
    spans = set()
    start = None
    for i, tag in enumerate(tags):
        kind, typ = parse_tag(tag)
        if kind == "S":
            spans.add(EntitySpan(i, i, typ))
        elif kind == "B":
            start = i
        elif kind == "E":
            spans.add(EntitySpan(start, i, typ))
            start = None
    return spans


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0, 1.0, 1.0  # vacuous agreement
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def entity_prf(gold: list[set[EntitySpan]], pred: list[set[EntitySpan]]):
    """Exact-match entity P/R/F1 over parallel per-sentence span sets.

    A prediction counts only when start, end and type all match a gold span.
    Returns (P, R, F1, counts) with counts = {"tp", "fp", "fn"}.
    """
    if len(gold) != len(pred):
        raise InputError(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        inter = len(g & p)
        tp += inter
        fp += len(p) - inter
        fn += len(g) - inter
    p, r, f1 = _prf(tp, fp, fn)
    return p, r, f1, {"tp": tp, "fp": fp, "fn": fn}


def micro_average(count_sets: list[dict]) -> tuple[float, float, float]:
    """Pool tp/fp/fn across datasets, then apply the formulas once."""
    if not count_sets:
        raise InputError("micro_average needs at least one dataset")
    tp = sum(c["tp"] for c in count_sets)
    fp = sum(c["fp"] for c in count_sets)
    fn = sum(c["fn"] for c in count_sets)
    return _prf(tp, fp, fn)


def classification_prf(gold: list[str], pred: list[str], positive: set[str]):
    """Micro P/R/F1 over the positive label set (multi-class: all non-negative
    labels pooled). Returns (P, R, F1, counts)."""
    if len(gold) != len(pred):
        raise InputError(f"{len(gold)} gold labels vs {len(pred)} predictions")
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        if p in positive:
            if p == g:
                tp += 1
            else:
                fp += 1
                if g in positive:
                    fn += 1
        elif g in positive:
            fn += 1
    p, r, f1 = _prf(tp, fp, fn)
    return p, r, f1, {"tp": tp, "fp": fp, "fn": fn}


def normalize_answer(s: str) -> str:
    """Case-fold, collapse whitespace, trim, strip outer ASCII punctuation."""
    folded = s.casefold()
    collapsed = " ".join(folded.split())
    return collapsed.strip(string.punctuation + " ")


def qa_metrics(ranked_answers: list[list[str]], gold_answers: list[list[str]],
               n_best: int = N_BEST_DEFAULT):
    """(strict, lenient, MRR) plus per-rank tallies.

    A question's rank is that of its first answer, among the first n_best,
    that normalize_answer maps to the same string as a gold answer. strict =
    fraction answered at rank 1, lenient = within the first n_best, MRR =
    mean of 1/rank with 0 for unanswered. An empty ranked list scores
    (0, 0, 0) for that question.
    """
    if len(ranked_answers) != len(gold_answers):
        raise InputError("ranked and gold lists differ in length")
    n = len(gold_answers)
    if n == 0:
        raise InputError("no questions to score")
    tallies = {"questions": n, "by_rank": [0] * n_best, "unanswered": 0}
    reciprocal_ranks = []
    for answers, golds in zip(ranked_answers, gold_answers):
        normalized_golds = {normalize_answer(g) for g in golds}
        for rank, answer in enumerate(answers[:n_best], start=1):
            if normalize_answer(answer) in normalized_golds:
                tallies["by_rank"][rank - 1] += 1
                reciprocal_ranks.append(1.0 / rank)
                break
        else:
            tallies["unanswered"] += 1
            reciprocal_ranks.append(0.0)
    by_rank = tallies["by_rank"]
    return by_rank[0] / n, sum(by_rank) / n, sum(reciprocal_ranks) / n, tallies


def pool_qa_tallies(tally_sets: list[dict]) -> tuple[float, float, float]:
    """Micro-average ranked-answer metrics by pooling questions."""
    if not tally_sets:
        raise InputError("nothing to pool")
    n_best = len(tally_sets[0]["by_rank"])
    n = sum(t["questions"] for t in tally_sets)
    by_rank = [sum(t["by_rank"][i] for t in tally_sets) for i in range(n_best)]
    strict = by_rank[0] / n
    lenient = sum(by_rank) / n
    mrr = sum(by_rank[i] / (i + 1) for i in range(n_best)) / n
    return strict, lenient, mrr


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

# each task's metric names (the last selects on dev), its pooling of counts,
# and its scorer: (gold, pred, positive, n_best) -> (*values, counts)
_PRF = ("precision", "recall", "f1")
METRICS = {
    "ner": (_PRF, micro_average, lambda gold, pred, positive, n_best: entity_prf(
        [spans_from_tags(tags) for tags in gold], [spans_from_tags(tags) for tags in pred])),
    "re": (_PRF, micro_average, lambda gold, pred, positive, n_best: classification_prf(
        gold, pred, positive)),
    "qa": (("strict", "lenient", "mrr"), pool_qa_tallies,
           lambda gold, pred, positive, n_best: qa_metrics(pred, gold, n_best=n_best)),
}


@dataclass
class EvalReport:
    """Per-dataset metric triples with raw counts and micro aggregates."""

    task: str  # "ner" | "re" | "qa"
    datasets: list[dict] = field(default_factory=list)
    provenance: str = "unspecified"
    config_fingerprint: str = "-"

    def add_dataset(self, name: str, metrics: dict, counts: dict) -> None:
        self.datasets.append({"name": name, "metrics": metrics, "counts": counts})

    @property
    def micro(self) -> dict:
        if not self.datasets:
            return {}
        names, pool, _ = METRICS[self.task]
        return dict(zip(names, pool([d["counts"] for d in self.datasets])))

    def primary_metric(self) -> float:
        """Dev-selection scalar: micro F1 for NER/RE, MRR for QA."""
        names, _, _ = METRICS[self.task]
        return self.micro[names[-1]]

    def to_json(self) -> str:
        doc = {
            "task": self.task,
            "datasets": self.datasets,
            "counts": [d["counts"] for d in self.datasets],
            "micro": self.micro,
            "provenance": self.provenance,
            "config_fingerprint": self.config_fingerprint,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_table(self) -> str:
        """Aligned text table, one dataset per row plus the micro row; each
        metric column is headed by its initial (P/R/F or S/L/M)."""
        keys, _, _ = METRICS[self.task]
        headers = ["dataset"] + [k[0].upper() for k in keys]
        rows = [[d["name"]] + [f"{d['metrics'][k] * 100:.2f}" for k in keys]
                for d in self.datasets]
        if self.datasets:
            rows.append(["micro"] + [f"{self.micro[k] * 100:.2f}" for k in keys])
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)


def score(task: str, gold: list, pred: list, dataset_name: str = "eval",
          provenance: str = "unspecified", *, positive=frozenset(),
          n_best: int = N_BEST_DEFAULT) -> EvalReport:
    """The one-dataset report scoring pred against gold, both task-native and
    parallel: BIOES tag sequences for "ner" (entity P/R/F1), labels for "re"
    (P/R/F1 over the `positive` labels), and for "qa" gold answer strings
    against ranked answer lists (strict, lenient and MRR at `n_best`)."""
    if task not in METRICS:
        raise ConfigError(f"unknown task {task!r}")
    names, _, scorer = METRICS[task]
    *values, counts = scorer(gold, pred, positive, n_best)
    report = EvalReport(task=task, provenance=provenance)
    report.add_dataset(dataset_name, dict(zip(names, values)), counts)
    return report


def config_fingerprint(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
