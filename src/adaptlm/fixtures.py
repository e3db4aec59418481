"""Synthetic corpora and task datasets for desk-scale experiments.

The construction mirrors the domain-shift setting the toolkit targets:

* a general corpus over a pool of everyday nonce words;
* a domain corpus that additionally contains domain terms and distractor
  terms, each co-occurring with class-specific marker words, so masked-LM
  training on it can tie term identity to term class;
* an NER task (tag domain terms, ignore distractors) whose test sentences
  use terms that never occur in the fine-tuning data, only in the domain
  corpus, which is what makes continued pretraining measurably useful;
* an RE task over placeholder-anonymized sentences and an extractive QA
  task, plus a BioASQ-shaped file with an exact count of unanswerable
  questions for the filtering contract.

Words are built from disjoint three-letter syllable pools and every syllable
is a vocabulary entry (initial and continuation form), so tokenization is
exact, UNK-free, and a k-syllable word always yields k subtokens.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .config import Section
from .data import (QAExample, RelationExample, atomic_write, open_text, write_conll,
                   write_json, write_qa_json, write_re_tsv, LabeledSentence)
from .errors import FormatError, RecipeError

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
# Recipe integers that bound a random draw and so must be >= 1; the others may be 0.
_AT_LEAST_ONE = ("general_words", "domain_heads", "distractor_heads", "markers_per_class",
                 "sentence_words")


@dataclass(frozen=True)
class FixtureRecipe:
    # pool sizes (generated nonce words) or explicit comma-separated pools
    general_words: int = 40
    domain_heads: int = 16
    distractor_heads: int = 16
    term_syllables: int = 1
    term_tails: int = 4
    markers_per_class: int = 3
    general_pool: tuple[str, ...] = ()
    domain_pool: tuple[str, ...] = ()
    require_disjoint: bool = True
    # corpus sizes
    general_documents: int = 100
    domain_documents: int = 200
    sentences_per_document: int = 6
    sentence_words: int = 7
    # ner
    ner_train: int = 64
    ner_dev: int = 32
    ner_test: int = 96
    train_head_fraction: float = 0.34
    two_word_fraction: float = 0.0
    entity_type: str = "GENE"
    # re
    re_train: int = 48
    re_dev: int = 16
    re_test: int = 48
    # qa
    qa_train: int = 32
    qa_dev: int = 12
    qa_test: int = 24
    qa_bioasq_questions: int = 20
    unanswerable_fraction: float = 0.30

    def validate(self) -> "FixtureRecipe":
        for f in fields(self):
            low = 1 if f.name in _AT_LEAST_ONE else 0
            if f.type == "int" and getattr(self, f.name) < low:
                raise RecipeError(f"{f.name} must be >= {low}")
        if self.term_syllables not in (1, 2):
            raise RecipeError("term_syllables must be 1 or 2")
        for name in ("unanswerable_fraction", "two_word_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise RecipeError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.train_head_fraction < 1.0:
            raise RecipeError("train_head_fraction must lie in (0, 1)")
        if self.require_disjoint and self.general_pool and self.domain_pool:
            overlap = set(self.general_pool) & set(self.domain_pool)
            if overlap:
                raise RecipeError(f"general and domain pools overlap: {sorted(overlap)}")
        return self


def parse_recipe(source) -> FixtureRecipe:
    """Read a recipe from the documented key=value text format (one [recipe]
    section; unknown keys rejected). Unreadable or malformed text raises
    RecipeError, a mistyped value a ConfigError naming [recipe] and its key."""
    named = isinstance(source, (str, os.PathLike))
    parser = configparser.ConfigParser()
    try:
        parser.read_file(open_text(source) if named else source,
                         source=str(source) if named else "<recipe>")
        values = dict(parser["recipe"]) if "recipe" in parser else None
    except OSError:
        raise RecipeError(f"recipe file not found: {source}") from None
    except (FormatError, configparser.Error) as e:
        raise RecipeError(str(e)) from None
    if values is None:
        raise RecipeError("recipe file needs a [recipe] section")
    unknown = set(values) - {f.name for f in fields(FixtureRecipe)}
    if unknown:
        raise RecipeError(f"unknown recipe key {min(unknown)!r}")
    return Section({"recipe": values}, "recipe").load(FixtureRecipe)


def _syllables(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        s = (_CONSONANTS[rng.integers(len(_CONSONANTS))]
             + _VOWELS[rng.integers(len(_VOWELS))]
             + _CONSONANTS[rng.integers(len(_CONSONANTS))])
        if s not in taken:
            taken.add(s)
            out.append(s)
    return out


@dataclass
class _World:
    """Everything derived from a recipe and a seed."""

    general: list[str]
    domain_terms: list[str]
    distractor_terms: list[str]
    domain_train_terms: list[str]
    domain_test_terms: list[str]
    distractor_train_terms: list[str]
    distractor_test_terms: list[str]
    markers_domain: list[str]
    markers_distractor: list[str]
    vocab_entries: list[str]
    pieces: dict[str, list[str]]  # word -> subword pieces


def _build_world(recipe: FixtureRecipe, rng: np.random.Generator) -> _World:
    taken: set[str] = set()
    pieces: dict[str, list[str]] = {}

    def compose(syllables: list[str]) -> str:
        word = "".join(syllables)
        pieces[word] = list(syllables)
        return word

    if recipe.general_pool:
        general = list(recipe.general_pool)
        for w in general:
            pieces[w] = [w]
    else:
        gen_syll = _syllables(rng, max(recipe.general_words // 2 + 2, 4), taken)
        general = []
        while len(general) < recipe.general_words:
            k = 1 + int(rng.integers(2))
            word = compose([gen_syll[rng.integers(len(gen_syll))] for _ in range(k)])
            if word not in general:
                general.append(word)

    tails = _syllables(rng, recipe.term_tails, taken) if recipe.term_syllables == 2 else []

    def build_terms(n_heads: int) -> tuple[list[str], list[str]]:
        heads = _syllables(rng, n_heads, taken)
        if recipe.term_syllables == 1:
            return heads, [compose([h]) for h in heads]
        return heads, [compose([h, t]) for h in heads for t in tails[:2]]

    if recipe.domain_pool:
        domain_heads, domain_terms = [], list(recipe.domain_pool)
        for w in domain_terms:
            pieces[w] = [w]
    else:
        domain_heads, domain_terms = build_terms(recipe.domain_heads)
    _, distractor_terms = build_terms(recipe.distractor_heads)

    def split_by_head(terms: list[str]) -> tuple[list[str], list[str]]:
        heads_of = {}
        for t in terms:
            heads_of.setdefault(pieces[t][0], []).append(t)
        head_list = list(heads_of)
        n_train = max(1, int(round(recipe.train_head_fraction * len(head_list))))
        train_heads = set(head_list[:n_train])
        train = [t for h in head_list if h in train_heads for t in heads_of[h]]
        test = [t for h in head_list if h not in train_heads for t in heads_of[h]]
        return train, test or train

    d_train, d_test = split_by_head(domain_terms)
    n_train, n_test = split_by_head(distractor_terms)

    # single-syllable markers: a masked marker is only predictable from the
    # neighbouring term, never from its own visible remainder
    mk_syll = _syllables(rng, 2 * recipe.markers_per_class, taken)
    markers_domain = [compose([s]) for s in mk_syll[:recipe.markers_per_class]]
    markers_distractor = [compose([s]) for s in mk_syll[recipe.markers_per_class:]]

    entries = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", ".", ",", "?", "@", "$"]
    seen = set(entries)
    for word in (*general, *domain_terms, *distractor_terms,
                 *markers_domain, *markers_distractor):
        for pos, piece in enumerate(pieces[word]):
            entry = piece if pos == 0 else "##" + piece
            if entry not in seen:
                seen.add(entry)
                entries.append(entry)
            # initial form too, so terms are recognizable mid-analysis
            if pos > 0 and piece not in seen:
                seen.add(piece)
                entries.append(piece)

    return _World(general, domain_terms, distractor_terms, d_train, d_test,
                  n_train, n_test, markers_domain, markers_distractor,
                  entries, pieces)


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def _general_sentence(rng, world, n_words):
    return [_pick(rng, world.general) for _ in range(n_words)] + ["."]


def _domain_sentence(rng, world, n_words):
    """One term adjacent to its class marker, with little filler: short
    sentences keep the masking signal concentrated on the association, and
    marker-before-term variants make the cue bidirectional."""
    domain = bool(rng.integers(2))
    term = _pick(rng, world.domain_terms if domain else world.distractor_terms)
    marker = _pick(rng, world.markers_domain if domain else world.markers_distractor)
    n_filler = 1 + int(rng.integers(2))
    words = [_pick(rng, world.general) for _ in range(n_filler)]
    pair = [term, marker] if rng.random() < 0.7 else [marker, term]
    slot = int(rng.integers(len(words) + 1))
    words[slot:slot] = pair
    return words + ["."]


def _write_corpus(path, documents):
    with atomic_write(path) as f:
        for i, doc in enumerate(documents):
            for sentence in doc:
                f.write(" ".join(sentence) + "\n")
            if i != len(documents) - 1:
                f.write("\n")


def _ner_sentence(rng, world, recipe, term_pool, distractor_pool):
    """Neutral-context sentence; returns (words, tags)."""
    n = recipe.sentence_words
    words = [_pick(rng, world.general) for _ in range(n)]
    tags = ["O"] * n
    slot = 1 + int(rng.integers(n - 2))
    kind = rng.random()
    etype = recipe.entity_type
    if kind < 0.45:  # entity
        if rng.random() < recipe.two_word_fraction and len(term_pool) > 1:
            words[slot:slot] = [_pick(rng, term_pool), _pick(rng, term_pool)]
            tags[slot:slot] = [f"B-{etype}", f"E-{etype}"]
        else:
            words[slot:slot] = [_pick(rng, term_pool)]
            tags[slot:slot] = [f"S-{etype}"]
    elif kind < 0.9:  # distractor, stays O
        words[slot:slot] = [_pick(rng, distractor_pool)]
        tags[slot:slot] = ["O"]
    words.append(".")
    tags.append("O")
    return LabeledSentence(tuple(words), tuple(tags))


def _re_examples(rng, world, n, id_prefix):
    out = []
    verbs_pos = world.general[:3]
    verbs_neg = world.general[3:6]
    for i in range(n):
        positive = bool(rng.integers(2))
        verb = _pick(rng, verbs_pos if positive else verbs_neg)
        filler = [_pick(rng, world.general) for _ in range(3)]
        sentence = f"@GENE$ {verb} @DISEASE$ {' '.join(filler)} ."
        out.append(RelationExample(f"{id_prefix}{i}", sentence,
                                   "positive" if positive else "negative"))
    return out


def _qa_examples(rng, world, n, id_prefix, answerable=True):
    """Question asks for the marked term; the passage contains one domain term
    (or none, for unanswerable fixtures)."""
    question = " ".join(world.general[:3]) + " ?"
    out = []
    for i in range(n):
        term = _pick(rng, world.domain_terms)
        marker = _pick(rng, world.markers_domain)
        left = [_pick(rng, world.general) for _ in range(2)]
        right = [_pick(rng, world.general) for _ in range(2)]
        if answerable:
            passage = " ".join(left + [term, marker] + right) + " ."
            start = len(" ".join(left)) + 1
            answers = ((term, start),)
            gold = (term,)
        else:
            passage = " ".join(left + [marker] + right) + " ."
            answers = ()
            gold = (term,)
        out.append(QAExample(f"{id_prefix}{i}", question, passage,
                             answers=answers, gold_answers=gold))
    return out


def generate_fixtures(recipe: FixtureRecipe, seed: int, out_dir) -> dict:
    """Write all fixture files under out_dir; returns the manifest dict.

    Byte-identical for identical (recipe, seed).
    """
    recipe.validate()
    rng = np.random.default_rng(seed)
    world = _build_world(recipe, rng)
    out = Path(out_dir)

    with atomic_write(out / "vocab.txt") as f:
        f.write("\n".join(world.vocab_entries) + "\n")

    spd, nw = recipe.sentences_per_document, recipe.sentence_words
    general_docs = [[_general_sentence(rng, world, nw) for _ in range(spd)]
                    for _ in range(recipe.general_documents)]
    domain_docs = [[_domain_sentence(rng, world, nw) for _ in range(spd)]
                   for _ in range(recipe.domain_documents)]
    _write_corpus(out / "general_corpus.txt", general_docs)
    _write_corpus(out / "domain_corpus.txt", domain_docs)

    ner = {}
    for split, count, terms, distractors in (
            ("train", recipe.ner_train, world.domain_train_terms, world.distractor_train_terms),
            ("dev", recipe.ner_dev, world.domain_train_terms, world.distractor_train_terms),
            ("test", recipe.ner_test, world.domain_test_terms, world.distractor_test_terms)):
        sentences = [_ner_sentence(rng, world, recipe, terms, distractors)
                     for _ in range(count)]
        write_conll(sentences, out / f"ner_{split}.conll")
        ner[split] = len(sentences)

    for split, count in (("train", recipe.re_train), ("dev", recipe.re_dev),
                         ("test", recipe.re_test)):
        write_re_tsv(_re_examples(rng, world, count, f"re_{split}_"),
                     out / f"re_{split}.tsv")

    for split, count in (("train", recipe.qa_train), ("dev", recipe.qa_dev),
                         ("test", recipe.qa_test)):
        write_qa_json(_qa_examples(rng, world, count, f"qa_{split}_"),
                      out / f"qa_{split}.json", title=f"fixture-{split}")

    # BioASQ-shaped questions with an exact unanswerable count
    n_q = recipe.qa_bioasq_questions
    n_unanswerable = int(round(recipe.unanswerable_fraction * n_q))
    answerable = _qa_examples(rng, world, n_q - n_unanswerable, "bq_a_", answerable=True)
    unanswerable = _qa_examples(rng, world, n_unanswerable, "bq_u_", answerable=False)
    passages = {}
    questions = []
    for ex in answerable + unanswerable:
        pid = f"passage_{ex.id}"
        passages[pid] = ex.passage
        questions.append({"id": ex.id, "type": "factoid", "body": ex.question,
                          "exact_answer": [list(ex.gold_answers)], "documents": [pid]})
    write_json({"questions": questions}, out / "qa_bioasq.json")
    write_json(passages, out / "qa_passages.json")

    manifest = {
        "seed": seed,
        "recipe": asdict(recipe),
        "vocab_size": len(world.vocab_entries),
        "counts": {"ner": ner,
                   "re": {"train": recipe.re_train, "dev": recipe.re_dev, "test": recipe.re_test},
                   "qa": {"train": recipe.qa_train, "dev": recipe.qa_dev, "test": recipe.qa_test},
                   "bioasq_questions": n_q,
                   "bioasq_unanswerable": n_unanswerable},
        "domain_terms": {"train": world.domain_train_terms, "test": world.domain_test_terms},
        "distractor_terms": {"train": world.distractor_train_terms,
                             "test": world.distractor_test_terms},
        "markers": {"domain": world.markers_domain, "distractor": world.markers_distractor},
    }
    write_json(manifest, out / "manifest.json")
    return manifest
