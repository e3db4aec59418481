import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptlm.data import (LabeledSentence, QAExample, RelationLabelSet,
                          bioasq_to_extractive, load_ner_dataset,
                          normalized_occurrences, parse_conll, parse_qa_json,
                          parse_re_tsv, write_conll, write_qa_json, write_re_tsv)
from adaptlm.errors import ConfigError, FormatError, InputError, RecipeError
from adaptlm.fixtures import FixtureRecipe, generate_fixtures, parse_recipe
from adaptlm.tags import bio_to_bioes, bioes_to_bio, check_bio
from adaptlm.metrics import spans_from_tags


def test_parse_conll_basic():
    text = "WT1 B-Gene\nbinds I-Gene\n\nfail O\n, O\n"
    sentences = parse_conll(io.StringIO(text), scheme="bio")
    assert len(sentences) == 2
    assert sentences[0].words == ("WT1", "binds")
    assert sentences[0].tags == ("B-Gene", "I-Gene")


def test_parse_conll_bio_valid_but_bioes_strict_error():
    text = "WT1 B-Gene\n\n"
    assert len(parse_conll(io.StringIO(text), scheme="bio")) == 1
    with pytest.raises(FormatError, match="line 1"):
        parse_conll(io.StringIO(text), scheme="bioes")


def test_parse_conll_lenient_repairs_and_warns():
    warnings = []
    sentences = parse_conll(io.StringIO("WT1 B-Gene\n\n"), scheme="bioes",
                            lenient=True, warn=warnings.append)
    assert sentences[0].tags == ("S-Gene",)
    assert warnings


def test_parse_conll_lenient_repairs_bio():
    text = "a I-Gene\nb I-Gene\nc O\nd B-Gene\ne I-Gene\nf I-Drug\n\n"
    with pytest.raises(FormatError, match="I-Gene does not continue"):
        parse_conll(io.StringIO(text), scheme="bio")
    sentences = parse_conll(io.StringIO(text), scheme="bio", lenient=True)
    assert sentences[0].tags == ("B-Gene", "I-Gene", "O", "B-Gene", "I-Gene", "B-Drug")
    assert load_ner_dataset(io.StringIO(text), scheme="bio", lenient=True)[0].tags == (
        "B-Gene", "E-Gene", "O", "B-Gene", "E-Gene", "S-Drug")


def test_parse_conll_short_line_names_line_number():
    with pytest.raises(FormatError, match="line 3"):
        parse_conll(io.StringIO("a O\nb O\nbad\n\n"), scheme="bio")


def test_parse_conll_skips_docstart():
    text = "-DOCSTART- -X- O\na O\n\n"
    sentences = parse_conll(io.StringIO(text), scheme="bio")
    assert len(sentences) == 1
    assert sentences[0].words == ("a",)


def test_parse_conll_takes_last_field_as_tag():
    sentences = parse_conll(io.StringIO("word NN extra B-D\n\n"), scheme="bio")
    assert sentences[0].tags == ("B-D",)


def test_conll_roundtrip_random_sentences(rng, tmp_path):
    words = ["alpha", "beta", "gamma", "x1"]
    sentences = []
    for _ in range(100):
        n = int(rng.integers(1, 8))
        tags = []
        while len(tags) < n:
            if rng.random() < 0.5:
                tags.append("O")
            elif rng.random() < 0.5 or n - len(tags) < 2:
                tags.append("S-D")
            else:
                tags += ["B-D", "E-D"]
        tags = tags[:n]
        sentences.append(LabeledSentence(
            tuple(words[int(rng.integers(len(words)))] for _ in range(n)),
            tuple(tags if _valid(tags) else ["O"] * n)))
    write_conll(sentences, tmp_path / "s.conll")
    parsed = parse_conll(tmp_path / "s.conll", scheme="bioes", lenient=True)
    assert parsed == sentences


def _valid(tags):
    from adaptlm.tags import is_valid_bioes
    return is_valid_bioes(list(tags))


def test_load_ner_dataset_converts_bio_to_bioes():
    text = "a B-D\nb I-D\nc I-D\n\nd B-G\n\n"
    sentences = load_ner_dataset(io.StringIO(text), scheme="bio")
    assert sentences[0].tags == ("B-D", "I-D", "E-D")
    assert sentences[1].tags == ("S-G",)


def test_bio_bioes_examples():
    assert bio_to_bioes(["B-D", "I-D", "I-D"]) == ["B-D", "I-D", "E-D"]
    assert bio_to_bioes(["B-G"]) == ["S-G"]
    assert bio_to_bioes(["O", "O"]) == ["O", "O"]
    assert bioes_to_bio(["B-D", "I-D", "E-D"]) == ["B-D", "I-D", "I-D"]
    assert bioes_to_bio(["S-G"]) == ["B-G"]


def test_bio_bioes_errors_name_position():
    with pytest.raises(InputError, match="position 1"):
        bio_to_bioes(["O", "I-D"])


def _random_bioes(rng, types=("D", "G")):
    tags = []
    n = int(rng.integers(1, 12))
    while len(tags) < n:
        typ = types[int(rng.integers(len(types)))]
        roll = rng.random()
        if roll < 0.4:
            tags.append("O")
        elif roll < 0.65 or n - len(tags) < 2:
            tags.append(f"S-{typ}")
        else:
            run = min(int(rng.integers(2, 5)), n - len(tags))
            tags += [f"B-{typ}"] + [f"I-{typ}"] * (run - 2) + [f"E-{typ}"]
    return tags[:n] if _valid(tags[:n]) else tags


def test_bioes_bio_roundtrip_preserves_spans(rng):
    for _ in range(100):
        tags = _random_bioes(rng)
        assert bio_to_bioes(bioes_to_bio(tags)) == tags
        assert spans_from_tags(tags) == spans_from_tags(bio_to_bioes(bioes_to_bio(tags)))


def _valid_bioes_sequences(n, types=("D", "G")):
    """Every valid BIOES sequence of length n over the types."""
    def extend(prefix, open_type):
        if len(prefix) == n:
            if open_type is None:
                yield prefix
            return
        if open_type is None:
            yield from extend(prefix + ["O"], None)
            for typ in types:
                yield from extend(prefix + [f"S-{typ}"], None)
                yield from extend(prefix + [f"B-{typ}"], typ)
        else:
            yield from extend(prefix + [f"I-{open_type}"], open_type)
            yield from extend(prefix + [f"E-{open_type}"], None)
    return list(extend([], None))


def _is_valid_bio(tags):
    try:
        check_bio(list(tags))
    except InputError:
        return False
    return True


@pytest.mark.parametrize("n", range(1, 7))
def test_bio_to_bioes_inverts_bioes_to_bio_on_every_short_sequence(n):
    bioes_all = _valid_bioes_sequences(n)
    bio_all = [bioes_to_bio(tags) for tags in bioes_all]
    # the BIO images are exactly the valid BIO sequences of length n
    kinds = ["O", "B-D", "I-D", "B-G", "I-G"]
    valid_bio = {seq for seq in itertools.product(kinds, repeat=n) if _is_valid_bio(seq)}
    assert {tuple(bio) for bio in bio_all} == valid_bio and len(valid_bio) == len(bio_all)
    for bioes, bio in zip(bioes_all, bio_all):
        assert bio_to_bioes(bio) == bioes


# --- relation TSV ---

LABELS = RelationLabelSet(("negative", "positive"))


def test_parse_re_tsv_roundtrip(tmp_path):
    examples = [
        # sentence contains typed placeholders
        *(parse_re_tsv(io.StringIO(
            "id\tsentence\tlabel\n"
            "r1\t@GENE$ affects @DISEASE$ .\tpositive\n"
            "r2\t@GENE$ near @DISEASE$ .\tnegative\n"), LABELS))]
    assert len(examples) == 2
    assert examples[0].label == "positive"
    write_re_tsv(examples, tmp_path / "r.tsv")
    again = parse_re_tsv(tmp_path / "r.tsv", LABELS)
    assert again == examples


def test_parse_re_tsv_unknown_label():
    with pytest.raises(FormatError, match="maybe"):
        parse_re_tsv(io.StringIO("r1\tx\tmaybe\n"), LABELS)


def test_parse_re_tsv_column_count():
    with pytest.raises(FormatError, match="3 tab-separated"):
        parse_re_tsv(io.StringIO("r1\tonly-two\n"), LABELS)


def test_parse_re_tsv_placeholder_required():
    labels = RelationLabelSet(("negative", "positive"),
                              required_placeholders=("@GENE$", "@DISEASE$"))
    with pytest.raises(FormatError, match="placeholder"):
        parse_re_tsv(io.StringIO("r1\tno placeholders here\tpositive\n"), labels)
    ok = parse_re_tsv(io.StringIO("r1\t@GENE$ x @DISEASE$\tpositive\n"), labels)
    assert len(ok) == 1


def test_re_tsv_order_preserved():
    rows = "".join(f"r{i}\t@GENE$ x @DISEASE$\tnegative\n" for i in range(10))
    examples = parse_re_tsv(io.StringIO(rows), LABELS)
    assert [e.id for e in examples] == [f"r{i}" for i in range(10)]


# --- QA JSON ---

def test_qa_json_roundtrip(tmp_path):
    examples = [QAExample("q1", "which?", "the zorvat pathway .",
                          answers=(("zorvat", 4),))]
    path = tmp_path / "qa.json"
    write_qa_json(examples, path)
    again = parse_qa_json(path)
    assert again == examples
    assert again[0].gold_answers == ("zorvat",)


def test_qa_example_span_invariant():
    with pytest.raises(InputError):
        QAExample("q", "?", "abcdef", answers=(("zzz", 0),))


def test_normalized_occurrences_case_and_whitespace():
    spans = normalized_occurrences("Eruptions of  Erythrasma everywhere", "erythrasma")
    assert spans == [(14, 24)]
    text = "abc ABC abc"
    assert normalized_occurrences(text, "Abc") == [(0, 3), (4, 7), (8, 11)]
    assert normalized_occurrences("nothing here", "zorvat") == []


def test_bioasq_conversion_counts_and_spans():
    questions = [
        {"id": "q1", "type": "factoid", "body": "which?",
         "exact_answer": [["erythrasma"]], "documents": ["d1"]},
        {"id": "q2", "type": "factoid", "body": "which?",
         "exact_answer": ["absent"], "documents": ["d1"]},
        {"type": "yesno", "body": "is it?", "exact_answer": "yes",  # needs no id
         "documents": ["d1"]},
    ]
    passages = {"d1": "cutaneous eruptions of erythrasma, erythrasma again"}
    examples, dropped, skipped = bioasq_to_extractive(questions, passages)
    assert dropped == 1 and skipped == 1
    assert [ex.id for ex in examples] == ["q1_0"]
    assert len(examples[0].answers) == 2  # every occurrence recorded
    starts = [s for _, s in examples[0].answers]
    assert all(passages["d1"][s:s + len("erythrasma")] == "erythrasma" for s in starts)


def test_bioasq_dangling_passage_id():
    questions = [{"id": "q", "type": "factoid", "exact_answer": ["x"],
                  "documents": ["nope", "d1"]}]
    with pytest.raises(FormatError, match="nope"):
        bioasq_to_extractive(questions, {"d1": "x here"})


@pytest.mark.parametrize("ids", [[None, "q2"], ["q1", ""], ["q1", "q1"], [7, "q2"]])
def test_bioasq_factoid_needs_its_own_id(ids):
    questions = [{"type": "factoid", "body": "which?", "exact_answer": ["x"],
                  "documents": ["d1"]} for _ in ids]
    for q, id_ in zip(questions, ids):
        if id_ is not None:
            q["id"] = id_
    with pytest.raises(FormatError, match="no id|repeated"):
        bioasq_to_extractive(questions, {"d1": "x here"})


def test_parse_qa_json_refuses_a_repeated_id(tmp_path):
    examples = [QAExample(id_, "which?", "the zorvat pathway .", answers=(("zorvat", 4),))
                for id_ in ("q1", "q2", "q1")]
    path = tmp_path / "qa.json"
    write_qa_json(examples, path)
    with pytest.raises(FormatError, match="'q1' is repeated"):
        parse_qa_json(path)


# --- fixtures ---

def test_fixture_files_parse_back(tmp_path):
    recipe = FixtureRecipe(general_documents=5, domain_documents=5, ner_train=6,
                           ner_dev=3, ner_test=6, re_train=4, re_dev=2, re_test=4,
                           qa_train=4, qa_dev=2, qa_test=4, qa_bioasq_questions=10)
    manifest = generate_fixtures(recipe, 3, tmp_path)
    from adaptlm.vocab import load_vocabulary_file
    vocab = load_vocabulary_file(tmp_path / "vocab.txt")
    assert len(vocab) == manifest["vocab_size"]
    sentences = load_ner_dataset(tmp_path / "ner_train.conll")
    assert len(sentences) == 6
    labels = RelationLabelSet(("negative", "positive"))
    assert len(parse_re_tsv(tmp_path / "re_train.tsv", labels)) == 4
    assert len(parse_qa_json(tmp_path / "qa_train.json")) == 4
    questions = json.load(open(tmp_path / "qa_bioasq.json"))["questions"]
    passages = json.load(open(tmp_path / "qa_passages.json"))
    examples, dropped, skipped = bioasq_to_extractive(questions, passages)
    assert dropped == manifest["counts"]["bioasq_unanswerable"] == 3
    assert skipped == 0


def test_fixture_domain_terms_absent_from_general_corpus(tmp_path):
    manifest = generate_fixtures(FixtureRecipe(general_documents=10,
                                               domain_documents=10), 5, tmp_path)
    general = (tmp_path / "general_corpus.txt").read_text()
    general_words = set(general.split())
    domain_terms = set(manifest["domain_terms"]["train"] + manifest["domain_terms"]["test"])
    assert domain_terms
    assert not domain_terms & general_words


def test_fixture_explicit_domain_pool(tmp_path):
    recipe = FixtureRecipe(domain_pool=("kinase", "braf"),
                           general_documents=8, domain_documents=8)
    manifest = generate_fixtures(recipe, 2, tmp_path)
    general_words = set((tmp_path / "general_corpus.txt").read_text().split())
    assert not {"kinase", "braf"} & general_words
    domain_words = set((tmp_path / "domain_corpus.txt").read_text().split())
    assert {"kinase", "braf"} & domain_words


def test_fixture_overlapping_explicit_pools_rejected():
    with pytest.raises(RecipeError, match="overlap"):
        FixtureRecipe(general_pool=("kinase", "cell"),
                      domain_pool=("kinase", "braf")).validate()


def test_fixture_zero_sentences_writes_wellformed_files(tmp_path):
    recipe = FixtureRecipe(general_documents=0, domain_documents=0, ner_train=0,
                           ner_dev=0, ner_test=0, re_train=0, re_dev=0, re_test=0,
                           qa_train=0, qa_dev=0, qa_test=0, qa_bioasq_questions=0)
    generate_fixtures(recipe, 1, tmp_path)
    assert parse_conll(tmp_path / "ner_train.conll", scheme="bioes") == []
    assert parse_qa_json(tmp_path / "qa_train.json") == []
    assert (tmp_path / "general_corpus.txt").read_text() == ""


def test_fixture_byte_identical_for_same_seed(tmp_path):
    recipe = FixtureRecipe(general_documents=4, domain_documents=4)
    generate_fixtures(recipe, 11, tmp_path / "a")
    generate_fixtures(recipe, 11, tmp_path / "b")
    for name in ("vocab.txt", "general_corpus.txt", "domain_corpus.txt",
                 "ner_train.conll", "re_train.tsv", "qa_train.json",
                 "qa_bioasq.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_parse_recipe_rejects_unknown_keys(tmp_path):
    path = tmp_path / "r.cfg"
    path.write_text("[recipe]\nner_train = 5\nbogus = 1\n")
    with pytest.raises(RecipeError, match="bogus"):
        parse_recipe(path)
    path.write_text("[recipe]\nner_train = 5\nunanswerable_fraction = 0.5\n")
    recipe = parse_recipe(path)
    assert recipe.ner_train == 5
    assert recipe.unanswerable_fraction == 0.5


_RECIPE_KEYS = sorted(FixtureRecipe.__dataclass_fields__) + ["bogus"]
_recipe_lines = st.tuples(st.sampled_from(_RECIPE_KEYS), st.sampled_from(" =:"),
                          st.text(max_size=12)).map(lambda t: f"{t[0]} {t[1]} {t[2]}")


@given(st.one_of(
    st.text(max_size=80),
    st.lists(_recipe_lines, max_size=6).map(lambda lines: "[recipe]\n" + "\n".join(lines))))
@settings(max_examples=300, deadline=None)
def test_parse_recipe_raises_only_config_errors(text):
    try:
        recipe = parse_recipe(io.StringIO(text))
    except ConfigError:
        return
    assert isinstance(recipe, FixtureRecipe)
