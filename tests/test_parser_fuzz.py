"""Every reader of outside input fails only with a ToolkitError subclass, so
the CLI maps each malformed file to a documented exit code."""

import io
import json
import string
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptlm.checkpoint import load_checkpoint, roundtrip_bytes
from adaptlm.data import (RelationLabelSet, bioasq_to_extractive, load_ner_dataset,
                          parse_qa_json, parse_re_tsv, read_bioasq_questions)
from adaptlm.encoder import EncoderConfig, init_head, init_weights
from adaptlm.errors import ToolkitError

FUZZ = settings(max_examples=300, deadline=None)

_TAGS = ["O", "B-G", "I-G", "E-G", "S-G", "B-D", "I-D", "E-D", "S-D", "X-G", "B-", "-"]
_conll_line = st.one_of(
    st.just(""), st.just("-DOCSTART- O"), st.text(max_size=10),
    st.tuples(st.sampled_from(["w", "WT1", "a b"]), st.sampled_from(_TAGS)).map(" ".join))


@given(st.lists(_conll_line, max_size=12).map("\n".join),
       st.sampled_from(["bioes", "bio"]), st.booleans())
@FUZZ
def test_conll_reader_raises_only_toolkit_errors(text, scheme, lenient):
    try:
        sentences = load_ner_dataset(io.StringIO(text), scheme=scheme, lenient=lenient)
    except ToolkitError:
        return
    assert all(len(s.words) == len(s.tags) > 0 for s in sentences)


_LABELS = RelationLabelSet(("negative", "positive"), required_placeholders=("@GENE$",))
_tsv_cell = st.one_of(st.sampled_from(["id", "r1", "@GENE$ binds", "negative", "positive"]),
                      st.text(max_size=6))


@given(st.lists(st.lists(_tsv_cell, max_size=4).map("\t".join), max_size=6).map("\n".join))
@FUZZ
def test_re_reader_raises_only_toolkit_errors(text):
    try:
        examples = parse_re_tsv(io.StringIO(text), _LABELS)
    except ToolkitError:
        return
    assert all(ex.label in _LABELS.labels and "@GENE$" in ex.sentence for ex in examples)


# JSON leaves and containers, then documents shaped like the formats with any
# field replaced by any value
_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                  st.sampled_from(["abc", "b", "x", "factoid", "p1", 1e400]), st.text(max_size=4))
_json = st.recursive(_leaf, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)


def _shaped(fields):
    """Objects with the given fields, each drawn from its strategy or from
    any JSON value."""
    return st.fixed_dictionaries({k: st.one_of(v, _json) for k, v in fields.items()})


_answer = _shaped({"text": st.sampled_from(["b", "bc"]), "answer_start": st.integers(-1, 3)})
_qa = _shaped({"id": st.text(max_size=2), "question": st.just("q?"),
               "answers": st.lists(_answer, max_size=2)})
_squad = _shaped({"data": st.lists(_shaped({"paragraphs": st.lists(_shaped(
    {"context": st.just("abc"), "qas": st.lists(_qa, max_size=2)}), max_size=2)}), max_size=2)})

_SQUAD_ONE = {"data": [{"paragraphs": [{"context": "abc", "qas": [
    {"id": "q1", "question": "q?", "answers": [{"text": "b", "answer_start": 1}]}]}]}]}


def _with_start(start):
    doc = json.loads(json.dumps(_SQUAD_ONE))
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = start
    return doc


@given(st.one_of(_squad, _json).map(json.dumps))
@example(json.dumps(_with_start("x")))
@example(json.dumps(_with_start(1e400)))
@example(json.dumps(_with_start(1.0)))
@example("[" * 100_000)
@FUZZ
def test_qa_reader_raises_only_toolkit_errors(text):
    try:
        examples = parse_qa_json(io.StringIO(text))
    except ToolkitError:
        return
    for ex in examples:
        assert all(isinstance(s, str) for s in (ex.id, ex.question, ex.passage))
        assert all(isinstance(t, str) and type(s) is int for t, s in ex.answers)


_exact = st.recursive(st.sampled_from(["b", "BC", "zz"]), lambda inner: st.lists(inner, max_size=2),
                      max_leaves=4)
_question = _shaped({"type": st.just("factoid"), "id": st.just("q1"), "body": st.just("q?"),
                     "documents": st.lists(st.sampled_from(["p1", "p2"]), max_size=2),
                     "exact_answer": _exact})
_bioasq = _shaped({"questions": st.lists(_question, max_size=3)})
_passages = _shaped({"p1": st.just("a b c"), "p2": st.just("zz top")})


@given(st.one_of(_bioasq, _json).map(json.dumps), st.one_of(_passages, _json))
@example("5", {})
@example('"questions"', {})
@example('{"questions": [1]}', {})
@example('{"questions": [{"type": "factoid", "documents": [["p1"]]}]}', {"p1": "a"})
@example('{"questions": [{"type": "factoid", "documents": ["p1"], "exact_answer": 3}]}',
         {"p1": "a"})
@example('{"questions": [{"type": "factoid", "documents": ["p1"]}]}', ["p1"])
@example('{"questions": [{"type": "factoid", "documents": ["p1"], "exact_answer": "a", '
         '"body": null}]}', {"p1": "a"})
@FUZZ
def test_bioasq_reader_raises_only_toolkit_errors(text, passages):
    try:
        examples, dropped, skipped = bioasq_to_extractive(
            read_bioasq_questions(io.StringIO(text)), passages)
    except ToolkitError:
        return
    assert dropped >= 0 and skipped >= 0
    assert all(isinstance(ex.question, str) and ex.answers for ex in examples)


def _checkpoint_bytes() -> bytes:
    store = init_weights(EncoderConfig(vocab_size=7, hidden=4, layers=1, heads=2, ff_dim=4,
                                       max_positions=4, seed=0))
    store.tensors.update(init_head(store.config, "re", 2, seed=0))
    store.metadata["vocab_fingerprint"] = "ab12"
    return roundtrip_bytes(store)


_CKPT = _checkpoint_bytes()
_HEAD_NAME = _CKPT.index(b"head.re.bias")


def _edited(edits, cut) -> bytes:
    data = bytearray(_CKPT[:cut])
    for pos, value in edits:
        if pos < len(data):
            data[pos] = value
    return bytes(data)


def _head_bias_dims(*dims) -> bytes:
    """The checkpoint with head.re.bias declared as `dims` and its payload
    left out."""
    at = _HEAD_NAME + len(b"head.re.bias")
    return _CKPT[:at] + struct.pack(f"<I{len(dims)}Q", len(dims), *dims) + _CKPT[at + 4 + 8 + 8:]


_config_text = st.text(string.printable, max_size=64).map(str.encode)


@given(st.one_of(
    st.builds(_edited, st.lists(st.tuples(st.integers(0, len(_CKPT) - 1), st.integers(0, 255)),
                                max_size=4), st.integers(0, len(_CKPT))),
    st.binary(max_size=64).map(lambda tail: _CKPT[:12] + tail),
    _config_text.map(lambda text: _CKPT[:8] + struct.pack("<I", len(text)) + text)))
@example(_edited([(_HEAD_NAME, 0xFF)], len(_CKPT)))
@example(_head_bias_dims(2**64 - 1, 0))
@FUZZ
def test_checkpoint_reader_raises_only_toolkit_errors(data):
    try:
        store = load_checkpoint(io.BytesIO(data))
    except ToolkitError:
        return
    assert "embeddings.token" in store.tensors
