import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptlm.errors import ConfigError, FormatError
from adaptlm.tokenizer import (NO_WORD, basic_tokenize, encode_sequence, encode_windows,
                               first_subtokens, split_with_offsets, wordpiece_split)
from adaptlm.vocab import CONTINUATION_PREFIX, UNK, load_vocabulary


def test_load_vocabulary_line_index_ids():
    v = load_vocabulary(io.StringIO("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\nthe\n##s\n"))
    assert len(v) == 7
    assert v.id("the") == 5
    assert v.id("##s") == 6
    assert v.token(5) == "the"


def test_load_vocabulary_duplicate_token_names_lines():
    stream = io.StringIO("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\nthe\nthe\n")
    with pytest.raises(FormatError, match="duplicate.*the.*6.*7"):
        load_vocabulary(stream)


def test_load_vocabulary_missing_special():
    stream = io.StringIO("[PAD]\n[UNK]\n[CLS]\n[SEP]\nthe\ncat\n")
    with pytest.raises(FormatError, match=r"\[MASK\]"):
        load_vocabulary(stream)


def test_load_vocabulary_empty_file():
    with pytest.raises(FormatError, match="empty"):
        load_vocabulary(io.StringIO(""))


def test_basic_tokenize_whitespace_split_offsets():
    assert basic_tokenize("Serine at position 986") == [
        ("Serine", 0, 6), ("at", 7, 9), ("position", 10, 18), ("986", 19, 22)]


def test_basic_tokenize_punctuation_isolated():
    assert [w for w, _, _ in basic_tokenize("fail,")] == ["fail", ","]
    assert [w for w, _, _ in basic_tokenize("@GENE$")] == ["@", "GENE", "$"]


def test_basic_tokenize_empty():
    assert basic_tokenize("") == []


def test_basic_tokenize_control_chars_dropped():
    assert [w for w, _, _ in basic_tokenize("ab\x00cd")] == ["ab", "cd"]


@given(st.text(alphabet=st.characters(blacklist_categories=("Cc", "Cf", "Cs")), max_size=60))
@settings(max_examples=200, deadline=None)
def test_basic_tokenize_reconstruction(text):
    """Words plus skipped whitespace reconstruct the input."""
    pieces = basic_tokenize(text)
    rebuilt = list(text)
    for word, start, end in pieces:
        assert text[start:end] == word
    covered = sorted((s, e) for _, s, e in pieces)
    for (s1, e1), (s2, e2) in zip(covered, covered[1:]):
        assert e1 <= s2  # non-overlapping
    gaps = set(range(len(text)))
    for _, s, e in pieces:
        gaps -= set(range(s, e))
    assert all(text[i].isspace() for i in gaps)
    assert rebuilt == list(text)


def test_wordpiece_known_word_is_single_piece(toy_vocab):
    assert wordpiece_split("abc", toy_vocab) == ["abc"]


def test_wordpiece_unknown_character_is_unk(toy_vocab):
    assert wordpiece_split("axz", toy_vocab) == [UNK]


def test_wordpiece_overlong_word_is_unk(toy_vocab):
    assert wordpiece_split("ab" * 60, toy_vocab) == [UNK]
    assert wordpiece_split("ab" * 50 + "a", toy_vocab) == [UNK]  # 101 characters
    assert wordpiece_split("ab" * 50, toy_vocab) == ["ab"] + ["##ab"] * 49


def test_wordpiece_greedy_prefers_longest(toy_vocab):
    # "abc" wins over "ab" at the start; continuation uses "##"-pieces
    assert wordpiece_split("abcd", toy_vocab) == ["abc", "##d"]
    assert wordpiece_split("aab", toy_vocab) == ["a", "##ab"]


def test_case_never_folded(mini_vocab):
    pieces = wordpiece_split("BRCA1", mini_vocab)
    assert pieces[0][0] == "B"
    assert all(p == p for p in pieces)
    assert not any("brca" in p for p in pieces)


def _oracle_greedy(word, vocab, max_word_chars=100):
    """Slow reference: scan the entry list for the longest matching prefix."""
    if len(word) > max_word_chars:
        return [UNK]
    entries = list(vocab.entries)
    pieces = []
    pos = 0
    while pos < len(word):
        best = None
        for entry in entries:
            raw = entry[len(CONTINUATION_PREFIX):] if pos > 0 and entry.startswith(CONTINUATION_PREFIX) else (entry if pos == 0 else None)
            if raw is None or not raw:
                continue
            if word.startswith(raw, pos) and (best is None or len(raw) > len(best[0])):
                best = (raw, entry)
        if best is None:
            return [UNK]
        pieces.append(best[1])
        pos += len(best[0])
    return pieces


def test_wordpiece_matches_bruteforce_oracle(toy_vocab, rng):
    alphabet = "abcdefgx"
    for _ in range(300):
        n = int(rng.integers(1, 9))
        word = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), n))
        assert wordpiece_split(word, toy_vocab) == _oracle_greedy(word, toy_vocab)


def test_wordpiece_determinism(mini_vocab):
    a = wordpiece_split("Immunoglobulin", mini_vocab)
    b = wordpiece_split("Immunoglobulin", mini_vocab)
    assert a == b


def test_encode_single_text_layout(toy_vocab):
    e = encode_sequence("a b c", None, toy_vocab, 8)
    assert [toy_vocab.token(i) for i in e.ids[:5]] == ["[CLS]", "a", "b", "c", "[SEP]"]
    assert e.real_length == 5
    assert e.mask.tolist() == [1, 1, 1, 1, 1, 0, 0, 0]
    assert e.segments.tolist() == [0] * 8
    assert e.ids[5] == toy_vocab.pad_id
    assert len(e) == 8


def test_encode_pair_segments(toy_vocab):
    e = encode_sequence("a b", "c d", toy_vocab, 10)
    # [CLS] a b [SEP] -> segment 0; c d [SEP] -> segment 1
    assert e.segments.tolist()[:7] == [0, 0, 0, 0, 1, 1, 1]
    assert e.ids[3] == toy_vocab.sep_id and e.ids[6] == toy_vocab.sep_id


def test_encode_truncates_text_b(toy_vocab):
    e = encode_sequence("a b", " ".join(["c"] * 100), toy_vocab, 16)
    assert int(e.mask.sum()) == 16
    assert e.ids[15] == toy_vocab.sep_id


def test_encode_truncates_text_a_without_pair(toy_vocab):
    e = encode_sequence(" ".join(["a"] * 50), None, toy_vocab, 8)
    assert int(e.mask.sum()) == 8
    assert e.ids[7] == toy_vocab.sep_id


def test_encode_max_len_too_small(toy_vocab):
    with pytest.raises(ConfigError):
        encode_sequence("a", None, toy_vocab, 2)
    with pytest.raises(ConfigError):
        encode_sequence("a", "b", toy_vocab, 3)


def test_encode_offsets_reconstruct_source(mini_vocab):
    text = "Serine at position 986 of WT1, fail."
    e = encode_sequence(text, None, mini_vocab, 32)
    for pos in range(len(e)):
        if e.word_index[pos] == NO_WORD or not e.mask[pos]:
            continue
        piece = mini_vocab.token(e.ids[pos])
        if piece == UNK:
            continue
        visible = piece[2:] if piece.startswith(CONTINUATION_PREFIX) else piece
        start, end = e.offsets[pos]
        assert text[start:end] == visible


@given(st.text(alphabet=st.sampled_from("abcx X."), min_size=0, max_size=40))
@settings(max_examples=100, deadline=None)
def test_encode_parallel_lengths_and_mask_prefix(toy_vocab, text):
    e = encode_sequence(text, None, toy_vocab, 16)
    assert len(e.ids) == len(e.segments) == len(e.mask) == len(e.word_index) == len(e.offsets) == 16
    m = e.mask.tolist()
    assert m == sorted(m, reverse=True)  # 1s form a prefix
    assert e.ids[0] == toy_vocab.cls_id


def test_split_with_offsets_word_alignment(mini_vocab):
    pieces, words, offs = split_with_offsets("Immunoglobulin binding", mini_vocab)
    assert words == [0] * 7 + [1]
    assert offs[0] == (0, 1)
    assert offs[1] == (1, 3)


def test_single_window_equals_pair_encoding(toy_vocab):
    question, passage = "a b", "abcd c, ab . d"
    (window,) = encode_windows(question, passage, toy_vocab, max_len=16, doc_stride=4)
    pair = encode_sequence(question, passage, toy_vocab, 16)
    for name in ("ids", "segments", "mask", "word_index"):
        a, b = getattr(window, name), getattr(pair, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    assert window.offsets == pair.offsets
    assert (window.text_a, window.text_b) == (pair.text_a, pair.text_b) == (question, passage)


@pytest.mark.parametrize("max_len, doc_stride", [(3, 4), (12, 0)],
                         ids=["max_len-3", "doc_stride-0"])
def test_encode_windows_rejects_bad_shape(toy_vocab, max_len, doc_stride):
    with pytest.raises(ConfigError, match="max_len >= 4 and doc_stride >= 1"):
        encode_windows("a", "b b", toy_vocab, max_len=max_len, doc_stride=doc_stride)


def test_encode_windows_rejects_stride_that_skips_passage_text(toy_vocab):
    # max_len 12 with a one-subtoken question leaves 8 passage positions a window
    passage = " ".join(["b"] * 20)
    with pytest.raises(ConfigError, match="doc_stride=9 exceeds the 8 passage"):
        encode_windows("a", passage, toy_vocab, max_len=12, doc_stride=9)
    assert len(encode_windows("a", passage, toy_vocab, max_len=12, doc_stride=8)) == 3
    # a passage that fits one window takes any stride
    assert len(encode_windows("a", "b b", toy_vocab, max_len=12, doc_stride=50)) == 1
    # 191 subtokens in 48-token windows striding 128 would leave 107 of them in none
    with pytest.raises(ConfigError, match="doc_stride=128"):
        encode_windows("a b c", " ".join(["b"] * 191), toy_vocab, max_len=48, doc_stride=128)


def test_first_subtokens_skip_continuations_specials_and_padding(toy_vocab):
    e = encode_sequence("abcd b ab", "c", toy_vocab, 12)
    # [CLS] abc ##d b ab [SEP] c [SEP] [PAD]...
    words, positions = first_subtokens(e)
    assert words.tolist() == [0, 1, 2]
    assert positions.tolist() == [1, 3, 4]


@given(st.text(alphabet=st.sampled_from("abcdx ."), max_size=30),
       st.text(alphabet=st.sampled_from("abcdx ."), max_size=30),
       st.integers(min_value=4, max_value=20))
@settings(max_examples=100, deadline=None)
def test_first_subtokens_match_reference_loop(toy_vocab, text_a, text_b, max_len):
    e = encode_sequence(text_a, text_b, toy_vocab, max_len)
    seen, expected = set(), []
    for pos in range(len(e)):
        w = int(e.word_index[pos])
        if w != NO_WORD and e.mask[pos] and w not in seen:
            seen.add(w)
            expected.append((w, pos))
    words, positions = first_subtokens(e)
    assert list(zip(words.tolist(), positions.tolist())) == sorted(expected)
