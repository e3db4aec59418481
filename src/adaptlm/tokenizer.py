"""Cased basic tokenization, greedy WordPiece splitting with offset
bookkeeping, and the packing of subtokens into encoded inputs.

All functions are pure; case is never folded and no Unicode normalization is
applied beyond treating control characters as separators. Punctuation (Unicode
P* plus the ASCII symbols $+<=>^|~) always forms single-character words, so a
string like "@GENE$" splits deterministically into "@", "GENE", "$".

Every EncodedInput (single texts, text pairs, pretraining segments and QA
windows) is laid out by _pack as [CLS] A [SEP] (B [SEP]) plus padding to the
encoding's max_len. batch_arrays stacks a batch at that length; the encoder
packs the rows' real spans together and computes on nothing else (see
encoder.forward_arrays).
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .vocab import CLS, CONTINUATION_PREFIX, SEP, UNK, Vocabulary

MAX_WORD_CHARS = 100  # longer words split to [UNK]

NO_WORD = -1  # word_index sentinel for special and padding positions

_EXTRA_PUNCT = set("$+<=>^|~")


def _is_punct(ch: str) -> bool:
    return ch in _EXTRA_PUNCT or unicodedata.category(ch).startswith("P")


def _is_separator(ch: str) -> bool:
    # control characters are dropped; they also terminate the current word
    return ch.isspace() or unicodedata.category(ch) in ("Cc", "Cf")


def basic_tokenize(text: str) -> list[tuple[str, int, int]]:
    """Split text into (word, start, end) triples with offsets into text.

    Words are maximal runs of non-separator characters, except that every
    punctuation character becomes its own single-character word. Joining the
    words back with the skipped separators reconstructs the input.
    """
    out = []
    start = None
    for i, ch in enumerate(text):
        if _is_separator(ch):
            if start is not None:
                out.append((text[start:i], start, i))
                start = None
        elif _is_punct(ch):
            if start is not None:
                out.append((text[start:i], start, i))
                start = None
            out.append((ch, i, i + 1))
        else:
            if start is None:
                start = i
    if start is not None:
        out.append((text[start:], start, len(text)))
    return out


def wordpiece_split(word: str, vocab: Vocabulary) -> list[str]:
    """Greedy longest-match-first subword split.

    Non-initial pieces carry the "##" prefix. A word with no match at some
    position, or longer than MAX_WORD_CHARS, becomes the single piece [UNK].
    """
    if not word:
        raise InputError("cannot split an empty word")
    if len(word) > MAX_WORD_CHARS:
        return [UNK]
    pieces = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        found = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION_PREFIX + piece
            if piece in vocab:
                found = piece
                break
            end -= 1
        if found is None:
            return [UNK]
        pieces.append(found)
        start = end
    return pieces


@dataclass(frozen=True)
class EncodedInput:
    """One packed (possibly paired) sequence, padded to a fixed length.
    Per-position targets built from it keep that length, as do the encoder's
    states.

    Parallel per-position fields:
      ids        vocabulary ids (int32)
      segments   0 for [CLS] + text_a + first [SEP], 1 for text_b + its [SEP]
      mask       1 for real tokens, 0 for padding (1s form a prefix)
      word_index index of the originating word within its text, NO_WORD for
                 special and padding positions
      offsets    (start, end) character range in the originating text,
                 (0, 0) for specials and padding

    text_a/text_b keep the source strings so spans can be recovered later.
    """

    ids: np.ndarray
    segments: np.ndarray
    mask: np.ndarray
    word_index: np.ndarray
    offsets: tuple[tuple[int, int], ...]
    text_a: str | None = None
    text_b: str | None = None

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def real_length(self) -> int:
        return int(self.mask.sum())

    def with_ids(self, new_ids: np.ndarray) -> "EncodedInput":
        return EncodedInput(np.asarray(new_ids, dtype=np.int32), self.segments, self.mask,
                            self.word_index, self.offsets, self.text_a, self.text_b)


def split_with_offsets(text: str, vocab: Vocabulary):
    """Per-word subtokens with word indices and character offsets."""
    pieces, words, offs = [], [], []
    for w_idx, (word, w_start, _) in enumerate(basic_tokenize(text)):
        pos = w_start
        for piece in wordpiece_split(word, vocab):
            visible = piece[len(CONTINUATION_PREFIX):] if piece.startswith(CONTINUATION_PREFIX) else piece
            if piece == UNK:
                span = (w_start, w_start + len(word))
                pos = span[1]
            else:
                span = (pos, pos + len(visible))
                pos += len(visible)
            pieces.append(piece)
            words.append(w_idx)
            offs.append(span)
    return pieces, words, offs


def _truncate(split, n: int):
    """The first n entries of a (pieces, word indices, offsets) triple."""
    return tuple(part[:n] for part in split)


def _pack(vocab: Vocabulary, max_len: int, first, second=None,
          text_a: str | None = None, text_b: str | None = None) -> EncodedInput:
    """[CLS] first [SEP] (second [SEP]) padded to max_len.

    first and second are (pieces, word indices, offsets) triples that
    already fit; second and its [SEP] form segment 1.
    """
    pieces, words, offsets = first
    tokens = [CLS, *pieces, SEP]
    word_index = [NO_WORD, *words, NO_WORD]
    offs = [(0, 0), *offsets, (0, 0)]
    n_first = len(tokens)
    if second is not None:
        pieces, words, offsets = second
        tokens += [*pieces, SEP]
        word_index += [*words, NO_WORD]
        offs += [*offsets, (0, 0)]
    real = len(tokens)
    pad_n = max_len - real
    segments = np.zeros(max_len, dtype=np.int32)
    segments[n_first:real] = 1
    return EncodedInput(
        ids=np.asarray([vocab.id(t) for t in tokens] + [vocab.pad_id] * pad_n, dtype=np.int32),
        segments=segments,
        mask=np.asarray([1] * real + [0] * pad_n, dtype=np.int32),
        word_index=np.asarray(word_index + [NO_WORD] * pad_n, dtype=np.int32),
        offsets=tuple(offs + [(0, 0)] * pad_n),
        text_a=text_a,
        text_b=text_b,
    )


def encode_sequence(text_a: str, text_b: str | None, vocab: Vocabulary,
                    max_len: int) -> EncodedInput:
    """Pack one or two texts as [CLS] A [SEP] (B [SEP]) padded to max_len.

    Overflow is truncated from the right of text_b (of text_a when there is
    no text_b; of text_a as well if it alone leaves no room for text_b).
    """
    specials = 3 if text_b is not None else 2
    if max_len < specials + 1:
        raise ConfigError(f"max_len={max_len} cannot hold {specials} special tokens plus one token")
    first = _truncate(split_with_offsets(text_a, vocab), max_len - specials)
    second = None
    if text_b is not None:
        second = _truncate(split_with_offsets(text_b, vocab), max_len - 3 - len(first[0]))
    return _pack(vocab, max_len, first, second, text_a, text_b)


def encode_pieces(pieces: list[str], vocab: Vocabulary, max_len: int,
                  word_index: list[int] | None = None) -> EncodedInput:
    """Pack pre-split subtokens as [CLS] pieces [SEP] padded to max_len.

    Used by the pretraining packer, which concatenates sentences and has
    already run the splitter. Pieces beyond max_len - 2 are dropped; every
    offset is (0, 0).
    """
    if max_len < 3:
        raise ConfigError(f"max_len={max_len} cannot hold the special tokens plus one token")
    pieces = list(pieces[:max_len - 2])
    words = list(word_index[:len(pieces)]) if word_index is not None else list(range(len(pieces)))
    return _pack(vocab, max_len, (pieces, words, [(0, 0)] * len(pieces)))


def encode_windows(question: str, passage: str, vocab: Vocabulary, max_len: int,
                   doc_stride: int) -> list[EncodedInput]:
    """Sliding windows over a long passage, [CLS] Q [SEP] window [SEP].

    The question keeps at least one passage position per window. Windows
    start every doc_stride subtokens; the last is the first to reach the
    passage end. Offsets of window subtokens index the full passage string,
    so spans recovered from any window line up with the original text. A
    stride longer than a window would skip passage text, so it is an error
    whenever the passage needs more than one window.
    """
    if max_len < 4 or doc_stride < 1:
        raise ConfigError(f"windows need max_len >= 4 and doc_stride >= 1, "
                          f"got max_len={max_len}, doc_stride={doc_stride}")
    first = _truncate(split_with_offsets(question, vocab), max_len - 4)
    p_pieces, p_words, p_offs = split_with_offsets(passage, vocab)
    cap = max_len - 3 - len(first[0])
    if len(p_pieces) > cap and doc_stride > cap:
        raise ConfigError(f"doc_stride={doc_stride} exceeds the {cap} passage subtokens "
                          f"a window holds, so windows would skip passage text")
    starts = range(0, max(len(p_pieces) - cap, 0) + doc_stride, doc_stride)
    return [_pack(vocab, max_len, first,
                  (p_pieces[s:s + cap], p_words[s:s + cap], p_offs[s:s + cap]),
                  question, passage)
            for s in starts]


def first_subtokens(encoded: EncodedInput):
    """(words, positions): the distinct word indices at real, non-special
    positions, ascending, and the position where each first occurs, which is
    the word's first subtoken. A text_b word sharing an index with a text_a
    word is not counted."""
    real = np.flatnonzero((encoded.mask == 1) & (encoded.word_index != NO_WORD))
    words, first = np.unique(encoded.word_index[real], return_index=True)
    return words, real[first]


def stack_fields(batch: list[EncodedInput], names) -> tuple[np.ndarray, ...]:
    """The named per-position fields of a batch, each stacked into a (B, L)
    array at the encoding length L."""
    if not batch:
        raise InputError("empty batch")
    lengths = {len(item) for item in batch}
    if len(lengths) != 1:
        raise InputError(f"batch items have mixed lengths {sorted(lengths)}")
    return tuple(np.stack([getattr(item, name) for item in batch]) for name in names)


def batch_arrays(batch: list[EncodedInput]):
    """Stack a batch into the (ids, segments, mask) int32 arrays of shape
    (B, L) that encoder.forward_arrays takes."""
    return stack_fields(batch, ("ids", "segments", "mask"))
