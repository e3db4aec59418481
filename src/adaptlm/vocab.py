"""Fixed token vocabulary: bidirectional token<->id map with reserved specials.

File format: UTF-8 text, one token per line, LF line endings, id equals the
0-based line index. Byte-compatible with released cased WordPiece vocabulary
files, so such a file loads unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import IO, Iterable

from .data import open_text
from .errors import FormatError

PAD = "[PAD]"
UNK = "[UNK]"
CLS = "[CLS]"
SEP = "[SEP]"
MASK = "[MASK]"

SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)

CONTINUATION_PREFIX = "##"


@dataclass(frozen=True)
class Vocabulary:
    """Immutable token table; safe to share across threads."""

    entries: tuple[str, ...]
    _index: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        index = {}
        for i, tok in enumerate(self.entries):
            if tok in index:
                raise FormatError(f"duplicate token {tok!r} (lines {index[tok] + 1} and {i + 1})")
            index[tok] = i
        for special in SPECIAL_TOKENS:
            if special not in index:
                raise FormatError(f"vocabulary is missing required special token {special}")
        if len(self.entries) <= len(SPECIAL_TOKENS):
            raise FormatError("vocabulary must contain at least one non-special token")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary") from None

    def token(self, token_id: int) -> str:
        return self.entries[token_id]

    @property
    def pad_id(self) -> int:
        return self._index[PAD]

    @property
    def unk_id(self) -> int:
        return self._index[UNK]

    @property
    def cls_id(self) -> int:
        return self._index[CLS]

    @property
    def sep_id(self) -> int:
        return self._index[SEP]

    @property
    def mask_id(self) -> int:
        return self._index[MASK]

    @property
    def special_ids(self) -> frozenset[int]:
        return frozenset(self._index[t] for t in SPECIAL_TOKENS)

    def non_special_ids(self) -> list[int]:
        """Ids eligible as random-replacement targets during masking."""
        specials = self.special_ids
        return [i for i in range(len(self.entries)) if i not in specials]

    def fingerprint(self) -> str:
        """Stable content hash used for checkpoint compatibility checks."""
        h = hashlib.sha256("\n".join(self.entries).encode("utf-8"))
        return h.hexdigest()


def load_vocabulary(stream: IO[str] | Iterable[str]) -> Vocabulary:
    """Read a one-token-per-line vocabulary file.

    Raises FormatError on duplicates (naming the lines), on a missing special
    token, and on an empty file.
    """
    entries = []
    for line in stream:
        entries.append(line.rstrip("\n").rstrip("\r"))
    if entries and entries[-1] == "":
        entries.pop()  # trailing newline, not an empty token
    if not entries:
        raise FormatError("empty vocabulary file")
    return Vocabulary(tuple(entries))


def load_vocabulary_file(path) -> Vocabulary:
    """Vocabulary from a UTF-8 file; undecodable bytes raise FormatError."""
    return load_vocabulary(open_text(path))
