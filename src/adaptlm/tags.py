"""Tag-scheme machinery shared by the data, metrics and heads modules.

BIOES is the canonical internal scheme: B(egin), I(nside), E(nd), S(ingle)
with a type suffix, plus O. BIO input is converted on load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, InputError

O_TAG = "O"
_KINDS_BIOES = ("B", "I", "E", "S")
_KINDS_BIO = ("B", "I")


def parse_tag(tag: str) -> tuple[str, str | None]:
    """Split a tag into (kind, entity type); O has type None."""
    if tag == O_TAG:
        return O_TAG, None
    if len(tag) > 2 and tag[1] == "-" and tag[0] in _KINDS_BIOES:
        return tag[0], tag[2:]
    raise InputError(f"malformed tag {tag!r}")


def make_tag(kind: str, entity_type: str | None) -> str:
    return O_TAG if kind == O_TAG else f"{kind}-{entity_type}"


@dataclass(frozen=True)
class TagScheme:
    """BIOES tag set over a fixed collection of entity types.

    Tag ids: O is 0; each type in sorted order contributes B, I, E, S.
    """

    entity_types: tuple[str, ...]
    tags: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        types = tuple(sorted(set(self.entity_types)))
        if not types:
            raise ConfigError("a tag scheme needs at least one entity type")
        object.__setattr__(self, "entity_types", types)
        tags = [O_TAG]
        for t in types:
            tags += [make_tag(k, t) for k in _KINDS_BIOES]
        object.__setattr__(self, "tags", tuple(tags))

    def __len__(self) -> int:
        return len(self.tags)

    def tag_id(self, tag: str) -> int:
        try:
            return self.tags.index(tag)
        except ValueError:
            raise InputError(f"tag {tag!r} not in scheme over {self.entity_types}") from None

    def tag(self, tag_id: int) -> str:
        return self.tags[tag_id]


def check_bioes(tags: list[str]) -> None:
    """Raise InputError (naming the position) unless tags form valid BIOES."""
    open_type = None
    for i, tag in enumerate(tags):
        kind, typ = parse_tag(tag)
        if open_type is None:
            if kind in ("I", "E"):
                raise InputError(f"position {i}: {tag} without an open entity")
        else:
            if kind in ("I", "E") and typ != open_type:
                raise InputError(f"position {i}: {tag} inside an open {open_type} entity")
            if kind in ("B", "S", O_TAG):
                raise InputError(f"position {i}: {tag} leaves a {open_type} entity unclosed")
        if kind == "B":
            open_type = typ
        elif kind == "E":
            open_type = None
        elif kind in (O_TAG, "S"):
            open_type = None
    if open_type is not None:
        raise InputError(f"sequence ends with an unclosed {open_type} entity")


def is_valid_bioes(tags: list[str]) -> bool:
    try:
        check_bioes(tags)
        return True
    except InputError:
        return False


def check_bio(tags: list[str]) -> None:
    """Raise InputError unless tags form valid BIO (I must continue same type)."""
    prev_type = None
    for i, tag in enumerate(tags):
        kind, typ = parse_tag(tag)
        if kind not in (O_TAG,) + _KINDS_BIO:
            raise InputError(f"position {i}: {tag} is not a BIO tag")
        if kind == "I" and typ != prev_type:
            raise InputError(f"position {i}: {tag} does not continue an open {typ} entity")
        prev_type = typ if kind in _KINDS_BIO else None


def bio_to_bioes(tags: list[str]) -> list[str]:
    """Convert valid BIO to BIOES, preserving the span set exactly: on valid
    BIO, repair_bioes closes each entity where the next tag does not
    continue it."""
    check_bio(list(tags))
    return repair_bioes(tags)


def bioes_to_bio(tags: list[str]) -> list[str]:
    """Inverse of bio_to_bioes on valid input."""
    check_bioes(list(tags))
    out = []
    for tag in tags:
        kind, typ = parse_tag(tag)
        if kind in ("S",):
            out.append(make_tag("B", typ))
        elif kind == "E":
            out.append(make_tag("I", typ))
        else:
            out.append(tag)
    return out


def repair_bioes(raw: list[str]) -> list[str]:
    """Rewrite an arbitrary BIOES-shaped tag sequence into a valid one.

    Rules: I/E with no open entity of that type become B/S; an entity still
    open when interrupted (or at the end) is closed at the previous position
    (B becomes S, I becomes E).
    """
    out: list[str] = []
    open_type: str | None = None

    def close_open():
        nonlocal open_type
        if open_type is None:
            return
        kind, typ = parse_tag(out[-1])
        out[-1] = make_tag("S" if kind == "B" else "E", typ)
        open_type = None

    for tag in raw:
        kind, typ = parse_tag(tag)
        if kind == O_TAG:
            close_open()
            out.append(O_TAG)
        elif kind == "S":
            close_open()
            out.append(tag)
        elif kind == "B":
            close_open()
            out.append(tag)
            open_type = typ
        elif kind == "I":
            if open_type == typ:
                out.append(tag)
            else:
                close_open()
                out.append(make_tag("B", typ))
                open_type = typ
        else:  # E
            if open_type == typ:
                out.append(tag)
                open_type = None
            else:
                close_open()
                out.append(make_tag("S", typ))
    close_open()
    return out
