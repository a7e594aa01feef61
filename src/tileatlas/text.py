"""The plumbing that every text format's reader and writer share.

Readers take a str, or an iterable of str pieces that join to it (a text
file's lines, or blocks read from it), and split it into lines as
str.splitlines splits the whole text, without holding a list of every line
(_lines); a line's tokens are what str.split gives for it before any `#`
(_content_lines).  A reader that can read its text a column at a time
starts from _columns, and leaves what that cannot decide to its line
reader.  Writers check each value they emit as a token (_token) or an
orientation code (_code), so that the readers read back what was written.
"""

from __future__ import annotations

from itertools import islice

_CHUNK = 1 << 16  # characters of text split into lines at a time


class FormatError(ValueError):
    """Raised on malformed tileset/patch/reduction/atlas text."""


def _lines(text):
    """The lines that str.splitlines() gives for `text`, a str or an
    iterable of str pieces that join to it (a text file's lines, or blocks
    read from it), so no list of every line is held.  Each piece is split
    up to just after its last "\\n", which always ends a line; what follows
    waits for the next piece, so a break such as "\\r\\n" cut between two
    pieces stays one break."""
    held = []  # the pieces since the last "\n"
    for piece in _slices(text) if isinstance(text, str) else text:
        cut = piece.rfind("\n") + 1
        if cut:
            held.append(piece[:cut])
            yield from "".join(held).splitlines()
            # a piece that ends a line is split without a copy
            held = [piece[cut:]] if cut < len(piece) else []
        else:
            held.append(piece)
    yield from "".join(held).splitlines()


def _slices(text: str):
    """`text` in slices of about _CHUNK characters, each ending just after a
    "\\n" where the text has one."""
    pos = 0
    while pos < len(text):
        cut = text.rfind("\n", pos, pos + _CHUNK)
        if cut < 0:
            cut = text.find("\n", pos + _CHUNK)
        cut = len(text) if cut < 0 else cut + 1
        yield text[pos:cut]
        pos = cut


def _content_lines(text):
    """Each line's number and tokens, where it has any before a `#`; a line
    without `#` is split once.  `text` is as _lines takes it."""
    for ln, raw in enumerate(_lines(text), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        toks = raw.split()
        if toks:
            yield ln, toks


def _token(value: str, what: str, *reserved: str) -> str:
    """`value`, which a writer is about to emit as one token; a value the
    readers would not read back as that token (empty, holding whitespace or
    `#`, or one of the format's `reserved` tokens) raises FormatError."""
    if value.split() != [value] or "#" in value or value in reserved:
        raise FormatError(f"cannot write {what} {value!r}: it is not one "
                          "token, or it holds '#', or it is reserved here")
    return value


def _code(value: str, codes) -> str:
    """`value`, which a writer is about to emit as an orientation code; a
    value outside `codes`, those of the text's lattice, raises FormatError."""
    if value not in codes:
        raise FormatError(f"cannot write orientation code {value!r}: it is "
                          "no code of the text's lattice")
    return value


def _columns(text, width: int):
    """The tokens of the first content line of `text`, a str without `#`,
    and the columns of the lines after it, each of which must hold `width`
    tokens: every line's tokens counted at once, and each column one slice
    of the text's tokens, split once.  No list a line is kept, so the
    cyclic collector is not woken once per few hundred lines.  None for any
    other text."""
    if not isinstance(text, str) or "#" in text:
        return None
    counts = list(filter(None, map(len, map(str.split, text.splitlines()))))
    if not counts or not all(map(width.__eq__, islice(counts, 1, None))):
        return None
    flat = text.split()  # the lines' tokens: each line break is whitespace
    return flat[:counts[0]], [flat[c::width]
                              for c in range(counts[0], counts[0] + width)]
