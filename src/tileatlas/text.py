"""The plumbing that every text format's reader and writer share.

Readers take a str, or an iterable of str pieces that join to it (a text
file's lines, or blocks read from it), and split it into lines as
str.splitlines splits the whole text, without holding a list of every line
(_lines), or a list a piece (_line_lists), or a str in slices that end
lines (_slices); a line's tokens are what str.split gives for it before
any `#` (_content_lines, _tokens).  A reader that can read its text a
block of lines at a time (patches, by _slices; atlases, by
_corona_columns) leaves what that cannot decide to its line reader.
Writers check each value they emit as a token (_token) or an orientation
code (_code), so that the readers read back what was written.
"""

from __future__ import annotations

import sys
from itertools import chain

_CHUNK = 1 << 16  # characters of text split into lines at a time
# labels, colours and label indices are characters, chr(i): the range of chr
LABEL_LIMIT = sys.maxunicode + 1


class FormatError(ValueError):
    """Raised on malformed tileset/patch/reduction/atlas text."""


def _lines(text):
    """The lines that str.splitlines() gives for `text`, a str or an
    iterable of str pieces that join to it (a text file's lines, or blocks
    read from it), so no list of every line is held (_line_lists)."""
    return chain.from_iterable(_line_lists(text))


def _line_lists(text):
    """_lines(text) in lists, one a piece: each piece is split up to just
    after its last "\\n", which always ends a line; what follows waits for
    the next piece, so a break such as "\\r\\n" cut between two pieces
    stays one break.  A str is read in _slices."""
    held = []  # the pieces since the last "\n"
    for piece in _slices(text) if isinstance(text, str) else text:
        cut = piece.rfind("\n") + 1
        if cut:
            held.append(piece[:cut])
            yield "".join(held).splitlines()
            # a piece that ends a line is split without a copy
            held = [piece[cut:]] if cut < len(piece) else []
        else:
            held.append(piece)
    yield "".join(held).splitlines()


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
    return _tokens(_lines(text), 1)


def _tokens(lines, start: int):
    """_content_lines over `lines`, numbered from `start`."""
    for ln, raw in enumerate(lines, start):
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


def _corona_columns(lines, width: int):
    """The tile and the code fields of `lines`, a list of corona lines of
    `width` fields apart by single spaces, row by row: ASCII without `#`, a
    tab or a unit separator (the whitespace that does not break lines), each
    line's third field ":".  The lines are joined and split once, with a
    "\\n" field between two lines, which must fall every width + 1 fields.
    A field is empty next to a second space in a row, or to one at a line's
    end: the caller refuses an empty tile or code.  None for any other
    lines."""
    joined = " \n ".join(lines)
    if (not joined.isascii() or "#" in joined or "\t" in joined
            or "\x1f" in joined):
        return None
    flat = joined.split(" ")
    if (len(flat) != len(lines) * (width + 1) - 1
            or flat[width::width + 1].count("\n") != len(lines) - 1):
        return None
    del flat[width::width + 1]
    if flat[2::width].count(":") != len(lines):
        return None
    del flat[2::width]
    return flat[::2], flat[1::2]
