"""Patch text: `parse_patch` and `serialize_patch`, in the format that
docs/FORMATS.md specifies.

A patch text is a header line and one line a placed cell.  The writer
writes a packed patch (`Patch.packed`, one character a cell of its region
in sorted order) without a Python step a cell: each line is its cell's
prefix, its coordinates each followed by a space, joined to its
character's label text, "tile code" and the line break, which is built
once a label.  The prefixes come from one walk over the region
(`_prefixes`), the product of each axis's coordinate strings.  A patch
built from placements is written from its sorted cells.

`parse_patch` reads the writer's form a block of lines at a time
(`_by_columns`): each block is split once, each (tile, code) pair of its
last two columns is mapped to a character, in order of first use, and the
block is written back from those characters and the region's prefixes; it
must come out as the block itself.  So that route reads the writer's bytes
and nothing else, as the packed patch that was written.  Any other text (a
comment, other spacing, the alias u, an unknown id or code, a cell out of
order, repeated or missing) goes to the line reader (`_by_lines`), which
names the first offending line.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain, islice, product
from math import prod
from operator import add, itemgetter

from .box import bounds, label_of
from .geometry import Cell, space_codes, space_dim
from .text import FormatError, _code, _content_lines, _slices, _token
from .tileset import Patch, Placement, RegionSpec, collector_paused

# the fields of a placement line, per lattice, as a refusal names them
_PLACEMENT_FIELDS = {"square2d": "x y tile code", "cube3d": "x y z tile code",
                     "tri2d": "a b u|d tile code"}


def parse_patch(text: str, space: str, ids: set[str] | None = None) -> Patch:
    """The patch of `text` on the `space` lattice, its tile ids among `ids`
    when given.  Text in the writer's form is read a block of lines at a
    time (_by_columns) as a packed patch; other text is read line by line,
    which raises FormatError naming the first offending line."""
    patch = _by_columns(text, space, ids)
    return _by_lines(text, space, ids) if patch is None else patch


class _Labels(dict):
    """(tile, code) -> its character, chr(i) for the i-th label met;
    `lines` maps each character to its label text.  A code outside `codes`
    or a tile outside `ids`, when given, raises KeyError."""

    def __init__(self, codes, ids):
        super().__init__()
        self.codes, self.ids, self.lines = codes, ids, {}

    def __missing__(self, label):
        tid, code = label
        # the last character is left for an empty cell
        if (code not in self.codes or self.ids is not None
                and tid not in self.ids or len(self) >= sys.maxunicode):
            raise KeyError(label)
        ch = self[label] = chr(len(self))
        self.lines[ch] = f"{tid} {code}\n"
        return ch


def _by_columns(text, space: str, ids) -> Patch | None:
    """The packed patch of `text` when it is a str in the writer's form,
    read a block of lines at a time (text._slices), its header by the line
    reader; None for any other text."""
    if not isinstance(text, str) or space not in _PLACEMENT_FIELDS or (
            "#" in text):
        return None
    pieces = _slices(text)
    first = next(pieces, "")
    cut = first.find("\n") + 1
    try:
        head = _by_lines(first[:cut], space, ids)
    except FormatError:
        return None
    if _head(head) != first[:cut]:
        return None
    region, width = head.region, len(_PLACEMENT_FIELDS[space].split())
    # a line a cell, each ended by a line break; this also bounds what the
    # region's prefixes keep by the text's length
    size = prod(bounds(region))
    if text.count("\n") != size + 1 or not text.endswith("\n"):
        return None
    index = _Labels(frozenset(space_codes(space)), ids)
    parts, prefixes = [], _prefixes(region)
    for piece in chain((first[cut:],), pieces):
        n = piece.count("\n")
        tokens = piece.split()
        if len(tokens) != width * n:
            return None
        try:
            chars = "".join(map(index.__getitem__, zip(
                tokens[width - 2::width], tokens[width - 1::width])))
        except KeyError:
            return None
        if "".join(map(add, islice(prefixes, n),
                       map(index.lines.__getitem__, chars))) != piece:
            return None
        parts.append(chars)
    return Patch.of_text(head.set_name, region, "".join(parts), tuple(index))


@collector_paused()
def _by_lines(text, space: str, ids) -> Patch:
    """The patch of `text` read a line at a time, which names the first
    offending line; its placements are built with the collector paused."""
    header = None
    placements = {}
    region = None
    for ln, toks in _content_lines(text):
        try:
            if header is None:
                if toks[0] != "patch":
                    raise FormatError(f"line {ln}: expected patch header")
                dims = space_dim(space)
                if len(toks) != 3 + dims:
                    raise FormatError(f"line {ln}: bad patch header for {space}")
                header = toks[1]
                extents = tuple(int(t) for t in toks[2:2 + dims])
                boundary = toks[2 + dims]
                if boundary not in ("free", "torus"):
                    raise FormatError(f"line {ln}: expected free|torus")
                region = RegionSpec(space, extents, boundary == "torus")
                # what depends on the lattice alone, worked out once
                fields = _PLACEMENT_FIELDS[space]
                width = len(fields.split())
                codes = set(space_codes(space))
                if space == "tri2d":
                    codes.add("u")  # read as ut0
                continue
            if len(toks) != width:
                raise FormatError(f"line {ln}: expected {fields}")
            *coords, tid, code = toks
            if space == "tri2d":
                if coords[2] not in ("u", "d"):
                    raise FormatError(f"line {ln}: expected u|d")
                coords[2] = "ud".index(coords[2])
            cell: Cell = tuple(map(int, coords))
        except ValueError as e:
            if isinstance(e, FormatError):
                raise
            raise FormatError(f"line {ln}: {e}") from None
        if ids is not None and tid not in ids:
            raise FormatError(f"line {ln}: unknown tile id {tid!r}")
        if code not in codes:
            raise FormatError(f"line {ln}: unknown orientation code {code!r}")
        if code == "u":
            code = "ut0"
        if cell in placements:
            raise FormatError(f"line {ln}: duplicate placement at {cell}")
        placements[cell] = Placement(cell, tid, code)
    if region is None:
        raise FormatError("missing patch header")
    return Patch(header, region, placements)


def serialize_patch(patch: Patch) -> str:
    """The patch text, a line a cell in sorted order.  A packed patch
    without empty cells is written from its string (_label_lines,
    _prefixes) when every label it uses can be written; any other from its
    sorted placements, which are read once by map, the labels checked once
    each, in the order of the cells that first use them (the first that
    cannot be written raises FormatError), and the cells at once, and the
    lines joined once."""
    region = patch.region
    head = _head(patch)
    if patch.packed is not None and chr(len(patch.packed[1])) not in (
            patch.packed[0]):
        text, labels = patch.packed
        lines = _label_lines(labels, region.space)
        try:
            return head + "".join(map(add, _prefixes(region),
                                      map(lines.__getitem__, text)))
        except KeyError:  # a label that cannot be written, worded below
            pass
    cells = sorted(patch.placements)
    placed = list(map(patch.placements.__getitem__, cells))
    for tid, code in dict.fromkeys(map(label_of, placed)):
        _token(tid, "tile id")
        _code(code, space_codes(region.space))
    tri = region.space == "tri2d"
    arity = len(region.extents) + tri  # a triangle's orientation bit
    if not all(map(arity.__eq__, map(len, cells))) or tri and not {
            0, 1}.issuperset(map(itemgetter(2), cells)):
        cell = next(c for c in cells
                    if len(c) != arity or tri and c[2] not in (0, 1))
        raise FormatError(f"cannot write cell {cell}: it is no {region.space} "
                          "cell")
    if tri:
        lines = [f"{a} {b} {'ud'[o]} {t} {c}\n"
                 for (a, b, o), (_, t, c) in zip(cells, placed)]
    else:
        line = " ".join(["%s"] * (arity + 2)) + "\n"
        lines = [line % (*cell, t, c) for cell, (_, t, c) in zip(cells, placed)]
    return head + "".join(lines)


def _head(patch: Patch) -> str:
    """The patch's header line, with its line break."""
    region = patch.region
    ext = " ".join(str(e) for e in region.extents)
    return (f"patch {_token(patch.set_name, 'set name')} {ext} "
            f"{'torus' if region.torus else 'free'}\n")


@lru_cache(maxsize=16)
def _label_lines(labels: tuple, space: str) -> dict:
    """Each character of the alphabet `labels` whose label can be written
    -> its label text, "tile code" and the line break."""
    codes = space_codes(space)
    lines = {}
    for i, label in enumerate(labels):
        try:
            lines[chr(i)] = (f"{_token(label[0], 'tile id')} "
                             f"{_code(label[1], codes)}\n")
        except (FormatError, TypeError):
            pass
    return lines


def _prefixes(region: RegionSpec):
    """The line prefixes of the region's cells in sorted order: their
    coordinates, each followed by a space.  Each prefix of the leading axes'
    coordinates is joined to each of the last axis's (and a triangle's
    u|d) in turn."""
    *lead, last = ([f"{v} " for v in range(e)] for e in region.extents)
    if region.space == "tri2d":
        last = [v + o for v in last for o in ("u ", "d ")]
    return chain.from_iterable(map(head.__add__, last)
                               for head in map("".join, product(*lead)))
