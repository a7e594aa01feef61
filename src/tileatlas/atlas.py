"""Coronas and corona atlases.

The corona of a placed tile is the tile together with the placements on all
cells touching it (8 on the square lattice, 26 on the cubic lattice, 12 on
the triangular lattice), read in canonical touching-offset order with the
centre translated to the origin cell of its kind.  Corona membership is
checked up to translation only.

An atlas for a reduced set is the set of encodings of every locally valid
source corona: an assignment of source tiles to the corona window in which
all facet-sharing pairs satisfy the facet rule.  Membership can be tested
against the materialized atlas, or implicitly by decoding the corona back to
source tiles and checking the facet rule directly; the two routes agree.

Both the enumerator's re-check and the implicit route read one window
check, compiled once per source set and centre kind and kept on the set.  A
window is packed as a row, one character per cell, chr(k) for the k-th
prototile.  Per cell the check holds the characters legal there; per pair
of the window from `facet_pairs`, the pair walk of `patch_valid`, it holds
a table from a character to the colour that each end's facet shows,
interned as a character.  It is built from the set's placement table,
`TileSet.legal`.  The engine and `patch_valid` read that table too, and all
three read one pair list, which the tests check against an oracle of
coinciding facet midpoints.

The implicit route packs the decoded corona and reads the row across the
tables, testing the pairs' two colour sequences at once by the rule.  The
enumerator, one `region_search` per centre kind over the corona window
(in scan order; a node is a candidate tried at any window cell), reads its
rows down the same tables, a few thousand at a time: each cell's column, a
slice of the joined rows, may hold only that cell's legal characters, and
each pair's two columns, translated to colours, are tested by the rule
once.  A batch passes exactly when every row would.  The check only
decides: a batch it refuses, which only a faulty engine yields, is named by
`patch_valid` on each row's window in turn.

An `Atlas` is stored packed: a sorted table of the (tile, code) labels its
coronas use, and one `str` row per corona whose characters are label
indices, chr(i) for the i-th label, centre first and then the ring.  Python
keeps such a string at one byte per character while every index is below
256 and widens it by itself beyond.  A table holds at most `LABEL_LIMIT`
labels, the range of chr.  Strings sort by code point, so sorted rows are in
`Corona.sort_key` order.  `Corona` stays the public type: `atlas.coronas`
decodes rows on demand, and `corona in atlas` encodes the query.

`corona_of` reads a free region as its box: the torus one cell wider on
each axis, whose extra layer holds no cell.  `missing_coronas` reads every
row of a patch's box at once, through the box module's reader, which
`patch_valid` shares: one string turned along each axis, when the patch
lies in its region and fills at least 1/2^dim of the box.  Any other patch
is read a cell at a time: corona_of's walk of the corona's labels, packed
straight into a row by the atlas's table.

Rows are packed without a lookup per label: the enumerator's search labels
are the prototiles' row characters, so a window's row is its solution
reordered and joined, and rows are renumbered a batch, or a whole atlas, at
a time by one translate over their joined text.  On a 2-core machine the
cubes21 c2 atlas (812,673 rows) derives in 4-7 s.

The atlas text format is specified in docs/FORMATS.md.  `atlas_lines`
yields it a line at a time, and `parse_atlas` reads it from a str or from
an iterable of its pieces, such as a file.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Set
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, product
from math import prod
from operator import itemgetter
from typing import NamedTuple

from .geometry import (
    KIND_SPACE,
    SPACE_KINDS,
    SPACES,
    ShapeKind,
    cell_kind,
    origin_cell,
    space_codes,
    space_dim,
    touching_cell,
    touching_offsets,
)
from .box import (
    TOUCHING,
    bounds,
    box,
    cells_in_region,
    corona_rows,
    hue_test,
    hues,
    label_of,
)
from .text import FormatError, _code, _content_lines, _token
from .tileset import (
    Patch,
    Placement,
    RegionSpec,
    TileSet,
    facet_pairs,
    identity_code,
    patch_valid,
    region_cells,
)
from .reduction import ReducedSet
from .search import check_count, region_search


class BudgetExceeded(RuntimeError):
    """Enumeration exceeded its node budget."""


@dataclass(frozen=True)
class Corona:
    """Centre placement plus ring placements, both as (tile, code) pairs.

    The ring is aligned with touching_offsets of the centre's cell kind.
    """

    center: tuple
    ring: tuple

    def sort_key(self):
        return (self.center, self.ring)


LABEL_LIMIT = sys.maxunicode + 1  # label indices are characters, chr(i)
# covers the cubes21 c2 enumeration, which charges 110,651,268 nodes
DEFAULT_NODE_CAP = 2 * 10 ** 8


class _Interner(dict):
    """label -> its row character, chr(index), in order of first use."""

    def __missing__(self, label):
        if len(self) >= LABEL_LIMIT:
            raise FormatError(f"an atlas holds at most {LABEL_LIMIT} labels")
        ch = self[label] = chr(len(self))
        return ch


@dataclass(frozen=True, init=False)
class Atlas:
    """A named set of coronas, packed: `labels` is the sorted table of the
    (tile, code) labels they use, `rows` one string per corona whose
    characters are label indices, chr(i) for labels[i], centre first.

    `Atlas(name, coronas)` packs Corona values; `coronas` is a read-only set
    view that decodes rows as it is iterated.
    """

    name: str
    labels: tuple = field(repr=False)
    rows: frozenset = field(repr=False)
    _chars: dict = field(repr=False, compare=False)

    def __init__(self, name: str, coronas):
        index = _Interner()
        rows = ["".join(map(index.__getitem__, (c.center, *c.ring)))
                for c in coronas]
        self._set(name, list(index), rows)

    def _set(self, name, labels, rows):
        """Store `rows`, strings in which chr(i) stands for labels[i], over
        the sorted table of the labels they use; the rows are renumbered
        (_translate) only when that table moves an index."""
        used = sorted(map(ord, set().union(*rows)), key=labels.__getitem__)
        if used != list(range(len(used))):
            rows = _translate(rows, dict(zip(used, range(len(used)))))
        chars = {labels[i]: chr(k) for k, i in enumerate(used)}
        for key, value in (("name", name), ("labels", tuple(chars)),
                           ("rows", frozenset(rows)), ("_chars", chars)):
            object.__setattr__(self, key, value)

    @classmethod
    def _packed(cls, name: str, labels, rows) -> Atlas:
        atlas = cls.__new__(cls)
        atlas._set(name, labels, rows)
        return atlas

    @property
    def coronas(self) -> _Coronas:
        return _Coronas(self)

    def _has(self, labels) -> bool:
        """Whether the row of `labels`, (tile, code) pairs centre first, is
        one of the atlas's; a label that the table lacks is in none."""
        try:
            return "".join(map(self._chars.__getitem__, labels)) in self.rows
        except KeyError:
            return False

    def __contains__(self, corona) -> bool:
        return isinstance(corona, Corona) and self._has(
            (corona.center, *corona.ring))


def _translate(rows, to: dict) -> list:
    """[row.translate(to) for row in rows], by one translate over the joined
    rows, sliced back: one call instead of one a row."""
    joined = "".join(rows).translate(to)
    ends = list(accumulate(map(len, rows)))
    return [joined[a:b] for a, b in zip(chain((0,), ends), ends)]


class _Coronas(Set):
    """An atlas's coronas as a set of Corona values."""

    __slots__ = ("_atlas",)

    def __init__(self, atlas: Atlas):
        self._atlas = atlas

    def __len__(self):
        return len(self._atlas.rows)

    def __contains__(self, corona):
        return corona in self._atlas

    def __iter__(self):
        labels = self._atlas.labels
        for row in self._atlas.rows:
            center, *ring = map(labels.__getitem__, map(ord, row))
            yield Corona(center, tuple(ring))

    __hash__ = Set._hash  # hashable, as the frozenset it stands for

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)


def corona_of(placements: dict, region: RegionSpec, cell) -> Corona | None:
    """The corona at `cell`, or None when a touching cell is unfilled.

    On a torus touching cells wrap, so every filled cell of a fully placed
    torus patch has a corona.  A free region reads as the torus one cell
    wider on each axis whose extra layer holds no cell (box.box): only a cell
    whose ring lies in the region has a corona.

    The ring order follows the cell's kind, which matches the atlas
    convention (ring order of the centre's decoded kind) only when the
    placement at `cell` actually fits the cell.  Callers working from
    untrusted patch text must therefore establish decodability and facet
    validity before asking for atlas membership, which is the order the
    solver and the verifier use.
    """
    labels = _corona_labels(placements, region, cell)
    return None if labels is None else Corona(labels[0], tuple(labels[1:]))


def _corona_labels(placements: dict, region: RegionSpec, cell):
    """The (tile, code) labels of the corona at `cell`, centre first and
    then the ring in touching-offset order, as corona_of reads it; None
    where it has none."""
    ext, offsets = region.extents, TOUCHING[region.space]
    if not (region.torus or all(0 < c < e - 1 for c, e in zip(cell, ext))):
        return None
    # touching_cell, wrapped; a triangle offset ends in the neighbour's bit
    if region.space == "tri2d":
        (w, h), (up, down) = ext, offsets
        ring = [((cell[0] + da) % w, (cell[1] + db) % h, o)
                for da, db, o in (down if cell[2] else up)]
    elif region.space == "square2d":
        (w, h), (offs,) = ext, offsets
        ring = [((cell[0] + dx) % w, (cell[1] + dy) % h) for dx, dy in offs]
    else:
        (w, h, d), (offs,) = ext, offsets
        ring = [((cell[0] + dx) % w, (cell[1] + dy) % h, (cell[2] + dz) % d)
                for dx, dy, dz in offs]
    try:
        # a list: tuple(map(...)) here raised the benchmark's
        # patch-pipeline peak RSS by about 0.7 MB
        return [*map(label_of, map(placements.get, (cell, *ring)))]
    except TypeError:  # label_of(None): a cell of the corona is unfilled
        return None


def missing_coronas(atlas: Atlas, patch: Patch) -> tuple[list, int]:
    """The sorted cells whose complete corona (as corona_of reads it) is not
    in the atlas, and the number of complete coronas in the patch.

    A patch that lies in its region and fills at least 1/2^dim of its box,
    as a full patch does, has every row of the box read at once
    (box.corona_rows): a cell's character is its label's, a spare one if the
    table lacks the label, or another, the hole, if the cell is empty.  A
    row with a hole is not complete.  Any other patch is read cell by cell:
    corona_of's walk of each corona's labels (_corona_labels), packed as a
    row by the atlas's table (Atlas._has)."""
    placements, region, chars = patch.placements, patch.region, atlas._chars
    torus = box(region)
    if (len(chars) + 2 > LABEL_LIMIT  # no spare characters
            or len(placements) << space_dim(region.space) < prod(bounds(torus))
            or not cells_in_region(region, placements)):
        coronas = [(cell, _corona_labels(placements, region, cell))
                   for cell in sorted(placements)]
        coronas = [(cell, c) for cell, c in coronas if c is not None]
        return ([cell for cell, c in coronas if not atlas._has(c)],
                len(coronas))
    hole, unknown = chr(len(chars)), chr(len(chars) + 1)
    text = "".join([hole if pl is None
                    else chars.get((pl.tile, pl.orientation), unknown)
                    for pl in map(placements.get,
                                  product(*map(range, bounds(torus))))])
    missing, complete = [], 0
    for cells, rows in corona_rows(torus, text):
        for cell, row in zip(cells, rows):
            if hole not in row:
                complete += 1
                if row not in atlas.rows:
                    missing.append(cell)
    return sorted(missing), complete


# ---------------------------------------------------------------------------
# Locally valid source coronas
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _corona_window(kind: ShapeKind):
    """The corona window's free region, its cells (centre first, then the
    ring in touching-offset order), the order the search assigns them in,
    the region's scan order, and their facet-sharing pairs (facet_pairs).

    Cells are shifted so the window fits the region with non-negative
    coordinates; the centre sits at the lattice point (1,1[,1]).  A square
    or cube window is the whole region, so its search is count_solutions'."""
    space = KIND_SPACE[kind]
    dim = space_dim(space)
    region = RegionSpec(space, (3,) * dim, False)
    # a triangle's orientation bit is not a coordinate
    center = (1,) * dim + origin_cell(kind)[dim:]
    cells = (center, *[touching_cell(kind, center, offset)
                       for offset in touching_offsets(kind)])
    order = tuple(filter(set(cells).__contains__, region_cells(region)))
    return region, cells, order, facet_pairs(region, cells)


class _WindowCheck(NamedTuple):
    """A corona window's compiled check for one source set; see
    _window_check."""

    chars: dict  # tile id -> its row character, chr(k) for the k-th
    legal: list  # per cell: the row characters of its legal labels
    paints: list  # per pair: (i, row char -> colour char, j, the same)
    test: Callable  # the rule's test of two colour-character sequences


def _window_check(ts: TileSet, kind: ShapeKind) -> _WindowCheck:
    """The corona window's check for `ts` over packed rows, chr(k) for the
    k-th prototile: each tile's character, per window cell the characters of
    the tiles `ts.legal` holds for its kind, per facet_pairs pair and end a
    str.translate table from those characters to the colour `ts.legal` gives
    the end's facet, as a character (chr(h) for the h-th of the sorted
    colours), and the rule's test of two sequences of such colours.

    It is compiled once per set and kind, and kept on the set.  Every window
    cell lies in the window's region, so its kind decides what is legal
    there.
    """
    check = ts.window_checks.get(kind)
    if check is None:
        region, cells, _, pairs = _corona_window(kind)
        # a translation-placed set has one (tile, code) per legal tile
        legal = [ts.legal[cell_kind(region.space, cell)] for cell in cells]
        chars = {p.id: chr(k) for k, p in enumerate(ts.prototiles)}
        hue = hues(ts)

        def paint(c, f):  # row char -> the colour char of facet f on cell c
            return {ord(chars[t]): hue[eff[f]]
                    for (t, _), eff in legal[c].items()}

        check = ts.window_checks[kind] = _WindowCheck(
            chars,
            [frozenset([chars[t] for t, _ in table]) for table in legal],
            [(i, paint(i, f), j, paint(j, nf)) for i, f, j, nf in pairs],
            hue_test(ts.rule, hue))
    return check


def _row_ok(check: _WindowCheck, row: str) -> bool:
    """Whether the window packed as `row`, one character per cell, passes
    the compiled check."""
    if not all(map(frozenset.__contains__, check.legal, row)):
        return False
    codes = list(map(ord, row))
    return check.test([a[codes[i]] for i, a, _, _ in check.paints],
                      [b[codes[j]] for _, _, j, b in check.paints])


def _rows_ok(check: _WindowCheck, rows) -> bool:
    """Whether every row passes _row_ok, read down the check's tables a
    column at a time."""
    joined, n = "".join(rows), len(check.legal)
    columns = [joined[c::n] for c in range(n)]
    return (all(map(frozenset.issuperset, check.legal, columns))
            and all(check.test(columns[i].translate(a),
                               columns[j].translate(b))
                    for i, a, j, b in check.paints))


def _refusal(ts: TileSet, kind: ShapeKind, labels, rows, first: int) -> str:
    """Why the window check refuses `rows`, the `kind` centre's windows
    `first` on, packed with chr(k) for labels[k]: patch_valid's first
    violation on the first row it refuses, with that row's labels."""
    region, cells, _, _ = _corona_window(kind)
    for row in rows:
        window = [labels[ord(ch)] for ch in row]
        ok, faults = patch_valid(ts, Patch(ts.name, region, {
            c: Placement(c, t, code) for c, (t, code) in zip(cells, window)}))
        if not ok:
            return f"{faults[0]} in {window}"
    return (f"the window check refuses {kind.name} windows {first} to "
            f"{first + len(rows) - 1}, which patch_valid accepts")


# rows re-checked at once: their joined text and columns stay blocks that the
# allocator reuses, instead of large ones it maps and unmaps
_BATCH = 4096


def _enumerate(ts: TileSet, node_cap: int) -> tuple[list, list]:
    """Every locally valid corona window of `ts`, packed: the prototiles'
    (tile, code) labels and one row per window, chr(k) for the k-th label,
    centre first.  Each centre kind's rows pass the window check before
    they are admitted, and before the cap raises BudgetExceeded.  The
    engine's labels are the row characters (`pack`), so a solution is
    packed by reordering and joining them.  A cap that is not a node count
    is refused."""
    check_count(node_cap, "node cap")
    if ts.allowed != "translations":
        raise FormatError("corona enumeration expects a translation-placed set")
    ident = identity_code(ts.space)
    index = _Interner()  # chr(k) for the k-th prototile, as in the checks
    for p in ts.prototiles:
        index[p.id, ident]
    rows, nodes = [], 0
    for kind in SPACE_KINDS[ts.space]:
        region, cells, order, _ = _corona_window(kind)
        # search labels -> window labels
        pick = itemgetter(*[order.index(c) for c in cells])
        start = len(rows)
        _, _, spent, _, _ = region_search(
            ts, region, node_cap - nodes, cells=order, pack=index,
            each=lambda labels: rows.append("".join(pick(labels))))
        check, labels = _window_check(ts, kind), list(index)
        for k in range(start, len(rows), _BATCH):
            batch = rows[k:k + _BATCH]
            if not _rows_ok(check, batch):
                raise RuntimeError(
                    "incremental checks admitted an invalid corona: "
                    + _refusal(ts, kind, labels, batch, k - start))
        nodes += spent  # node_cap + 1 once the cap is crossed
        if nodes > node_cap:
            raise BudgetExceeded(
                f"corona enumeration exceeded {node_cap} nodes")
    return list(index), rows


def enumerate_source_coronas(ts: TileSet,
                             node_cap: int = DEFAULT_NODE_CAP) -> set:
    """All locally valid coronas of a translation-placed source set.

    `node_cap` bounds the nodes summed over the centre kinds.  Every complete
    assignment is re-verified by the set's window check before it is
    admitted: each label must be one that the set's placement table,
    `ts.legal`, holds for its window cell's kind, and every pair that
    facet_pairs lists for the window is tested against the rule on the
    facet colours read there.
    """
    return set(Atlas._packed(ts.name, *_enumerate(ts, node_cap)).coronas)


def derive_atlas(rs: ReducedSet, node_cap: int = DEFAULT_NODE_CAP) -> Atlas:
    """The reduced set's atlas: encodings of all locally valid source coronas.

    The enumerator's rows are mapped to the characters of the sorted
    encoded labels by one translate per batch of _BATCH rows."""
    labels, rows = _enumerate(rs.source, node_cap)
    index = _Interner()  # interned in sorted order, so nothing renumbers
    for label in sorted(rs.forward.values()):
        index[label]
    to = {k: index[rs.forward[tid]] for k, (tid, _) in enumerate(labels)}
    for k in range(0, len(rows), _BATCH):  # in place: one list of rows
        rows[k:k + _BATCH] = _translate(rows[k:k + _BATCH], to)
    return Atlas._packed(rs.name, list(index), rows)


# ---------------------------------------------------------------------------
# Membership, two routes
# ---------------------------------------------------------------------------

def corona_in_atlas_implicit(rs: ReducedSet, corona: Corona) -> bool:
    """Decide membership without the materialized atlas: decode every
    placement, pack the source tiles as a row and read it across the source
    set's window check, the tables the enumerator's re-check reads by
    column."""
    inverse = rs.inverse
    center = inverse.get(corona.center)
    if center is None:
        return False
    ts = rs.source
    kind = ts.by_id[center].kind
    if len(corona.ring) != len(touching_offsets(kind)):
        return False
    check = _window_check(ts, kind)
    chars = check.chars
    try:
        row = chars[center] + "".join([chars[inverse[entry]]
                                       for entry in corona.ring])
    except KeyError:  # a ring entry encodes no source tile
        return False
    return _row_ok(check, row)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def serialize_atlas(atlas: Atlas) -> str:
    """The atlas text: atlas_lines joined."""
    return "".join(atlas_lines(atlas))


def atlas_lines(atlas: Atlas):
    """The atlas text one line at a time, each ending in "\\n", so that a
    caller can write it to a file without holding it.  What the writer
    refuses raises FormatError when its line is reached, after the lines
    before it."""
    # every code is of the lattice of the first label's code, and every ring
    # has that lattice's touching count of entries
    lattice = atlas.labels and _lattice_of_code().get(atlas.labels[0][1])
    codes = space_codes(lattice[0]) if lattice else ()
    # a centre tile named ":" would read as the separator
    text = {ch: f"{_token(t, 'tile id', ':')} {_code(code, codes)}"
            for (t, code), ch in atlas._chars.items()}
    yield f"atlas {_token(atlas.name, 'atlas name')}\n"
    for row in sorted(atlas.rows):
        if len(row) - 1 != lattice[1]:
            raise FormatError(f"cannot write a ring of {len(row) - 1} "
                              f"entries: {lattice[0]} coronas have "
                              f"{lattice[1]}")
        center, *ring = map(text.__getitem__, row)
        yield f"{center} : {' '.join(ring)}\n"


@lru_cache(maxsize=None)
def _lattice_of_code() -> dict:
    """Orientation code -> (lattice, ring length); the lattices' code sets
    are disjoint, so a code names its lattice."""
    return {code: (space, len(touching_offsets(SPACE_KINDS[space][0])))
            for space in SPACES for code in space_codes(space)}


def parse_atlas(text, rs: ReducedSet | None = None) -> Atlas:
    """Read atlas text: a str, or an iterable of str pieces that join to it,
    such as a text file's lines or blocks read from it.  Either is split
    into lines as str.splitlines splits the whole text, so the line numbers
    in errors are the same.  Every code must be one lattice's orientation
    code, all codes must come from the same lattice, every ring must have
    that lattice's touching count of entries, and no corona may be listed
    twice.  Given the reduced set, every (tile, code) label must also be
    one of its encodings.

    Labels are interned in order of first use, and checked when first met;
    each line is packed as it is read.  The table is sorted, and the rows
    renumbered to it by one translate over them all, at the end."""
    known = None if rs is None else rs.inverse
    lattice_of = _lattice_of_code()
    lattice = None  # that of the first code: (lattice, ring length)

    class Index(_Interner):
        def __missing__(self, label):
            nonlocal lattice
            code = label[1]
            if code not in lattice_of:
                raise FormatError(
                    f"line {ln}: unknown orientation code {code!r}")
            if lattice is None:
                lattice = lattice_of[code]
            elif lattice_of[code] != lattice:
                raise FormatError(
                    f"line {ln}: code {code!r} is not a {lattice[0]} code")
            if known is not None and label not in known:
                raise FormatError(f"line {ln}: {label[0]} {code} encodes no "
                                  f"tile of {rs.name}")
            return _Interner.__missing__(self, label)

    index = Index()
    rows = {}  # row -> the number of the line it was first read on
    lines = _content_lines(text)
    for ln, toks in lines:  # the first content line
        if toks[0] != "atlas" or len(toks) != 2:
            raise FormatError(f"line {ln}: expected atlas header")
        name = toks[1]
        break
    else:
        raise FormatError("missing atlas header")
    for ln, toks in lines:
        # a (tile, code) pair, ":" and the ring's pairs; no ":" before it
        if (len(toks) % 2 == 0 or len(toks) < 3 or toks[2] != ":"
                or ":" in toks[:2]):
            raise FormatError(f"line {ln}: bad corona line")
        del toks[2]
        labels = iter(toks)
        row = "".join(map(index.__getitem__, zip(labels, labels)))
        if len(row) - 1 != lattice[1]:
            raise FormatError(
                f"line {ln}: ring of {len(row) - 1} entries; {lattice[0]} "
                f"coronas have {lattice[1]}")
        first = rows.setdefault(row, ln)
        if first != ln:
            raise FormatError(f"line {ln}: repeats the corona of line "
                              f"{first}")
    if any(t == ":" for t, _ in index):  # a ring entry; writers refuse it
        raise FormatError("':' is no atlas tile id")
    return Atlas._packed(name, list(index), rows)
