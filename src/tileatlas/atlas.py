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

Both the enumerator's re-check and the implicit route read rows packed
by the source set's one tile table, `TileSet.table`, across the corona
window of their centre kind (the window module).

An `Atlas` is stored packed: a sorted table of the (tile, code) labels its
coronas use, and a sorted tuple of distinct `str` rows, one per corona,
whose characters are label indices, chr(i) for the i-th label, centre first
and then the ring.  Python keeps such a string at one byte per character
while every index is below 256 and widens it by itself beyond.  A table
holds at most `LABEL_LIMIT` labels, the range of chr.  Strings sort by code
point, so the rows are in `Corona.sort_key` order.  `Corona` stays the
public type: `atlas.coronas` decodes rows on demand, and `corona in atlas`
encodes the query.  A `Corona` is a named tuple, so it equals the plain
(center, ring) tuple.

`corona_of` reads a free region as its box: the torus one cell wider on
each axis, whose extra layer holds no cell.  `missing_coronas` reads every
row of a patch's box at once, through the box module's reader, which
`patch_valid` shares: the patch's one string of labels, translated once to
the atlas's and padded to the box, turned along each axis, when the patch
is packed or lies in its region and fills at least 1/2^dim of the box.  Any
other patch is read a cell at a time: corona_of's walk of the corona's
labels, packed straight into a row by the atlas's table.  The walk reads
each ring off the region's ring tables (box.rings), filled one coordinate
at a time as it is first read, so a sparse patch in a huge free region
costs only the cells read.  tests/check_large_patch.py prints the time of
this route on a sparse patch.  The implicit route keeps one verdict per
distinct row on its reduced set (`ReducedSet.verdicts`).

Rows are packed without a lookup per label: the engine's labels are the
characters of the set's table, so a window's row is its solution
reordered and joined.  `Atlas._set` sorts each constructor's table of the
labels its rows use, renumbers the rows in place only where that moves a
character, and sorts them once.  tests/check_cubes21_atlas.py prints the
time the cubes21 c2 atlas (812,673 rows) takes to derive.

The atlas text format is specified in docs/FORMATS.md.  The writer makes
it a block of 1024 rows at a time (_text_blocks); `serialize_atlas` joins
the blocks, and `atlas_lines` yields their lines one at a time.
`parse_atlas` reads a str or an iterable of its pieces, such as a file:
text in the writer's form 48 rows at a time by columns, and what that
route cannot decide, such as a comment, another spacing or an unknown
code, by the line reader, which words every fault with its line number.
A repeat is found side by side in the sorted rows, and only then named by
a walk of the rows in reading order.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, count, islice
from math import prod
from operator import eq, getitem, itemgetter
from typing import NamedTuple

from .geometry import (
    SPACE_KINDS,
    SPACES,
    space_codes,
    space_dim,
    touching_offsets,
)
from .box import (bounds, box, cells_in_region, corona_rows, label_of,
                  padded, patch_text, rings)
from .text import (LABEL_LIMIT, FormatError, _code, _corona_columns,
                   _line_lists, _token, _tokens)
from .tileset import Patch, RegionSpec, TileSet
from .reduction import ReducedSet
from .search import MEMO_SIZE, check_count, region_search
from .window import _corona_window, _refusal, _row_ok, _rows_ok


class BudgetExceeded(RuntimeError):
    """Enumeration exceeded its node budget."""


class Corona(NamedTuple):
    """Centre placement plus ring placements, both as (tile, code) pairs.

    The ring is aligned with touching_offsets of the centre's cell kind.
    """

    center: tuple
    ring: tuple

    def sort_key(self):
        return (self.center, self.ring)


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
    (tile, code) labels they use, `rows` the sorted tuple of distinct
    strings, one per corona, whose characters are label indices, chr(i) for
    labels[i], centre first.  `Atlas(name, coronas)` packs Corona values,
    each once; `coronas` is a read-only set view that decodes rows as it is
    iterated.  Lookups read `_members`, a frozenset of the rows built at the
    first and kept, which == and hash do not compare."""

    name: str
    labels: tuple = field(repr=False)
    rows: tuple = field(repr=False)
    _chars: dict = field(repr=False, compare=False)
    _members = cached_property(lambda self: frozenset(self.rows))

    def __init__(self, name: str, coronas):
        index = _Interner()
        rows = ("".join(map(index.__getitem__, (c.center, *c.ring)))
                for c in coronas)
        self._set(name, index, [*dict.fromkeys(rows)])

    def _set(self, name, labels: dict, rows: list):
        """Store `rows`, distinct strings in which labels[label] stands for
        label, over the sorted table of the labels, each of which some row
        must use: renumbered in place a batch at a time (_translate) only
        when sorting moves a character, then sorted into a new tuple."""
        table = sorted(labels)
        to = {ord(labels[label]): k for k, label in enumerate(table)}
        if any(k != v for k, v in to.items()):
            for k in range(0, len(rows), _BATCH):
                rows[k:k + _BATCH] = _translate(rows[k:k + _BATCH], to)
        for key, value in (("name", name), ("labels", tuple(table)),
                           ("rows", tuple(sorted(rows))),
                           ("_chars", dict(zip(table, map(chr, count()))))):
            object.__setattr__(self, key, value)

    @classmethod
    def _packed(cls, name: str, labels: dict, rows: list) -> Atlas:
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
            row = "".join(map(self._chars.__getitem__, labels))
        except KeyError:
            return False
        return row in self._members

    def __contains__(self, corona) -> bool:
        return isinstance(corona, Corona) and self._has(
            (corona.center, *corona.ring))


def _translate(rows, to: dict) -> list:
    """[row.translate(to) for row in rows], by one translate over the joined
    rows, sliced back: one call instead of one a row."""
    joined = "".join(rows).translate(to)
    ends = list(accumulate(map(len, rows)))
    return [*map(joined.__getitem__, map(slice, chain((0,), ends), ends))]


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
    return None if labels is None else tuple.__new__(
        Corona, (labels[0], tuple(labels[1:])))


def _corona_labels(placements: dict, region: RegionSpec, cell):
    """The (tile, code) labels of the corona at `cell`, centre first and
    then the ring in touching-offset order, as corona_of reads it; None
    where it has none.  The ring is read off the region's ring tables
    (box.rings); the centre is looked up as given."""
    space, ext = region.space, region.extents
    if not (region.torus or all(0 < c < e - 1 for c, e in zip(cell, ext))):
        return None
    # a triangle whose orientation bit is not 0 is a down cell
    axes, bits = rings(space, ext)[space == "tri2d" and cell[2] != 0]
    try:
        # a list: tuple(map(...)) here raised the benchmark's
        # patch-pipeline peak RSS by about 0.7 MB
        return [*map(label_of, map(placements.get, (
            cell, *zip(*map(getitem, axes, cell), *bits))))]
    except TypeError:  # label_of(None): a cell of the corona is unfilled
        return None


def missing_coronas(atlas: Atlas, patch: Patch) -> tuple[list, int]:
    """The sorted cells whose complete corona (as corona_of reads it) is not
    in the atlas, and the number of complete coronas in the patch.

    A packed patch, which fills its region, or a dict patch that lies in
    its region and fills at least 1/2^dim of its box has every row of the
    box read at once (box.corona_rows) from its string over the atlas's
    labels (box.patch_text), padded with holes to the box on a free region:
    a cell's character is its label's, a spare one if the table lacks the
    label, or another, the hole, if a dict patch leaves the cell empty.  A
    row with a hole is not complete.  Any other patch is read cell by cell:
    corona_of's walk of each corona's labels (_corona_labels), packed as a
    row by the atlas's table (Atlas._has)."""
    region, labels = patch.region, atlas.labels
    torus, hole = box(region), chr(len(labels))
    if (len(labels) + 2 > LABEL_LIMIT  # no spare characters
            or patch.packed is None and (
                len(patch.placements) << space_dim(region.space)
                < prod(bounds(torus))
                or not cells_in_region(region, patch.placements))):
        placements = patch.placements
        coronas = [(cell, _corona_labels(placements, region, cell))
                   for cell in sorted(placements)]
        coronas = [(cell, c) for cell, c in coronas if c is not None]
        return ([cell for cell, c in coronas if not atlas._has(c)],
                len(coronas))
    text = patch_text(patch, labels)
    if not region.torus:
        text = padded(text, region.extents, len(SPACE_KINDS[region.space]),
                      hole)
    missing, complete = [], 0
    for cells, rows in corona_rows(torus, text):
        for cell, row in zip(cells, rows):
            if hole not in row:
                complete += 1
                if row not in atlas._members:
                    missing.append(cell)
    return sorted(missing), complete


# ---------------------------------------------------------------------------
# Locally valid source coronas
# ---------------------------------------------------------------------------

# rows re-checked at once: their joined text and columns stay blocks that the
# allocator reuses, instead of large ones it maps and unmaps
_BATCH = 4096


def _enumerate(ts: TileSet, node_cap: int) -> tuple[dict, list]:
    """Every locally valid corona window of `ts`, packed: the alphabet of
    the set's tile table (label -> character) and one row per window,
    centre first.  Each centre kind's rows pass the window check before
    they are admitted, and before the cap raises BudgetExceeded.  The
    engine's labels are the row characters, and it appends each solution
    joined in search order, so a row is packed by reordering it.  A cap
    that is not a node count is refused."""
    check_count(node_cap, "node cap")
    if ts.allowed != "translations":
        raise FormatError("corona enumeration expects a translation-placed set")
    table = ts.table
    rows, nodes = [], 0
    for kind in SPACE_KINDS[ts.space]:
        window = _corona_window(kind)
        # search labels -> window labels
        pick = itemgetter(*map(window.order.index, window.cells))
        start = len(rows)
        _, _, spent, _, _ = region_search(ts, window.region, node_cap - nodes,
                                          rows=rows, cells=window.order)
        for k in range(start, len(rows), _BATCH):
            rows[k:k + _BATCH] = batch = [
                "".join(pick(row)) for row in rows[k:k + _BATCH]]
            if not _rows_ok(table, window, batch):
                raise RuntimeError(
                    "incremental checks admitted an invalid corona: "
                    + _refusal(ts, kind, list(table.chars), batch, k - start))
        nodes += spent  # node_cap + 1 once the cap is crossed
        if nodes > node_cap:
            raise BudgetExceeded(
                f"corona enumeration exceeded {node_cap} nodes")
    return table.chars, rows


def _in_use(chars: dict, rows: list) -> dict:
    """The items of `chars`, label -> character, whose character some row
    holds: each character looked for in the joined rows, a batch at a time,
    until every one is found."""
    left = set(chars.values())
    for k in range(0, len(rows), _BATCH):
        if not left:
            break
        joined = "".join(rows[k:k + _BATCH])
        left -= {ch for ch in left if ch in joined}
    return {label: ch for label, ch in chars.items() if ch not in left}


def enumerate_source_coronas(ts: TileSet,
                             node_cap: int = DEFAULT_NODE_CAP) -> set:
    """All locally valid coronas of a translation-placed source set.

    `node_cap` bounds the nodes summed over the centre kinds.  Every complete
    assignment is re-verified by the set's window check before it is
    admitted: each label must be one that the set's tile table,
    `ts.table`, holds for its window cell's kind, and every pair that
    facet_pairs lists for the window is tested against the rule on the
    facet colours read there.
    """
    chars, rows = _enumerate(ts, node_cap)
    return set(Atlas._packed(ts.name, _in_use(chars, rows), rows).coronas)


def derive_atlas(rs: ReducedSet, node_cap: int = DEFAULT_NODE_CAP) -> Atlas:
    """The reduced set's atlas: encodings of all locally valid source coronas.

    Each source label that some row uses (_in_use) is encoded, and the rows
    are renumbered to the sorted encoded labels by one translate per batch
    of _BATCH rows (Atlas._set)."""
    chars, rows = _enumerate(rs.source, node_cap)
    return Atlas._packed(rs.name, {rs.forward[tid]: ch for (tid, _), ch
                                   in _in_use(chars, rows).items()}, rows)


# ---------------------------------------------------------------------------
# Membership, two routes
# ---------------------------------------------------------------------------

def corona_in_atlas_implicit(rs: ReducedSet, corona: Corona) -> bool:
    """Decide membership without the materialized atlas: pack the corona
    as a row of the source set's tile table, through each encoded label's
    character (rs.chars), and check it across the window of the centre's
    kind, as the enumerator's re-check reads its rows by column; a ring of
    another length reads as the wrong kinds.  The row fixes the centre's
    kind, so its verdict is kept in rs.verdicts, which is cleared when it
    holds MEMO_SIZE rows."""
    try:
        row = "".join(map(rs.chars.__getitem__, (corona.center, *corona.ring)))
    except KeyError:  # an entry encodes no source tile
        return False
    verdicts = rs.verdicts
    ok = verdicts.get(row)
    if ok is None:
        if len(verdicts) >= MEMO_SIZE:
            verdicts.clear()
        ts = rs.source
        ok = verdicts[row] = _row_ok(ts.table, _corona_window(
            ts.by_id[rs.inverse[corona.center]].kind), row)
    return ok


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def serialize_atlas(atlas: Atlas) -> str:
    """The atlas text: _text_blocks joined."""
    return "".join(_text_blocks(atlas))


def atlas_lines(atlas: Atlas):
    """The atlas text one line at a time, each ending in "\\n", so that a
    caller can write it to a file without holding it: _text_blocks split.
    A ring the writer refuses raises FormatError when its line is reached,
    after the lines before it; a label or a name it refuses raises before
    the first line, as the label tables are built first."""
    for block in _text_blocks(atlas):
        yield from block.splitlines(True)


# rows written at a time
_LINES = 1024


def _text_blocks(atlas: Atlas):
    """The atlas text in blocks of whole lines: the header, then the lines
    of _LINES rows at a time.  Each label's text is built and checked
    once, into two tables: as a centre, "\\n<tile> <code> :", and in a ring,
    " <tile> <code>".  A block's joined rows are mapped through the ring
    table, every row's first slot is overwritten by a stride slice mapped
    through the centre table, and the pieces are joined once."""
    # every code is of the lattice of the first label's code, and every ring
    # has that lattice's touching count of entries
    lattice = atlas.labels and _lattice_of_code().get(atlas.labels[0][1])
    codes = space_codes(lattice[0]) if lattice else ()
    # a centre tile named ":" would read as the separator
    centre = {ch: f"\n{_token(t, 'tile id', ':')} {_code(code, codes)} :"
              for (t, code), ch in atlas._chars.items()}
    ring = {ch: " " + text[1:-2] for ch, text in centre.items()}
    yield f"atlas {_token(atlas.name, 'atlas name')}\n"
    n = lattice[1] + 1 if lattice else 0
    for k in range(0, len(atlas.rows), _LINES):
        batch = atlas.rows[k:k + _LINES]
        bad = next(compress(count(), map(n.__ne__, map(len, batch))), None)
        joined = "".join(batch[:bad])
        if joined:
            pieces = [*map(ring.__getitem__, joined)]
            pieces[::n] = map(centre.__getitem__, joined[::n])
            # no break before the block's first line; one after its last
            pieces[0] = pieces[0][1:]
            pieces.append("\n")
            yield "".join(pieces)
        if bad is not None:
            raise FormatError(f"cannot write a ring of {len(batch[bad]) - 1} "
                              f"entries: {lattice[0]} coronas have "
                              f"{lattice[1]}")


@lru_cache(maxsize=None)
def _lattice_of_code() -> dict:
    """Orientation code -> (lattice, ring length); the lattices' code sets
    are disjoint, so a code names its lattice."""
    return {code: (space, len(touching_offsets(SPACE_KINDS[space][0])))
            for space in SPACES for code in space_codes(space)}


# corona lines read by columns at a time, whose fields are held at once: on
# the wang13 c2 text 48 read about as fast as 96, and parse_atlas peaks no
# higher than the line reader, which 64 already passes
_ROWS = 48


class _Reader(_Interner):
    """parse_atlas's state: the interner, whose labels are checked when
    first met, each tile's code -> row character table that the column
    route reads, the rows in reading order, the name, the lattice, the
    number of lines read and `shifts`, the (first row, line - index) pairs."""

    def __init__(self, rs: ReducedSet | None):
        self.rs, self.name, self.lattice, self.ln = rs, None, None, 0
        self.codes, self.rows, self.shifts = {}, [], []

    def add(self, rows, ln):
        """Keep `rows`, read from line `ln` on, one a line."""
        shift = ln - len(self.rows)
        if not self.shifts or self.shifts[-1][1] != shift:
            self.shifts.append((len(self.rows), shift))
        self.rows += rows

    def line(self, k) -> int:
        """Row k's line: k plus the last shift at or before it."""
        return k + next(s for i, s in reversed(self.shifts) if i <= k)

    def repeats(self):
        """Raise FormatError at the first row that repeats an earlier one."""
        first = {}
        for k, row in enumerate(self.rows):
            if first.setdefault(row, k) != k:
                raise FormatError(f"line {self.line(k)}: repeats the corona "
                                  f"of line {self.line(first[row])}")

    def fault(self, label) -> str | None:
        """Why `label` cannot be interned; the first code sets the
        lattice."""
        code, rs = label[1], self.rs
        lattice = _lattice_of_code().get(code)
        if lattice is None:
            return f"unknown orientation code {code!r}"
        if self.lattice is None:
            self.lattice = lattice
        elif lattice != self.lattice:
            return f"code {code!r} is not a {self.lattice[0]} code"
        if rs is not None and label not in rs.inverse:
            return f"{label[0]} {code} encodes no tile of {rs.name}"
        return None

    def __missing__(self, label):
        why = self.fault(label)
        if why:
            raise FormatError(f"line {self.ln}: {why}")
        return _Interner.__missing__(self, label)

    def lines(self, lines):
        """Read `lines` one at a time: the header, then corona lines."""
        end = self.ln + len(lines)
        for ln, toks in _tokens(lines, self.ln + 1):
            self.ln = ln  # the line that a label's fault names
            if self.name is None:
                if toks[0] != "atlas" or len(toks) != 2:
                    raise FormatError(f"line {ln}: expected atlas header")
                self.name = toks[1]
                continue
            # a (tile, code) pair, ":" and the ring's pairs; no ":" before it
            if (len(toks) % 2 == 0 or len(toks) < 3 or toks[2] != ":"
                    or ":" in toks[:2]):
                raise FormatError(f"line {ln}: bad corona line")
            del toks[2]
            labels = iter(toks)
            row = "".join(map(self.__getitem__, zip(labels, labels)))
            if len(row) - 1 != self.lattice[1]:
                raise FormatError(
                    f"line {ln}: ring of {len(row) - 1} entries; "
                    f"{self.lattice[0]} coronas have {self.lattice[1]}")
            self.add([row], ln)
        self.ln = end

    def columns(self, lines) -> bool:
        """Read `lines`, corona lines in writer form, by columns: the tile
        and code fields of every row (text._corona_columns), each label
        read through its tile's code table, with no tuple built.  A block
        with a label the tables lack is read again once _learn has added
        its labels.  False, having added no row, where this route cannot
        decide: the line reader then reads the block."""
        n = self.lattice[1] + 1
        cut = _corona_columns(lines, 2 * n + 1)
        if cut is None:
            return False
        tiles, codes = cut
        try:
            packed = "".join(map(getitem, map(self.codes.__getitem__, tiles),
                                 codes))
        except KeyError:  # a label the tables lack
            return self._learn(zip(tiles, codes)) and self.columns(lines)
        rows = [*map(packed.__getitem__, map(
            slice, range(0, len(packed), n), range(n, len(packed) + n, n)))]
        self.add(rows, self.ln + 1)
        self.ln += len(rows)
        return True

    def _learn(self, labels) -> bool:
        """Intern the labels that the code tables lack, in order of first
        use, and add them to the tables; False, having added none, if one
        is refused, names the tile ":" or an empty one, or would pass
        LABEL_LIMIT."""
        new = [label for label in dict.fromkeys(labels)
               if label[1] not in self.codes.get(label[0], ())]
        if len(self) + len(new) > LABEL_LIMIT or any(
                t in ("", ":") or ((t, c) not in self and self.fault((t, c)))
                for t, c in new):
            return False
        for t, c in new:
            self.codes.setdefault(t, {})[c] = self[t, c]
        return True


def parse_atlas(text, rs: ReducedSet | None = None) -> Atlas:
    """Read atlas text: a str, or an iterable of str pieces that join to it,
    such as a text file's lines or blocks read from it.  Either is split
    into lines as str.splitlines splits the whole text, so the line numbers
    in errors are the same.  Every code must be one lattice's orientation
    code, all codes must come from the same lattice, every ring must have
    that lattice's touching count of entries, and no corona may be listed
    twice.  Given the reduced set, every (tile, code) label must also be
    one of its encodings.  Of several faults, the first line's is named.

    The header and the first corona line, which sets the lattice, are read
    a line at a time; after them, _ROWS lines at a time by columns
    (_Reader.columns), and a block that route cannot decide line by line
    (_Reader.lines).  Both routes intern into one table, in order of first
    use, and check a label when it is first met, and keep the rows in one
    list in reading order, which Atlas._set renumbers and sorts.  Only if
    a sorted row equals the next, or a fault stops the read, does
    _Reader.repeats walk the list for the first repeat."""
    read = _Reader(rs)
    try:
        for lines in _line_lists(text):
            while lines:  # each block is let go once read
                block = lines[:_ROWS if read.lattice else 1]
                del lines[:len(block)]
                if not (read.lattice and read.columns(block)):
                    read.lines(block)
    except FormatError:
        read.repeats()  # a repeat on an earlier line is the first fault
        raise
    if read.name is None:
        raise FormatError("missing atlas header")
    atlas = Atlas._packed(read.name, read, read.rows)
    if any(map(eq, atlas.rows, islice(atlas.rows, 1, None))):
        read.repeats()
    if any(t == ":" for t, _ in read):  # a ring entry; writers refuse it
        raise FormatError("':' is no atlas tile id")
    return atlas
