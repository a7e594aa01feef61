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

Both the enumerator's re-check and the implicit route run one window check,
compiled once per source set and centre kind and kept on the set: the legal
placements on each window cell (`placement_ok`) with their facet colours
there, and the window's facet-sharing pairs from `facet_pairs`, the pair
walk of `patch_valid`.  It reads the pairs' two colour tuples and tests them
at once with the rule's compiled test, `rule_test`; only a window that fails
is walked pair by pair, by `pair_faults`, to name the first failing pair.
It is built from the prototiles, not the engine's candidate lists; the
engine's schedule, `patch_valid` and this check read one pair list, which
the tests check against an oracle of coinciding facet midpoints.

Source coronas are enumerated by the solver's search, `region_search`: one
search per centre kind over the corona window, centre first.  A node is a
candidate tried at any window cell, the centre included.  Every corona it
yields passes the window check before it is admitted.

An `Atlas` is stored packed: a sorted table of the (tile, code) labels its
coronas use, and one `str` row per corona whose characters are label
indices, chr(i) for the i-th label, centre first and then the ring.  Python
keeps such a string at one byte per character while every index is below
256 and widens it by itself beyond.  A table holds at most `LABEL_LIMIT`
labels, the range of chr.  Strings sort by code point, so sorted rows are in
`Corona.sort_key` order.  `Corona` stays the public type: `atlas.coronas`
decodes rows on demand, and `corona in atlas` encodes the query;
`missing_coronas` joins a patch's rows from its labels' characters.

The atlas text format is specified in docs/FORMATS.md.
"""

from __future__ import annotations

import sys
from collections.abc import Set
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .geometry import (
    KIND_SPACE,
    SPACE_KINDS,
    SPACES,
    ShapeKind,
    origin_cell,
    space_codes,
    space_dim,
    touching_cell,
    touching_offsets,
)
from .tileset import (
    FormatError,
    Patch,
    Placement,
    RegionSpec,
    TileSet,
    _code,
    _content_lines,
    _token,
    effective_facets,
    facet_pairs,
    identity_code,
    pair_faults,
    placement_ok,
    rule_test,
)
from .reduction import ReducedSet
from .search import region_search


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
# covers the cubes21 c2 enumeration, which charges 169,232,238 nodes
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
        only when that table moves an index."""
        used = sorted(map(ord, set().union(*rows)), key=labels.__getitem__)
        if used != list(range(len(used))):
            to = dict(zip(used, range(len(used))))
            rows = [row.translate(to) for row in rows]
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

    def _key(self, corona: Corona) -> str:
        """The corona's row; KeyError when a label is not in the table."""
        chars = self._chars
        return "".join([chars[corona.center],
                        *map(chars.__getitem__, corona.ring)])

    def __contains__(self, corona) -> bool:
        if not isinstance(corona, Corona):
            return False
        try:
            return self._key(corona) in self.rows
        except KeyError:
            return False


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


# per lattice, the touching offsets of each of its kinds
_TOUCHING = {space: tuple(map(touching_offsets, kinds))
             for space, kinds in SPACE_KINDS.items()}


def _ring_cells(region: RegionSpec):
    """A function from a cell of the region to the cells touching it, in
    the touching-offset order of the cell's kind; on a torus they wrap."""
    space = region.space
    # touching_cell and wrap_cell, inlined per lattice; a triangle offset's
    # third entry is the neighbour's orientation
    if space == "tri2d":
        up, down = _TOUCHING[space]
        if region.torus:
            w, h = region.extents
            return lambda c: [((c[0] + da) % w, (c[1] + db) % h, o)
                              for da, db, o in (down if c[2] else up)]
        return lambda c: [(c[0] + da, c[1] + db, o)
                          for da, db, o in (down if c[2] else up)]
    (offs,) = _TOUCHING[space]
    if space == "square2d":
        if region.torus:
            w, h = region.extents
            return lambda c: [((c[0] + dx) % w, (c[1] + dy) % h)
                              for dx, dy in offs]
        return lambda c: [(c[0] + dx, c[1] + dy) for dx, dy in offs]
    if region.torus:
        w, h, d = region.extents
        return lambda c: [((c[0] + dx) % w, (c[1] + dy) % h, (c[2] + dz) % d)
                          for dx, dy, dz in offs]
    return lambda c: [(c[0] + dx, c[1] + dy, c[2] + dz) for dx, dy, dz in offs]


def corona_of(placements: dict, region: RegionSpec, cell) -> Corona | None:
    """The corona at `cell`, or None when a touching cell is unfilled.

    On torus regions touching cells wrap, so every filled cell of a fully
    placed torus patch has a corona.

    The ring order follows the cell's kind, which matches the atlas
    convention (ring order of the centre's decoded kind) only when the
    placement at `cell` actually fits the cell.  Callers working from
    untrusted patch text must therefore establish decodability and facet
    validity before asking for atlas membership, which is the order the
    solver and the verifier use.
    """
    pl = placements.get(cell)
    if pl is None:
        return None
    try:
        ring = [(npl.tile, npl.orientation)
                for npl in map(placements.get, _ring_cells(region)(cell))]
    except AttributeError:  # None: a touching cell is unfilled
        return None
    return Corona((pl.tile, pl.orientation), tuple(ring))


def missing_coronas(atlas: Atlas, patch: Patch) -> tuple[list, int]:
    """The sorted cells whose complete corona (as corona_of reads it) is not
    in the atlas, and the number of complete coronas in the patch.  Rows
    are joined from each label's character ("" if the table lacks it, which
    leaves the row short: missing), so no Corona is built."""
    chars = atlas._chars
    char = {cell: chars.get((pl.tile, pl.orientation), "")
            for cell, pl in patch.placements.items()}
    ring_cells = _ring_cells(patch.region)
    missing, complete = [], 0
    for cell in sorted(char):
        ring = ring_cells(cell)
        try:
            row = char[cell] + "".join(map(char.__getitem__, ring))
        except KeyError:  # a touching cell is unfilled
            continue
        complete += 1
        if len(row) <= len(ring) or row not in atlas.rows:
            missing.append(cell)
    return missing, complete


# ---------------------------------------------------------------------------
# Locally valid source coronas
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _corona_window(kind: ShapeKind):
    """The corona window's free region, its cells (centre first, then the
    ring in touching-offset order), an assignment order (most-constrained
    first) and its facet-sharing pairs from facet_pairs.

    Cells are shifted so the window fits the region with non-negative
    coordinates; the centre sits at the lattice point (1,1[,1]).
    """
    space = KIND_SPACE[kind]
    dim = space_dim(space)

    def shifted(c):  # a triangle's orientation bit is not a coordinate
        return tuple(x + 1 for x in c[:dim]) + tuple(c[dim:])

    center = shifted(origin_cell(kind))
    cells = (center, *(shifted(touching_cell(kind, origin_cell(kind), off))
                       for off in touching_offsets(kind)))
    region = RegionSpec(space, (3,) * dim, False)
    pairs = facet_pairs(region, cells)
    adj = {c: [] for c in cells}
    for i, _, j, _ in pairs:
        adj[cells[i]].append(cells[j])
        adj[cells[j]].append(cells[i])
    # assignment order: centre first, then repeatedly the cell with the most
    # already-ordered facet neighbours (ties: scan order) so constraints bind
    # as early as possible
    order = [center]
    placed = {center}
    rest = [c for c in cells if c != center]
    while rest:
        best = max(rest, key=lambda c: (sum(n in placed for n in adj[c]),
                                        [-x for x in c]))
        order.append(best)
        placed.add(best)
        rest.remove(best)
    return region, cells, tuple(order), pairs


def _window_check(ts: TileSet, kind: ShapeKind):
    """The corona window's check for `ts`: the window's cells (centre first,
    then the ring in touching-offset order), per cell the legal (tile, code)
    placements that placement_ok accepts there with the colours of the
    facets the window's pairs read there (in facet order), the window's
    facet-sharing pairs from facet_pairs, the pair walk of patch_valid, two
    getters that read the pairs' two colour sequences off the cells' read
    colours laid end to end, and the rule's test of two such sequences.

    It is compiled from the prototiles, not from the engine's candidate
    lists, once per set and kind, and kept on the set.
    """
    check = ts.window_checks.get(kind)
    if check is None:
        region, cells, _, pairs = _corona_window(kind)
        ident = identity_code(region.space)
        # the (cell index, facet) ends of the pairs in sorted order: each
        # cell's read colours laid end to end, each in facet order
        ends = sorted({(i, f) for i, f, _, _ in pairs}
                      | {(j, nf) for _, _, j, nf in pairs})
        slot = {end: k for k, end in enumerate(ends)}
        colours = []
        for c, cell in enumerate(cells):
            facets = [f for i, f in ends if i == c]
            table = {}
            for p in ts.prototiles:
                pl = Placement(cell, p.id, ident)
                if placement_ok(ts, region, pl) is None:
                    eff = effective_facets(ts, pl)
                    table[(p.id, ident)] = tuple(eff[f] for f in facets)
            colours.append(table)
        # a window has many pairs, so the getters return tuples
        left = itemgetter(*[slot[i, f] for i, f, _, _ in pairs])
        right = itemgetter(*[slot[j, nf] for _, _, j, nf in pairs])
        check = ts.window_checks[kind] = (cells, colours, pairs, left, right,
                                          rule_test(ts.rule))
    return check


def _window_fault(ts: TileSet, check, labels) -> str | None:
    """None when the window's (tile, code) labels, centre first, pass the
    compiled check; else what fails first."""
    cells, colours, pairs, left, right, test = check
    try:
        flat = list(chain.from_iterable(
            map(dict.__getitem__, colours, labels)))
    except KeyError as e:
        return (f"{e.args[0]} is no legal placement in "
                f"{list(zip(cells, labels))}")
    xs, ys = left(flat), right(flat)
    if test(xs, ys):
        return None
    # the first failing pair names the fault
    fault = next(pair_faults(ts.rule, cells, pairs, xs, ys))
    return f"{fault} in {list(zip(cells, labels))}"


def _corona_space(ts: TileSet) -> str:
    """The lattice of a set whose coronas can be enumerated."""
    if ts.allowed != "translations":
        raise FormatError("corona enumeration expects a translation-placed set")
    return ts.space


def _enumerate(ts: TileSet, node_cap: int, emit) -> None:
    """Pass every locally valid corona window of `ts` to emit, as its
    (tile, code) labels, centre first, once the window check has passed it."""
    nodes = 0
    for kind in SPACE_KINDS[_corona_space(ts)]:
        region, cells, order, _ = _corona_window(kind)
        check = _window_check(ts, kind)
        # search labels -> window labels
        pick = itemgetter(*[order.index(c) for c in cells])

        def admit(labels):
            window = pick(labels)
            fault = _window_fault(ts, check, window)
            if fault is not None:
                raise RuntimeError(
                    f"incremental checks admitted an invalid corona: {fault}")
            emit(window)

        _, _, spent, _, _ = region_search(ts, region, node_cap - nodes,
                                          each=admit, cells=order)
        nodes += spent  # node_cap + 1 once the cap is crossed
        if nodes > node_cap:
            raise BudgetExceeded(
                f"corona enumeration exceeded {node_cap} nodes")


def enumerate_source_coronas(ts: TileSet,
                             node_cap: int = DEFAULT_NODE_CAP) -> set:
    """All locally valid coronas of a translation-placed source set.

    `node_cap` bounds the nodes summed over the centre kinds.  Every complete
    assignment is re-verified by the set's window check before it is
    admitted: each label must be a placement that placement_ok accepts on
    its window cell, and every pair that facet_pairs lists for the window is
    tested against the rule on the facet colours read there.
    """
    out = set()
    _enumerate(ts, node_cap, lambda w: out.add(Corona(w[0], tuple(w[1:]))))
    return out


def derive_atlas(rs: ReducedSet, node_cap: int = DEFAULT_NODE_CAP) -> Atlas:
    """The reduced set's atlas: encodings of all locally valid source coronas.

    Each window the enumerator admits is packed at once, its source labels
    read through a map to the characters of the sorted encoded labels."""
    ident = identity_code(_corona_space(rs.source))
    index = _Interner()  # interned in sorted order, so nothing renumbers
    char = {(tid, ident): index[label]
            for tid, label in sorted(rs.forward.items(), key=itemgetter(1))}
    rows = []  # the search yields each window once
    _enumerate(rs.source, node_cap,
               lambda w: rows.append("".join(map(char.__getitem__, w))))
    return Atlas._packed(rs.name, list(index), rows)


# ---------------------------------------------------------------------------
# Membership, two routes
# ---------------------------------------------------------------------------

def corona_in_atlas_implicit(rs: ReducedSet, corona: Corona) -> bool:
    """Decide membership without the materialized atlas: decode every
    placement and run the source set's window check, as the enumerator's
    re-check does, over the corona window."""
    inverse = rs.inverse
    center = inverse.get(corona.center)
    if center is None:
        return False
    ts = rs.source
    kind = ts.by_id[center].kind
    if len(corona.ring) != len(touching_offsets(kind)):
        return False
    ident = identity_code(KIND_SPACE[kind])
    labels = [(center, ident)]
    labels += [(inverse.get(entry), ident) for entry in corona.ring]
    return _window_fault(ts, _window_check(ts, kind), labels) is None


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def serialize_atlas(atlas: Atlas) -> str:
    # every code is of the lattice of the first label's code
    lattice = atlas.labels and _lattice_of_code().get(atlas.labels[0][1])
    codes = space_codes(lattice[0]) if lattice else ()
    # a centre tile named ":" would read as the separator
    text = {ch: f"{_token(t, 'tile id', ':')} {_code(code, codes)}"
            for (t, code), ch in atlas._chars.items()}
    out = [f"atlas {_token(atlas.name, 'atlas name')}"]
    for row in sorted(atlas.rows):
        center, *ring = map(text.__getitem__, row)
        out.append(f"{center} : {' '.join(ring)}")
    out.append("")  # the final newline, joined in without a copy
    return "\n".join(out)


@lru_cache(maxsize=None)
def _lattice_of_code() -> dict:
    """Orientation code -> (lattice, ring length); the lattices' code sets
    are disjoint, so a code names its lattice."""
    return {code: (space, len(touching_offsets(SPACE_KINDS[space][0])))
            for space in SPACES for code in space_codes(space)}


def _first_line(text: str, toks: list) -> int:
    """The number of the first content line of `text` whose tokens are toks."""
    return next(ln for ln, t in _content_lines(text) if t == toks)


def parse_atlas(text: str, rs: ReducedSet | None = None) -> Atlas:
    """Read atlas text.  Every code must be one lattice's orientation code,
    all codes must come from the same lattice, every ring must have that
    lattice's touching count of entries, and no corona may be listed twice.
    Given the reduced set, every (tile, code) label must also be one of its
    encodings.

    Labels are interned in order of first use, and checked when first met;
    each line is packed as it is read.  The table is sorted, and the rows
    renumbered to it, at the end."""
    known = None if rs is None else rs.inverse
    lattice_of = _lattice_of_code()
    name = None
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
    rows = set()
    for ln, toks in _content_lines(text):
        if name is None:
            if toks[0] != "atlas" or len(toks) != 2:
                raise FormatError(f"line {ln}: expected atlas header")
            name = toks[1]
            continue
        if ":" not in toks or len(toks) < 3:
            raise FormatError(f"line {ln}: bad corona line")
        sep = toks.index(":")
        if sep != 2 or (len(toks) - 3) % 2 != 0:
            raise FormatError(f"line {ln}: bad corona line")
        row = "".join(map(index.__getitem__, [
            (toks[0], toks[1]), *zip(toks[3::2], toks[4::2])]))
        if len(row) - 1 != lattice[1]:
            raise FormatError(
                f"line {ln}: ring of {len(row) - 1} entries; {lattice[0]} "
                f"coronas have {lattice[1]}")
        n = len(rows)
        rows.add(row)
        if len(rows) == n:
            raise FormatError(f"line {ln}: repeats the corona of line "
                              f"{_first_line(text, toks)}")
    if name is None:
        raise FormatError("missing atlas header")
    if any(t == ":" for t, _ in index):  # a ring entry; writers refuse it
        raise FormatError("':' is no atlas tile id")
    return Atlas._packed(name, list(index), rows)
