"""The corona window of each cell kind and its check, compiled per source
set: what the atlas enumerator re-checks its rows with, and what the
implicit membership route reads.

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
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from typing import NamedTuple

from .box import hue_test, hues
from .geometry import (
    KIND_SPACE,
    ShapeKind,
    cell_kind,
    origin_cell,
    space_dim,
    touching_cell,
    touching_offsets,
)
from .tileset import (
    Patch,
    Placement,
    RegionSpec,
    TileSet,
    facet_pairs,
    patch_valid,
    region_cells,
)


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
