"""The corona window of each cell kind and the checks that read it with
a source set's tile table: what the atlas enumerator re-checks its rows
with, and what the implicit membership route reads.

A window is packed as a row, one character per cell: the character that the
set's one tile table, `TileSet.table`, gives the cell's (tile, code) label.
The engine, which yields those characters, and both routes of `patch_valid`
read the same table.  What depends only on the window, its cells' kind
string and the positions of the pairs that `facet_pairs` lists for it (the
pair list of `patch_valid`'s walk, which the tests check against an oracle
of coinciding facet midpoints), is kept with the window.

The implicit route packs the decoded corona and translates the row once
to kinds, which must be the window's, and once per facet to hues, and
tests the pairs' two hue sequences at once by the table's test.  The
enumerator, one `region_search` per centre kind over the corona window
(in scan order; a node is a candidate tried at any window cell), reads its
rows the same way a few thousand at a time: their joined text is
translated once to kinds and once per facet, and each pair's two columns,
slices of those hue strings, are tested by the rule once.  A batch
passes exactly when every row would.  The check only decides: a batch it
refuses, which only a faulty engine yields, is named by `patch_valid` on
each row's window in turn.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .box import TileTable
from .geometry import (
    KIND_SPACE,
    SPACE_KINDS,
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


class Window(NamedTuple):
    """A corona window; see _corona_window."""

    region: RegionSpec
    cells: tuple  # centre first, then the ring in touching-offset order
    order: tuple  # the cells in the region's scan order
    pairs: tuple  # facet_pairs of the cells
    kinds: str  # per cell, chr(k) for its kind's index k
    # the pairs' two ends, read off the row's hue strings joined
    xs: Callable
    ys: Callable


@lru_cache(maxsize=None)
def _corona_window(kind: ShapeKind) -> Window:
    """The corona window's free region, its cells (centre first, then the
    ring), the order the search assigns them in, the region's scan order,
    their facet-sharing pairs (facet_pairs), the cells' kind string, and
    per pair end (i, facet f) a getter of position f * len(cells) + i.

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
    pairs, n = facet_pairs(region, cells), len(cells)
    return Window(
        region, cells, order, pairs,
        "".join([chr(SPACE_KINDS[space].index(cell_kind(space, c)))
                 for c in cells]),
        itemgetter(*[f * n + i for i, f, _, _ in pairs]),
        itemgetter(*[nf * n + j for _, _, j, nf in pairs]))


def _row_ok(table: TileTable, window: Window, row: str) -> bool:
    """Whether the window packed as `row`, one character of `table` per
    cell, is legal on every cell and meets the rule on every pair."""
    if row.translate(table.kinds) != window.kinds:
        return False
    hues = "".join([row.translate(t) for t in table.colours])
    return table.test(window.xs(hues), window.ys(hues))


def _rows_ok(table: TileTable, window: Window, rows) -> bool:
    """Whether every row passes _row_ok, read a column at a time: each
    cell's column is every n-th character of the joined rows."""
    joined, n = "".join(rows), len(window.cells)
    if joined.translate(table.kinds) != window.kinds * len(rows):
        return False
    hues = [joined.translate(t) for t in table.colours]
    return all(table.test(hues[f][i::n], hues[nf][j::n])
               for i, f, j, nf in window.pairs)


def _refusal(ts: TileSet, kind: ShapeKind, labels, rows, first: int) -> str:
    """Why the window check refuses `rows`, the `kind` centre's windows
    `first` on, packed with chr(k) for labels[k]: patch_valid's first
    violation on the first row it refuses, with that row's labels."""
    region, cells = _corona_window(kind)[:2]
    for row in rows:
        window = [labels[ord(ch)] for ch in row]
        ok, faults = patch_valid(ts, Patch(ts.name, region, {
            c: Placement(c, t, code) for c, (t, code) in zip(cells, window)}))
        if not ok:
            return f"{faults[0]} in {window}"
    return (f"the window check refuses {kind.name} windows {first} to "
            f"{first + len(rows) - 1}, which patch_valid accepts")
