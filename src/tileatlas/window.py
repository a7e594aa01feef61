"""The corona window of each cell kind, and the one check of the paper's
rule on it: whether a window filled with source labels is legal.

A window is packed as a row, one character per cell of the set's tile
table (`TileSet.table`), centre first.  What depends only on the window,
its cells' kind string and its facet-sharing pairs (`facet_pairs`), is
kept with it.  `_rows_ok` reads any number of rows at once: their joined
text is translated once to kinds, which must be the window's, and once per
facet to hues, and each pair's two columns, slices of those hue strings,
are tested by the rule once.  The atlas enumerator re-checks its rows with
it a few thousand at a time, and the implicit membership route one row at
a time.  It only decides: a batch it refuses, which only a faulty engine
yields, is named by `patch_valid` on each row's window in turn
(`_refusal`).
"""

from __future__ import annotations

from functools import lru_cache
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


@lru_cache(maxsize=None)
def _corona_window(kind: ShapeKind) -> Window:
    """The corona window's free region, its cells (centre first, then the
    ring), the order the search assigns them in, the region's scan order,
    their facet-sharing pairs (facet_pairs) and the cells' kind string.

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
    return Window(
        region, cells, order, facet_pairs(region, cells),
        "".join([chr(SPACE_KINDS[space].index(cell_kind(space, c)))
                 for c in cells]))


def _rows_ok(table: TileTable, window: Window, rows) -> bool:
    """Whether every one of `rows`, the window packed one character of
    `table` per cell, is legal on every cell and meets the rule on every
    pair, read a column at a time: each cell's column is every n-th
    character of the joined rows."""
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
