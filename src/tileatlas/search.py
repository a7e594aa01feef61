"""The search engine shared by the region solver and the corona enumerator.

`region_search` is its one entry point: it reads each cell kind's candidate
list, (character, hue tuple), off the set's one compiled tile table,
`TileSet.table`, which `patch_valid` and the window checks read too, and
runs one explicit-stack depth-first search over the region's cells, so the
number of cells is not bounded by Python's recursion limit.  It tests the
rule by the table's test.  A solution is the cells' characters: the first
is returned in sorted cell order, which the solver joins into a packed
patch, and the corona enumerator joins each into a row.  Every
facet-sharing pair of listed cells that `facet_pairs` lists (torus wrap
pairs included) is checked exactly once, when the later cell of the pair
is placed; neighbours outside the list are unconstrained.
The engine re-checks nothing it finds; its callers do.

What depends only on the region and its listed cells is compiled once into
a plan, kept for the last 16 regions as `facet_pairs` keeps its pairs: the
cells' kinds, checks and key getters, the record skeleton below, colour
slots and the cells' sorted order.  Searches that repeat a region, such as
the seeded patches of `tileatlas roundtrip --count`, build it once; only a
region's first search pays for it.  Candidate tables, colour indexes, the
memo and stack are per search.

Each cell keeps a colour index: a memo from the colours its earlier
neighbours show on the checked facets to the candidates that match them all.
A miss fills it by filtering the cell's candidate list with the table's
test of each candidate's hue tuple on those facets against the key;
extent-1 wraps, where a candidate meets itself, are filtered once up front
by the same test.
Cells with the same candidate list and the same checked facets share one
memo; without a seed, the cells of one kind have the same list.  With one,
shuffling each cell's positions draws what shuffling its list would, and
cells of one kind whose orders come out equal share a list: triangles6's
800-cell torus has at most 12 (two kinds, 3! orders of three candidates).

A node is a candidate tried in list order.  The index skips candidates that
the earlier neighbours rule out, but each still counts as a node, as if it
had been tried and rejected, so node counts and the node limit do not depend
on the index.  A survivor list is a list of steps, one per survivor: the
nodes it charges, its skipped predecessors and itself, with its label and
colours; a last step charges the candidates after the last survivor and
ends the list.  Each loop step charges one step of the current cell and then
places its survivor, or goes back.  Before it enters the next cell it looks
that cell's survivors up: a cell without survivors is charged its whole list
there and is not entered, nor is a record cell whose memo holds its walk.

Below cell i the search depends only on i's frontier: the colours of earlier
cells that cells from i on check.  Cells whose frontier is narrower than the
next cell's are record cells: on a 7x7 square region cells 0-5, 7, 14, 21,
28 and 35, every cell of the first row but its last and each later row start
but the last row's; triangle and cube regions have them too (16 of the 32
cells of a 4x4 triangle torus).  The cells from one record cell to the next
form a segment (after the first row, a row of a square region).  Each record
cell keeps one memo, grouped by reach, the last cell of a segment: what a
walk from the cell stored at a reach depends only on the frontier colours
that cells up to that reach check, so it is keyed on those alone.  Reaches
whose cells check the same frontier slots share one group, under the
narrowest of them, the last cell to check one of those slots; so a lookup
computes each distinct key once, and a hit passes that narrowest reach on,
which reads the same slots for every enclosing record cell too.  A
solution-free subtree stores the nodes it charged at its reach: the end of
the deepest segment it entered, a record cell charged without survivors
counting as entered, and counting the reaches of the entries it was charged
from.  On a torus only the last row reads row 0's bottom colours, so
a subtree that dies before it is searched under one row 0 and charged under
the others.  A subtree with solutions below it is not recorded.  A lookup
tries each group narrowest first, and a hit is charged again (`replayed`),
at most up to the limit, instead of searched.  One search's memo holds at
most MEMO_SIZE entries, and the entry that would pass that clears them all
first.  Every count, limit, solution and `each` call is the plain
depth-first search's.

So solution subtrees are searched again, not replayed: on a 2-core machine
cubes21's c2 derive takes 4-7 s, and the free wang13 8x4 count 1.3-2.0 s at
an 18 MB peak.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from .geometry import FACET_COUNT, SPACE_KINDS, cell_kind
from .tileset import (
    FormatError,
    RegionSpec,
    TileSet,
    facet_pairs,
    region_cells,
)

FOUND = "found"
EXHAUSTED = "exhausted"
LIMIT = "limit"

# entries one search's memo holds before they are all cleared
MEMO_SIZE = 1 << 16


def region_search(ts: TileSet, region: RegionSpec, limit=None, seed=None,
                  each=None, cells=None):
    """Search the region's cells (all of them, in scan order, unless `cells`
    lists them) for placements of `ts` under its facet rule.

    A solution's labels are the characters of `ts.table`, one per cell.
    With a seed, each cell's candidate list is shuffled up front, so the
    first solution is a reproducible pseudo-random one.  `limit` bounds the
    nodes; `each` is as in `_search`, whose result this returns, with the
    first solution's labels put in sorted cell order.  A region off the
    set's lattice, or a limit that is not None or a node count, is refused,
    not searched.
    """
    if limit is not None:
        check_count(limit, "node limit")
    if region.space != ts.space:
        raise FormatError(f"{ts.name} is a {ts.space} set; the region is "
                          f"on {region.space}")
    plan = _plan(region, None if cells is None else tuple(cells))
    # kind -> (character, hue tuple), one list shared by its cells
    per_kind = {kind: list(hues.items())
                for kind, hues in ts.table.hues.items()}
    if seed is None:
        per_cell = [per_kind[kind] for kind in plan.kinds]
    else:
        # shuffling a cell's positions draws what shuffling its list would;
        # the cells of one kind whose orders come out equal share one list
        shuffle = random.Random(seed).shuffle
        orders, per_cell = {}, []
        for kind in plan.kinds:
            order = list(range(len(per_kind[kind])))
            shuffle(order)
            key = (kind, *order)
            lst = orders.get(key)
            if lst is None:
                lst = orders[key] = [per_kind[kind][p] for p in order]
            per_cell.append(lst)
    status, first, *counts = _search(per_cell, plan, ts.table.test, limit,
                                     each)
    if first is not None:
        first = list(map(first.__getitem__, plan.order))
    return status, first, *counts


def check_count(value, what):
    """Refuse `value` unless it is a non-negative int (a bool is not)."""
    if value.__class__ is bool or not isinstance(value, int) or value < 0:
        raise FormatError(f"{what} must be a non-negative integer, not "
                          f"{value!r}")


def _schedule(region: RegionSpec, cells):
    """(order, checks): order[k] is the index of the k-th cell in sorted
    order, and checks[i] = (facet, neighbour facet, earlier cell index)
    triples, in facet order: each facet_pairs quad goes to the later of its
    two cells.  The pairs are walked over the sorted cells, so the one sort
    also puts a found solution in sorted cell order (_Plan.order)."""
    order = sorted(range(len(cells)), key=cells.__getitem__)
    checks = [[] for _ in cells]
    for a, f, b, nf in facet_pairs(region, tuple([cells[k] for k in order])):
        i, j = order[a], order[b]
        if i < j:
            i, j, f, nf = j, i, nf, f
        checks[i].append((f, nf, j))
    return order, [sorted(cs) for cs in checks]


# what a search needs of its region and cells alone; see _plan
_Plan = namedtuple("_Plan",
                   "kinds shapes sigs keys width last records tail at order")


@lru_cache(maxsize=16)
def _plan(region: RegionSpec, cells):
    """The search plan of the region's cells (all of them, in scan order, if
    `cells` is None), read off their check schedule: per cell its kind, the
    index in `sigs` of its (own-wrap checks, earlier facets) and its key
    getter; `width`; _records' skeleton; per cell its colour slots; the
    cells' sorted order.  Nothing of a tile set or a search.  The last 16
    plans are kept."""
    if cells is None:
        cells = region_cells(region)
    order, checks = _schedule(region, cells)
    # the kinds of one lattice all have the same facet count
    width = max(FACET_COUNT[kind] for kind in SPACE_KINDS[region.space])
    sigs, shapes, keys = {}, [], []
    for i, cs in enumerate(checks):
        own = tuple([(f, nf) for f, nf, j in cs if j == i])
        earlier = [(f, nf, j) for f, nf, j in cs if j != i]
        sig = (own, tuple([f for f, _, _ in earlier]))
        shapes.append(sigs.setdefault(sig, len(sigs)))
        keys.append(_getter([j * width + nf for _, nf, j in earlier]))
    last, records, tail = _records(checks, width)
    return _Plan([cell_kind(region.space, c) for c in cells], shapes,
                 list(sigs), keys, width, last, records, tail,
                 [slice(i * width, (i + 1) * width) for i in range(len(cells))],
                 order)


def _getter(idx):
    """itemgetter over idx that always returns a tuple, the memo key."""
    if len(idx) == 1:
        get = itemgetter(idx[0])
        return lambda seq: (get(seq),)
    return itemgetter(*idx) if idx else (lambda seq: ())


def _records(checks, width):
    """The last cell that checks each facet slot (cell * width + facet; -1
    if none does); per cell whether its frontier is narrower than the next
    cell's, a record cell; and per cell the last cell of its segment, the
    cells before the next record cell."""
    n = len(checks)
    last = [-1] * (n * width)
    for i, cs in enumerate(checks):
        for _, nf, j in cs:
            if j != i:
                last[j * width + nf] = i
    grow = [0] * n  # frontier width at cell i + 1 minus at cell i
    for s, i in enumerate(last):
        if i >= 0:
            grow[s // width] += 1
            grow[i] -= 1
    records = [g > 0 for g in grow]
    tail = [n - 1] * n
    for i in range(n - 1, 0, -1):
        tail[i - 1] = i - 1 if records[i] else tail[i]
    return last, records, tail


def _search(per_cell, plan, test, limit, each=None):
    """Depth-first search over the cells with an explicit stack.

    `per_cell[i]` lists cell i's candidates as (label, facet colours), the
    label opaque to the search; `plan` is the cells' _plan, and `test` the
    rule's test of two equal-length sequences of colours.  Without `each`
    the search stops at the first solution; with it, `each(labels)` is
    called on every solution (a list of the cells' labels that the search
    goes on to change) and the search runs to exhaustion; a count the limit
    cuts ends in LIMIT, its first solution kept.  Returns (status, first
    solution's labels or None, nodes, solutions seen, nodes replayed).

    Each loop step charges the current cell's next step and places its
    survivor, or goes back; the next cell is entered only if it has
    survivors and no record holds its walk, and is charged otherwise.
    """
    n = len(per_cell)
    getter = lru_cache(None)(_getter)  # one getter per facet tuple
    # (candidate list, signature) -> the list, the positions on it that pass
    # the own checks (extent-1 wraps: the candidate meets itself, whatever is
    # around), the getter of a candidate's colours on the facets that the
    # key's colours face, in the key's order, and the memo
    sig_at = list(zip(map(id, per_cell), plan.shapes))
    tables = {}
    for sig, lst in dict(zip(sig_at, per_cell)).items():
        own, facets = plan.sigs[sig[1]]
        ok = range(len(lst))
        if own:
            mine, theirs = map(getter, zip(*own))
            ok = [p for p in ok if test(mine(lst[p][1]), theirs(lst[p][1]))]
        tables[sig] = (lst, ok, getter(facets), {})
    table = list(map(tables.__getitem__, sig_at))
    memos = [got[3] for got in table]
    keys, width, last, tail, at = (
        plan.keys, plan.width, plan.last, plan.tail, plan.at)

    def survivors(i, key):
        # cell i's steps under `key`, as the module docstring describes them
        lst, ok, proj, _ = table[i]
        steps, done = [], 0
        for p in ok:
            label, e = lst[p]
            if test(proj(e), key):
                steps.append((p + 1 - done, label, e))
                done = p + 1
        steps.append((len(lst) - done, None, None))
        return steps

    # per record cell an empty memo: reach -> frontier getter and entries
    records = [{} if r else None for r in plan.records]
    size = 0  # entries the memo holds, at most MEMO_SIZE
    # the reach of the subtree being searched, and per record cell, when it
    # was entered, the reach of the one around it and the nodes and
    # solutions counted
    deep, entered = 0, [None] * n
    # (record cell, reach) -> the group of the narrowest reach whose cells
    # check the same frontier slots
    groups = {}

    if limit is None:  # more nodes than the whole tree holds
        limit = (max(map(len, per_cell)) + 1) ** n
    colours = [None] * (n * width)  # cell i's facets at i * width
    labels = [None] * n
    # per entered cell but the current one: its survivors and the next one
    # to try
    stack = []
    # the current cell: its survivors under the colours of its earlier
    # neighbours and the next one to try; cell 0 has no earlier cells
    i, surv, k = 0, survivors(0, ()), 0
    nodes = count = replayed = 0
    first = None
    while True:
        charge, label, e = surv[k]
        k += 1
        nodes += charge
        if nodes > limit:
            break
        if e is None:
            # the list is spent: back to the earlier cell
            if i == 0:
                break
            h = i
            i -= 1
            surv, k = stack.pop()
            record = records[h]
            if record is not None:
                around, before, seen = entered[h]
                reach, deep = deep, max(deep, around)
                stored = nodes - before
                if seen != count or stored <= len(per_cell[h]):
                    # solutions below are searched again; a subtree that
                    # never left its start costs no more to search than to
                    # look up: neither is recorded
                    continue
                got = groups.get((h, reach))
                if got is None:
                    slots = [s for s, c in enumerate(last)
                             if s // width < h <= c <= reach]
                    got = groups[h, reach] = record.setdefault(
                        max([h, *map(last.__getitem__, slots)]),
                        (_getter(slots), {}))
                    records[h] = record = dict(sorted(record.items()))
                front, entries = got
                key = front(colours)
                if key not in entries:
                    if size == MEMO_SIZE:
                        for cell in filter(None, records):
                            for _, held in cell.values():
                                held.clear()
                        size = 0
                    size += 1
                entries[key] = stored
            continue
        colours[at[i]] = e
        labels[i] = label
        if i == n - 1:
            count += 1
            if first is None:
                first = list(labels)
            if each is None:
                return FOUND, first, nodes, count, replayed
            each(labels)
            continue
        j = i + 1
        key = keys[j](colours)
        nxt = memos[j].get(key)
        if nxt is None:
            nxt = memos[j][key] = survivors(j, key)
        record = records[j]
        if nxt[0][2] is None:
            # no survivors: j is charged its whole list, as if entered and
            # left, and a record cell's walk reaches its segment's end; a
            # charge that crosses the limit ends the search at the next step
            nodes += nxt[0][0]
            if record is not None:
                deep = max(deep, tail[j])
            continue
        if record is not None:
            got = None
            for reach, (front, entries) in record.items():
                got = entries.get(front(colours))
                if got is not None:
                    break
            if got is not None:
                # charged up to the limit at most, and a hit reaches as
                # far as its record
                charge = min(got, limit + 1 - nodes)
                nodes += charge
                replayed += charge
                deep = max(deep, reach)
                continue
            # a walk from j reaches its segment's end
            entered[j] = deep, nodes, count
            deep = tail[j]
        stack.append((surv, k))
        i, surv, k = j, nxt, 0
    if nodes > limit:  # LIMIT even with solutions seen: the count is cut
        return LIMIT, first, limit + 1, count, replayed
    return (EXHAUSTED if first is None else FOUND), first, nodes, count, replayed
