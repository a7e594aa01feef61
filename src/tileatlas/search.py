"""The search engine shared by the region solver and the corona enumerator.

`region_search` is its one entry point: it reads each cell kind's candidate
list, (character, hue tuple), off the set's one compiled tile table,
`TileSet.table`, which `patch_valid` and the window checks read too, and
runs one explicit-stack depth-first search over the region's cells, so the
number of cells is not bounded by Python's recursion limit.  It tests the
rule by the table's test.  A solution is the cells' characters: the first
is returned in sorted cell order, which the solver joins into a packed
patch, and the corona enumerator gets each joined into a row in search
order.  Every facet-sharing pair of listed cells that `facet_pairs` lists
(torus wrap pairs included) is checked exactly once, when the later cell of
the pair is placed; neighbours outside the list are unconstrained.  The
engine re-checks nothing it finds; its callers do.

What depends only on the region and its listed cells is compiled once into
a plan, kept for the last 16 regions: the cells' kinds, checks and key
getters, the record skeleton and structure below, colour slots and the
cells' sorted order.  Searches that repeat a region, such as the seeded patches of
`tileatlas roundtrip --count`, build it once; only a region's first search
pays for it.  Candidate tables, colour indexes, the memo and stack are per
search.

Each cell keeps a colour index: a memo from the colours its earlier
neighbours show on the checked facets to the candidates that match them all.
The rule's test works facet by facet, so a search keeps, per cell kind and
facet, a map from a neighbour's hue to a bitmask of the candidates whose
hue there passes the test against it, made by the test when the hue is
first met; a candidate's bit is its label's code point.  A miss ANDs the
masks of its key's hues with its list's own mask, the candidates that pass
the extent-1 wraps where a candidate meets itself, and walks the set bits
to their positions on the list, without calling the test per candidate.  A
list's own mask and positions are made at its first miss: a seeded search
gives each cell its own list, and sets up only those it reaches.
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
A step forward reads one record of its cell: the cell's colour slots and the
next cell's key getter, colour index and offered classes.  Each depth keeps
its survivor list and, below the current one, its next position, so a step
builds no tuple to push or pop.

Below cell i the search depends only on i's frontier: the colours of earlier
cells that cells from i on check.  Cells whose frontier is narrower than the
next cell's are record cells: on a 7x7 square region cells 0-5, 7, 14, 21,
28 and 35, every cell of the first row but its last and each later row start
but the last row's; triangle and cube regions have them too (16 of the 32
cells of a 4x4 triangle torus).  The cells from one record cell to the next
form a segment (after the first row, a row of a square region).  A
solution-free subtree stores the nodes it charged under its class, the
structure of its cells from its record cell to its reach: per cell one
character of `struct`, for its kind and earlier checks relative to it.  The
reach is the end of the deepest segment it entered, a record cell charged
without survivors counting as entered, and counting the reaches of the
entries it was charged from.  No cell after the reach was charged, and the
count is keyed on the colours of the earlier slots that its cells check; it
does not depend on candidate order, as seeded lists hold the same
candidates.  So a class answers at every record cell where its structure
starts: on a torus the rows below a row start are searched once wherever
their colours come back, below any row start, and as only the last row
reads row 0's bottom colours, a subtree that dies before it is searched
under one row 0 and charged under the others.  When a class is first
named, it is offered to every record cell where `struct` holds it, found
by `str.find`; a lookup tries the classes offered at its record cell,
narrowest first.

A subtree with solutions is one more class, the structure of its cells
from its record cell to the last cell, and its entry, keyed the same way
on its record cell's frontier, holds the nodes charged and the solutions
counted before and after: a counting search adds them, and an
enumeration appends again the rows that the subtree appended, in order,
each with the labels of the cells before the record cell in place of its
own.  Its rows hold its own cells' labels, and a shift of its class ends
short of the last cell, so it answers only where its class ends at the
last cell, at its own record cell: on the cube corona window, cells 9
and 18 are record cells that start layers alike, so a class from 18 is
offered at 9 too.  A subtree with one solution is not stored: it seldom
pays for its key (none of the 429 on the triangles6 12x12 torus is met
again).

A hit is charged again (`replayed`) instead of searched.  A solution-free
hit reaches its class's last cell and is charged up to the limit at most.
A subtree with solutions that would cross the limit is searched, so that
the count it cuts is exact; the walks around one that is replayed saw
solutions, so their reach is not read.  Which shift of a class is searched
first, and so `replayed`, depends on the candidate order; nodes do not.
One search's memo holds at most MEMO_SIZE entries in all, and the entry
that would pass that clears them all first.  Every count, limit, solution
and row, in order, is the plain depth-first search's.  On a 2-core machine
(Python 3.11) cubes21's c2 derive takes about 1.05 s, the free wang13 8x4
count about 0.2 s, and the benchmark's torus-exhaust op (wang13 k <= 7,
cubes21 k <= 3, triangles6 12x12 counted) about 31-32 ms.
"""

from __future__ import annotations

import random
from bisect import insort
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
# what region_search's `rows` is to count every solution and keep none
COUNT = ()

# entries one search's memo holds before they are all cleared
MEMO_SIZE = 1 << 16


def region_search(ts: TileSet, region: RegionSpec, limit=None, seed=None,
                  rows=None, cells=None):
    """Search the region's cells (all of them, in scan order, unless `cells`
    lists them) for placements of `ts` under its facet rule.

    A solution's labels are the characters of `ts.table`, one per cell.
    With a seed, each cell's candidate list is shuffled up front, so the
    first solution is a reproducible pseudo-random one.  `limit` bounds the
    nodes; `rows` is as in `_search`, whose result this returns, with the
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
        spans = {kind: range(len(lst)) for kind, lst in per_kind.items()}
        for kind in plan.kinds:
            order = [*spans[kind]]
            shuffle(order)
            key = (kind, *order)
            lst = orders.get(key)
            if lst is None:
                lst = orders[key] = [per_kind[kind][p] for p in order]
            per_cell.append(lst)
    status, first, *counts = _search(per_cell, plan, ts.table.test, limit,
                                     rows)
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
                   "kinds shapes sigs keys width records tail at order struct")


@lru_cache(maxsize=16)
def _plan(region: RegionSpec, cells):
    """The search plan of the region's cells (all of them, in scan order, if
    `cells` is None), read off their check schedule: per cell its kind, the
    index in `sigs` of its (own-wrap checks, earlier facets) and its key
    getter; `width`; _records' skeleton; per cell its colour slots; the
    cells' sorted order; and `struct`, one character per cell that stands
    for its kind and earlier checks as (facet, neighbour facet, earlier
    index - cell index).  Own-wrap checks need no place there: a cell meets
    itself only across a torus axis of extent 1, and then every listed cell
    of its kind does, on the same facets.  The kind does: listed out of
    scan order, an up and a down triangle can check alike.  Nothing of a
    tile set or a search.  The last 16 plans are kept."""
    if cells is None:
        cells = region_cells(region)
    order, checks = _schedule(region, cells)
    kinds = [cell_kind(region.space, c) for c in cells]
    # the kinds of one lattice all have the same facet count
    width = max(FACET_COUNT[kind] for kind in SPACE_KINDS[region.space])
    sigs, shapes, keys, codes, struct = {}, [], [], {}, []
    for i, cs in enumerate(checks):
        own = tuple([(f, nf) for f, nf, j in cs if j == i])
        earlier = [(f, nf, j) for f, nf, j in cs if j != i]
        sig = (own, tuple([f for f, _, _ in earlier]))
        shapes.append(sigs.setdefault(sig, len(sigs)))
        keys.append(_getter([j * width + nf for _, nf, j in earlier]))
        code = (kinds[i], *[(f, nf, j - i) for f, nf, j in earlier])
        struct.append(chr(codes.setdefault(code, len(codes))))
    records, tail = _records(checks)
    return _Plan(kinds, shapes, list(sigs), keys, width, records, tail,
                 [slice(i * width, (i + 1) * width) for i in range(len(cells))],
                 order, "".join(struct))


def _getter(idx):
    """itemgetter over idx that always returns a tuple, the memo key."""
    if len(idx) == 1:
        get = itemgetter(idx[0])
        return lambda seq: (get(seq),)
    return itemgetter(*idx) if idx else (lambda seq: ())


def _records(checks):
    """Per cell whether its frontier is narrower than the next cell's, a
    record cell, and per cell the last cell of its segment, the cells
    before the next record cell.  A facet meets one other facet, so each
    earlier check reads a frontier slot of its own."""
    n = len(checks)
    grow = [0] * n  # frontier width at cell i + 1 minus at cell i
    for i, cs in enumerate(checks):
        for _, _, j in cs:
            if j != i:
                grow[j] += 1
                grow[i] -= 1
    records = [g > 0 for g in grow]
    tail = [n - 1] * n
    for i in range(n - 1, 0, -1):
        tail[i - 1] = i - 1 if records[i] else tail[i]
    return records, tail


def _search(per_cell, plan, test, limit, rows=None):
    """Depth-first search over the cells with an explicit stack.

    `per_cell[i]` lists cell i's candidates as (label, facet colours), the
    label a character, and the cells of one kind list the same candidates,
    in any order; `plan` is the cells' _plan, and `test` the rule's test of
    two equal-length sequences of colours, facet by facet.  Without `rows`
    the search stops at the first solution.  With it, it runs to
    exhaustion, a count the limit cuts ending in LIMIT with its first
    solution kept, and `rows` is COUNT, to count the solutions, or a list,
    to which each solution's labels are appended, joined in cell order.
    Returns (status, first solution's labels or None, nodes, solutions
    seen, nodes replayed).

    Each loop step charges the current cell's next step and places its
    survivor, reading the cell's record, or goes back; the next cell is
    entered only if it has survivors and no memo entry holds its walk, and
    is charged otherwise.
    """
    n = len(per_cell)
    # per cell its (candidate list, signature), whose colour index it shares
    sig_at = list(zip(map(id, per_cell), plan.shapes))
    lists = dict(zip(sig_at, per_cell))
    index = {sig: {} for sig in lists}
    # per candidate list, made at its first miss: a candidate's bit, 1 << its
    # label's code point, -> its position
    places = {}
    # per (candidate list, signature), made at its first miss: the list, the
    # bits of its candidates that pass its own checks (extent-1 wraps: the
    # candidate meets itself, whatever is around), its positions, the facets
    # that the key's colours face, in the key's order, and their masks
    made = {}
    # cell kind -> per facet, hue -> the bits of the kind's candidates whose
    # hue on the facet passes the rule's test against it, made when met
    passing = {}

    def survivors(i, key):
        # cell i's steps under `key`, as the module docstring describes them
        got = made.get(sig_at[i])
        if got is None:
            lst, (own, facets) = per_cell[i], plan.sigs[plan.shapes[i]]
            pos = places.get(id(lst))
            if pos is None:
                pos = places[id(lst)] = {1 << ord(label): p
                                         for p, (label, _) in enumerate(lst)}
            bits = sum(pos)
            if own:
                bits = sum([bit for bit, p in pos.items()
                            if test([lst[p][1][f] for f, _ in own],
                                    [lst[p][1][nf] for _, nf in own])])
            per_facet = passing.get(plan.kinds[i])
            if per_facet is None:
                per_facet = passing[plan.kinds[i]] = [{} for _ in range(width)]
            got = made[sig_at[i]] = (lst, bits, pos, facets,
                                     [per_facet[f] for f in facets])
        lst, bits, pos, facets, masks = got
        for f, known, hue in zip(facets, masks, key):
            mask = known.get(hue)
            if mask is None:
                # the cells of one kind have the same candidates, and a test
                # of one facet decides each candidate's bit
                mask = known[hue] = sum([1 << ord(label) for label, e in lst
                                         if test((e[f],), (hue,))])
            bits &= mask
        found = []  # the survivors, by their set bits, then in list order
        while bits:
            low = bits & -bits
            found.append(pos[low])
            bits ^= low
        found.sort()
        steps, done = [], 0
        for p in found:
            label, e = lst[p]
            steps.append((p + 1 - done, label, e))
            done = p + 1
        steps.append((len(lst) - done, None, None))
        return steps

    # the classes stored: a record cell's walk is stored under the structure
    # of the cells it covers, the class, so it answers wherever that
    # structure starts; per class its entries, key -> nodes, or, for a walk
    # that saw solutions, (nodes, solutions seen before, after), the
    # solutions being rows[base + before:base + after] when kept
    classes = {}
    size = 0  # entries the memo holds, at most MEMO_SIZE
    # per record cell the classes offered there, narrowest first: (last
    # cell, entries, key getter)
    views = [[] if r else None for r in plan.records]
    keys, width, tail = plan.keys, plan.width, plan.tail
    # per cell its record: its colour slots, and the next cell's key getter,
    # colour index and offered classes; the last cell has no next one
    cell = list(zip(plan.at, keys[1:], map(index.__getitem__, sig_at[1:]),
                    views[1:]))
    cell.append((plan.at[-1], None, None, None))
    # the reach of the subtree being searched, and per record cell, when it
    # was entered, the reach of the one around it and the nodes and
    # solutions counted
    deep, entered = 0, [None] * n
    struct, slots, last = plan.struct, range(n * width), n - 1
    keep = isinstance(rows, list)
    base = len(rows) if keep else 0

    if limit is None:  # more nodes than the whole tree holds
        limit = (max(map(len, lists.values())) + 1) ** n
    colours = [None] * (n * width)  # cell i's facets at i * width
    labels = [None] * n
    # the current cell: its survivors under the colours of its earlier
    # neighbours and the next one to try; cell 0 has no earlier cells
    i, surv, k = 0, survivors(0, ()), 0
    # per depth entered its survivors, and per depth entered but the current
    # one the next one to try there
    survs, stack = [surv] * n, [0] * n
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
            surv, k = survs[i], stack[i]
            if views[h] is not None:
                around, before, seen = entered[h]
                reach = deep
                if around > deep:
                    deep = around
                stored = nodes - before
                if stored <= len(per_cell[h]) or count - seen == 1:
                    # a subtree that never left its start costs no more to
                    # search than to look up, and one with one solution is
                    # seldom met again: neither is recorded
                    continue
                if seen == count:
                    name = struct[h:reach + 1]
                else:
                    # it reaches the last cell, which a shift would not
                    name = struct[h:]
                    stored = stored, seen, count
                entries = classes.get(name)
                if entries is None:
                    # offered at every record cell where it starts; a key
                    # getter read on `slots` returns the slots it reads
                    entries = classes[name] = {}
                    reads = sorted([s - h * width
                                    for c in range(h, h + len(name))
                                    for s in keys[c](slots) if s < h * width])
                    j = struct.find(name)
                    while j >= 0:
                        if views[j] is not None:
                            insort(views[j], (j + len(name) - 1, entries,
                                              _getter([j * width + s
                                                       for s in reads])),
                                   key=itemgetter(0))
                        j = struct.find(name, j + 1)
                for _, mine, front in views[h]:
                    if mine is entries:
                        break
                key = front(colours)
                if key not in entries:
                    if size == MEMO_SIZE:
                        for dropped in classes.values():
                            dropped.clear()
                        size = 0
                    size += 1
                entries[key] = stored
            continue
        at, keyed, memo, view = cell[i]
        colours[at] = e
        labels[i] = label
        if keyed is None:
            # the last cell: a solution
            count += 1
            if first is None:
                first = list(labels)
                if rows is None:
                    return FOUND, first, nodes, count, replayed
            if keep:
                rows.append("".join(labels))
            continue
        j = i + 1
        key = keyed(colours)
        nxt = memo.get(key)
        if nxt is None:
            nxt = memo[key] = survivors(j, key)
        if nxt[0][2] is None:
            # no survivors: j is charged its whole list, as if entered and
            # left, and a record cell's walk reaches its segment's end; a
            # charge that crosses the limit ends the search at the next step
            nodes += nxt[0][0]
            # (here and below a comparison, not max(): this is the loop's
            # hot path, and a builtin call costs more)
            if view is not None and tail[j] > deep:
                deep = tail[j]
            continue
        if view is not None:
            # the classes offered at j, narrowest first: a walk that saw
            # solutions answers only at its own record cell, and is searched
            # if it would cross the limit, so that the count it cuts is exact
            for end, entries, front in view:
                got = entries.get(front(colours))
                if got is not None and (got.__class__ is int or end == last
                                        and nodes + got[0] <= limit):
                    break
            else:
                got = None
            if got is not None:
                if got.__class__ is int:
                    # charged up to the limit at most, and a hit reaches its
                    # class's last cell
                    charge = got if nodes + got <= limit else limit + 1 - nodes
                    if end > deep:
                        deep = end
                else:
                    charge, before, after = got
                    count += after - before
                    if keep:
                        # its rows again, under this prefix (by map: a
                        # comprehension would make j a cell variable)
                        tails = map(itemgetter(slice(j, None)),
                                    rows[base + before:base + after])
                        rows.extend(map("".join(labels[:j]).__add__, tails))
                nodes += charge
                replayed += charge
                continue
            # a walk from j reaches its segment's end
            entered[j] = deep, nodes, count
            deep = tail[j]
        stack[i] = k
        i, k = j, 0
        survs[j] = surv = nxt
    if nodes > limit:  # LIMIT even with solutions seen: the count is cut
        return LIMIT, first, limit + 1, count, replayed
    return (EXHAUSTED if first is None else FOUND), first, nodes, count, replayed
