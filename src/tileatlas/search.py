"""The search engine shared by the region solver and the corona enumerator.

`region_search` is its one entry point.  It takes each cell kind's
candidate list, (character, hue tuple), from the set's tile table
(`TileSet.table`), tests the rule by the table's test, and runs one
explicit-stack depth-first search over the region's cells, so the number
of cells is not bounded by Python's recursion limit.  Every pair that
`facet_pairs` lists for the cells (torus wraps included) is checked once,
when its later cell is placed; neighbours outside the listed cells are
unconstrained.  A solution is the cells' characters: the first is returned
in sorted cell order, and with `rows` each is appended, joined in search
order.  The engine re-checks nothing it finds; its callers do.

What depends only on the region and its cells is compiled once into a
plan (`_plan`), and the last 16 plans are kept: per cell its kind, checks,
key getter and colour slots, the record cells below, `struct` and the
cells' sorted order.  Candidate lists, colour indexes, the memo and the
stack belong to one search.  With a seed, each cell's candidate positions
are shuffled, and the cells of one kind whose orders come out equal share
one list: triangles6's 800-cell torus has at most 12 (two kinds, 3! orders).

A node is a candidate tried in list order.  Cells with the same list and
checked facets share a colour index, from the colours their earlier
neighbours show to the survivors; the candidates it skips still count as
nodes, so node counts and the node limit do not depend on it.  A miss
tests, in list order, the candidates that pass the cell's own checks
(where a torus axis of extent 1 makes a candidate meet itself) by the
rule's test on their colours at the key's facets, made once per (cell
kind, signature).  A survivor list is one step per survivor, the nodes it
charges (its skipped predecessors and itself) with its label and colours,
and a last step that charges the rest.  A loop step charges one step and
places its survivor, reading one record of the cell (its colour slots and
the next cell's key getter, colour index and offered classes), or goes
back.  A next cell without survivors is charged its whole list and not
entered.

Below cell i the search depends only on i's frontier: the colours of
earlier cells that cells from i on check.  A record cell's frontier is
narrower than the next cell's: on a 7x7 square region cells 0-5, 7, 14,
21, 28 and 35.  From one record cell to the next is a segment.  A
solution-free subtree stores its nodes under its class, the structure of
its cells from its record cell to its reach (`struct`, one character per
cell for its kind and its checks relative to it), keyed on the earlier
colours those cells check.  The reach is the end of the deepest segment
it entered, a record cell charged without survivors included, or that an
entry it was charged from reached.  A class is offered, found by
`str.find`, at every record cell where its structure starts, narrowest
first: on a torus a subtree below a row start is searched once wherever
its colours come back.  A subtree with solutions is a class from its
record cell to the last cell, holding its nodes and the solutions counted
before and after it.  A shift of it would end short of the last cell, so
it answers only at its own record cell: a count adds its solutions again,
and an enumeration appends its rows again under the new prefix.  A subtree
with one solution is not stored, as it is seldom met again.

A hit is charged (`replayed`) instead of searched, up to the limit at
most; a subtree with solutions that would cross the limit is searched, so
that a cut count is exact.  Which shift of a class is searched first, and
so `replayed`, depends on the candidate order; nodes do not.  One search's
memo holds at most MEMO_SIZE entries and is cleared when full.  Every
count, limit, solution and row, in order, is the plain depth-first
search's.
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
    # per (cell kind, signature), made at the first miss of a list of the
    # kind: label -> its colours on the facets that the key's colours face,
    # in the key's order
    faced = {}
    # per (candidate list, signature), made at its first miss: the list
    # and, in list order, the position and faced colours of each candidate
    # that passes its own checks (extent-1 wraps: the candidate meets
    # itself, whatever is around)
    made = {}

    def survivors(i, key):
        # cell i's steps under `key`, as the module docstring describes them
        got = made.get(sig_at[i])
        if got is None:
            lst, shape = per_cell[i], plan.shapes[i]
            own, facets = plan.sigs[shape]
            on = faced.get((plan.kinds[i], shape))
            if on is None:
                get = _getter(facets)
                on = faced[plan.kinds[i], shape] = {label: get(e)
                                                    for label, e in lst}
            got = made[sig_at[i]] = lst, [
                (p, on[label]) for p, (label, e) in enumerate(lst)
                if not own or test([e[f] for f, _ in own],
                                   [e[nf] for _, nf in own])]
        lst, kept = got
        steps, done = [], 0
        for p, hues in kept:
            if test(hues, key):
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

    if limit is None:
        # more nodes than the whole tree holds, (m + 1) ** n for lists of at
        # most m candidates, below 2 ** (n * b) for m + 1 of b bits: a shift
        # instead of the power, 0.3 s for 13 candidates on a million cells
        limit = 1 << n * (max(map(len, lists.values())) + 1).bit_length()
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
