"""The search engine shared by the region solver and the corona enumerator.

`region_search` is its one entry point: it builds each cell kind's candidate
list, (tile, code, facet colours), once, and runs one explicit-stack
depth-first search over the region's cells, so the number of cells is not
bounded by Python's recursion limit.  Every facet-sharing pair of listed
cells that `facet_pairs` lists (torus wrap pairs included) is checked
exactly once, when the later cell of the pair is placed; neighbours outside
the list are unconstrained.
The engine re-checks nothing it finds; its callers do.

Each cell keeps a colour index: a memo from the colours its earlier
neighbours show on the checked facets to the candidates that match them all.
A miss fills it by filtering the cell's candidate list with the facet rule,
compiled once per search into one test of each candidate's colour tuple on
those facets against the key; extent-1 wraps, where a candidate meets
itself, are filtered once up front by the same test.
Cells with the same candidate list and the same checked facets share one
memo; without a seed, the cells of one kind have the same list.

A node is a candidate tried in list order.  The index skips candidates that
the earlier neighbours rule out, but each still counts as a node, as if it
had been tried and rejected, so node counts and the node limit do not depend
on the index.

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
the deepest segment it entered, counting the reaches of the entries it was
charged from.  On a torus only the last row reads row 0's bottom colours, so
a subtree that dies before it is searched under one row 0 and charged under
the others.  The last record cell, tip, has one group, and there a subtree
with solutions stores its transcript in the same slot: the nodes charged
before each solution and that solution's labels from tip on, then the nodes
charged after the last one.  A frontier's first walk with solutions stores
only that it was walked, so a tip whose frontiers never repeat keeps no
transcripts.  A lookup tries each group narrowest first, and a hit is
charged again (`replayed`) instead of searched: a transcript's charges at
most up to the limit, each solution's labels written and counted between
them.  No later cell reads the colours of a replayed solution, so none are
written.  One search's memo holds at most MEMO_SIZE entries, and the entry
that would pass that clears them all first.  Every count, limit, solution
and `each` call is the plain depth-first search's.

Transcripts pay where frontiers with solutions below them come back.  On a
2-core machine the cubes21 c2 corona-window search replays 153,740,181 of
its 169,232,238 nodes from them: 1.7 s, 7.5-8.9 s without them.  The free
wang13 8x4 count takes 1.5-2.1 s, 3.1-3.6 s without (32 MB peak, not 18).
"""

from __future__ import annotations

import random
from operator import itemgetter

from .geometry import FACET_COUNT, cell_kind, origin_cell
from .tileset import (
    FormatError,
    Placement,
    RegionSpec,
    TileSet,
    effective_facets,
    facet_pairs,
    placement_orientations,
    region_cells,
    rule_test,
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

    With a seed, each cell's candidate list is shuffled up front, so the
    first solution is a reproducible pseudo-random one.  `limit` bounds the
    nodes; `each` is as in `_search`, whose result this returns.  A region
    off the set's lattice is refused, not searched.
    """
    if region.space != ts.space:
        raise FormatError(f"{ts.name} is a {ts.space} set; the region is "
                          f"on {region.space}")
    if cells is None:
        cells = region_cells(region)
    space = region.space
    per_kind = {}  # kind -> (tile, code, facet colours)
    for c in cells:
        kind = cell_kind(space, c)
        if kind not in per_kind:
            per_kind[kind] = [
                (p.id, code, effective_facets(
                    ts, Placement(origin_cell(kind), p.id, code)))
                for p in ts.prototiles
                for code in placement_orientations(ts.allowed, p.kind, kind)]
    rng = random.Random(seed) if seed is not None else None
    per_cell = []
    for c in cells:
        lst = per_kind[cell_kind(space, c)]
        if rng is not None:
            lst = list(lst)
            rng.shuffle(lst)
        per_cell.append(lst)
    # the kinds of one lattice all have the same facet count
    width = max(FACET_COUNT[kind] for kind in per_kind)
    return _search(per_cell, _schedule(region, cells), width, ts.rule, limit,
                   each)


def _schedule(region: RegionSpec, cells):
    """checks[i] = (facet, neighbour facet, earlier cell index) triples, in
    facet order: each facet_pairs quad goes to the later of its two cells.
    The pairs are keyed on the sorted cells, patch_valid's key for a full
    patch, so the re-check of a found patch reads the same walk."""
    order = sorted(range(len(cells)), key=cells.__getitem__)
    checks = [[] for _ in cells]
    for a, f, b, nf in facet_pairs(region, tuple([cells[k] for k in order])):
        i, j = order[a], order[b]
        if i < j:
            i, j, f, nf = j, i, nf, f
        checks[i].append((f, nf, j))
    return [sorted(cs) for cs in checks]


def _getter(idx):
    """itemgetter over idx that always returns a tuple, the memo key."""
    if len(idx) == 1:
        get = itemgetter(idx[0])
        return lambda seq: (get(seq),)
    return itemgetter(*idx) if idx else (lambda seq: ())


def _records(checks, width):
    """The last cell that checks each facet slot (cell * width + facet; -1
    if none does); per cell an empty memo (reach -> frontier getter and
    entries) where its frontier is narrower than the next cell's, else None;
    and per cell the last cell of its segment, the cells before the next
    record cell."""
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
    records = [{} if g > 0 else None for g in grow]
    tail = [n - 1] * n
    for i in range(n - 1, 0, -1):
        tail[i - 1] = i - 1 if records[i] is not None else tail[i]
    return last, records, tail


def _search(per_cell, checks, width, rule, limit, each=None):
    """Depth-first search over the cells with an explicit stack.

    `per_cell[i]` lists cell i's candidates as (tile, code, facet colours);
    `width` is the facet count of every cell.  Without `each` the search
    stops at the first solution; with it, `each(labels)` is called on every
    solution (a list of (tile, code) pairs that the search goes on to
    change) and the search runs to exhaustion; a count the limit cuts ends
    in LIMIT, its first solution kept.  Returns (status, first solution's
    labels or None, nodes, solutions seen, nodes replayed).
    """
    n = len(per_cell)
    test = rule_test(rule)
    tables = {}  # (candidate list, own checks, earlier facets) -> table
    table, keys = [], []
    for i, lst in enumerate(per_cell):
        own = tuple((f, nf) for f, nf, j in checks[i] if j == i)
        earlier = [(f, nf, j) for f, nf, j in checks[i] if j != i]
        sig = (id(lst), own, tuple(f for f, _, _ in earlier))
        if sig not in tables:
            # extent-1 wraps: the candidate meets itself, whatever is around
            mine = _getter([f for f, _ in own])
            theirs = _getter([nf for _, nf in own])
            base = [(p, (t, c), e) for p, (t, c, e) in enumerate(lst)
                    if test(mine(e), theirs(e))]
            # the table's getter reads a candidate's colours on the facets
            # that the key's colours face, in the key's order
            tables[sig] = (base, _getter(sig[2]), len(lst), {})
        table.append(tables[sig])
        keys.append(_getter([j * width + nf for _, nf, j in earlier]))

    last, records, tail = _records(checks, width)
    # the last record cell, whose walks keep transcripts: the charge before
    # each solution and its labels from tip on (`step` entries a solution),
    # then the charge after the last solution
    tip = max((i for i, r in enumerate(records) if r is not None), default=0)
    step = n - tip + 1
    script, mark = None, 0  # the transcript being kept, and its last charge
    size = 0  # entries the memo holds, at most MEMO_SIZE
    # the reach of the subtree being searched, and per record cell the reach
    # of the one around it when it was entered
    deep, outer = 0, [0] * n
    # (record cell, reach) -> the group of the narrowest reach whose cells
    # check the same frontier slots
    groups = {}

    limit = float("inf") if limit is None else limit
    colours = [None] * (n * width)  # cell i's facets at i * width
    labels = [None] * n
    # per earlier cell: its surv, k and spent (below), then the nodes and
    # solutions counted when the search went on
    stack = []
    # the current cell: its survivors under the colours of its earlier
    # neighbours, the next one to try and its candidates charged so far
    i, surv, k, spent = 0, table[0][0], 0, 0  # cell 0 has no earlier cells
    nodes = count = replayed = 0
    first = None
    while True:
        if k < len(surv):
            p, label, e = surv[k]
            k += 1
            # every candidate up to p counts: the ones skipped would fail
            nodes += p + 1 - spent
            spent = p + 1
            if nodes > limit:
                break
            colours[i * width:(i + 1) * width] = e
            labels[i] = label
        else:
            nodes += table[i][2] - spent
            if nodes > limit or i == 0:
                break
            h = i
            i -= 1
            surv, k, spent, before, seen = stack.pop()
            record = records[h]
            if record is not None:
                reach, deep = deep, max(deep, outer[h])
                if seen != count:
                    # solutions below: only tip keeps them, a transcript on
                    # a frontier's second walk and () on its first
                    if h != tip:
                        continue
                    if script is not None:
                        script.append(nodes - mark)
                    stored = () if script is None else script
                elif nodes - before > table[h][2]:
                    stored = nodes - before
                else:
                    # a subtree that never left its start costs no more to
                    # search than to look up, so it is not recorded
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
        if i + 1 == n:
            if script is not None:
                script.append(nodes - mark)
                script += labels[tip:]
                mark = nodes
            count += 1
            if first is None:
                first = list(labels)
            if each is None:
                return FOUND, first, nodes, count, replayed
            each(labels)
            continue
        stack.append((surv, k, spent, nodes, count))
        i += 1
        base, proj, _, memo = table[i]
        key = keys[i](colours)
        surv = memo.get(key)
        if surv is None:
            surv = memo[key] = [c for c in base if test(proj(c[2]), key)]
        k = spent = 0
        record = records[i]
        if record is not None:
            # a walk from i reaches its segment's end, and a hit as far as
            # its record
            outer[i], deep = deep, tail[i]
            # a start without survivors costs no more to exhaust than to
            # look up
            if not surv:
                continue
            got = None
            for reach, (front, entries) in record.items():
                got = entries.get(front(colours))
                if got is not None:
                    break
            if not got:
                # searched; at tip a frontier walked once keeps its transcript
                if i == tip:
                    script, mark = (None if got is None else []), nodes
                continue
            if got.__class__ is list:
                # a transcript: each solution's charge, then its labels
                for s in range(0, len(got) - 1, step):
                    charge = min(got[s], limit + 1 - nodes)
                    nodes += charge
                    replayed += charge
                    if nodes > limit:
                        break
                    labels[tip:] = got[s + 1:s + step]
                    count += 1
                    if first is None:
                        first = list(labels)
                    each(labels)
                got = got[-1]
            # charged up to the limit at most; a crossing ends the search at
            # the earlier cell's next step
            charge = min(got, limit + 1 - nodes)
            nodes += charge
            replayed += charge
            deep = max(reach, outer[i])
            i -= 1
            surv, k, spent, _, _ = stack.pop()
    if nodes > limit:  # LIMIT even with solutions seen: the count is cut
        return LIMIT, first, limit + 1, count, replayed
    return (EXHAUSTED if first is None else FOUND), first, nodes, count, replayed
