"""The search engine shared by the region solver and the corona enumerator.

`region_search` is its one entry point: it builds each cell kind's candidate
list, (tile, code, facet colours), once, and runs one explicit-stack
depth-first search over the region's cells, so the number of cells is not
bounded by Python's recursion limit.  Every facet-sharing pair of listed
cells (including torus wrap pairs) is checked exactly once, when the later
cell of the pair is placed; neighbours outside the list are unconstrained.
The engine re-checks nothing it finds; its callers do.

Each cell keeps a colour index: a memo from the colours its earlier
neighbours show on the checked facets to the candidates that match them all.
A miss fills it by filtering the cell's candidate list with the facet rule;
extent-1 wraps, where a candidate meets itself, are filtered once up front.
Cells with the same candidate list and the same checked facets share one
memo; without a seed, the cells of one kind have the same list.

A node is a candidate tried in list order.  The index skips candidates that
the earlier neighbours rule out, but each still counts as a node, as if it
had been tried and rejected, so node counts and the node limit do not depend
on the index.

Below cell i the search depends only on i's frontier: the colours of earlier
cells that cells from i on check.  Cells whose frontier is narrower than the
next cell's (row and plane starts on square and cube lattices) record, for up
to RECORD_SIZE frontiers at a time, the nodes a solution-free subtree charged.
When such a frontier comes back, those nodes are charged again (`replayed`)
instead of searched, so every count, limit and result is the plain
depth-first search's.
"""

from __future__ import annotations

import random
from operator import itemgetter

from .geometry import FACET_COUNT, cell_kind, facet_neighbor, origin_cell
from .tileset import (
    FormatError,
    Placement,
    RegionSpec,
    TileSet,
    effective_facets,
    placement_orientations,
    region_cells,
    rule_eval,
    wrap_cell,
)

FOUND = "found"
EXHAUSTED = "exhausted"
LIMIT = "limit"

# frontier keys a record cell keeps before its record is cleared
RECORD_SIZE = 16


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
    """checks[i] = (facet, neighbour facet, earlier cell index) triples."""
    space = region.space
    index = {c: i for i, c in enumerate(cells)}
    checks = [[] for _ in cells]
    for c in cells:
        kind = cell_kind(space, c)
        for f in range(FACET_COUNT[kind]):
            n, nf = facet_neighbor(space, c, f)
            if region.torus:
                n = wrap_cell(region, n)
            j = index.get(n)
            if j is None:
                continue
            i = index[c]
            if j < i or (j == i and nf > f):
                checks[i].append((f, nf, j))
    return checks


def _getter(idx):
    """itemgetter over idx that always returns a tuple, the memo key."""
    if len(idx) == 1:
        get = itemgetter(idx[0])
        return lambda seq: (get(seq),)
    return itemgetter(*idx) if idx else (lambda seq: ())


def _records(checks, width):
    """The last cell that checks each facet slot (cell * width + facet; -1
    if none does), and per cell an empty record (frontier key -> nodes)
    where its frontier is narrower than the next cell's, else None."""
    last = [-1] * (len(checks) * width)
    for i, cs in enumerate(checks):
        for _, nf, j in cs:
            if j != i:
                last[j * width + nf] = i
    grow = [0] * len(checks)  # frontier width at cell i + 1 minus at cell i
    for s, i in enumerate(last):
        if i >= 0:
            grow[s // width] += 1
            grow[i] -= 1
    return last, [{} if g > 0 else None for g in grow]


def _search(per_cell, checks, width, rule, limit, each=None):
    """Depth-first search over the cells with an explicit stack.

    `per_cell[i]` lists cell i's candidates as (tile, code, facet colours);
    `width` is the facet count of every cell.  Without `each` the search
    stops at the first solution; with it, `each(labels)` is called on every
    solution (a list of (tile, code) pairs that the search goes on to
    change) and the search runs to exhaustion.  Returns (status, first
    solution's labels or None, nodes, solutions seen, nodes replayed).
    """
    n = len(per_cell)
    tables = {}  # (candidate list, own checks, earlier facets) -> table
    table, keys = [], []
    for i, lst in enumerate(per_cell):
        own = tuple((f, nf) for f, nf, j in checks[i] if j == i)
        earlier = [(f, nf, j) for f, nf, j in checks[i] if j != i]
        sig = (id(lst), own, tuple(f for f, _, _ in earlier))
        if sig not in tables:
            # extent-1 wraps: the candidate meets itself, whatever is around
            base = [(p, (t, c), e) for p, (t, c, e) in enumerate(lst)
                    if all(rule_eval(rule, e[f], e[nf]) for f, nf in own)]
            tables[sig] = (base, sig[2], len(lst), {})
        table.append(tables[sig])
        keys.append(_getter([j * width + nf for _, nf, j in earlier]))

    last, records = _records(checks, width)
    fronts = [None] * n  # a cell's frontier key, made at its first record
    limit = float("inf") if limit is None else limit
    colours = [None] * (n * width)  # cell i's facets at i * width
    labels = [None] * n
    # per earlier cell: (survivors, next survivor, nodes charged), then the
    # nodes and solutions counted when the search entered the next cell
    stack = []
    # the current cell: its survivors under the colours of its earlier
    # neighbours, the next survivor to try, and its candidates charged so far
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
            if i + 1 == n:
                count += 1
                if first is None:
                    first = list(labels)
                if each is None:
                    return FOUND, first, nodes, count, replayed
                each(labels)
                continue
            stack.append((surv, k, spent, nodes, count))
            i += 1
            record = records[i]
            if record:
                charge = record.get(fronts[i](colours))
                if charge is not None:
                    # charged up to the limit at most; a crossing ends the
                    # search at the earlier cell's next step
                    charge = min(charge, limit + 1 - nodes)
                    nodes += charge
                    replayed += charge
                    i -= 1
                    surv, k, spent, _, _ = stack.pop()
                    continue
            base, facets, _, memo = table[i]
            key = keys[i](colours)
            surv = memo.get(key)
            if surv is None:
                surv = memo[key] = [
                    cand for cand in base
                    if all(rule_eval(rule, cand[2][f], v)
                           for f, v in zip(facets, key))]
            k = spent = 0
        else:
            nodes += table[i][2] - spent
            if nodes > limit or i == 0:
                break
            surv, k, spent, before, seen = stack.pop()
            record = records[i]
            if record is not None and seen == count:
                if len(record) == RECORD_SIZE:
                    record.clear()
                if fronts[i] is None:
                    fronts[i] = _getter([s for s, c in enumerate(last)
                                         if s // width < i <= c])
                record[fronts[i](colours)] = nodes - before
            i -= 1
    status = LIMIT if nodes > limit else EXHAUSTED
    nodes = min(nodes, limit + 1)
    return (status if first is None else FOUND), first, nodes, count, replayed
