"""The search engine shared by the region solver and the corona enumerator.

One explicit-stack depth-first search over a list of cells, each with its own
candidate list, so the number of cells is not bounded by Python's recursion
limit.  Every facet-sharing pair of listed cells (including torus wrap pairs)
is checked exactly once, when the later cell of the pair is placed;
neighbours outside the list are unconstrained.

Each cell keeps a colour index: a memo from the colours its earlier
neighbours show on the checked facets to the candidates that match them all.
A miss fills it by filtering the cell's candidate list with the facet rule;
extent-1 wraps, where a candidate meets itself, are filtered once up front.
Cells with the same candidate list and the same checked facets share one
memo.

A node is a candidate tried in list order.  The index skips candidates that
the earlier neighbours rule out, but each still counts as a node, as if it
had been tried and rejected, so node counts and the node limit do not depend
on the index.
"""

from __future__ import annotations

from operator import itemgetter

from .geometry import FACET_COUNT, cell_kind, facet_neighbor
from .tileset import RegionSpec, rule_eval, wrap_cell

FOUND = "found"
EXHAUSTED = "exhausted"
LIMIT = "limit"


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


def _search(per_cell, checks, width, rule, limit, each=None):
    """Depth-first search over the cells with an explicit stack.

    `per_cell[i]` lists cell i's candidates as (tile, code, facet colours);
    `width` is the facet count of every cell.  Without `each` the search
    stops at the first solution; with it, `each(labels)` is called on every
    solution (a list of (tile, code) pairs that the search goes on to
    change) and the search runs to exhaustion.  Returns (status, first
    solution's labels or None, nodes, solutions seen).
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

    limit = float("inf") if limit is None else limit
    colours = [None] * (n * width)  # cell i's facets at i * width
    labels = [None] * n
    stack = []  # (survivors, next survivor, nodes charged) of earlier cells
    # the current cell: its survivors under the colours of its earlier
    # neighbours, the next survivor to try, and its candidates charged so far
    i, surv, k, spent = 0, table[0][0], 0, 0  # cell 0 has no earlier cells
    nodes = count = 0
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
                    return FOUND, first, nodes, count
                each(labels)
                continue
            stack.append((surv, k, spent))
            i += 1
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
            i -= 1
            surv, k, spent = stack.pop()
    if nodes > limit:
        return (LIMIT if first is None else FOUND), first, limit + 1, count
    return (EXHAUSTED if first is None else FOUND), first, nodes, count
