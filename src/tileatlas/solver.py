"""Backtracking search for valid patches and torus tilings.

Cells are filled in scan order.  Every facet-sharing pair of cells (including
torus wrap pairs) is checked exactly once, when the later cell of the pair is
placed, so a complete assignment needs no further facet checks — found
patches are still re-verified independently before being returned.

Two search targets:

* facet mode (`solve`): placements of a coloured tile set under its facet
  rule;
* atlas mode (`solve_atlas`): placements of a reduced set's representatives.
  Candidates are the encoding's (representative, orientation) image pairs,
  constrained by the decoded source tiles' facet rule; found patches are
  additionally checked corona-by-corona against a materialized atlas when
  one is supplied.

One engine serves both, an explicit-stack depth-first search, so region size
is not bounded by Python's recursion limit.  Each cell keeps a colour index:
a memo from the colours its earlier neighbours show on the checked facets to
the candidates that match them all.  A miss fills it by filtering the cell's
candidate list with the facet rule; extent-1 wraps, where a candidate meets
itself, are filtered once up front.  Cells with the same candidate list and
the same checked facets share one memo.

A node is a candidate tried in scan order.  The index skips candidates that
the earlier neighbours rule out, but each still counts as a node, as if it
had been tried and rejected, so node counts and `node_limit` do not depend
on the index.

With a seed, each cell's candidate order is shuffled up front, so the first
solution found is a reproducible pseudo-random patch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter

from .atlas import Atlas, corona_in_atlas, corona_of
from .geometry import (
    FACET_COUNT,
    cell_kind,
    facet_neighbor,
    image_kind,
    origin_cell,
)
from .reduction import ReducedSet, decode_patch
from .tileset import (
    Patch,
    Placement,
    RegionSpec,
    TileSet,
    effective_facets,
    patch_valid,
    placement_orientations,
    region_cells,
    rule_eval,
    wrap_cell,
)

FOUND = "found"
EXHAUSTED = "exhausted"
LIMIT = "limit"


@dataclass(frozen=True)
class SolveConfig:
    node_limit: int | None = None
    seed: int | None = None


@dataclass
class SolveResult:
    status: str  # found | exhausted | limit
    patch: Patch | None
    nodes: int
    count: int = 0  # solutions seen (only counting searches set this > 1)


def _facet_candidates(ts: TileSet, kinds):
    """Per cell kind: (tile label, code, effective facet colours)."""
    out = {}
    for kind in kinds:
        if kind in out:
            continue
        lst = []
        for p in ts.prototiles:
            for code in placement_orientations(ts.allowed, p.kind, kind):
                eff = effective_facets(
                    ts, Placement(origin_cell(kind), p.id, code))
                lst.append((p.id, code, eff))
        out[kind] = lst
    return out


def _atlas_candidates(rs: ReducedSet, kinds):
    """Per cell kind: (rep label, code, decoded source tile's colours)."""
    rep_kind = {r.id: r.kind for r in rs.reps}
    out = {kind: [] for kind in kinds}
    for p in rs.source.prototiles:  # deterministic input order
        rep_id, code = rs.forward[p.id]
        kind = image_kind(rep_kind[rep_id], code)
        if kind in out:
            out[kind].append((rep_id, code, p.colours))
    return out


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


def _search(per_cell, checks, width, rule, limit, collect_all=False):
    """Depth-first search over the cells with an explicit stack.

    `width` is the facet count of every cell.  Returns (status, first
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
                if not collect_all:
                    return FOUND, first, nodes, count
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


def _region_search(candidates, rule, region, config, collect_all=False):
    """Compile the region's cells and checks, then search them.

    `candidates(kinds)` maps each cell kind to its candidate list.  Without a
    seed, cells of one kind share one list, so they also share its memo.
    """
    cells = region_cells(region)
    space = region.space
    kinds = {cell_kind(space, c) for c in cells}
    per_kind = candidates(kinds)
    rng = random.Random(config.seed) if config.seed is not None else None
    per_cell = []
    for c in cells:
        lst = per_kind[cell_kind(space, c)]
        if rng is not None:
            lst = list(lst)
            rng.shuffle(lst)
        per_cell.append(lst)
    # the kinds of one lattice all have the same facet count
    width = max(FACET_COUNT[kind] for kind in kinds)
    return _search(per_cell, _schedule(region, cells), width, rule,
                   config.node_limit, collect_all)


def _labels_to_patch(name, region, labels):
    placements = {}
    for cell, (tid, code) in zip(region_cells(region), labels):
        placements[cell] = Placement(cell, tid, code)
    return Patch(name, region, placements)


def solve(ts: TileSet, region: RegionSpec, config: SolveConfig | None = None
          ) -> SolveResult:
    """Find one valid full placement of the region, or prove none exists."""
    status, labels, nodes, _ = _region_search(
        lambda kinds: _facet_candidates(ts, kinds), ts.rule, region,
        config or SolveConfig())
    patch = None
    if labels is not None:
        patch = _labels_to_patch(ts.name, region, labels)
        ok, report = patch_valid(ts, patch)
        if not ok:
            raise RuntimeError(f"solver produced an invalid patch: {report}")
    return SolveResult(status, patch, nodes)


def count_solutions(ts: TileSet, region: RegionSpec,
                    config: SolveConfig | None = None) -> SolveResult:
    """Count all valid full placements."""
    status, labels, nodes, count = _region_search(
        lambda kinds: _facet_candidates(ts, kinds), ts.rule, region,
        config or SolveConfig(), collect_all=True)
    patch = _labels_to_patch(ts.name, region, labels) if labels else None
    return SolveResult(status, patch, nodes, count)


def solve_atlas(rs: ReducedSet, region: RegionSpec,
                config: SolveConfig | None = None,
                atlas: Atlas | None = None) -> SolveResult:
    """Find one valid placement of the representatives over the region.

    The found patch decodes to a valid source patch (re-checked), and when a
    materialized atlas is supplied every complete corona of the found patch
    is confirmed to be an atlas member.
    """
    status, labels, nodes, _ = _region_search(
        lambda kinds: _atlas_candidates(rs, kinds), rs.source.rule, region,
        config or SolveConfig())
    patch = None
    if labels is not None:
        patch = _labels_to_patch(rs.name, region, labels)
        decoded = decode_patch(rs, patch)
        ok, report = patch_valid(rs.source, decoded)
        if not ok:
            raise RuntimeError(f"solver produced an invalid patch: {report}")
        if atlas is not None:
            for cell in patch.placements:
                corona = corona_of(patch.placements, region, cell)
                if corona is not None and not corona_in_atlas(atlas, corona):
                    raise RuntimeError(
                        f"corona at {cell} missing from the atlas")
    return SolveResult(status, patch, nodes)


def exhaust_torus(ts: TileSet, extents, config: SolveConfig | None = None
                  ) -> SolveResult:
    """Search the torus with the given extents exhaustively."""
    return solve(ts, RegionSpec(ts.space, tuple(extents), True), config)


def random_patch(ts: TileSet, extents, seed: int, torus: bool = False,
                 config: SolveConfig | None = None) -> SolveResult:
    """A reproducible pseudo-random valid patch (first hit of a seeded search)."""
    base = config or SolveConfig()
    cfg = SolveConfig(node_limit=base.node_limit, seed=seed)
    return solve(ts, RegionSpec(ts.space, tuple(extents), torus), cfg)
