"""Backtracking search for valid patches and torus tilings.

Cells are filled in scan order.  Found patches are re-verified
independently before being returned.

Two search targets:

* facet mode (`solve`): placements of a coloured tile set under its facet
  rule;
* atlas mode (`solve_atlas`): placements of a reduced set's representatives.
  Candidates are the encoding's (representative, orientation) image pairs,
  constrained by the decoded source tiles' facet rule; found patches are
  additionally checked corona-by-corona against a materialized atlas when
  one is supplied.

Both run on one engine, `search._search`, an explicit-stack depth-first
search with a per-cell colour index; the corona enumerator runs on it too.
A node is a candidate tried in scan order, whether the index skips it or
not, so node counts and `node_limit` do not depend on the index.

With a seed, each cell's candidate order is shuffled up front, so the first
solution found is a reproducible pseudo-random patch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .atlas import Atlas, corona_of
from .geometry import FACET_COUNT, cell_kind, image_kind, origin_cell
from .reduction import ReducedSet, decode_patch
# the status constants are re-exported as part of the solver's API
from .search import EXHAUSTED, FOUND, LIMIT, _schedule, _search
from .tileset import (
    Patch,
    Placement,
    RegionSpec,
    TileSet,
    effective_facets,
    patch_valid,
    placement_orientations,
    region_cells,
)


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


def _region_search(candidates, rule, region, config, each=None):
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
                   config.node_limit, each)


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
        config or SolveConfig(), each=lambda labels: None)
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
                if corona is not None and corona not in atlas:
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
