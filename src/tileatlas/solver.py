"""Backtracking search for valid patches and torus tilings.

Two search targets, both run by the engine (`search.region_search`):

* facet mode (`solve`): placements of a coloured tile set under its facet
  rule;
* atlas mode (`solve_atlas`): placements of a reduced set's representatives.
  The encoding is a bijection between source and representative tilings, so
  this is `solve` on the source set, its patch rewritten by `encode_patch`.
  When a materialized atlas is supplied, every complete corona of the
  encoded patch is also confirmed to be an atlas member.

A found patch is one string of the set's label characters in sorted cell
order (`Patch.packed`), re-verified with `patch_valid` before it is
returned.  With a seed, the first solution is a reproducible
pseudo-random patch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .atlas import Atlas, missing_coronas
from .reduction import ReducedSet, encode_patch
# the status constants are re-exported as part of the solver's API
from .search import COUNT, EXHAUSTED, FOUND, LIMIT, region_search
from .tileset import Patch, RegionSpec, TileSet, patch_valid


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
    # nodes charged from the memo's subtree records; order-dependent
    replayed: int = 0


def _checked_search(ts: TileSet, region: RegionSpec, config, rows=None
                    ) -> SolveResult:
    """Run the engine, join the first solution it finds, in sorted cell
    order, into a packed patch over the set's alphabet, and re-check that
    patch."""
    config = config or SolveConfig()
    status, found, nodes, count, replayed = region_search(
        ts, region, config.node_limit, config.seed, rows)
    patch = None
    if found is not None:
        # the engine's labels are characters of ts.table
        patch = Patch.of_text(ts.name, region, "".join(found),
                              ts.table.labels)
        ok, report = patch_valid(ts, patch)
        if not ok:
            raise RuntimeError(f"solver produced an invalid patch: {report}")
    return SolveResult(status, patch, nodes, count, replayed)


def solve(ts: TileSet, region: RegionSpec, config: SolveConfig | None = None
          ) -> SolveResult:
    """Find one valid full placement of the region, or prove none exists."""
    return _checked_search(ts, region, config)


def count_solutions(ts: TileSet, region: RegionSpec,
                    config: SolveConfig | None = None) -> SolveResult:
    """Count all valid full placements; FOUND or EXHAUSTED means the count
    is complete.  One the node limit cuts ends in LIMIT, with the solutions
    seen before the cut in `count` and the first, re-checked, as `patch`."""
    return _checked_search(ts, region, config, COUNT)


def solve_atlas(rs: ReducedSet, region: RegionSpec,
                config: SolveConfig | None = None,
                atlas: Atlas | None = None) -> SolveResult:
    """Find one valid placement of the representatives over the region.

    The source patch that `solve` finds (and re-checks) is encoded; when a
    materialized atlas is supplied, every complete corona of the encoded
    patch is confirmed to be an atlas member.
    """
    result = solve(rs.source, region, config)
    if result.patch is None:
        return result
    patch = encode_patch(rs, result.patch)
    if atlas is not None:
        missing, _ = missing_coronas(atlas, patch)
        if missing:
            raise RuntimeError(f"corona at {missing[0]} missing from the atlas")
    return replace(result, patch=patch)


def exhaust_torus(ts: TileSet, extents, config: SolveConfig | None = None
                  ) -> SolveResult:
    """Search the torus with the given extents exhaustively."""
    return solve(ts, RegionSpec(ts.space, tuple(extents), True), config)


def random_patch(ts: TileSet, extents, seed: int, torus: bool = False,
                 node_limit: int | None = None) -> SolveResult:
    """A reproducible pseudo-random valid patch (first hit of a seeded search)."""
    return solve(ts, RegionSpec(ts.space, tuple(extents), torus),
                 SolveConfig(node_limit, seed))
