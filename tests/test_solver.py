"""Solver tests.

Oracle: exhaustive product enumeration over small regions, validating each
full assignment with patch_valid, compared against the backtracking search's
solution counts and verdicts.
"""

import itertools
import random

import pytest

from conftest import random_tileset
from tileatlas.atlas import corona_of, derive_atlas
from tileatlas.geometry import ShapeKind, cell_kind
from tileatlas.reduction import decode_patch, reduce_set
from tileatlas.solver import (
    EXHAUSTED,
    FOUND,
    LIMIT,
    SolveConfig,
    SolveResult,
    count_solutions,
    exhaust_torus,
    random_patch,
    solve,
    solve_atlas,
)
from tileatlas.tileset import (
    FacetRule,
    Patch,
    Placement,
    Prototile,
    RegionSpec,
    TileSet,
    load_bundled,
    patch_valid,
    placement_orientations,
    region_cells,
    serialize_patch,
)


def brute_count(ts, region):
    """Independent route: try every assignment, validate each whole patch."""
    cells = region_cells(region)
    options = []
    for c in cells:
        kind = cell_kind(region.space, c)
        cell_opts = []
        for p in ts.prototiles:
            for code in placement_orientations(ts.allowed, p.kind, kind):
                cell_opts.append((p.id, code))
        options.append(cell_opts)
    count = 0
    for combo in itertools.product(*options):
        placements = {c: Placement(c, t, o) for c, (t, o) in zip(cells, combo)}
        ok, _ = patch_valid(ts, Patch(ts.name, region, placements))
        if ok:
            count += 1
    return count


def test_counts_match_brute_force_translations():
    rng = random.Random(20260815)
    regions = {
        "square2d": [((2, 2), False), ((2, 2), True), ((3, 1), True)],
        "tri2d": [((1, 1), True), ((2, 1), False), ((1, 2), True)],
        "cube3d": [((2, 1, 1), True), ((1, 2, 1), False)],
    }
    nonzero = 0
    for trial in range(40):
        space = rng.choice(list(regions))
        ts = random_tileset(rng, space, rng.randint(1, 4), colours=2)
        extents, torus = rng.choice(regions[space])
        region = RegionSpec(space, extents, torus)
        want = brute_count(ts, region)
        got = count_solutions(ts, region)
        assert got.count == want, (space, extents, torus)
        assert got.status == (FOUND if want else EXHAUSTED)
        sol = solve(ts, region)
        assert sol.status == got.status
        if want:
            nonzero += 1
            ok, _ = patch_valid(ts, sol.patch)
            assert ok
    assert nonzero > 5


def test_counts_match_brute_force_full_isometries():
    rng = random.Random(3)
    for trial in range(12):
        tiles = tuple(
            Prototile(f"p{i}", ShapeKind.SQUARE,
                      tuple(rng.randint(0, 2) for _ in range(4)))
            for i in range(2)
        )
        ts = TileSet("o", tiles, FacetRule("identical"), "all")
        region = RegionSpec("square2d", (2, 1), trial % 2 == 0)
        assert count_solutions(ts, region).count == brute_count(ts, region)


def test_triangles6_torus_solution_counts():
    tri = load_bundled("triangles6")
    # one tiling per colour phase, whatever the extents
    for extents in ((1, 1), (2, 2), (3, 2)):
        r = count_solutions(tri, RegionSpec("tri2d", extents, True))
        assert r.count == 3
        ok, _ = patch_valid(tri, r.patch)
        assert ok


def test_wang13_small_torus_exhaustion():
    wang = load_bundled("wang13")
    for k in (1, 2, 3):
        r = exhaust_torus(wang, (k, k))
        assert r.status == EXHAUSTED
        assert r.patch is None
        assert r.nodes > 0
    assert exhaust_torus(wang, (2, 3)).status == EXHAUSTED


def test_wang13_free_patches_exist():
    wang = load_bundled("wang13")
    r = solve(wang, RegionSpec("square2d", (6, 6), False))
    assert r.status == FOUND
    ok, _ = patch_valid(wang, r.patch)
    assert ok
    assert len(r.patch.placements) == 36


def test_cubes21_torus_exhaustion_and_free_patch():
    cubes = load_bundled("cubes21")
    assert exhaust_torus(cubes, (1, 1, 1)).status == EXHAUSTED
    assert exhaust_torus(cubes, (2, 2, 2)).status == EXHAUSTED
    r = solve(cubes, RegionSpec("cube3d", (2, 2, 2), False))
    assert r.status == FOUND


def test_random_patch_is_seed_deterministic():
    wang = load_bundled("wang13")
    a = random_patch(wang, (5, 4), seed=42)
    b = random_patch(wang, (5, 4), seed=42)
    assert a.status == FOUND
    assert serialize_patch(a.patch) == serialize_patch(b.patch)
    texts = {serialize_patch(random_patch(wang, (5, 4), seed=s).patch)
             for s in range(8)}
    assert len(texts) > 2  # different seeds explore different orders


def test_node_limit_reports_limit_status():
    wang = load_bundled("wang13")
    r = solve(wang, RegionSpec("square2d", (6, 6), False),
              SolveConfig(node_limit=10))
    assert r.status == LIMIT
    assert r.patch is None
    assert r.nodes == 11  # the limit is detected on the first node past it


def test_node_counts_are_pinned():
    # A node is a candidate tried in scan order; the colour index skips
    # candidates but counts them, so the counts do not depend on the index.
    wang = load_bundled("wang13")
    want = [13, 559, 6461, 56940, 192062, 631189]
    for k, nodes in enumerate(want, start=1):
        r = exhaust_torus(wang, (k, k))
        assert (r.status, r.nodes) == (EXHAUSTED, nodes), k
    cubes = load_bundled("cubes21")
    for k, nodes in ((1, 21), (2, 3045)):
        r = exhaust_torus(cubes, (k, k, k))
        assert (r.status, r.nodes) == (EXHAUSTED, nodes), k
    tri = load_bundled("triangles6")
    r = count_solutions(tri, RegionSpec("tri2d", (12, 12), True))
    assert (r.status, r.count, r.nodes) == (FOUND, 3, 2586)


def test_node_limit_is_exact():
    wang = load_bundled("wang13")
    torus = RegionSpec("square2d", (2, 2), True)
    for limit in range(601):
        r = solve(wang, torus, SolveConfig(node_limit=limit))
        if limit < 559:
            assert (r.status, r.nodes) == (LIMIT, limit + 1), limit
        else:
            assert (r.status, r.nodes) == (EXHAUSTED, 559), limit
    free = RegionSpec("square2d", (4, 4), False)
    full = solve(wang, free)
    assert full.status == FOUND
    short = solve(wang, free, SolveConfig(node_limit=full.nodes - 1))
    assert (short.status, short.nodes, short.patch) == (LIMIT, full.nodes, None)
    exact = solve(wang, free, SolveConfig(node_limit=full.nodes))
    assert (exact.status, exact.nodes) == (FOUND, full.nodes)
    assert serialize_patch(exact.patch) == serialize_patch(full.patch)


def test_large_regions_do_not_recurse():
    # 1,800 cells: deeper than Python's default recursion limit
    tri = load_bundled("triangles6")
    region = RegionSpec("tri2d", (30, 30), True)
    r = solve(tri, region)
    assert r.status == FOUND
    ok, _ = patch_valid(tri, r.patch)
    assert ok
    rs = reduce_set(tri, "c2")
    ra = solve_atlas(rs, region, atlas=derive_atlas(rs))
    assert ra.status == FOUND
    ok, _ = patch_valid(tri, decode_patch(rs, ra.patch))
    assert ok


def test_no_candidates_means_exhausted():
    ups = tuple(Prototile(f"u{i}", ShapeKind.TRI_UP, (1, 1, 1)) for i in range(2))
    ts = TileSet("ups", ups, FacetRule("identical"), "translations")
    r = solve(ts, RegionSpec("tri2d", (1, 1), False))
    assert r.status == EXHAUSTED


# ---------------------------------------------------------------------------
# Atlas-mode search
# ---------------------------------------------------------------------------

def test_atlas_mode_square_free_patch():
    wang = load_bundled("wang13")
    rs = reduce_set(wang, "c1")
    atlas = derive_atlas(rs)
    r = solve_atlas(rs, RegionSpec("square2d", (4, 4), False), atlas=atlas)
    assert r.status == FOUND
    assert r.patch.set_name == "wang13-c1"
    decoded = decode_patch(rs, r.patch)
    ok, _ = patch_valid(wang, decoded)
    assert ok
    # interior cells have complete coronas and all are atlas members
    interior = [c for c in r.patch.placements
                if corona_of(r.patch.placements, r.patch.region, c) is not None]
    assert interior
    for c in interior:
        corona = corona_of(r.patch.placements, r.patch.region, c)
        assert corona in atlas


def test_atlas_mode_agrees_with_facet_mode_on_torus_verdicts():
    wang = load_bundled("wang13")
    rs = reduce_set(wang, "c1")
    for k in (1, 2):
        direct = exhaust_torus(wang, (k, k))
        reduced = solve_atlas(rs, RegionSpec("square2d", (k, k), True))
        assert direct.status == reduced.status == EXHAUSTED
    tri = load_bundled("triangles6")
    for mode in ("c1", "c2"):
        rt = reduce_set(tri, mode)
        at = derive_atlas(rt)
        direct = exhaust_torus(tri, (2, 2))
        reduced = solve_atlas(rt, RegionSpec("tri2d", (2, 2), True), atlas=at)
        assert direct.status == reduced.status == FOUND
        decoded = decode_patch(rt, reduced.patch)
        ok, _ = patch_valid(tri, decoded)
        assert ok
        # every torus cell has a complete corona; all must be atlas members
        for c in reduced.patch.placements:
            corona = corona_of(reduced.patch.placements, reduced.patch.region, c)
            assert corona is not None
            assert corona in at


def test_atlas_mode_respects_node_limit_and_seed():
    wang = load_bundled("wang13")
    rs = reduce_set(wang, "c1")
    r = solve_atlas(rs, RegionSpec("square2d", (5, 5), False),
                    SolveConfig(node_limit=5))
    assert r.status == LIMIT
    a = solve_atlas(rs, RegionSpec("square2d", (4, 4), False),
                    SolveConfig(seed=9))
    b = solve_atlas(rs, RegionSpec("square2d", (4, 4), False),
                    SolveConfig(seed=9))
    assert a.status == FOUND
    assert serialize_patch(a.patch) == serialize_patch(b.patch)
