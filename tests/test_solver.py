"""Solver tests.

Oracle: exhaustive product enumeration over small regions, validating each
full assignment with patch_valid, compared against the backtracking search's
solution counts and verdicts.
"""

import hashlib
import itertools
import random

import pytest

from conftest import engine_accepting_every_pair, random_tileset
from tileatlas.atlas import Atlas, corona_of, derive_atlas
from tileatlas.geometry import ShapeKind, cell_kind
from tileatlas.reduction import decode_patch, reduce_set
from tileatlas.solver import (
    EXHAUSTED,
    FOUND,
    LIMIT,
    SolveConfig,
    count_solutions,
    exhaust_torus,
    random_patch,
    solve,
    solve_atlas,
)
from tileatlas.patchtext import serialize_patch
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


def _wang_blocks(colours, n):
    """Each valid n x n block of Wang tiles (N, E, S, W colours), found in
    plain Python, as its sides: the N, E, S and W colour tuples."""
    rows = [(t,) for t in colours]
    for _ in range(n - 1):
        rows = [r + (t,) for r in rows for t in colours if r[-1][1] == t[3]]
    above = {}  # a row's S colours -> the rows that show them
    for r in rows:
        above.setdefault(tuple(t[2] for t in r), []).append(r)
    blocks = [(r,) for r in rows]  # rows from south to north
    for _ in range(n - 1):
        blocks = [b + (r,) for b in blocks
                  for r in above.get(tuple(t[0] for t in b[-1]), ())]
    return [(tuple(t[0] for t in b[-1]), tuple(r[-1][1] for r in b),
             tuple(t[2] for t in b[0]), tuple(r[0][3] for r in b))
            for b in blocks]


def _trimmed(sides):
    """The blocks left after dropping, again and again, every block with a
    side that no block left can meet.  A tiling of the plane, cut into
    blocks, uses only blocks that are never dropped, so an empty result
    proves the set does not tile."""
    while True:
        meet = [{s[(f + 2) % 4] for s in sides} for f in range(4)]
        kept = [s for s in sides if all(s[f] in meet[f] for f in range(4))]
        if len(kept) == len(sides):
            return kept
        sides = kept


def test_wang13_does_not_tile_the_plane():
    # the certificate behind the data file's comment: none of the 7,168
    # valid 4x4 blocks survives trimming, so no tiling exists, and the
    # torus sweeps exhaust trees with no tiling in them
    wang = [p.colours for p in load_bundled("wang13").prototiles]
    blocks = _wang_blocks(wang, 4)
    assert len(blocks) == 7168
    assert _trimmed(blocks) == []
    # positive control: the tiles of a random colouring of a 3x3 torus tile
    # the plane periodically, and their blocks survive
    rng = random.Random(3)
    for _ in range(5):
        h = [[rng.randrange(6) for _ in range(3)] for _ in range(3)]
        v = [[rng.randrange(6) for _ in range(3)] for _ in range(3)]
        torus = {(v[x][(y + 1) % 3], h[(x + 1) % 3][y], v[x][y], h[x][y])
                 for x in range(3) for y in range(3)}
        assert _trimmed(_wang_blocks(sorted(torus), 4))


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


def test_random_patch_takes_its_seed_and_a_node_limit():
    # the seed argument decides the search and node_limit caps it; a
    # config, whose seed it would have to drop, is no longer taken
    wang = load_bundled("wang13")
    full = random_patch(wang, (5, 4), seed=42)
    assert full == solve(wang, RegionSpec("square2d", (5, 4), False),
                         SolveConfig(seed=42))
    short = random_patch(wang, (5, 4), seed=42, node_limit=full.nodes - 1)
    assert (short.status, short.patch, short.nodes) == (LIMIT, None,
                                                         full.nodes)
    with pytest.raises(TypeError):
        random_patch(wang, (5, 4), seed=42, config=SolveConfig(seed=7))


def test_node_limit_reports_limit_status():
    wang = load_bundled("wang13")
    r = solve(wang, RegionSpec("square2d", (6, 6), False),
              SolveConfig(node_limit=10))
    assert r.status == LIMIT
    assert r.patch is None
    assert r.nodes == 11  # the limit is detected on the first node past it


def test_cut_count_reports_limit_status():
    # a count the limit cuts is no finished count: it ends in LIMIT, and
    # keeps the re-checked first patch
    tri = load_bundled("triangles6")
    torus = RegionSpec("tri2d", (6, 6), True)
    full = count_solutions(tri, torus)
    assert (full.status, full.count, full.nodes) == (FOUND, 3, 642)
    cut = count_solutions(tri, torus, SolveConfig(node_limit=321))
    assert (cut.status, cut.count, cut.nodes) == (LIMIT, 1, 322)
    assert cut.patch == full.patch
    cut = count_solutions(tri, torus, SolveConfig(node_limit=641))
    assert (cut.status, cut.count, cut.nodes) == (LIMIT, 2, 642)
    assert count_solutions(tri, torus, SolveConfig(node_limit=642)) == full


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


@pytest.mark.parametrize("seed", [None, 3])
def test_kari14_has_no_torus_up_to_12(seed):
    # README's claim: `exhaust --in @kari14` finds no k x k torus for any
    # k up to 12, by these counts in any candidate order.  The nodes
    # replayed, which depend on the order, are pinned too: a class answers
    # at every record cell where its structure starts, no fewer
    kari = load_bundled("kari14")
    want = [14, 910, 7182, 62174, 406462, 1263962, 10568950, 46082722,
            109540466, 1050168756, 3316375762, 2521201158]
    replayed = {None: [0, 0, 2086, 54586, 337904, 1239840, 10511970,
                       45962084, 109294318, 1049630652, 3315265814,
                       2518912732],
                3: [0, 0, 2086, 37226, 394520, 1239840, 10511970, 45962084,
                    109294318, 1049630652, 3315265814, 2518912732]}
    got = [exhaust_torus(kari, (k, k), SolveConfig(seed=seed))
           for k in range(1, 13)]
    assert [(r.status, r.nodes) for r in got] == [(EXHAUSTED, nodes)
                                                  for nodes in want]
    assert [r.replayed for r in got] == replayed[seed]


def test_larger_node_counts_are_pinned():
    # cheap since the engine replays repeated solution-free subtrees; the
    # counts are the plain depth-first search's
    r = exhaust_torus(load_bundled("wang13"), (7, 7))
    assert (r.status, r.nodes) == (EXHAUSTED, 2360176)
    assert 0 < r.replayed < r.nodes
    r = exhaust_torus(load_bundled("cubes21"), (3, 3, 3))
    assert (r.status, r.nodes) == (EXHAUSTED, 1676409)
    assert 0 < r.replayed < r.nodes


def test_sweep_node_counts_are_pinned_at_memo_scale():
    # the k x k sweep at the sizes where replayed rows pay most; about 1 s
    # for k = 9, and the counts are the plain depth-first search's
    wang = load_bundled("wang13")
    for k, nodes in ((8, 15707198), (9, 30135001)):
        r = exhaust_torus(wang, (k, k))
        assert (r.status, r.nodes) == (EXHAUSTED, nodes), k
        assert 0 < r.replayed < r.nodes


def test_node_limit_is_exact_across_replays():
    # cubes21 2x2x2 torus: some subtrees are replayed, so some limits fall
    # inside a replayed charge; every limit still ends where the plain
    # search would
    cubes = load_bundled("cubes21")
    torus = RegionSpec("cube3d", (2, 2, 2), True)
    full = solve(cubes, torus)
    assert (full.status, full.nodes) == (EXHAUSTED, 3045)
    assert full.replayed > 0
    replayed = 0
    for limit in range(3101):
        r = solve(cubes, torus, SolveConfig(node_limit=limit))
        if limit < 3045:
            assert (r.status, r.nodes, r.patch) == (LIMIT, limit + 1,
                                                    None), limit
        else:
            assert (r.status, r.nodes) == (EXHAUSTED, 3045), limit
        # one node more is one node more replayed or searched: a charge the
        # limit falls inside counts only up to the limit
        assert r.replayed - replayed in (0, 1), limit
        replayed = r.replayed
    assert replayed == full.replayed


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


def test_counting_rechecks_its_first_patch(monkeypatch):
    # with the engine's facet test accepting every tuple, both entry points
    # refuse the patch it finds, as patch_valid still applies the rule
    engine_accepting_every_pair(monkeypatch)
    wang = load_bundled("wang13")
    region = RegionSpec("square2d", (2, 1), False)
    for search in (solve, count_solutions):
        with pytest.raises(RuntimeError, match="invalid patch"):
            search(wang, region)


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


# status, nodes and the serialize_patch sha256 of seeded atlas-mode searches
ATLAS_MODE_PINS = [
    ("wang13", "c1", RegionSpec("square2d", (4, 4), False), 5, FOUND, 2184,
     "f77c34f446fa106608cec5d439920c5987c988e8436bdbf7e089803a2b330286"),
    ("wang13", "c2", RegionSpec("square2d", (4, 4), False), 5, FOUND, 2184,
     "336c51fc2185e851946b349baca0ee1062171bd7d2c8453de89afa75b12e126d"),
    ("triangles6", "c2", RegionSpec("tri2d", (20, 20), True), 1, FOUND, 1601,
     "7da01145695113e575a5645ccce099f1e486bd919bd62de13d99b2961138b3d9"),
]


@pytest.mark.parametrize("name,mode,region,seed,status,nodes,digest",
                         ATLAS_MODE_PINS)
def test_atlas_mode_results_are_pinned(name, mode, region, seed, status,
                                       nodes, digest):
    rs = reduce_set(load_bundled(name), mode)
    r = solve_atlas(rs, region, SolveConfig(seed=seed))
    assert (r.status, r.nodes) == (status, nodes)
    text = serialize_patch(r.patch)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_atlas_mode_refuses_a_patch_outside_the_atlas():
    rs = reduce_set(load_bundled("wang13"), "c1")
    atlas = derive_atlas(rs)
    region = RegionSpec("square2d", (4, 4), False)
    r = solve_atlas(rs, region, SolveConfig(seed=5), atlas=atlas)
    cell = (1, 1)  # the first cell with a complete corona, in sorted order
    corona = corona_of(r.patch.placements, region, cell)
    holed = Atlas(atlas.name, atlas.coronas - {corona})
    with pytest.raises(RuntimeError,
                       match=r"corona at \(1, 1\) missing from the atlas"):
        solve_atlas(rs, region, SolveConfig(seed=5), atlas=holed)


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
