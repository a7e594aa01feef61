"""Acceptance checks: one test per advertised guarantee of the package.

Run with ``pytest -v`` to get exactly one pass/fail line per guarantee:

  1. documented reduction counts for the three bundled sets
  2. counting formula == size of the built representative list
  3. encode/decode round-trip plus interior coronas landing in the atlas
  4. atlas membership == decodability + facet validity, window-exhaustive
  5. corona enumeration == independent brute force
  6. bounded torus exhaustion of the 13-tile set, both rule styles
  7. solver verdicts == total brute force on 2x2 regions
  8. byte-identical artifacts across two construction runs

Where a guarantee quantifies over a combinatorially unbounded family
("synthetic sets"), the family here is a fixed, seeded one that covers the
stated size bounds; within each chosen instance the enumeration is
exhaustive.
"""

import itertools
import math
import random
import time

from conftest import brute_square_coronas, random_tileset
from tileatlas.atlas import (
    corona_of,
    derive_atlas,
    enumerate_source_coronas,
    serialize_atlas,
)
from tileatlas.geometry import (
    FACET_COUNT,
    SPACE_KINDS,
    ShapeKind,
    cell_kind,
    image_kind,
    origin_cell,
    space_codes,
    touching_cell,
    touching_offsets,
)
from tileatlas.reduction import (
    DecodeError,
    decode_patch,
    encode_patch,
    reduce_set,
    reduced_cardinality,
    serialize_reduced,
)
from tileatlas.render import render_reduced_patch, render_source_patch
from tileatlas.solver import (
    EXHAUSTED,
    FOUND,
    SolveConfig,
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

STABILIZER_ORDER = {
    ShapeKind.SQUARE: 8,
    ShapeKind.CUBE: 48,
    ShapeKind.TRI_UP: 6,
    ShapeKind.TRI_DOWN: 6,
}


def test_criterion_1_bundled_reduction_counts():
    started = time.perf_counter()
    expected = {
        "wang13": {"c1": 2, "c2": 2},
        "cubes21": {"c1": 1, "c2": 1},
        "triangles6": {"c1": 2, "c2": 1},
    }
    for name, per_mode in expected.items():
        ts = load_bundled(name)
        for mode, want in per_mode.items():
            assert reduced_cardinality(ts, mode) == want, (name, mode)
            assert len(reduce_set(ts, mode).reps) == want, (name, mode)
    assert time.perf_counter() - started < 1.0


def test_criterion_2_counting_formula_matches_construction():
    started = time.perf_counter()
    rng = random.Random(2001)
    for trial in range(200):
        space = rng.choice(list(SPACE_KINDS))
        kinds = [k for k in SPACE_KINDS[space] if rng.random() < 0.8]
        if not kinds:
            kinds = [rng.choice(SPACE_KINDS[space])]
        counts = {k: rng.randint(1, 60) for k in kinds}
        tiles = []
        for k, n in counts.items():
            for i in range(n):
                facets = tuple(rng.randint(1, 4)
                               for _ in range(FACET_COUNT[k]))
                tiles.append(Prototile(f"{k.value}{i}", k, facets))
        ts = TileSet(f"syn{trial}", tuple(tiles), FacetRule("identical"),
                     "translations")
        # independent count: one class per kind, merged across a kind pair
        # exactly when both tri orientations are present
        want_c1 = sum(math.ceil(n / STABILIZER_ORDER[k])
                      for k, n in counts.items())
        if space == "tri2d" and len(counts) == 2:
            want_c2 = math.ceil(sum(counts.values()) / 6)
        else:
            want_c2 = want_c1
        for mode, want in (("c1", want_c1), ("c2", want_c2)):
            assert reduced_cardinality(ts, mode) == want, (trial, mode)
            rs = reduce_set(ts, mode)
            assert len(rs.reps) == want, (trial, mode)
            assert len(rs.forward) == len(ts.prototiles)
    assert time.perf_counter() - started < 10.0


def test_criterion_3_round_trip_and_interior_coronas():
    started = time.perf_counter()
    for name in ("wang13", "triangles6"):
        ts = load_bundled(name)
        for mode in ("c1", "c2"):
            rs = reduce_set(ts, mode)
            atlas = derive_atlas(rs)
            rng = random.Random(hash((name, mode)) & 0xFFFF)
            produced = 0
            for i in range(25):
                extents = (8, 8) if i == 0 else (rng.randint(1, 8),
                                                 rng.randint(1, 8))
                result = random_patch(ts, extents, seed=300 + i)
                assert result.status == FOUND, (name, extents)
                produced += 1
                patch = result.patch
                enc = encode_patch(rs, patch)
                dec = decode_patch(rs, enc)
                assert dec.placements == patch.placements
                assert serialize_patch(dec) == serialize_patch(patch)
                interior = 0
                for cell in enc.placements:
                    corona = corona_of(enc.placements, enc.region, cell)
                    if corona is None:
                        continue
                    interior += 1
                    assert corona in atlas, (name, mode, cell)
                if min(extents) >= 3:
                    assert interior > 0
            assert produced == 25
    assert time.perf_counter() - started < 60.0


def _window(kind):
    """Corona support cells inside a free 3x3 region, centre first."""
    space = "tri2d" if kind in (ShapeKind.TRI_UP, ShapeKind.TRI_DOWN) \
        else "square2d"

    def shifted(c):
        if space == "tri2d":
            return (c[0] + 1, c[1] + 1, c[2])
        return (c[0] + 1, c[1] + 1)

    center = shifted(origin_cell(kind))
    cells = [center]
    for off in touching_offsets(kind):
        cells.append(shifted(touching_cell(kind, origin_cell(kind), off)))
    return space, center, cells


def _decodes_valid(rs, ts, region, placements):
    try:
        decoded = decode_patch(rs, Patch(rs.name, region, placements))
    except DecodeError:
        return False
    return patch_valid(ts, decoded)[0]


def _membership_vs_decode(ts, mode, seen_true):
    """Over every window of shape-placeable reduced placements: atlas
    membership of the centre corona must equal decodability + facet
    validity.

    Windows outside that domain never reach a membership query in the
    pipeline and are covered separately: a pair outside the encoding's
    image never decodes and never appears in any atlas corona, and a
    placement whose oriented shape does not fit its cell always fails
    decode-validation, which the solver and verifier establish before
    consulting the atlas.  Both facts are asserted below, the first
    against the whole materialized atlas, both on seeded window samples.
    """
    rs = reduce_set(ts, mode)
    atlas = derive_atlas(rs)
    image = sorted(rs.inverse)
    rep_kind = {r.id: r.kind for r in rs.reps}

    def placeable(pair, kind):
        return image_kind(rep_kind[pair[0]], pair[1]) == kind

    kinds = sorted({p.kind for p in ts.prototiles}, key=lambda k: k.value)
    checked = 0
    for kind in kinds:
        space, center, cells = _window(kind)
        region = RegionSpec(space, (3, 3), False)
        alphabets = [[p for p in image
                      if placeable(p, cell_kind(space, c))] for c in cells]
        for combo in itertools.product(*alphabets):
            placements = {c: Placement(c, t, o)
                          for c, (t, o) in zip(cells, combo)}
            corona = corona_of(placements, region, center)
            member = corona in atlas
            valid = _decodes_valid(rs, ts, region, placements)
            assert member == valid, (ts.name, mode, kind, combo)
            checked += 1
            seen_true[0] += member

    # case fact 1: every pair in the atlas is an image pair, so a window
    # holding a non-image pair is never a member and never decodes
    space = ts.space
    atlas_pairs = set()
    for corona in atlas.coronas:
        atlas_pairs.add(corona.center)
        atlas_pairs.update(corona.ring)
    assert atlas_pairs <= set(rs.inverse)

    rng = random.Random(len(ts.prototiles))
    samples = []
    for _ in range(60):
        kind = rng.choice(kinds)
        space_, center, cells = _window(kind)
        region = RegionSpec(space_, (3, 3), False)
        combo = [rng.choice([p for p in image
                             if placeable(p, cell_kind(space_, c))])
                 for c in cells]
        samples.append((region, center, cells, combo))

    non_image_checked = misfit_checked = 0
    for region, center, cells, combo in samples[:30]:
        slot = rng.randrange(len(cells))
        ck = cell_kind(region.space, cells[slot])
        pool = [(r.id, code) for r in rs.reps for code in space_codes(space)
                if (r.id, code) not in rs.inverse
                and placeable((r.id, code), ck)]
        if not pool:
            continue
        tampered = list(combo)
        tampered[slot] = rng.choice(pool)
        placements = {c: Placement(c, t, o)
                      for c, (t, o) in zip(cells, tampered)}
        assert corona_of(placements, region, center) not in atlas
        assert not _decodes_valid(rs, ts, region, placements)
        non_image_checked += 1

    # case fact 2: a placement whose oriented shape does not fit its cell
    # never survives decode-validation
    for region, center, cells, combo in samples[30:]:
        slot = rng.randrange(len(cells))
        ck = cell_kind(region.space, cells[slot])
        pool = [p for p in image if not placeable(p, ck)]
        if not pool:
            continue
        tampered = list(combo)
        tampered[slot] = rng.choice(pool)
        placements = {c: Placement(c, t, o)
                      for c, (t, o) in zip(cells, tampered)}
        assert not _decodes_valid(rs, ts, region, placements)
        misfit_checked += 1
    if len(kinds) > 1:
        assert misfit_checked > 0
    return checked, non_image_checked


def test_criterion_4_membership_equals_decode_validity():
    started = time.perf_counter()
    sq = ShapeKind.SQUARE
    tri6 = load_bundled("triangles6")
    cases = [
        (TileSet("one", (Prototile("a", sq, (1, 1, 1, 1)),),
                 FacetRule("identical"), "translations"), ("c1",)),
        (TileSet("checker", (Prototile("a", sq, (1, 2, 1, 2)),
                             Prototile("b", sq, (2, 1, 2, 1))),
                 FacetRule("identical"), "translations"), ("c1", "c2")),
        (TileSet("three", (Prototile("a", sq, (1, 2, 1, 2)),
                           Prototile("b", sq, (2, 1, 2, 1)),
                           Prototile("c", sq, (1, 1, 2, 2))),
                 FacetRule("identical"), "translations"), ("c1",)),
        (TileSet("tabled", (Prototile("a", sq, (1, 1, 2, 2)),
                            Prototile("b", sq, (2, 2, 1, 1))),
                 FacetRule("table", frozenset({(1, 2)})),
                 "translations"), ("c1",)),
        (TileSet("tritriple", tuple(p for p in tri6.prototiles
                                    if p.id in ("u1", "u2", "d1")),
                 tri6.rule, "translations"), ("c1", "c2")),
    ]
    total = non_image_total = 0
    seen_true = [0]
    for ts, modes in cases:
        for mode in modes:
            checked, non_image = _membership_vs_decode(ts, mode, seen_true)
            total += checked
            non_image_total += non_image
    assert total > 21000
    assert non_image_total > 50
    assert seen_true[0] > 0  # both sides of the equivalence were exercised
    assert time.perf_counter() - started < 300.0


def test_criterion_5_corona_enumeration_matches_brute_force():
    started = time.perf_counter()
    rng = random.Random(501)
    sq = ShapeKind.SQUARE
    sets = [
        TileSet("tabled", (Prototile("a", sq, (1, 1, 2, 2)),
                           Prototile("b", sq, (2, 2, 1, 1))),
                FacetRule("table", frozenset({(1, 2)})), "translations"),
        TileSet("three", (Prototile("a", sq, (1, 2, 1, 2)),
                          Prototile("b", sq, (2, 1, 2, 1)),
                          Prototile("c", sq, (1, 1, 2, 2))),
                FacetRule("identical"), "translations"),
    ]
    for i in range(6):
        sets.append(random_tileset(rng, "square2d", rng.randint(1, 3),
                                   colours=3, name=f"r{i}"))
    for ts in sets:
        assert enumerate_source_coronas(ts) == brute_square_coronas(ts), \
            ts.name
    assert time.perf_counter() - started < 60.0


def test_criterion_6_no_small_torus_for_wang13():
    ts = load_bundled("wang13")
    config = SolveConfig(node_limit=10 ** 8)
    for k in (1, 2, 3, 4):
        result = exhaust_torus(ts, (k, k), config)
        assert result.status == EXHAUSTED, (k, result.status)
    rs = reduce_set(ts, "c1")
    for k in (1, 2, 3):
        facet = exhaust_torus(ts, (k, k), config)
        atlas_mode = solve_atlas(rs, RegionSpec("square2d", (k, k), True),
                                 config)
        assert atlas_mode.status == facet.status == EXHAUSTED, k


def test_criterion_7_solver_matches_total_brute_force():
    started = time.perf_counter()
    rng = random.Random(701)
    sq = ShapeKind.SQUARE
    instances = []
    for i in range(24):
        space = rng.choice(["square2d", "square2d", "tri2d", "cube3d"])
        n = rng.randint(1, 3 if space != "cube3d" else 2)
        ts = random_tileset(rng, space, n, colours=2, name=f"b{i}")
        extents = (2, 2, 2) if space == "cube3d" else (2, 2)
        instances.append((ts, extents, rng.random() < 0.5))
    for i in range(2):
        tiles = tuple(Prototile(f"f{j}", sq,
                                tuple(rng.randint(1, 2) for _ in range(4)))
                      for j in range(2))
        instances.append((TileSet(f"iso{i}", tiles, FacetRule("identical"),
                                  "all"), (2, 2), i == 0))
    instances.append((TileSet("tab", (Prototile("a", sq, (1, 1, 2, 2)),),
                              FacetRule("table", frozenset({(1, 2)})),
                              "translations"), (2, 2), True))
    found = exhausted = 0
    for ts, extents, torus in instances:
        region = RegionSpec(ts.space, extents, torus)
        cells = region_cells(region)
        options = []
        for c in cells:
            kind = cell_kind(region.space, c)
            opts = [(p.id, code) for p in ts.prototiles
                    for code in placement_orientations(ts.allowed, p.kind,
                                                       kind)]
            options.append(opts)
        want_any = False
        for combo in itertools.product(*options):
            placements = {c: Placement(c, t, o)
                          for c, (t, o) in zip(cells, combo)}
            if patch_valid(ts, Patch(ts.name, region, placements))[0]:
                want_any = True
                break
        result = solve(ts, region)
        assert result.status == (FOUND if want_any else EXHAUSTED), ts.name
        if result.status == FOUND:
            found += 1
            ok, violations = patch_valid(ts, result.patch)
            assert ok and violations == ()
        else:
            exhausted += 1
    assert found and exhausted  # both verdicts exercised
    assert time.perf_counter() - started < 60.0


def test_criterion_8_byte_identical_artifacts():
    def build():
        chunks = []
        for name in ("wang13", "cubes21", "triangles6"):
            ts = load_bundled(name)
            for mode in ("c1", "c2"):
                chunks.append(serialize_reduced(reduce_set(ts, mode)))
        for name, mode in (("triangles6", "c1"), ("triangles6", "c2"),
                           ("wang13", "c1")):
            rs = reduce_set(load_bundled(name), mode)
            chunks.append(serialize_atlas(derive_atlas(rs)))
        wang = load_bundled("wang13")
        result = random_patch(wang, (5, 5), seed=11)
        assert result.status == FOUND
        chunks.append(serialize_patch(result.patch))
        chunks.append(render_source_patch(wang, result.patch))
        tri = load_bundled("triangles6")
        rs = reduce_set(tri, "c2")
        reduced_result = solve_atlas(rs, RegionSpec("tri2d", (2, 2), True),
                                     SolveConfig(seed=11))
        assert reduced_result.status == FOUND
        chunks.append(serialize_patch(reduced_result.patch))
        chunks.append(render_reduced_patch(rs, reduced_result.patch))
        return chunks

    first = build()
    second = build()
    assert first == second
    for chunk in first:
        assert chunk.encode("utf-8").decode("utf-8") == chunk
