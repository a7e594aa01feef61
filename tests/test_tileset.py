"""Tileset, rule, placement and patch tests.

Oracle for patch validity: an independent brute check that embeds every
placement's coloured facets as (shared-facet-midpoint -> colour) claims and
requires each midpoint to carry a rule-compatible colour pair.
"""

import gc
import random
import re
from dataclasses import replace

import pytest

from conftest import UNREADABLE, random_tileset
from tileatlas.geometry import (
    FACET_COUNT,
    ShapeKind,
    cell_kind,
    facet_midpoint2,
    space_codes,
)
from tileatlas.patchtext import parse_patch, serialize_patch
from tileatlas.tileset import (
    FacetRule,
    FormatError,
    Patch,
    Placement,
    Prototile,
    RegionSpec,
    TileSet,
    effective_facets,
    identity_code,
    load_bundled,
    parse_tileset,
    cell_in_region,
    cells_in_region,
    patch_valid,
    placement_map,
    placement_ok,
    placement_orientations,
    region_cells,
    rule_eval,
    serialize_tileset,
    wrap_cell,
)

SQ = ShapeKind.SQUARE


def square_set(colour_rows, rule=FacetRule("identical"), allowed="all", name="s"):
    tiles = tuple(
        Prototile(f"p{i}", SQ, tuple(row)) for i, row in enumerate(colour_rows)
    )
    return TileSet(name, tiles, rule, allowed)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def test_rule_identical():
    r = FacetRule("identical")
    assert rule_eval(r, 3, 3)
    assert not rule_eval(r, 3, 4)
    assert rule_eval(r, 0, 0)


def test_rule_table_is_symmetric_and_accepts_uncoloured():
    r = FacetRule("table", frozenset({(1, 2)}))
    assert rule_eval(r, 1, 2)
    assert rule_eval(r, 2, 1)
    assert rule_eval(r, 0, 0)
    assert not rule_eval(r, 1, 1)


def test_rule_rejects_unknown_kind():
    with pytest.raises(FormatError):
        FacetRule("majority")
    # colours are non-negative, in rule pairs as on tiles
    with pytest.raises(FormatError):
        FacetRule("table", frozenset({(-1, 2)}))


def test_identical_rule_takes_no_pairs():
    # the compiled test of an identical rule compares colours and would
    # ignore the pairs
    with pytest.raises(FormatError, match="only valid with rule table"):
        FacetRule("identical", frozenset({(1, 2)}))
    with pytest.raises(FormatError, match="only valid with rule table"):
        parse_tileset(TS_TEXT.replace("rule table", "rule identical"))


def test_rule_test_matches_rule_eval_pair_by_pair():
    # the tile table's one test of two hue sequences, hue chr(h) standing
    # for the h-th of the sorted colours that the set's tiles show, accepts
    # exactly when rule_eval accepts every position's pair of colours: on
    # sets that show colour 0, and under tables whose pairs name colours
    # (5 and 6) that no tile shows; as tuples (the engine's and the pair
    # walk's) and as strings (the dense route's and the window checks')
    rng = random.Random(14)
    seen = {"zero": 0, "unshown": 0}
    for trial in range(200):
        if trial % 2:
            # one-sided pairs, which the rule closes, and (0, 0) listed or not
            pairs = {(rng.randint(0, 6), rng.randint(0, 6))
                     for _ in range(rng.randint(0, 8))}
            rule = FacetRule("table", frozenset(pairs))
        else:
            rule = FacetRule("identical")
        ts = square_set([[rng.randint(0, 4) for _ in range(4)]
                         for _ in range(rng.randint(1, 3))], rule)
        shown = sorted({c for p in ts.prototiles for c in p.colours})
        assert ts.table.ints == shown
        seen["zero"] += 0 in shown
        seen["unshown"] += any(c not in shown for pair in rule.pairs
                               for c in pair)
        hue = {c: chr(h) for h, c in enumerate(shown)}
        test = ts.table.test

        def agree(xs, ys, want):
            hx, hy = [hue[x] for x in xs], [hue[y] for y in ys]
            assert test(tuple(hx), tuple(hy)) == want, (rule, xs, ys)
            assert test("".join(hx), "".join(hy)) == want, (rule, xs, ys)

        n = rng.randint(0, 6)
        xs = [rng.choice(shown) for _ in range(n)]
        ys = [rng.choice(shown) for _ in range(n)]
        agree(xs, ys, all(rule_eval(rule, x, y) for x, y in zip(xs, ys)))
        # a sequence that passes everywhere but at its last position
        ok = [(x, y) for x in shown for y in shown if rule_eval(rule, x, y)]
        bad = [(x, y) for x in shown for y in shown
               if not rule_eval(rule, x, y)]
        if ok and bad and n:
            good = [rng.choice(ok) for _ in range(n - 1)] + [rng.choice(bad)]
            xs, ys = zip(*good)
            agree(xs, ys, False)
            agree(xs[:-1], ys[:-1], True)
        agree((), (), True)
        if 0 in shown:
            agree((0,), (0,), True)
            agree((0, 0), (0, 0), True)
    assert seen["zero"] >= 50 and seen["unshown"] >= 50, seen


# ---------------------------------------------------------------------------
# Prototiles and sets
# ---------------------------------------------------------------------------

def test_prototile_colour_count_enforced():
    with pytest.raises(FormatError):
        Prototile("t", SQ, (1, 2, 3))
    with pytest.raises(FormatError):
        Prototile("t", ShapeKind.CUBE, (1, 2, 3, 4))
    Prototile("t", ShapeKind.TRI_UP, (1, 2, 3))
    with pytest.raises(FormatError):
        Prototile("t", SQ, (1, -1, 2, 2))


def test_tileset_rejects_duplicate_ids_and_mixed_dimensions():
    with pytest.raises(FormatError):
        TileSet("x", (Prototile("a", SQ, (1, 1, 1, 1)),
                      Prototile("a", SQ, (2, 2, 2, 2))),
                FacetRule("identical"), "all")
    # one lattice per set: two lattices, or none, are refused
    for tiles in ((Prototile("a", SQ, (1, 1, 1, 1)),
                   Prototile("b", ShapeKind.CUBE, (1,) * 6)),
                  (Prototile("a", SQ, (1, 1, 1, 1)),
                   Prototile("u", ShapeKind.TRI_UP, (1, 1, 1))),
                  ()):
        with pytest.raises(FormatError):
            TileSet("x", tiles, FacetRule("identical"), "all")


def test_tileset_space_inference():
    ts = square_set([(1, 2, 3, 4)])
    assert ts.space == "square2d"
    tri = TileSet("t", (Prototile("u", ShapeKind.TRI_UP, (1, 2, 3)),
                        Prototile("d", ShapeKind.TRI_DOWN, (1, 2, 3))),
                  FacetRule("identical"), "all")
    assert tri.space == "tri2d"
    with pytest.raises(FormatError, match="one lattice"):
        TileSet("m", (Prototile("a", SQ, (1, 1, 1, 1)),
                      Prototile("u", ShapeKind.TRI_UP, (1, 1, 1))),
                FacetRule("identical"), "all")


# ---------------------------------------------------------------------------
# Effective facets
# ---------------------------------------------------------------------------

def test_effective_facets_identity_is_raw_colours():
    ts = square_set([(5, 6, 7, 8)])
    pl = Placement((0, 0), "p0", "r0")
    assert effective_facets(ts, pl) == (5, 6, 7, 8)


def test_effective_facets_quarter_turn():
    # r1 maps N->W, E->N, S->E, W->S, so reading the rotated tile in the
    # cell's own N,E,S,W order gives (E, S, W, N) of the original.
    ts = square_set([(5, 6, 7, 8)])
    pl = Placement((0, 0), "p0", "r1")
    assert effective_facets(ts, pl) == (6, 7, 8, 5)


def test_effective_facets_mirror():
    # m2 negates x: N stays N, E and W swap.
    ts = square_set([(5, 6, 7, 8)])
    pl = Placement((0, 0), "p0", "m2")
    assert effective_facets(ts, pl) == (5, 8, 7, 6)


def test_effective_facets_all_orientations_are_permutations():
    rng = random.Random(11)
    ts = square_set([(1, 2, 3, 4)])
    for code in space_codes("square2d"):
        eff = effective_facets(ts, Placement((0, 0), "p0", code))
        assert sorted(eff) == [1, 2, 3, 4]
    up = Prototile("u", ShapeKind.TRI_UP, (1, 2, 3))
    tri = TileSet("t", (up,), FacetRule("identical"), "all")
    for code in space_codes("tri2d"):
        eff = effective_facets(tri, Placement((0, 0, 0), "u", code))
        assert sorted(eff) == [1, 2, 3]


# ---------------------------------------------------------------------------
# Orientation admissibility
# ---------------------------------------------------------------------------

def test_placement_orientations_translations_only():
    assert placement_orientations("translations", SQ, SQ) == ("r0",)
    assert placement_orientations(
        "translations", ShapeKind.TRI_UP, ShapeKind.TRI_DOWN) == ()
    assert placement_orientations(
        "translations", ShapeKind.TRI_DOWN, ShapeKind.TRI_DOWN) == ("t0",)


def test_placement_orientations_full_group():
    assert len(placement_orientations("all", SQ, SQ)) == 8
    assert len(placement_orientations("all", ShapeKind.CUBE, ShapeKind.CUBE)) == 48
    ups = placement_orientations("all", ShapeKind.TRI_UP, ShapeKind.TRI_UP)
    flips = placement_orientations("all", ShapeKind.TRI_UP, ShapeKind.TRI_DOWN)
    assert len(ups) == 6 and len(flips) == 6
    assert set(ups) == {"t0", "t1", "t2", "t3", "t4", "t5"}
    assert set(flips) == {"ut0", "ut1", "ut2", "ut3", "ut4", "ut5"}


def test_placement_ok_messages():
    ts = square_set([(1, 1, 1, 1)], allowed="translations")
    region = RegionSpec("square2d", (2, 2), False)
    assert placement_ok(ts, region, Placement((0, 0), "p0", "r0")) is None
    assert "unknown tile" in placement_ok(ts, region, Placement((0, 0), "zz", "r0"))
    assert "outside" in placement_ok(ts, region, Placement((2, 0), "p0", "r0"))
    assert "not allowed" in placement_ok(ts, region, Placement((0, 0), "p0", "r1"))


# ---------------------------------------------------------------------------
# Patch validity against an independent midpoint-claims oracle
# ---------------------------------------------------------------------------

def oracle_patch_valid(ts, patch):
    """The violations patch_valid must report, in its order.

    Placement messages come first, in placement order.  Then each shared
    facet midpoint must carry a rule-compatible colour pair: collect
    (midpoint -> [(cell, facet, colour)]) over the legal placements, folding
    torus midpoints into the doubled extents.  This re-derives adjacency
    from exact midpoint coincidence instead of facet_neighbor.  A failing
    pair is reported from its smaller (cell, facet) side, and the failures
    in sorted order.
    """
    region = patch.region
    space = region.space
    violations = []
    claims = {}
    for cell, pl in patch.placements.items():
        msg = placement_ok(ts, region, pl)
        if msg is not None:
            violations.append(msg)
            continue
        eff = effective_facets(ts, pl)
        for f in range(FACET_COUNT[cell_kind(space, cell)]):
            mid = facet_midpoint2(space, cell, f)
            if region.torus:
                mid = tuple(c % (2 * e) for c, e in zip(mid, region.extents))
            claims.setdefault(mid, []).append((cell, f, eff[f]))
    fails = []
    for sides in claims.values():
        assert len(sides) <= 2
        if len(sides) == 2:
            (c1, f1, a), (c2, f2, b) = sorted(sides)
            if not rule_eval(ts.rule, a, b):
                fails.append((c1, f1, a, c2, f2, b))
    for c1, f1, a, c2, f2, b in sorted(fails):
        violations.append(f"facet rule fails between {c1} facet {f1} "
                          f"(colour {a}) and {c2} facet {f2} (colour {b})")
    return tuple(violations)


def random_patch_in(rng, ts, region, density=0.8, bad=0.0):
    """Random placements over the region.  With probability `bad` a
    placement is illegal: an unknown id, a cell outside the region or an
    orientation its cell does not allow."""
    space = region.space
    ids = [p.id for p in ts.prototiles]
    placements = {}
    for cell in region_cells(region):
        if rng.random() >= density:
            continue
        tid = rng.choice(ids)
        codes = placement_orientations(ts.allowed, ts.by_id[tid].kind,
                                       cell_kind(space, cell))
        code = rng.choice(codes or space_codes(space))
        if rng.random() < bad:
            fault = rng.randrange(3)
            if fault == 0:
                tid = "zz"
            elif fault == 1:
                cell = (cell[0] + region.extents[0],) + cell[1:]
            else:
                code = rng.choice(space_codes(space))
        placements[cell] = Placement(cell, tid, code)
    return Patch(ts.name, region, placements)


def seeded_set(space, seed, allowed, colours):
    ts = random_tileset(random.Random(seed), space, 4, colours)
    return TileSet(ts.name, ts.prototiles, ts.rule, allowed)


def test_patch_valid_matches_oracle_on_random_patches():
    # the oracle is the independent check of facet_pairs, the pair list
    # that the search engine's schedule, patch_valid and the window check
    # all read
    rng = random.Random(20260815)
    sets = [square_set([(1, 2, 1, 2), (2, 1, 2, 1), (1, 1, 2, 2)]),
            square_set([(1, 2, 1, 2), (1, 1, 2, 2)], allowed="translations"),
            seeded_set("tri2d", 3, "all", 2),
            seeded_set("tri2d", 5, "translations", 2),
            seeded_set("cube3d", 7, "all", 1),
            seeded_set("cube3d", 9, "translations", 1)]
    seen_valid = seen_invalid = seen_placement = 0
    # cube patches by [torus][valid]: the engine reads the pair list of
    # free cube regions (the cubes21 corona windows) as well as of tori
    seen_cubes = [[0, 0], [0, 0]]
    for trial in range(900):
        ts = sets[trial % len(sets)]
        # independent of the set, so every set meets free regions and tori
        torus = (trial // len(sets)) % 3 != 0
        extents = ((rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
                   if ts.space == "cube3d"
                   else (rng.randint(1, 4), rng.randint(1, 4)))
        region = RegionSpec(ts.space, extents, torus)
        # sparse patches too: a dense random cube torus is seldom valid
        patch = random_patch_in(rng, ts, region,
                                density=0.8 if trial % 4 else 0.3,
                                bad=0.1 if trial % 5 == 0 else 0.0)
        ok, violations = patch_valid(ts, patch)
        assert violations == oracle_patch_valid(ts, patch), patch
        assert ok == (not violations)
        seen_valid += ok
        seen_invalid += not ok
        seen_placement += any("facet rule" not in v for v in violations)
        if ts.space == "cube3d":
            seen_cubes[torus][ok] += 1
    assert seen_valid > 10 and seen_invalid > 10 and seen_placement > 10
    assert min(min(row) for row in seen_cubes) > 10, seen_cubes


def test_patch_valid_reports_on_extent_one_tori():
    # cells are their own facet neighbours across every extent-1 axis
    rng = random.Random(7)
    sets = [square_set([(1, 2, 1, 2), (2, 1, 2, 1), (1, 1, 2, 2)]),
            seeded_set("tri2d", 3, "all", 2),
            seeded_set("tri2d", 5, "translations", 2),
            seeded_set("cube3d", 7, "all", 1),
            seeded_set("cube3d", 9, "translations", 1)]
    seen_invalid = 0
    for ts in sets:
        tori = (((1, 1, 1), (1, 2, 1), (3, 1, 2)) if ts.space == "cube3d"
                else ((1, 1), (1, 2), (3, 1)))
        for extents in tori:
            region = RegionSpec(ts.space, extents, True)
            for _ in range(20):
                patch = random_patch_in(rng, ts, region, density=1.0)
                ok, violations = patch_valid(ts, patch)
                assert violations == oracle_patch_valid(ts, patch), patch
                seen_invalid += not ok
    assert seen_invalid > 10


def test_patch_valid_repeated_labels_match_oracle():
    # patch_valid reads each (tile, code, cell kind) off one table: a label
    # placed in and out of the region, and an unknown id and an illegal
    # orientation each on several cells, in shuffled order, must be
    # reported as the oracle reports them
    rng = random.Random(20261020)
    sets = [square_set([(1, 2, 1, 2), (2, 1, 2, 1), (1, 1, 2, 2)]),
            square_set([(1, 2, 1, 2), (1, 1, 2, 2)], allowed="translations"),
            seeded_set("tri2d", 3, "all", 2),
            seeded_set("tri2d", 5, "translations", 2)]
    seen = {"outside": 0, "unknown": 0, "not allowed": 0, "facet rule": 0}
    for trial in range(200):
        ts = sets[trial % 4]
        space = ts.space
        region = RegionSpec(space, (rng.randint(1, 4), rng.randint(1, 4)),
                            trial % 3 != 0)
        cells = region_cells(region)
        tid = rng.choice([p.id for p in ts.prototiles])
        kind = cell_kind(space, rng.choice(cells))
        legal = placement_orientations(ts.allowed, ts.by_id[tid].kind, kind)
        illegal = [c for c in space_codes(space) if c not in legal]
        code = rng.choice(legal or space_codes(space))
        same = [c for c in cells if cell_kind(space, c) is kind]
        placements = []
        for c in rng.sample(same, min(len(same), rng.randint(1, 4))):
            placements.append(Placement(c, tid, code))
        for _ in range(rng.randint(1, 3)):  # the same label, outside
            c = rng.choice(same)
            shift = rng.choice([region.extents[0], -region.extents[0] - 1])
            placements.append(Placement((c[0] + shift,) + c[1:], tid, code))
        rest = [c for c in cells if c not in {p.cell for p in placements}]
        rng.shuffle(rest)
        for c in rest[:rng.randint(0, 3)]:
            placements.append(Placement(c, "zz", code))
        if illegal:
            for c in [c for c in rest[3:] if cell_kind(space, c) is kind][:3]:
                placements.append(Placement(c, tid, rng.choice(illegal)))
        for c in rest[6:]:
            if rng.random() < 0.5:
                placements.append(Placement(c, rng.choice(
                    [p.id for p in ts.prototiles]), code))
        rng.shuffle(placements)
        patch = Patch(ts.name, region, {p.cell: p for p in placements})
        ok, violations = patch_valid(ts, patch)
        assert violations == oracle_patch_valid(ts, patch), patch
        for what in seen:
            seen[what] += sum(what in v for v in violations)
    assert min(seen.values()) > 20, seen


def test_patch_valid_reports_on_sparse_patch_with_holes():
    ts = square_set([(1, 2, 1, 2), (2, 1, 2, 1), (1, 1, 2, 2)])
    rng = random.Random(11)
    # a few clusters in a huge region: the check walks the placements only
    region = RegionSpec("square2d", (100000, 100000), False)
    placements = {}
    for cx, cy in ((0, 0), (500, 99998), (99998, 4)):
        for dx in range(3):
            for dy in range(2):
                if rng.random() < 0.7:
                    cell = (cx + dx, cy + dy)
                    tid = rng.choice(["p0", "p1", "p2"])
                    code = rng.choice(space_codes("square2d"))
                    placements[cell] = Placement(cell, tid, code)
    placements[(100000, 0)] = Placement((100000, 0), "p0", "r0")  # outside
    patch = Patch(ts.name, region, placements)
    ok, violations = patch_valid(ts, patch)
    assert not ok and "outside" in violations[0]
    assert violations == oracle_patch_valid(ts, patch)
    assert any("facet rule" in v for v in violations)


def test_patch_valid_free_boundary_is_unconstrained():
    ts = square_set([(1, 2, 3, 4)], allowed="translations")
    region = RegionSpec("square2d", (2, 1), False)
    # E of p0 is 2, W is 4: incompatible side by side under identical rule
    p = Patch("s", region, {
        (0, 0): Placement((0, 0), "p0", "r0"),
        (1, 0): Placement((1, 0), "p0", "r0"),
    })
    ok, violations = patch_valid(ts, p)
    assert not ok and len(violations) == 1
    # the same two tiles far apart in a bigger free region are fine
    region = RegionSpec("square2d", (3, 1), False)
    p = Patch("s", region, {
        (0, 0): Placement((0, 0), "p0", "r0"),
        (2, 0): Placement((2, 0), "p0", "r0"),
    })
    ok, _ = patch_valid(ts, p)
    assert ok


def test_patch_valid_torus_wraps():
    ts = square_set([(1, 1, 1, 1)], allowed="translations")
    region = RegionSpec("square2d", (1, 1), True)
    p = Patch("s", region, {(0, 0): Placement((0, 0), "p0", "r0")})
    ok, _ = patch_valid(ts, p)
    assert ok
    ts2 = square_set([(1, 2, 1, 2)], allowed="translations")  # N=1,E=2,S=1,W=2
    p2 = Patch("s", region, {(0, 0): Placement((0, 0), "p0", "r0")})
    ok2, _ = patch_valid(ts2, p2)
    assert ok2  # N meets own S (1=1), E meets own W (2=2)
    ts3 = square_set([(1, 2, 3, 4)], allowed="translations")
    ok3, violations = patch_valid(ts3, p2)
    assert not ok3 and len(violations) == 2


def test_tri_patch_validity():
    up = Prototile("u", ShapeKind.TRI_UP, (1, 2, 3))
    down = Prototile("d", ShapeKind.TRI_DOWN, (1, 2, 3))
    ts = TileSet("t", (up, down), FacetRule("identical"), "translations")
    region = RegionSpec("tri2d", (1, 1), True)
    p = Patch("t", region, {
        (0, 0, 0): Placement((0, 0, 0), "u", "t0"),
        (0, 0, 1): Placement((0, 0, 1), "d", "t0"),
    })
    ok, violations = patch_valid(ts, p)
    # facet i of the up cell meets facet i of a down cell; identical colours
    # match facet-wise, so all three adjacencies (one direct, two wrapped) hold
    assert ok, violations
    down_bad = Prototile("d", ShapeKind.TRI_DOWN, (1, 3, 2))
    ts_bad = TileSet("t", (up, down_bad), FacetRule("identical"), "translations")
    ok2, violations2 = patch_valid(ts_bad, p)
    assert not ok2 and len(violations2) == 2


def test_region_on_an_unknown_lattice_is_refused():
    # "hex2d" has a lattice's dimension but is no lattice: the region, the
    # patch text naming it and a patch to check on it are refused with
    # FormatError, not a KeyError from a per-lattice table
    with pytest.raises(FormatError, match="unknown space 'hex2d'"):
        RegionSpec("hex2d", (2, 2), False)
    with pytest.raises(FormatError, match="unknown space 'hex2d'"):
        parse_patch("patch s 2 2 free\n0 0 a r0\n", "hex2d")
    ts = load_bundled("wang13")
    with pytest.raises(FormatError, match="unknown space 'hex2d'"):
        patch_valid(ts, Patch(ts.name, RegionSpec("hex2d", (2, 2), False),
                              {}))


def test_placement_map_leaves_the_collector_as_it_was():
    # paused while the placements are built, then restored, also when the
    # build raises
    paused = []

    def cells():
        yield (0, 0)
        paused.append(not gc.isenabled())
        raise KeyError("cell")

    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert placement_map([(0, 0), (1, 0)], "ab", "rr") == {
                (0, 0): Placement((0, 0), "a", "r"),
                (1, 0): Placement((1, 0), "b", "r")}
            assert gc.isenabled() is enabled
            with pytest.raises(KeyError, match="cell"):
                placement_map(cells(), "ab", "rr")
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert paused == [True, True]


def test_parse_patch_builds_its_cells_with_the_collector_paused():
    # the line reader (lines out of sorted order) builds every cell tuple,
    # as well as every placement, with the collector paused, and the block
    # reader (the writer's form) builds them through placement_map when they
    # are first read: reading 20,000 lines wakes at most the one collection
    # that the pause defers, where each few hundred new tuples would wake one
    for order in ("y x", "x y"):
        text = "patch s 200 100 free\n" + "".join(
            f"{x} {y} a r0\n" for x in range(200) for y in range(100)
            if order == "x y") + "".join(
            f"{x} {y} a r0\n" for y in range(100) for x in range(200)
            if order == "y x")
        woken = []

        def count(phase, info):
            if phase == "start":
                woken.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(count)
        try:
            patch = parse_patch(text, "square2d")
            assert len(patch.placements) == 20000
        finally:
            gc.callbacks.remove(count)
            (gc.enable if was else gc.disable)()
        assert (patch.packed is None) == (order == "y x")
        assert len(woken) <= 1


def test_patch_names_the_first_misplaced_placement_in_dict_order():
    # Patch checks every key against its placement's cell at once; a patch
    # it refuses is read again to name the first offender in dict order,
    # which here is not sorted order
    rng = random.Random(35)
    region = RegionSpec("square2d", (4, 4), False)
    cells = region_cells(region)
    rng.shuffle(cells)
    n = len(cells)
    for picks in ([0], [n // 2], [n - 1], [n // 2, n - 1], [n - 1, 0]):
        placements = {cell: Placement(cell, "a", "r0") for cell in cells}
        for k in picks:
            placements[cells[k]] = Placement((9, k), "a", "r0")
        first = min(picks)
        with pytest.raises(FormatError) as refused:
            Patch("p", region, placements)
        assert str(refused.value) == \
            f"placement keyed by {cells[first]} but placed at {(9, first)}"


def test_region_cells_scan_order():
    r = RegionSpec("square2d", (2, 2), False)
    assert region_cells(r) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    rt = RegionSpec("tri2d", (2, 1), False)
    assert region_cells(rt) == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]
    rc = RegionSpec("cube3d", (2, 1, 2), False)
    assert region_cells(rc) == [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)]


def test_wrap_cell():
    r = RegionSpec("square2d", (3, 2), True)
    assert wrap_cell(r, (-1, 2)) == (2, 0)
    rt = RegionSpec("tri2d", (3, 2), True)
    assert wrap_cell(rt, (-1, 2, 1)) == (2, 0, 1)


def test_cells_off_the_lattice_are_no_cells_of_a_region():
    # a tuple of another arity, or a triangle orientation bit other than 0
    # or 1, lies in no region: patch_valid reports it as outside, and the
    # patch writer refuses it rather than write what reads back otherwise
    square = RegionSpec("square2d", (2, 2), False)
    tri = RegionSpec("tri2d", (2, 2), False)
    cube = RegionSpec("cube3d", (2, 2, 2), False)
    for region, inside, off in (
            (square, [(0, 0), (1, 1)], [(0, 0, 7), (1,), (), (0, 0, 0)]),
            (tri, [(0, 0, 0), (1, 1, 1)], [(0, 0, 5), (0, 0, -1), (1,),
                                           (0, 0), (0, 0, 0, 0)]),
            (cube, [(0, 0, 0), (1, 1, 1)], [(0, 0), (0, 0, 0, 0)])):
        assert all(cell_in_region(region, c) for c in inside), region
        assert not any(cell_in_region(region, c) for c in off), region
        assert cells_in_region(region, inside), region
        assert not any(cells_in_region(region, [*inside, c]) for c in off)
    # cell_kind still reads any non-zero bit as a down cell
    assert cell_kind("tri2d", (0, 0, 5)) is ShapeKind.TRI_DOWN
    ts = square_set([(1, 1, 1, 1)], allowed="translations")
    for cell in ((0, 0, 7), (1,)):
        patch = Patch("s", square, {(0, 0): Placement((0, 0), "p0", "r0"),
                                    cell: Placement(cell, "p0", "r0")})
        assert patch_valid(ts, patch) == (
            False, (f"cell {cell} outside region (2, 2)",))
        with pytest.raises(FormatError, match=re.escape(
                f"cannot write cell {cell}: it is no square2d cell")):
            serialize_patch(patch)
    up = Prototile("u", ShapeKind.TRI_UP, (1, 2, 3))
    tri_ts = TileSet("t", (up,), FacetRule("identical"), "translations")
    for cell in ((0, 0, 5), (1,)):
        patch = Patch("t", tri, {cell: Placement(cell, "u", "t0")})
        assert patch_valid(tri_ts, patch) == (
            False, (f"cell {cell} outside region (2, 2)",))
        with pytest.raises(FormatError, match=re.escape(
                f"cannot write cell {cell}: it is no tri2d cell")):
            serialize_patch(patch)
    # a lattice cell outside the region is still written, and read back
    for region, cell, code in ((square, (-1, 5), "r0"),
                               (tri, (3, -2, 1), "t0")):
        patch = Patch("s", region, {cell: Placement(cell, "p0", code)})
        assert parse_patch(serialize_patch(patch), region.space) == patch


def test_patch_valid_messages_and_their_order_are_pinned():
    # patch_valid looks each placement up in the set's table and words a
    # refusal by placement_ok: cells off the lattice (another arity, a
    # triangle bit past 1) never reach cell_kind, a tile of another lattice
    # finds no table for the region's kinds, and unknown tiles and codes
    # the cell's kind does not allow are named in placement order, before
    # the facet failures
    tri, wang, cubes = map(load_bundled, ("triangles6", "wang13", "cubes21"))
    cube = "sXYZ:+++/XYZ"
    cases = [
        (tri, RegionSpec("tri2d", (2, 2), False),
         [((1,), "u1", "t0"), ((0, 0, 0), "u1", "t0"),
          ((0, 0, 7), "d1", "t0"), ((0, 0, 1), "d2", "t0"),
          ((0, 0, 5), "u1", "t0"), ((1, 0, 0), "zz", "t0"),
          ((1, 0, 1), "u1", "t0"), ((0, 1, 0), "u2", "ut0"),
          ((0, 1, 1), "d1", "r0"), ((1, 1, 0), "u3", "t0")],
         ("cell (1,) outside region (2, 2)",
          "cell (0, 0, 7) outside region (2, 2)",
          "cell (0, 0, 5) outside region (2, 2)",
          "unknown tile id 'zz' at (1, 0, 0)",
          "orientation 't0' not allowed for tile u1 at (1, 0, 1)",
          "orientation 'ut0' not allowed for tile u2 at (0, 1, 0)",
          "orientation 'r0' not allowed for tile d1 at (0, 1, 1)",
          "facet rule fails between (0, 0, 0) facet 0 (colour 1) and "
          "(0, 0, 1) facet 0 (colour 2)")),
        (wang, RegionSpec("tri2d", (2, 2), False),
         [((0, 0, 0), "a1", "r0"), ((1,), "a2", "r0"),
          ((0, 0, 7), "zz", "r0"), ((1, 1, 1), "a3", "t0")],
         ("tile a1 does not live on the tri2d lattice",
          "tile a2 does not live on the tri2d lattice",
          "unknown tile id 'zz' at (0, 0, 7)",
          "tile a3 does not live on the tri2d lattice")),
        (wang, RegionSpec("square2d", (2, 2), True),
         [((0, 0), "a1", "r0"), ((1,), "a3", "r0"), ((0, 1), "a3", "r1"),
          ((1, 1), "zz", "r0"), ((0, 0, 7), "a4", "r0"),
          ((5, 5), "b1", "r0"), ((1, 0), "a4", "r0")],
         ("cell (1,) outside region (2, 2)",
          "orientation 'r1' not allowed for tile a3 at (0, 1)",
          "unknown tile id 'zz' at (1, 1)",
          "cell (0, 0, 7) outside region (2, 2)",
          "cell (5, 5) outside region (2, 2)",
          "facet rule fails between (0, 0) facet 1 (colour 1) and (1, 0) "
          "facet 3 (colour 2)")),
        (cubes, RegionSpec("cube3d", (2, 1, 1), False),
         [((0, 0, 0), "a1p0", cube), ((1, 0, 0), "a1p1", "r0"),
          ((0, 0), "a1p1", cube), ((0, 0, 0, 0), "zz", cube)],
         ("orientation 'r0' not allowed for tile a1p1 at (1, 0, 0)",
          "cell (0, 0) outside region (2, 1, 1)",
          "unknown tile id 'zz' at (0, 0, 0, 0)")),
    ]
    for ts, region, placed, expected in cases:
        patch = Patch(ts.name, region, {c: Placement(c, t, code)
                                        for c, t, code in placed})
        assert patch_valid(ts, patch) == (False, expected), (ts.name, region)


def test_patch_valid_words_the_one_cell_outside_in_its_place():
    # patch_valid checks the region once per patch and cell by cell only
    # when that check fails: in a patch all inside but one cell, of another
    # arity, negative, at the extent or with triangle bit 2, that cell is
    # worded as the per-cell oracle words it, in placement order, among an
    # unknown tile before or after it and the facet failures
    rng = random.Random(32)
    tri, wang, cubes = map(load_bundled, ("triangles6", "wang13", "cubes21"))
    for ts, region in ((wang, RegionSpec("square2d", (3, 2), False)),
                       (tri, RegionSpec("tri2d", (3, 2), True)),
                       (cubes, RegionSpec("cube3d", (2, 2, 3), True))):
        dim = len(region.extents)
        tri_bit = (0,) * (region.space == "tri2d")
        bad = [(0,) * (dim + len(tri_bit) + 1), (0,) * (dim - 1),
               (-1,) + (0,) * (dim - 1) + tri_bit,
               (0,) * (dim - 1) + (-1,) + tri_bit,
               (region.extents[0],) + (0,) * (dim - 1) + tri_bit,
               (0,) * (dim - 1) + region.extents[-1:] + tri_bit]
        if tri_bit:
            bad.append((1, 1, 2))
        for cell in bad:
            base = random_patch_in(rng, ts, region, density=1.0)
            placed = list(base.placements.values())
            outside = placed[0]._replace(cell=cell)
            k = rng.randrange(len(placed))
            placed[k] = placed[k]._replace(tile="zz")
            placed.insert(rng.randrange(len(placed) + 1), outside)
            patch = Patch(ts.name, region, {pl.cell: pl for pl in placed})
            ok, violations = patch_valid(ts, patch)
            assert violations == oracle_patch_valid(ts, patch), patch
            assert f"cell {cell} outside region {region.extents}" in violations


# ---------------------------------------------------------------------------
# Text round-trips
# ---------------------------------------------------------------------------

TS_TEXT = """\
tileset demo
space square2d
isometries all
rule table
pair 1 2
pair 3 3
tile a 1 2 3 0
tile b 2 1 0 3
"""


def test_parse_tileset_roundtrip():
    ts = parse_tileset(TS_TEXT)
    assert ts.name == "demo"
    assert ts.space == "square2d"
    assert ts.allowed == "all"
    assert rule_eval(ts.rule, 2, 1) and rule_eval(ts.rule, 3, 3)
    assert not rule_eval(ts.rule, 1, 3)
    assert [p.id for p in ts.prototiles] == ["a", "b"]
    assert ts.by_id["a"].colours == (1, 2, 3, 0)
    text = serialize_tileset(ts)
    assert parse_tileset(text) == ts
    assert serialize_tileset(parse_tileset(text)) == text


def test_tileset_writer_refuses_what_the_reader_cannot_return():
    ts = parse_tileset(TS_TEXT)
    for bad in UNREADABLE:
        renamed = (replace(ts, name=bad),
                   replace(ts, prototiles=(replace(ts.prototiles[0], id=bad),
                                           *ts.prototiles[1:])))
        for changed in renamed:
            with pytest.raises(FormatError, match=re.escape(repr(bad))):
                serialize_tileset(changed)
    # a keyword is a token like any other
    odd = replace(ts, name="tile", prototiles=(
        replace(ts.prototiles[0], id="pair"), *ts.prototiles[1:]))
    assert parse_tileset(serialize_tileset(odd)) == odd


def test_parse_tileset_tri_format():
    text = """\
tileset tri
space tri2d
isometries all
rule identical
tile u1 up 1 2 3
tile d1 down 3 2 1
"""
    ts = parse_tileset(text)
    assert ts.by_id["u1"].kind is ShapeKind.TRI_UP
    assert ts.by_id["d1"].kind is ShapeKind.TRI_DOWN
    assert serialize_tileset(parse_tileset(serialize_tileset(ts))) == \
        serialize_tileset(ts)


def test_parse_tileset_comments_and_errors():
    ts = parse_tileset("# heading\ntileset x # trailing\nspace square2d\n"
                       "isometries all\nrule identical\ntile a 1 1 1 1\n")
    assert ts.name == "x"
    for bad in (
        "tileset x\nspace square2d\nisometries all\nrule identical\n",  # no tiles
        "tileset x\nspace nowhere\nisometries all\nrule identical\ntile a 1 1 1 1\n",
        "tileset x\nspace square2d\nisometries all\nrule identical\ntile a 1 1 1\n",
        "tileset x\nspace square2d\nisometries all\nrule identical\n"
        "pair 1 2\ntile a 1 1 1 1\n",  # pairs with identical rule
        "tileset x\nspace square2d\nisometries all\nrule identical\n"
        "tile a 1 1 one 1\n",
        "tileset x\nspace tri2d\nisometries all\nrule identical\n"
        "tile a sideways 1 1 1\n",
        "space square2d\nisometries all\nrule identical\ntile a 1 1 1 1\n",
        "tileset x\nspace square2d\nisometries all\nrule table\n"
        "pair -1 2\ntile a 1 1 1 1\n",  # negative pair colour
    ):
        with pytest.raises(FormatError):
            parse_tileset(bad)
    # each header line appears once: a second space line would mix lattices
    head = ("tileset x\nspace square2d\nisometries all\nrule identical\n"
            "tile a 1 1 1 1\n")
    for line in ("tileset y", "space tri2d\ntile b up 1 1 1",
                 "isometries translations", "rule table"):
        with pytest.raises(FormatError, match="line 6: repeated"):
            parse_tileset(head + line + "\n")


PATCH_TEXT = """\
patch demo 2 2 free
0 0 a r0
1 0 b r1
0 1 a m2
"""


def test_parse_patch_roundtrip():
    p = parse_patch(PATCH_TEXT, "square2d", {"a", "b"})
    assert p.set_name == "demo"
    assert p.region == RegionSpec("square2d", (2, 2), False)
    assert p.placements[(1, 0)] == Placement((1, 0), "b", "r1")
    text = serialize_patch(p)
    assert parse_patch(text, "square2d", {"a", "b"}) == p
    assert serialize_patch(parse_patch(text, "square2d")) == text


def test_patch_writer_refuses_what_the_reader_cannot_return():
    p = parse_patch(PATCH_TEXT, "square2d", {"a", "b"})
    for bad in UNREADABLE:
        placements = dict(p.placements)
        placements[(1, 0)] = placements[(1, 0)]._replace(tile=bad)
        for changed in (replace(p, set_name=bad),
                        replace(p, placements=placements)):
            with pytest.raises(FormatError, match=re.escape(repr(bad))):
                serialize_patch(changed)
    # a code of another lattice, or none, and the triangle alias "u", which
    # reads back as ut0
    tri = parse_patch("patch t 1 1 free\n0 0 d d1 ut0\n", "tri2d")
    for patch, bad in ((p, "t0"), (p, "zz"), (p, "r 0"), (tri, "u")):
        cell = min(patch.placements)
        placements = {**patch.placements,
                      cell: patch.placements[cell]._replace(orientation=bad)}
        with pytest.raises(FormatError, match=re.escape(repr(bad))):
            serialize_patch(replace(patch, placements=placements))


def test_patch_writer_names_the_first_cells_label():
    # several labels that cannot be written: the refusal names the one of
    # the first sorted cell, whatever the hash seed
    bad = [("c#d", "r0", "'c#d'"), ("a", "zz", "'zz'"),
           ("a b", "r0", "'a b'")]
    region = RegionSpec("square2d", (3, 1), False)
    for shift in range(len(bad)):
        labels = bad[shift:] + bad[:shift]
        placements = {(x, 0): Placement((x, 0), tid, code)
                      for x, (tid, code, _) in enumerate(labels)}
        with pytest.raises(FormatError, match=re.escape(labels[0][2])):
            serialize_patch(Patch("s", region, placements))


def test_parse_patch_tri_and_bare_u_alias():
    text = "patch t 2 1 torus\n0 0 u u1 t0\n0 0 d d1 u\n"
    p = parse_patch(text, "tri2d", {"u1", "d1"})
    assert p.placements[(0, 0, 0)].tile == "u1"
    assert p.placements[(0, 0, 1)].orientation == "ut0"
    # serialization writes the canonical code, not the alias
    assert "ut0" in serialize_patch(p)


def test_parse_patch_errors():
    for bad in (
        "0 0 a r0\n",  # missing header
        "patch demo 2 free\n",  # bad header arity for square2d
        "patch demo 2 2 open\n",
        "patch demo 2 2 free\n0 0 zz r0\n",
        "patch demo 2 2 free\n0 0 a r9\n",
        "patch demo 2 2 free\n0 0 a r0\n0 0 a r0\n",  # duplicate cell
    ):
        with pytest.raises(FormatError):
            parse_patch(bad, "square2d", {"a", "b"})


@pytest.mark.parametrize("space, header, fields", [
    ("square2d", "patch demo 2 2 free", "x y tile code"),
    ("cube3d", "patch demo 2 2 2 free", "x y z tile code"),
    ("tri2d", "patch demo 2 2 free", "a b u|d tile code"),
], ids=["square", "cube", "tri"])
def test_parse_patch_names_the_fields_of_a_placement_line(space, header,
                                                          fields):
    # a line with one field too few or too many, as a patch of another
    # lattice has, is refused with the fields this lattice expects
    for line in ("0 0 a", "0 0 0 0 a t0"):
        with pytest.raises(FormatError) as e:
            parse_patch(f"{header}\n{line}\n", space)
        assert str(e.value) == f"line 2: expected {fields}"


def test_identity_codes():
    assert identity_code("square2d") == "r0"
    assert identity_code("cube3d") == "sXYZ:+++/XYZ"
    assert identity_code("tri2d") == "t0"
