"""Corona and atlas tests.

Oracle for the enumerator: on small square sets, brute-force every window
assignment (center times 3^8 ring fillings) through patch_valid; on small
triangle sets, grow every filling of the 13-cell window through patch_valid;
and compare the resulting corona sets.  Membership is checked along two routes
(materialized atlas vs decode-and-check) that must always agree.
"""

import itertools
import random

import pytest

from conftest import random_tileset
from tileatlas.atlas import (
    Atlas,
    BudgetExceeded,
    Corona,
    corona_in_atlas_implicit,
    corona_of,
    derive_atlas,
    enumerate_source_coronas,
    parse_atlas,
    serialize_atlas,
)
from tileatlas.geometry import ShapeKind, origin_cell, touching_offsets
from tileatlas.reduction import reduce_set
from tileatlas.tileset import (
    FacetRule,
    FormatError,
    Patch,
    Placement,
    Prototile,
    RegionSpec,
    TileSet,
    load_bundled,
    patch_valid,
    region_cells,
)


def brute_square_coronas(ts):
    """Independent route: every filling of the 3x3 window, validated whole."""
    region = RegionSpec("square2d", (3, 3), False)
    cells = region_cells(region)
    ids = [p.id for p in ts.prototiles]
    found = set()
    ring_cells = [c for c in cells if c != (1, 1)]
    for center in ids:
        for combo in itertools.product(ids, repeat=8):
            placements = {(1, 1): Placement((1, 1), center, "r0")}
            for c, tid in zip(ring_cells, combo):
                placements[c] = Placement(c, tid, "r0")
            ok, _ = patch_valid(ts, Patch(ts.name, region, placements))
            if ok:
                ring = []
                for off in touching_offsets(ShapeKind.SQUARE):
                    cc = (1 + off[0], 1 + off[1])
                    ring.append((placements[cc].tile, "r0"))
                found.add(Corona((center, "r0"), tuple(ring)))
    return found


def brute_tri_coronas(ts):
    """Independent route for triangles: the 13 window cells come from
    touching_offsets, and every tile is tried on every cell in ring order.
    A partial filling that patch_valid rejects is dropped; absent
    neighbours are unconstrained, so no valid filling is lost."""
    region = RegionSpec("tri2d", (3, 3), False)
    ids = [p.id for p in ts.prototiles]
    found = set()
    for center in ids:
        kind = ts.by_id[center].kind
        ccell = (1, 1, 0 if kind is ShapeKind.TRI_UP else 1)
        ring_cells = [(1 + a, 1 + b, o) for a, b, o in touching_offsets(kind)]
        partial = [{ccell: Placement(ccell, center, "t0")}]
        for cell in ring_cells:
            grown = []
            for placements in partial:
                for tid in ids:
                    trial = dict(placements)
                    trial[cell] = Placement(cell, tid, "t0")
                    if patch_valid(ts, Patch(ts.name, region, trial))[0]:
                        grown.append(trial)
            partial = grown
        for placements in partial:
            ring = tuple((placements[c].tile, "t0") for c in ring_cells)
            found.add(Corona((center, "t0"), ring))
    return found


def small_square_set(seed, n, colours):
    rng = random.Random(seed)
    return random_tileset(rng, "square2d", n, colours, name=f"s{seed}")


def test_enumerator_matches_brute_force_on_small_sets():
    for seed, n, colours in ((1, 2, 2), (2, 3, 2), (3, 3, 3), (4, 1, 1)):
        ts = small_square_set(seed, n, colours)
        assert enumerate_source_coronas(ts) == brute_square_coronas(ts)
    both_kinds = 0
    for seed, n, colours in ((11, 3, 1), (7, 4, 1), (14, 4, 1), (2, 3, 2),
                             (12, 2, 1)):
        ts = random_tileset(random.Random(seed), "tri2d", n, colours)
        coronas = enumerate_source_coronas(ts)
        assert coronas == brute_tri_coronas(ts)
        centre_kinds = {ts.by_id[c.center[0]].kind for c in coronas}
        both_kinds += len(centre_kinds) == 2
    assert both_kinds > 0


def test_triangles6_atlas_is_one_corona_per_tile():
    ts = load_bundled("triangles6")
    coronas = enumerate_source_coronas(ts)
    # the colour phase propagates through the facet-connected window, so each
    # center admits exactly one corona, uniformly in its own phase
    assert len(coronas) == 6
    centers = {c.center[0] for c in coronas}
    assert centers == {"u1", "u2", "u3", "d1", "d2", "d3"}
    for c in coronas:
        phase = c.center[0][1]  # the digit in u1/u2/u3/d1/d2/d3
        assert all(t[0][1] == phase for t in c.ring)


def test_wang13_corona_count_and_encoding_bijection():
    ts = load_bundled("wang13")
    coronas = enumerate_source_coronas(ts)
    assert len(coronas) == 1073  # regression anchor, computed by this pipeline
    rs = reduce_set(ts, "c1")
    atlas = derive_atlas(rs)
    assert len(atlas.coronas) == len(coronas)
    assert atlas.name == "wang13-c1"


def test_budget_guard():
    ts = load_bundled("wang13")
    with pytest.raises(BudgetExceeded):
        enumerate_source_coronas(ts, node_cap=50)
    # the smallest caps that succeed: every candidate tried in the window
    # counts, one per prototile at the centre included
    for name, cap in (("wang13", 40248), ("triangles6", 222)):
        ts = load_bundled(name)
        with pytest.raises(BudgetExceeded):
            enumerate_source_coronas(ts, node_cap=cap - 1)
        assert enumerate_source_coronas(ts, node_cap=cap)


def test_membership_routes_agree_on_random_coronas():
    rng = random.Random(20260815)
    ts = small_square_set(11, 3, 2)
    rs = reduce_set(ts, "c1")
    atlas = derive_atlas(rs)
    rep_ids = [r.id for r in rs.reps]
    codes = ["r0", "r1", "r2", "r3", "m0", "m1", "m2", "m3"]
    valid = sorted(atlas.coronas, key=Corona.sort_key)
    agree_in = agree_out = 0
    for trial in range(400):
        if valid and trial % 3 == 0:
            # perturb a valid corona in one position
            base = rng.choice(valid)
            ring = list(base.ring)
            i = rng.randrange(len(ring) + 1)
            entry = (rng.choice(rep_ids), rng.choice(codes))
            if i == len(ring):
                corona = Corona(entry, tuple(ring))
            else:
                ring[i] = entry
                corona = Corona(base.center, tuple(ring))
        else:
            corona = Corona(
                (rng.choice(rep_ids), rng.choice(codes)),
                tuple((rng.choice(rep_ids), rng.choice(codes)) for _ in range(8)),
            )
        a = corona in atlas
        b = corona_in_atlas_implicit(rs, corona)
        assert a == b, corona
        agree_in += a
        agree_out += not a
    assert agree_out > 0
    # every atlas corona passes both routes
    for corona in valid:
        assert corona in atlas
        assert corona_in_atlas_implicit(rs, corona)


def test_implicit_route_rejects_non_image_pairs():
    ts = load_bundled("wang13")
    rs = reduce_set(ts, "c1")
    atlas = derive_atlas(rs)
    some = next(iter(atlas.coronas))
    # (x1, m3) decodes to nothing (only 13 of the 16 pairs are used)
    bad_center = Corona(("x1", "m3"), some.ring)
    assert not corona_in_atlas_implicit(rs, bad_center)
    assert bad_center not in atlas
    ring = list(some.ring)
    ring[3] = ("x1", "m3")
    bad_ring = Corona(some.center, tuple(ring))
    assert not corona_in_atlas_implicit(rs, bad_ring)
    assert bad_ring not in atlas


# ---------------------------------------------------------------------------
# Corona extraction from patches
# ---------------------------------------------------------------------------

def test_corona_of_torus_patch_wraps():
    ts = load_bundled("triangles6")
    region = RegionSpec("tri2d", (1, 1), True)
    placements = {
        (0, 0, 0): Placement((0, 0, 0), "u2", "t0"),
        (0, 0, 1): Placement((0, 0, 1), "d2", "t0"),
    }
    c = corona_of(placements, region, (0, 0, 0))
    assert c is not None
    assert c.center == ("u2", "t0")
    # ring alternates over the two wrapped placements by cell kind
    offs = touching_offsets(ShapeKind.TRI_UP)
    for off, entry in zip(offs, c.ring):
        assert entry == (("u2", "t0") if off[2] == 0 else ("d2", "t0"))


def test_corona_of_free_patch_boundary_is_none():
    ts = small_square_set(21, 2, 2)
    region = RegionSpec("square2d", (3, 3), False)
    placements = {c: Placement(c, "p0", "r0") for c in region_cells(region)}
    assert corona_of(placements, region, (1, 1)) is not None
    assert corona_of(placements, region, (0, 0)) is None
    assert corona_of(placements, region, (2, 1)) is None
    assert corona_of(placements, region, (9, 9)) is None


# ---------------------------------------------------------------------------
# Dump format
# ---------------------------------------------------------------------------

def test_atlas_serialization_roundtrip_and_determinism():
    ts = load_bundled("triangles6")
    rs = reduce_set(ts, "c2")
    atlas = derive_atlas(rs)
    text = serialize_atlas(atlas)
    assert text.splitlines()[0] == "atlas triangles6-c2"
    back = parse_atlas(text)
    assert back == atlas
    assert serialize_atlas(back) == text
    lines = text.splitlines()[1:]
    assert lines == sorted(lines)


def test_parse_atlas_errors():
    for bad in (
        "x0 r0 : x0 r0\n",
        "atlas a\nx0 : x0 r0\n",
        "atlas a\nx0 r0 x0 r0\n",
        "atlas a\nx0 r0 : x0 r0 x1\n",
    ):
        with pytest.raises(FormatError):
            parse_atlas(bad)


def test_atlas_contains_dunder():
    ts = load_bundled("triangles6")
    rs = reduce_set(ts, "c1")
    atlas = derive_atlas(rs)
    some = next(iter(atlas.coronas))
    assert some in atlas
    assert Corona(("x0", "t5"), some.ring) not in atlas
