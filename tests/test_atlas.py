"""Corona and atlas tests.

Oracle for the enumerator: on small square sets, brute-force every window
assignment (center times 3^8 ring fillings) through patch_valid; on small
triangle sets, grow every filling of the 13-cell window through patch_valid;
and compare the resulting corona sets.  Membership is checked along two routes
(materialized atlas vs decode-and-check) that must always agree, and the
implicit route's row check, which reads the source set's one tile table
(TileSet.table), is compared with decoding the corona and running
patch_valid on the whole window.  The enumerator's re-check by column reads
the same table; it is compared with patch_valid on each window of crafted
batches.
"""

import gc
import hashlib
import io
import itertools
import math
import random
import re
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from functools import lru_cache
from operator import itemgetter

import pytest

from conftest import (UNREADABLE, brute_square_coronas,
                      engine_accepting_every_pair, kari_orbit_patch,
                      kari_tile, random_tileset)
import tileatlas.atlas
import tileatlas.box
from tileatlas.atlas import (
    LABEL_LIMIT,
    Atlas,
    BudgetExceeded,
    Corona,
    _corona_window,
    _refusal,
    _rows_ok,
    atlas_lines,
    corona_in_atlas_implicit,
    corona_of,
    derive_atlas,
    enumerate_source_coronas,
    missing_coronas,
    parse_atlas,
    serialize_atlas,
)
from tileatlas.geometry import (
    FACET_COUNT,
    KIND_SPACE,
    SPACE_KINDS,
    ShapeKind,
    cell_kind,
    origin_cell,
    space_codes,
    space_dim,
    touching_cell,
    touching_offsets,
)
from tileatlas.reduction import encode_patch, reduce_set
from tileatlas.search import region_search
from tileatlas.solver import EXHAUSTED, SolveConfig, count_solutions, solve
from tileatlas.tileset import (
    FacetRule,
    FormatError,
    Patch,
    Placement,
    Prototile,
    RegionSpec,
    TileSet,
    cell_in_region,
    effective_facets,
    identity_code,
    load_bundled,
    patch_valid,
    placement_ok,
    region_cells,
    wrap_cell,
)


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


def _encoded_atlas(rs, coronas) -> Atlas:
    """Atlas() of the source `coronas` encoded by `rs`."""
    def encode(label):
        return rs.forward[label[0]]
    return Atlas(rs.name, {Corona(encode(c.center), tuple(map(encode, c.ring)))
                           for c in coronas})


def test_enumerator_matches_brute_force_on_small_sets():
    # derive_atlas's table holds just the labels that its rows use, as
    # Atlas()'s does, also on sets with a tile in no corona
    unused = 0
    for seed, n, colours in ((1, 2, 2), (2, 3, 2), (3, 3, 3), (4, 1, 1)):
        ts = small_square_set(seed, n, colours)
        brute = brute_square_coronas(ts)
        assert enumerate_source_coronas(ts) == brute
        rs = reduce_set(ts, "c2")
        assert derive_atlas(rs) == _encoded_atlas(rs, brute)
        unused += len(derive_atlas(rs).labels) < len(ts.prototiles)
    both_kinds = 0
    for seed, n, colours in ((11, 3, 1), (7, 4, 1), (14, 4, 1), (2, 3, 2),
                             (12, 2, 1)):
        ts = random_tileset(random.Random(seed), "tri2d", n, colours)
        coronas = enumerate_source_coronas(ts)
        assert coronas == brute_tri_coronas(ts)
        rs = reduce_set(ts, "c2")
        assert derive_atlas(rs) == _encoded_atlas(rs, coronas)
        unused += len(derive_atlas(rs).labels) < len(ts.prototiles)
        centre_kinds = {ts.by_id[c.center[0]].kind for c in coronas}
        both_kinds += len(centre_kinds) == 2
    assert both_kinds > 0 and unused > 0


def test_enumerator_reorders_labels_past_latin1():
    # 256 fillers, each showing its own colour on all four facets, placed
    # before kari14's tiles, so that kari14's labels are the characters from
    # U+0100 on, which CPython stores in two bytes each: the enumerator
    # reorders such rows as it does one-byte ones.  A filler's one corona is
    # its own uniform window
    kari = load_bundled("kari14")
    fillers = tuple(Prototile(f"f{i}", ShapeKind.SQUARE, (100 + i,) * 4)
                    for i in range(256))
    ts = TileSet("wide", fillers + kari.prototiles, kari.rule, kari.allowed)
    ident = identity_code(ts.space)
    assert min(ts.table.chars[p.id, ident] for p in kari.prototiles) == "\u0100"
    uniform = {Corona((f.id, ident), ((f.id, ident),) * 8) for f in fillers}
    coronas = enumerate_source_coronas(ts)
    assert coronas == enumerate_source_coronas(kari) | uniform
    assert len(coronas) == 3052 + 256
    rs = reduce_set(ts, "c2")
    assert derive_atlas(rs) == _encoded_atlas(rs, coronas)


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
    # counts, each window searched in scan order
    for name, cap in (("wang13", 41626), ("triangles6", 240)):
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


def window_faults(ts, kind, tiles):
    """patch_valid's violations on the corona window of a `kind` centre, a
    free 3-wide region around it, its cells laid out by touching_cell and
    holding `tiles` (untransformed), centre first."""
    space = KIND_SPACE[kind]
    dim = space_dim(space)
    ccell = tuple(x + 1 for x in origin_cell(kind)[:dim]) \
        + origin_cell(kind)[dim:]
    cells = [ccell] + [touching_cell(kind, ccell, off)
                       for off in touching_offsets(kind)]
    ident = space_codes(space)[0]
    placements = {cell: Placement(cell, tile, ident)
                  for cell, tile in zip(cells, tiles)}
    region = RegionSpec(space, (3,) * dim, False)
    return patch_valid(ts, Patch(ts.name, region, placements))[1]


def window_valid(ts, kind, tiles):
    """Whether patch_valid accepts the window that window_faults reads."""
    return not window_faults(ts, kind, tiles)


def decode_and_check(rs, corona):
    """Oracle for the implicit route: decode every label and run patch_valid
    on the corona window."""
    center = rs.inverse.get(corona.center)
    if center is None:
        return False
    kind = rs.source.by_id[center].kind
    if len(corona.ring) != len(touching_offsets(kind)):
        return False
    tiles = [rs.inverse.get(label) for label in (corona.center, *corona.ring)]
    return None not in tiles and window_valid(rs.source, kind, tiles)


def oracle_inputs(rs, valid, rng):
    """Valid coronas, one-entry mutations of them, unknown and undecodable
    labels, random coronas and rings of the wrong lengths."""
    space = KIND_SPACE[rs.reps[0].kind]
    labels = [(r.id, code) for r in rs.reps for code in space_codes(space)]
    dead = [label for label in labels if label not in rs.inverse]
    ring_len = len(valid[0].ring)
    yield from valid
    for base in rng.sample(valid, min(len(valid), 300)):
        ring = list(base.ring)
        i = rng.randrange(ring_len + 1)
        entry = rng.choice(labels)
        if i == ring_len:
            yield Corona(entry, base.ring)
        else:
            ring[i] = entry
            yield Corona(base.center, tuple(ring))
    for base in valid[:20]:
        for bad in [("zz", "r0"), ("zz", space_codes(space)[1])] + dead[:4]:
            yield Corona(bad, base.ring)
            i = rng.randrange(ring_len)
            yield Corona(base.center, base.ring[:i] + (bad,) + base.ring[i + 1:])
        for n in (7, 8, 12, 26):
            ring = (base.ring * 4)[:n]
            yield Corona(base.center, ring)
    for _ in range(200):
        yield Corona(rng.choice(labels),
                     tuple(rng.choice(labels) for _ in range(ring_len)))


def assert_routes_match_oracle(rs, valid, rng):
    seen = {True: 0, False: 0}
    for corona in oracle_inputs(rs, valid, rng):
        expected = decode_and_check(rs, corona)
        assert corona_in_atlas_implicit(rs, corona) == expected, corona
        seen[expected] += 1
    assert seen[True] >= len(valid) and seen[False] > 0


def test_implicit_route_matches_decode_oracle():
    rng = random.Random(20261018)
    for name in ("wang13", "triangles6", "cubes21"):
        ts = load_bundled(name)
        for mode in ("c1", "c2"):
            rs = reduce_set(ts, mode)
            if name == "cubes21":
                # its atlas exceeds the default budget: take the interior
                # coronas of a found patch instead
                region = RegionSpec("cube3d", (4, 4, 4), False)
                patch = encode_patch(rs, solve(ts, region).patch)
                found = (corona_of(patch.placements, region, cell)
                         for cell in sorted(patch.placements))
                valid = [c for c in found if c is not None]
                assert len(valid) == 8
            else:
                valid = sorted(derive_atlas(rs).coronas, key=Corona.sort_key)
            assert_routes_match_oracle(rs, valid, rng)
    sets = {"square2d": 0, "tri2d": 0}
    for seed in range(40):
        space = ("square2d", "tri2d")[seed % 2]
        ts = random_tileset(random.Random(seed), space, 3 + seed % 4,
                            1 + seed % 2, name=f"r{seed}")
        for mode in ("c1", "c2"):
            rs = reduce_set(ts, mode)
            valid = sorted(derive_atlas(rs).coronas, key=Corona.sort_key)
            if valid:
                assert_routes_match_oracle(rs, valid, rng)
                sets[space] += 1
    assert sets["square2d"] >= 20 and sets["tri2d"] >= 10


def test_one_character_table_per_set_dies_with_it():
    # the engine, the enumerator, the implicit route and both routes of
    # patch_valid read one table, compiled when the set is made and kept in
    # its one table field
    base = load_bundled("wang13")
    rng = random.Random(5)
    args = (base.name, tuple(rng.sample(base.prototiles, len(base.prototiles))),
            base.rule, base.allowed)
    ts, twin = TileSet(*args), TileSet(*args)
    rs = reduce_set(ts, "c2")
    atlas = derive_atlas(rs)
    some = next(iter(atlas.coronas))
    assert corona_in_atlas_implicit(rs, some)
    patch = solve(ts, RegionSpec("square2d", (4, 4), False)).patch
    assert patch_valid(ts, patch) == (True, ())
    assert set(vars(ts)) == {"name", "prototiles", "rule", "allowed",
                             "space", "by_id", "table"}
    assert ts.table is not twin.table and ts.table == twin.table
    # the table is invisible to equality, hashing and repr
    assert ts == twin and hash(ts) == hash(twin) and repr(ts) == repr(twin)
    assert "table=" not in repr(ts)
    ref = weakref.ref(ts)
    del ts, rs, patch
    gc.collect()
    assert ref() is None


def test_encoded_characters_die_with_their_reduced_set():
    # the implicit route reads each encoded label's source character from
    # one table, composed when the reduced set is made and kept on it
    base = load_bundled("triangles6")
    ts = TileSet(base.name, base.prototiles[::-1], base.rule, base.allowed)
    rs, twin = reduce_set(ts, "c2"), reduce_set(ts, "c2")
    atlas = derive_atlas(rs)
    assert all(corona_in_atlas_implicit(rs, c) for c in atlas.coronas)
    some = next(iter(atlas.coronas))
    assert not corona_in_atlas_implicit(rs, Corona(("zz", "t0"), some.ring))
    chars, ident = ts.table.chars, identity_code(ts.space)
    assert rs.chars == {label: chars[tid, ident]
                        for label, tid in rs.inverse.items()}
    assert rs.chars is not twin.chars and rs.chars == twin.chars
    # and its inverse, the alphabet of an encoded packed patch
    assert rs.labels == tuple(sorted(rs.chars, key=rs.chars.get))
    assert set(vars(rs)) == {"name", "mode", "source", "reps", "forward",
                             "inverse", "chars", "labels", "verdicts"}
    # and the implicit route's verdicts, one per distinct row read
    assert rs.verdicts and not twin.verdicts
    # the tables are invisible to equality and repr
    assert rs == twin and repr(rs) == repr(twin)
    assert "chars=" not in repr(rs) and "labels=" not in repr(rs)
    assert "verdicts=" not in repr(rs)
    ref = weakref.ref(rs)
    del rs
    gc.collect()
    assert ref() is None


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


def test_corona_of_matches_touching_cell_walk():
    # oracle: the ring read through touching_cell, and wrap_cell on a
    # torus, on free and torus regions of every lattice with unequal
    # extents; a few cells outside the region are placed too.  On a free
    # region a cell outside it reads as unfilled, so a cell outside has no
    # corona; on a torus such a cell's ring wraps into the region
    rng, odd_rng = random.Random(7), random.Random(8)
    complete = Counter()
    for space, extents in (("square2d", (4, 6)), ("square2d", (1, 2)),
                           ("tri2d", (5, 4)), ("tri2d", (1, 3)),
                           ("cube3d", (4, 5, 6)), ("cube3d", (1, 2, 3))):
        for torus in (False, True):
            region = RegionSpec(space, extents, torus)
            cells = region_cells(region)
            near = sorted({touching_cell(cell_kind(space, c), c, off)
                           for c in cells
                           for off in touching_offsets(cell_kind(space, c))}
                          - set(cells))
            outside = rng.sample(near, 6) + [(9,) * len(cells[0])]
            # far off the region, below it and past it, and on tri2d with
            # an orientation bit of 2, which reads as a down cell; each is
            # placed apart from the cell it wraps to
            dim = len(extents)
            odd = [(-3,) * dim, (-1,) * (dim - 1) + (4 * extents[-1] + 1,)]
            if space == "tri2d":
                odd = [c + (b,) for c in odd for b in (1, 2)] + [
                    (extents[0] // 2, 1, 2)]
            placements = {c: Placement(c, f"t{rng.randrange(5)}",
                                       rng.choice(space_codes(space)))
                          for c in cells + outside if rng.random() < 0.97}
            placements.update({c: Placement(c, f"t{odd_rng.randrange(5)}",
                                            odd_rng.choice(space_codes(space)))
                               for c in odd})
            for cell in cells + outside + odd:
                kind = cell_kind(space, cell)
                ring = []
                for off in touching_offsets(kind):
                    n = touching_cell(kind, cell, off)
                    if torus:
                        n = wrap_cell(region, n)
                    pl = (placements.get(n) if cell_in_region(region, n)
                          else None)
                    ring.append(None if pl is None else (pl.tile, pl.orientation))
                pl = placements.get(cell)
                expected = None if pl is None or None in ring else Corona(
                    (pl.tile, pl.orientation), tuple(ring))
                assert corona_of(placements, region, cell) == expected
                complete[torus, "odd" if cell in odd else
                         cell in outside] += expected is not None
    assert complete[False, False] > 20 and complete[True, False] > 100
    assert complete[True, True] > 5 and complete[False, True] == 0, complete
    assert complete[True, "odd"] > 5, complete


def test_sparse_reads_in_a_huge_free_region_keep_what_they_read():
    # the ring tables fill a coordinate at a time, as it is first read, so
    # a sparse patch far out in a free region 10^9 wide costs what its cells
    # do; a table filled per extent would take the region's width.  The
    # coronas read are those of the same patch in a small region
    rng = random.Random(17)
    for space in ("square2d", "tri2d", "cube3d"):
        dim = space_dim(space)
        small = RegionSpec(space, (6,) * dim, False)
        huge = RegionSpec(space, (10 ** 9,) * dim, False)
        shift = tuple(rng.randrange(10 ** 8, 9 * 10 ** 8) for _ in range(dim))
        cells = region_cells(small)
        tiles = {c: (f"t{rng.randrange(3)}", rng.choice(space_codes(space)))
                 for c in cells}
        moved = {c: tuple(map(sum, zip(c, shift))) + c[dim:] for c in cells}
        near = {c: Placement(c, *tiles[c]) for c in cells}
        far = {moved[c]: Placement(moved[c], *tiles[c]) for c in cells}
        tileatlas.box.rings.cache_clear()
        gc.collect()
        tracemalloc.start()
        start = time.perf_counter()
        complete = sum(corona_of(far, huge, moved[c]) is not None
                       for c in cells)
        took = time.perf_counter() - start
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert complete == 4 ** dim * len(SPACE_KINDS[space])
        assert took < 2 and kept < 500 * len(cells), (space, took, kept)
        assert [corona_of(far, huge, moved[c]) for c in cells] == [
            corona_of(near, small, c) for c in cells]


def test_implicit_verdicts_are_the_row_checks(monkeypatch):
    # each distinct row's verdict is kept on its reduced set; every one,
    # first read or kept, is that of _rows_ok on the packed row, also past
    # the clear at MEMO_SIZE rows, here made small
    monkeypatch.setattr(tileatlas.atlas, "MEMO_SIZE", 40)
    rng = random.Random(20261021)
    checked = Counter()
    for seed, space in itertools.product(range(12), ("square2d", "tri2d",
                                                     "cube3d")):
        ts = random_tileset(random.Random(seed), space, 3 + seed % 4,
                            1 + seed % 2, name=f"v{seed}")
        rs = reduce_set(ts, ("c1", "c2")[seed % 2])
        kinds = {label: ts.by_id[tid].kind
                 for label, tid in rs.inverse.items()}
        labels = sorted(kinds)
        if space == "cube3d":  # its atlas may be large: a torus's coronas
            found = solve(ts, RegionSpec(space, (3, 3, 3), True)).patch
            patch = found and encode_patch(rs, found)
            coronas = [corona_of(patch.placements, patch.region, c)
                       for c in sorted(patch.placements)] if found else []
        else:
            coronas = sorted(derive_atlas(rs).coronas, key=Corona.sort_key)
        n = len(touching_offsets(kinds[labels[0]]))
        coronas += [Corona(rng.choice(labels),
                           tuple(rng.choice(labels) for _ in range(n)))
                    for _ in range(30)]
        for base in list(coronas):
            ring = list(base.ring)
            ring[rng.randrange(len(ring))] = rng.choice(labels)
            coronas.append(Corona(base.center, tuple(ring)))
        for corona in coronas * 2:
            row = "".join(rs.chars[label] for label in (corona.center,
                                                        *corona.ring))
            want = _rows_ok(ts.table, _corona_window(kinds[corona.center]),
                            [row])
            assert corona_in_atlas_implicit(rs, corona) is want, corona
            assert rs.verdicts[row] is want
            assert len(rs.verdicts) <= 40
            checked[space, want] += 1
    assert min(checked.values()) > 50 and len(checked) == 6, checked


def test_corona_of_free_patch_boundary_is_none():
    ts = small_square_set(21, 2, 2)
    region = RegionSpec("square2d", (3, 3), False)
    placements = {c: Placement(c, "p0", "r0") for c in region_cells(region)}
    assert corona_of(placements, region, (1, 1)) is not None
    assert corona_of(placements, region, (0, 0)) is None
    assert corona_of(placements, region, (2, 1)) is None
    assert corona_of(placements, region, (9, 9)) is None


def oracle_missing_coronas(atlas, patch):
    """missing_coronas cell by cell: corona_of, then `in atlas`."""
    missing, complete = [], 0
    for cell in sorted(patch.placements):
        corona = corona_of(patch.placements, patch.region, cell)
        if corona is not None:
            complete += 1
            if corona not in atlas:
                missing.append(cell)
    return missing, complete


def mutated_patches(rng, patch, labels):
    """The patch, then copies with holes, with a label no atlas holds on a
    few cells, and with a few cells relabelled from `labels`."""
    yield "whole", patch
    cells = sorted(patch.placements)
    for what in ("hole", "unknown", "wrong"):
        placements = dict(patch.placements)
        for cell in rng.sample(cells, min(len(cells), rng.randint(1, 3))):
            pl = placements[cell]
            if what == "hole":
                del placements[cell]
            elif what == "unknown":
                placements[cell] = Placement(cell, "zz", pl.orientation)
            else:
                tile, code = rng.choice(labels)
                placements[cell] = Placement(cell, tile, code)
        yield what, Patch(patch.set_name, patch.region, placements)


def test_missing_coronas_matches_per_cell_oracle(monkeypatch):
    rng = random.Random(20261019)
    seen = Counter()
    # count the calls that read every row of a patch's box at once
    box_rows = tileatlas.atlas.corona_rows

    def counted(region, text):
        seen["box reads"] += 1
        return box_rows(region, text)

    monkeypatch.setattr(tileatlas.atlas, "corona_rows", counted)

    def read(atlas, case):
        """missing_coronas, checked against the oracle, and the route it
        took: "box" or "oracle"."""
        before = seen["box reads"]
        got = missing_coronas(atlas, case)
        assert got == oracle_missing_coronas(atlas, case), case
        return got, ("oracle", "box")[seen["box reads"] - before]

    def check(atlas, patch, labels):
        # every case lies in its region, so it takes the box read when it
        # fills at least 1/2^dim of the box: all but holed extent-1 regions
        region = patch.region
        box = math.prod(e + (not region.torus) for e in region.extents) << (
            region.space == "tri2d")
        for what, case in mutated_patches(rng, patch, labels):
            (missing, complete), route = read(atlas, case)
            dense = len(case.placements) << space_dim(region.space) >= box
            assert route == ("oracle", "box")[dense], what
            seen[what, "member"] += complete - len(missing)
            seen[what, "missing"] += len(missing)
            seen[what, case.region.torus, route] += 1

    def check_sparse(atlas, patch, labels):
        # the same cells in the middle of a free 1000x1000 region: too
        # sparse for the box, read cell by cell; last, each cell of the
        # table's first label, chr(0), given a label the table lacks
        region = RegionSpec(patch.region.space, (1000, 1000), False)
        foreign = {c: pl._replace(tile="zz") for c, pl in
                   patch.placements.items()
                   if (pl.tile, pl.orientation) == labels[0]}
        for what, case in [*mutated_patches(rng, patch, labels), (
                "unknown", Patch(patch.set_name, patch.region,
                                 {**patch.placements, **foreign}))]:
            moved = [(c[0] + 500, c[1] + 500) for c in case.placements]
            (missing, complete), route = read(atlas, Patch("p", region, {
                c: Placement(c, pl.tile, pl.orientation)
                for c, pl in zip(moved, case.placements.values())}))
            assert route == "oracle" and len(moved) <= 20
            seen["sparse", "member"] += complete - len(missing)
            seen["sparse", "missing"] += len(missing)

    # derived atlases, c1 and c2, on the encodings of found patches, and the
    # wang13 ones in a sparse region too; wang13 has no torus patches
    for name, space, extents, tori in (("wang13", "square2d", (5, 4), (False,)),
                                       ("triangles6", "tri2d", (4, 3),
                                        (False, True))):
        ts = load_bundled(name)
        for mode in ("c1", "c2"):
            rs = reduce_set(ts, mode)
            atlas = derive_atlas(rs)
            for torus in tori:
                for seed in range(3):
                    found = solve(ts, RegionSpec(space, extents, torus),
                                  SolveConfig(seed=seed)).patch
                    patch = encode_patch(rs, found)
                    check(atlas, patch, atlas.labels)
                    if space == "square2d":
                        check_sparse(atlas, patch, atlas.labels)
    # every lattice, free and torus: atlases of half the coronas of a
    # random patch over a few labels; on tori of extent 1 and 2 a ring
    # repeats its cells or holds its centre, and a free region of extent 1
    # fills exactly 1/2^dim of its box
    def random_case(region):
        labels = [(t, code) for t in ("a", "b")
                  for code in space_codes(region.space)[:2]]
        patch = Patch("p", region, {c: Placement(c, *rng.choice(labels))
                                    for c in region_cells(region)})
        coronas = [corona_of(patch.placements, region, cell)
                   for cell in region_cells(region)]
        coronas = [c for c in coronas if c is not None]
        atlas = Atlas("half", rng.sample(coronas, len(coronas) // 2))
        return atlas, patch, labels

    for space, extents in (("square2d", (5, 4)), ("tri2d", (4, 3)),
                           ("cube3d", (4, 3, 3))):
        for torus in (False, True):
            for _ in range(4):
                check(*random_case(RegionSpec(space, extents, torus)))
    for space in ("square2d", "tri2d", "cube3d"):
        dim = space_dim(space)
        for extents in ((1,) * dim, (2,) * dim, (1,) + (2,) * (dim - 1)):
            for _ in range(3):
                check(*random_case(RegionSpec(space, extents, True)))
        for _ in range(3):
            check(*random_case(RegionSpec(space, (1,) * dim, False)))
    for what in ("whole", "hole", "unknown", "wrong", "sparse"):
        assert seen[what, "member"] > 20 and seen[what, "missing"] > 5, seen
    assert seen["whole", "missing"] > 50
    # whole, holed and foreign-label patches on free regions and on tori
    for what in ("whole", "hole", "unknown"):
        for torus in (False, True):
            assert seen[what, torus, "box"] > 15, seen

    # a hole and a label the atlas lacks in one patch, each read as its
    # own spare character in one box read, on each lattice, free and torus
    for space, extents in (("square2d", (5, 4)), ("tri2d", (4, 3)),
                           ("cube3d", (4, 3, 3))):
        for torus in (False, True):
            atlas, patch, _ = random_case(RegionSpec(space, extents, torus))
            placements = dict(patch.placements)
            hole, foreign = rng.sample(sorted(placements), 2)
            del placements[hole]
            placements[foreign] = placements[foreign]._replace(tile="zz")
            (missing, complete), route = read(
                atlas, Patch("p", patch.region, placements))
            assert route == "box"
            _, whole = oracle_missing_coronas(atlas, patch)
            seen["both", "holed"] += whole - complete
            seen["both", "foreign"] += foreign in missing
    assert seen["both", "holed"] > 5 and seen["both", "foreign"] > 1, seen

    # a cell outside its free region, next to it or far off, sends the
    # patch cell by cell; the cells inside keep their coronas
    for space, extents in (("square2d", (5, 4)), ("tri2d", (4, 3)),
                           ("cube3d", (4, 3, 3))):
        atlas, patch, labels = random_case(RegionSpec(space, extents, False))
        inside = oracle_missing_coronas(atlas, patch)
        for cell in ((extents[0],) + (1,) * (len(patch.region.extents) - 1)
                     + (0,) * (space == "tri2d"),
                     (-1,) * len(next(iter(patch.placements)))):
            placements = dict(patch.placements)
            placements[cell] = Placement(cell, *rng.choice(labels))
            got, route = read(atlas, Patch("p", patch.region, placements))
            assert route == "oracle" and got == inside

    # the same cells read under a free region, then tori of three shapes,
    # one of them as many cells as the patch but not its cells, and the free
    # region again: each reads the cells under its own region
    for space, extents, wider in (("square2d", (3, 4), (3, 5)),
                                  ("tri2d", (3, 2), (4, 2)),
                                  ("cube3d", (3, 3, 4), (3, 4, 4))):
        atlas, patch, _ = random_case(RegionSpec(space, extents, True))
        for region in (RegionSpec(space, extents, False), patch.region,
                       RegionSpec(space, wider, True),
                       RegionSpec(space, extents[::-1], True),
                       RegionSpec(space, extents, False)):
            read(atlas, Patch("p", region, patch.placements))


def test_missing_coronas_counts_a_short_row_missing():
    # a corona with a label the table lacks is missing, even from a
    # hand-built atlas that holds the same corona without that entry
    region = RegionSpec("square2d", (3, 3), True)
    placements = {c: Placement(c, "a", "r0") for c in region_cells(region)}
    placements[(0, 0)] = Placement((0, 0), "zz", "r0")
    patch = Patch("p", region, placements)
    full = corona_of(placements, region, (1, 1))
    assert ("zz", "r0") in full.ring
    short = Corona(full.center, tuple(x for x in full.ring if x[0] != "zz"))
    atlas = Atlas("short", [short])
    expected = oracle_missing_coronas(atlas, patch)
    assert expected == (sorted(placements), 9)
    assert missing_coronas(atlas, patch) == expected


# ---------------------------------------------------------------------------
# Kari's fourteen tiles: the paper's pair of square tiles
# ---------------------------------------------------------------------------

def kari_tiles(denominators: int, k_max: int) -> set:
    """(whether M_2 made it, its colours) for every tile of every x = p/q in
    [1/2, 2], q below `denominators`, at every column |k| <= `k_max`."""
    return {(p <= q, kari_tile(p, q, k))
            for q in range(1, denominators)
            for p in range(-(-q // 2), 2 * q + 1)
            for k in range(-k_max, k_max + 1)}


def test_kari14_is_regenerated_and_tiles():
    ts = load_bundled("kari14")
    tiles = kari_tiles(6, 6)
    assert kari_tiles(16, 6) == tiles
    assert len(tiles) == 14 and sum(m2 for m2, _ in tiles) == 4
    assert [p.colours for p in ts.prototiles] == sorted(t for _, t in tiles)
    assert [p.id for p in ts.prototiles] == (
        [f"a{i}" for i in range(1, 5)] + [f"b{i}" for i in range(1, 11)])
    assert (ts.space, ts.allowed, ts.rule.kind) == (
        "square2d", "translations", "identical")
    rs = {mode: reduce_set(ts, mode) for mode in ("c1", "c2")}
    assert [len(rs[mode].reps) for mode in rs] == [2, 2]
    for k in range(1, 10):
        assert solve(ts, RegionSpec("square2d", (k, k), True)).status \
            == EXHAUSTED, k
    patch = kari_orbit_patch(ts, 60)
    assert patch_valid(ts, patch) == (True, ())
    atlas = derive_atlas(rs["c2"])
    assert len(atlas.rows) == 3052
    encoded = encode_patch(rs["c2"], patch)
    assert (missing_coronas(atlas, encoded)
            == oracle_missing_coronas(atlas, encoded) == ([], 3364))


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


def test_atlas_writer_refuses_what_the_reader_cannot_return():
    ring = (("x1", "r0"),) * 8
    # a centre tile named ":" would read as the separator
    for bad in (*UNREADABLE, ":"):
        changed = [Atlas("a", {Corona((bad, "r0"), ring)}),
                   Atlas("a", {Corona(("x0", "r0"), (*ring[1:], (bad, "r0")))})]
        if bad != ":":
            changed.append(Atlas(bad, {Corona(("x0", "r0"), ring)}))
        for atlas in changed:
            with pytest.raises(FormatError, match=re.escape(repr(bad))):
                serialize_atlas(atlas)
    # a code no lattice has, or one of another lattice than the first
    # label's; "r 0" would read as a bad corona line
    for bad in ("r 0", "zz", "t0"):
        changed = [Atlas("a", {Corona(("x0", "r0"), (*ring[1:], ("x1", bad)))})]
        if bad != "t0":
            changed.append(Atlas("a", {Corona(("x0", bad), ring)}))
        for atlas in changed:
            with pytest.raises(FormatError, match=re.escape(repr(bad))):
                serialize_atlas(atlas)
    # a ring of another length than the lattice's touching count, beside
    # rows the reader would take
    for atlas, entries, space, count in (
            (Atlas("a", [Corona(("x0", "r0"), ring[:3])]), 3, "square2d", 8),
            (Atlas("a", [Corona(("x0", "r0"), ring),
                         Corona(("x1", "r0"), ring + ring[:1])]),
             9, "square2d", 8),
            (Atlas("a", [Corona(("x0", "t0"), (("x1", "t0"),) * 8)]),
             8, "tri2d", 12)):
        with pytest.raises(FormatError, match=re.escape(
                f"cannot write a ring of {entries} entries: {space} coronas "
                f"have {count}")):
            serialize_atlas(atlas)


def test_parse_atlas_errors():
    repeated = ("atlas a\nx0 r0 : " + "x1 r0 " * 8
                + "\nx1 r0 : " + "x0 r0 " * 8
                + "\n# again\nx0  r0 :  " + "x1 r0 " * 8 + "\n")
    for bad in (
        "x0 r0 : x0 r0\n",
        "atlas a\nx0 : x0 r0\n",
        "atlas a\nx0 r0 x0 r0\n",
        "atlas a\nx0 r0 : x0 r0 x1\n",
        # a 1-entry ring and the unknown code q9
        "atlas a\nx0 r0 : x0 r0\nzz q9 : x0 r0\n",
        "atlas a\nx0 q9 : " + "x0 r0 " * 8 + "\n",  # no lattice has q9
        "atlas a\nx0 u : " + "x0 t0 " * 12 + "\n",  # patch alias, not a code
        "atlas a\nx0 r0 : " + "x0 r0 " * 7 + "x0 t0\n",  # two lattices
        "atlas a\nx0 r0 : " + "x0 r0 " * 8 + "\nx0 t0 : " + "x0 t0 " * 12,
        "atlas a\nx0 t0 : " + "x0 t0 " * 8 + "\n",  # tri rings have 12
        "atlas a\nx0 sXYZ:+++/XYZ : " + "x0 sXYZ:+++/XYZ " * 8 + "\n",
        "atlas a\nx0 r0 : " + "x0 r0 " * 7 + ": r0\n",  # a tile named ":"
        repeated,  # one corona listed twice
    ):
        with pytest.raises(FormatError):
            parse_atlas(bad)
    with pytest.raises(FormatError,
                       match="line 5: repeats the corona of line 2$"):
        parse_atlas(repeated)
    # every line shape the reader refuses, with its message
    ring = "x1 r0 " * 8
    for bad, message in (
            ("", "missing atlas header"),
            ("# only a comment\n", "missing atlas header"),
            (f"x0 r0 : {ring}\n", "line 1: expected atlas header"),
            ("\n# c\natlas a b\n", "line 3: expected atlas header"),
            ("atlas a\nx0 r0\n", "line 2: bad corona line"),
            (f"atlas a\nx0 r0 {ring}\n", "line 2: bad corona line"),  # no ':'
            (f"atlas a\n: r0 : {ring}\n", "line 2: bad corona line"),
            (f"atlas a\nx0 : : {ring}\n", "line 2: bad corona line"),
            (f"atlas a\nx0 r0 x1 : {ring}\n", "line 2: bad corona line"),
            (f"atlas a\nx0 r0 : {ring}x1\n", "line 2: bad corona line"),
            (f"atlas a\n\nx0 r0 : {ring}: r0 x1\n", "line 3: bad corona line"),
            ("atlas a\nx0 r0 : " + "x1 r0 " * 7 + "\n",
             "line 2: ring of 7 entries; square2d coronas have 8"),
            (f"atlas a\nx0 r0 : {ring}x1 r0\n",
             "line 2: ring of 9 entries; square2d coronas have 8"),
            ("atlas a\nx0 t0 : " + "x1 t0 " * 13 + "\n",
             "line 2: ring of 13 entries; tri2d coronas have 12"),
            (f"atlas a\nx0 r0 : x1 : {ring[6:]}\n",
             "line 2: unknown orientation code ':'"),
            (f"atlas a\nx0 r0 : : r0 {ring[6:]}\n", "':' is no atlas tile id"),
            (f"atlas a\nx0 r0 : {ring}\n# c\nx1 r0 : {ring[:-3]}t0\n",
             "line 4: code 't0' is not a square2d code"),
    ):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_atlas(bad)
    # given the reduced set, every label must encode one of its tiles
    rs = reduce_set(load_bundled("wang13"), "c1")
    text = serialize_atlas(derive_atlas(rs))
    assert parse_atlas(text, rs) == parse_atlas(text)
    header, first, *_ = text.splitlines()
    center, ring = first.split(" : ")
    for label, line in (
            ("zz r0", f"zz r0 : {ring}"),  # unknown representative
            ("x1 m3", f"x1 m3 : {ring}"),  # a code no source tile uses
            ("x1 m3", f"{center} : x1 m3 {ring.split(' ', 2)[2]}"),
            ("zz r0", f"{center} : {ring.rsplit(' ', 2)[0]} zz r0")):
        bad = f"{header}\n{first}\n{line}\n"
        parse_atlas(bad)  # the label is only checked against a reduced set
        with pytest.raises(FormatError, match=f"line 3: {label} "):
            parse_atlas(bad, rs)


def test_parse_atlas_names_the_line_of_a_bad_ring_label():
    # each bad label is first met in a ring, on line 4: labels are checked
    # when first interned, whatever line that is
    rs = reduce_set(load_bundled("wang13"), "c1")
    header, first, second, *_ = serialize_atlas(derive_atlas(rs)).splitlines()
    center, ring = second.split(" : ")
    tail = ring.split(" ", 2)[2]  # the ring without its first entry
    for label, given, fault in (
            ("x1 q9", None, "unknown orientation code 'q9'"),
            ("x1 t0", None, "code 't0' is not a square2d code"),
            ("x1 m3", rs, "x1 m3 encodes no tile of wang13-c1")):
        bad = f"{header}\n{first}\n# a comment\n{center} : {label} {tail}\n"
        with pytest.raises(FormatError, match=f"^line 4: {re.escape(fault)}$"):
            parse_atlas(bad, given)
    # on a short ring the label is named before the ring's length
    short = f"{header}\n{first}\n{center} : x1 m3 {tail.split(' ', 2)[2]}\n"
    with pytest.raises(FormatError, match="^line 3: ring of 7 entries"):
        parse_atlas(short)
    with pytest.raises(FormatError, match="^line 3: x1 m3 encodes no tile"):
        parse_atlas(short, rs)


def _parse_outcome(text, rs):
    """parse_atlas's atlas, or its FormatError's message."""
    try:
        return tileatlas.atlas.parse_atlas(text, rs)
    except FormatError as e:
        return str(e)


def _parse_in_every_form(text, rs=None):
    """parse_atlas(text, rs), once every other form of the text has given
    the same atlas or the same error: the text with its "\\n" breaks
    replaced by other splitlines breaks, each read as a str, as a file's
    lines (which end at "\\n" alone) and as two reads cut anywhere, so a
    line, and a "\\r\\n", can be split across them."""
    want = _parse_outcome(text, rs)
    for sep in ("\n", "\r\n", "\x0c", "\u2028"):
        form = text.replace("\n", sep)
        # a long text is cut at a sample of positions
        cuts = range(0, len(form) + 1, 1 if len(form) < 1000 else 997)
        for lines in (form, io.StringIO(form),
                      *([form[:k], form[k:]] for k in cuts)):
            assert _parse_outcome(lines, rs) == want, (sep, lines)
    return tileatlas.atlas.parse_atlas(text, rs)


def test_line_reader_gives_the_text_readers_results(monkeypatch):
    # every case of the two error tests, read in every form
    monkeypatch.setattr(sys.modules[__name__], "parse_atlas",
                        _parse_in_every_form)
    test_parse_atlas_errors()
    test_parse_atlas_names_the_line_of_a_bad_ring_label()
    text = serialize_atlas(derive_atlas(reduce_set(load_bundled("triangles6"),
                                                   "c2")))
    assert tileatlas.atlas.parse_atlas(io.StringIO(text)) == \
        tileatlas.atlas.parse_atlas(text)


@pytest.mark.parametrize("name", ["wang13", "triangles6"])
def test_streamed_lines_join_to_the_atlas_text(name):
    # cubes21's 352.7 MB text is streamed by tests/check_cubes21_atlas.py,
    # which pins the digest of serialize_atlas's text
    for mode in ("c1", "c2"):
        atlas = derive_atlas(reduce_set(load_bundled(name), mode))
        lines = list(atlas_lines(atlas))
        assert all(line.endswith("\n") and line.count("\n") == 1
                   for line in lines)
        assert "".join(lines) == serialize_atlas(atlas)


def test_atlas_lines_stop_at_a_bad_row_mid_batch(monkeypatch):
    # a ring of 3 entries sorts between rings of 8: the writer yields every
    # line that sorts before it, each holding one "\n", then refuses it,
    # whether it falls inside the first block of rows or a later one
    ring = (("x1", "r0"),) * 8
    good = [Corona((f"x{i}", "r0"), ring) for i in (0, 1, 2, 3, 5, 6, 7)]
    bad = Corona(("x4", "r0"), ring[:3])
    atlas = Atlas("a", [*good, bad])
    want = serialize_atlas(Atlas("a", good[:4])).splitlines(True)
    message = "cannot write a ring of 3 entries: square2d coronas have 8"
    for rows in (None, 3):
        if rows:
            monkeypatch.setattr(tileatlas.atlas, "_LINES", rows)
        lines = []
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            lines.extend(atlas_lines(atlas))
        assert lines == want
        assert all(line.count("\n") == 1 and line.endswith("\n")
                   for line in lines)
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            serialize_atlas(atlas)
    # a label the writer refuses, centred on a code of another lattice or
    # on a tile holding a space, raises before the header: the label tables
    # are built first
    for label, bad in ((("zz", "t0"), "t0"), (("z z", "r0"), "z z")):
        atlas = Atlas("a", [*good[:2], Corona(label, ring)])
        lines = []
        with pytest.raises(FormatError, match=re.escape(repr(bad))):
            lines.extend(atlas_lines(atlas))
        assert lines == []


def _random_atlas(rng, labels, space, count):
    """An atlas of `count` random coronas over `labels` on `space`."""
    ring = len(touching_offsets(SPACE_KINDS[space][0]))
    return Atlas("r", {Corona(rng.choice(labels),
                              tuple(rng.choices(labels, k=ring)))
                       for _ in range(count)})


def _mutants(rng, text, space):
    """(what, text) for each mutation of writer-form atlas text, each at a
    random corona line: forms that the column route must leave to the line
    reader, and faults that both routes must name alike.  Some keep every
    line's count of spaces, so that only the route's other checks see
    them."""
    head, *lines = text.splitlines()
    foreign = next(space_codes(s)[0] for s in SPACE_KINDS if s != space)
    code = space_codes(space)[0]

    def at(change, first=1):
        k = rng.randrange(first, len(lines))
        changed = lines[:k] + change(lines[k], lines) + lines[k + 1:]
        return "\n".join([head, *changed]) + "\n"

    def token(k, value):  # the line with its k-th token replaced
        def change(line, _):
            toks = line.split(" ")
            toks[k] = value(toks[k])
            return [" ".join(toks)]
        return change

    def kept(form):  # a ring code merged with the next tile, then `form`
        def change(line, _):
            toks = line.split(" ")
            k = rng.randrange(4, len(toks) - 2, 2)
            toks[k:k + 2] = [toks[k] + toks[k + 1]]
            return [form(" ".join(toks))]
        return change

    mutants = [
        ("double space", at(lambda l, _: [l.replace(" ", "  ", 1)], 0)),
        ("double space, spaces kept", at(kept(
            lambda l: l.replace(" : ", " :  ", 1)))),
        ("leading space, spaces kept", at(kept(lambda l: " " + l))),
        ("trailing space, spaces kept", at(kept(lambda l: l + " "))),
        ("trailing space", at(lambda l, _: [l + " "])),
        ("CR LF line", at(lambda l, _: [l + "\r"])),
        ("CR LF text", text.replace("\n", "\r\n")),
        ("blank line", at(lambda l, _: ["", l])),
        ("comment line", at(lambda l, _: ["# a comment", l])),
        ("comment", at(lambda l, _: [l + " # a comment"])),
        ("comment, spaces kept", at(token(5, lambda t: "#"))),
        ("':' ring tile", at(token(5, lambda t: ":"))),
        ("':' centre tile", at(token(0, lambda t: ":"))),
        ("':' code", at(token(4, lambda t: ":"))),
        ("no ':'", at(token(2, lambda t: code))),
        ("unknown code", at(token(6, lambda t: "q9"))),
        ("foreign code", at(token(1, lambda t: foreign))),
        ("repeated row", at(lambda l, ls: [l, rng.choice(ls)])),
        ("repeated line", at(lambda l, _: [l, l])),
        ("short ring", at(lambda l, _: [l.rsplit(" ", 2)[0]])),
        ("long ring", at(lambda l, _: [l + " " + l.split(" ", 2)[0] + " "
                                       + l.split(" ", 2)[1]])),
        # a long ring, and a line that starts with its ring's ":": the
        # two lines' tokens would read as two rows of the lattice's width
        ("shifted rows", at(lambda l, _: [l + " " + " ".join(
            l.split(" ")[3:5]), ": " + " ".join(l.split(" ")[5:]) + " "
            + " ".join(l.split(" ")[3:5])])),
        # the centre tile moved to the end of the line before
        ("moved field", at(lambda l, _: [l + " " + l.split(" ")[0],
                                         l.split(" ", 1)[1]])),
        ("stranger label", at(token(3, lambda t: "z9"))),
        ("header again", at(lambda l, _: [head, l])),
    ]
    # whitespace that str.split splits at, and the line breaks, in a token
    for ch in "\t\x1f\xa0\u3000\r\x0b\u2028":
        mutants.append((f"{ch!r} in a token",
                        at(token(rng.randrange(9), lambda t: t + ch))))
    return mutants


def _unsorted_atlases(rng, labels, space):
    """(what, atlas) for two random atlases over `labels` whose writer-form
    text meets its labels out of sort order: the first label in sort order
    only in the ring of the last rows, which sort last, and a first line
    whose ring lists its labels in reverse sort order."""
    ring = len(touching_offsets(SPACE_KINDS[space][0]))
    labels = sorted(labels)
    low, rest = labels[0], labels[1:]
    late = {Corona(rng.choice(rest[:-1]), tuple(rng.choices(rest, k=ring)))
            for _ in range(150)}
    for k in range(3):
        around = rng.choices(rest, k=ring - 1)
        late.add(Corona(rest[-1], tuple(around[:k] + [low] + around[k:])))
    backwards = {Corona(rng.choice(rest), tuple(rng.choices(labels, k=ring)))
                 for _ in range(150)}
    backwards.add(Corona(low, tuple(sorted(rng.choices(labels, k=ring),
                                           reverse=True))))
    late, backwards = Atlas("r", late), Atlas("r", backwards)
    order = sorted(late.rows)
    assert [k for k, row in enumerate(order) if chr(0) in row] == \
        [len(order) - 3, len(order) - 2, len(order) - 1]
    ring = min(backwards.rows)[1:]
    assert list(ring) == sorted(ring, reverse=True) and len(set(ring)) > 1
    return [("first label in the last block only", late),
            ("first ring in reverse sort order", backwards)]


def _far_repeats(rng, text, space, rs):
    """(text, [(reduced set, message)], for None and `rs`) for writer-form
    `text` with a line of its first block of _ROWS after the first corona
    line listed again two or more blocks later: as it is, with a comment in
    the first listing's block and with one in the repeat's block, and with
    a faulty line before the repeat or after it, of each kind; of the
    repeat and the fault, the first in reading order is named.  Last, the
    text with a line listed again in the same block of _ROWS."""
    rows = tileatlas.atlas._ROWS
    lines = text.splitlines()
    first = rng.randrange(2, rows + 1)
    again = rng.randrange(2 + 2 * rows, len(lines) + 1)
    ring = len(touching_offsets(SPACE_KINDS[space][0]))
    givens = (None, rs) if rs else (None,)

    def repeat(changed, line=lines[first]):
        k = changed.index(line)
        return (f"line {changed.index(line, k + 1) + 1}: "
                f"repeats the corona of line {k + 1}")

    out = []
    for comment in (None, rng.randrange(2, first + 1),
                    rng.randrange(2 + 2 * rows, again + 1)):
        changed = lines[:again] + [lines[first]] + lines[again:]
        if comment is not None:
            changed[comment + (comment > again):comment] = ["# a comment"]
        out.append((changed, [(None, repeat(changed))]))
    # a faulty line, with the fault it names without and with `rs`, or
    # None where it names none; without `rs` a ring tile ":" is refused only
    # once every line is read
    toks = rng.choice(lines[1:]).split(" ")
    short = f"ring of {ring - 1} entries; {space} coronas have {ring}"
    faults = [
        (toks[:-2], short, short),
        (toks[:4] + ["q9"] + toks[5:], *["unknown orientation code 'q9'"] * 2),
        (["z9"] + toks[1:], None,
         rs and f"z9 {toks[1]} encodes no tile of {rs.name}"),
        (toks[:3] + [":"] + toks[4:], None,
         rs and f": {toks[4]} encodes no tile of {rs.name}")]
    for bad, *named in faults:
        for at in (rng.randrange(2, again + 1),
                   rng.randrange(again + 1, len(lines) + 2)):
            changed = lines[:again] + [lines[first]] + lines[again:]
            changed[at:at] = [" ".join(bad)]
            out.append((changed, [
                (given, f"line {at + 1}: {fault}" if fault and at <= again
                 else repeat(changed))
                for given, fault in zip(givens, named)]))
    # the same block of _ROWS, read by columns
    at = rng.randrange(2, rows)
    changed = lines[:at + 1] + [lines[at]] + lines[at + 1:]
    out.append((changed, [(given, repeat(changed, lines[at]))
                          for given in givens]))
    return [("\n".join(changed) + "\n", want) for changed, want in out]


@pytest.mark.parametrize("name, mode, seed", [
    ("wang13", "c1", 1), ("triangles6", "c2", 2), ("cubes21", "c2", 3)])
def test_column_route_reads_as_the_line_reader(monkeypatch, name, mode, seed):
    # writer-form text of a random atlas is read by the column route, all
    # but its header and first corona line; each mutant gives the line
    # reader's atlas or its exact error, with and without the reduced set,
    # read as a str and as pieces cut anywhere.  The second atlas's tiles
    # are named as codes, so that a misread token can still read as a label
    rng = random.Random(seed)
    rs = reduce_set(load_bundled(name), mode)
    space, codes = rs.source.space, space_codes(rs.source.space)
    reader = tileatlas.atlas._Reader
    columns, lines = reader.columns, reader.lines
    taken, by_lines = [], []

    def counted_columns(self, block):
        taken.append(columns(self, block))
        return taken[-1]

    def counted_lines(self, block):
        by_lines.extend(block)
        return lines(self, block)

    monkeypatch.setattr(reader, "lines", counted_lines)
    for labels, given in ((sorted(rs.inverse), rs),
                          ([(a, b) for a in codes[:4] for b in codes], None)):
        atlas = _random_atlas(rng, labels, space, 150)
        text = serialize_atlas(atlas)
        monkeypatch.setattr(reader, "columns", counted_columns)
        taken.clear(), by_lines.clear()
        assert parse_atlas(text) == parse_atlas(text, given) == atlas
        assert len(taken) >= 2 * math.ceil((len(atlas.rows) - 1)
                                           / tileatlas.atlas._ROWS)
        assert all(taken)
        assert by_lines == text.splitlines()[:2] * 2
        for what, mutant in _mutants(rng, text, space):
            for rs_given in (None, given) if given else (None,):
                monkeypatch.setattr(reader, "columns", counted_columns)
                cut = rng.randrange(len(mutant) + 1)
                got = [_parse_outcome(form, rs_given)
                       for form in (mutant, [mutant[:cut], mutant[cut:]])]
                monkeypatch.setattr(reader, "columns",
                                    lambda self, block: False)
                want = _parse_outcome(mutant, rs_given)
                assert got == [want, want], (what, rs_given)
        assert not all(taken)  # some mutant left a block to the line reader
        # labels met out of sort order: the rows read before the first
        # label in sort order is met are renumbered with the others
        for what, atlas in _unsorted_atlases(rng, labels, space):
            text = serialize_atlas(atlas)
            monkeypatch.setattr(reader, "columns", counted_columns)
            taken.clear(), by_lines.clear()
            assert parse_atlas(text, given) == atlas, what
            assert all(taken) and by_lines == text.splitlines()[:2], what
            assert _parse_in_every_form(text) == atlas, what
        # a repeat names both lines, also where its first listing was read
        # two or more blocks before, and by either route; of a repeat and a
        # fault, the first in reading order is named
        repeats = _far_repeats(rng, serialize_atlas(atlas), space, given)
        for text, want in repeats:
            for route in (counted_columns, lambda self, block: False):
                monkeypatch.setattr(reader, "columns", route)
                cut = rng.randrange(len(text) + 1)
                for rs_given, message in want:
                    for form in (text, [text[:cut], text[cut:]]):
                        assert _parse_outcome(form, rs_given) == message
        # the column route reads a block holding a repeat itself
        monkeypatch.setattr(reader, "columns", counted_columns)
        taken.clear()
        text, [(_, message), *_] = repeats[-1]
        assert _parse_outcome(text, None) == message and all(taken)


def test_corona_window_is_searched_in_scan_order():
    # each kind's window is assigned in the scan order of its region,
    # restricted to the window; a square or cube window is the whole region.
    # Its kind string names each cell's kind by its index
    for kind in ShapeKind:
        window = tileatlas.atlas._corona_window(kind)
        region, cells, order = window.region, window.cells, window.order
        kinds = SPACE_KINDS[region.space]
        assert window.kinds == "".join(
            chr(kinds.index(cell_kind(region.space, c))) for c in cells)
        assert order == tuple(c for c in region_cells(region) if c in cells)
        assert sorted(order) == sorted(cells), kind
        if kind in (ShapeKind.SQUARE, ShapeKind.CUBE):
            assert order == tuple(region_cells(region)), kind


def test_enumeration_is_the_solvers_count_on_square_and_cube_windows():
    # the enumerator's search over a square or cube window is the solver's
    # count over the free 3^d region: as many coronas, and a budget of that
    # count's nodes is the smallest that succeeds
    rng = random.Random(3113)
    sets = [load_bundled("wang13")]
    sets += [random_tileset(rng, "square2d", rng.randint(2, 6), colours=1)
             for _ in range(8)]
    sets += [random_tileset(rng, "cube3d", rng.randint(2, 4), colours=1)
             for _ in range(8)]
    found = Counter()
    for ts in sets:
        region = RegionSpec(ts.space, (3,) * space_dim(ts.space), False)
        full = count_solutions(ts, region)
        assert full.status != "limit"
        coronas = enumerate_source_coronas(ts, node_cap=full.nodes)
        assert len(coronas) == full.count, ts
        with pytest.raises(BudgetExceeded):
            enumerate_source_coronas(ts, node_cap=full.nodes - 1)
        found[ts.space] += full.count > 0
    # coronas on both lattices, so the counts compared are not all empty
    assert found["square2d"] and found["cube3d"], found


def test_parse_atlas_accepts_each_lattice():
    for code, ring in (("r0", 8), ("sXYZ:+++/XYZ", 26), ("ut3", 12)):
        text = "atlas a\n" + f"x0 {code} : " + f"x1 {code} " * ring + "\n"
        (corona,) = parse_atlas(text).coronas
        assert len(corona.ring) == ring
    assert parse_atlas("atlas empty\n").coronas == frozenset()


def test_admit_recheck_catches_engine_faults(monkeypatch):
    # an engine whose facet test accepts every tuple yields invalid
    # coronas; the enumerator's own re-check, which reads the set's table
    # test, must refuse the first of them, and patch_valid names the fault.
    # The cap keeps a dropped re-check from enumerating all 13^9 fillings:
    # it ends in BudgetExceeded, whose message does not match.
    engine_accepting_every_pair(monkeypatch)
    with pytest.raises(RuntimeError,
                       match="^incremental checks admitted an invalid corona: "
                             "facet rule fails between "):
        enumerate_source_coronas(load_bundled("wang13"), node_cap=1000)


def test_refused_batch_raises_though_patch_valid_accepts_it(monkeypatch):
    # a window check that refuses valid rows is a fault too: no row is
    # admitted, and the message names the batch patch_valid accepts
    monkeypatch.setattr(tileatlas.atlas, "_rows_ok",
                        lambda table, window, rows: False)
    with pytest.raises(RuntimeError, match=re.escape(
            "incremental checks admitted an invalid corona: the window "
            "check refuses SQUARE windows 0 to 1072, which patch_valid "
            "accepts")):
        enumerate_source_coronas(load_bundled("wang13"))


def test_derive_atlas_rechecks_every_corona(monkeypatch):
    # derive_atlas packs what the same re-check admits
    engine_accepting_every_pair(monkeypatch)
    with pytest.raises(RuntimeError,
                       match="incremental checks admitted an invalid corona"):
        derive_atlas(reduce_set(load_bundled("wang13"), "c2"), node_cap=1000)


def test_admit_recheck_catches_illegal_labels(monkeypatch):
    # an engine that reads every cell as its lattice's first kind offers up
    # triangles on down cells; the re-check's own legality tables refuse
    # it, and patch_valid names the placement
    import tileatlas.search
    monkeypatch.setattr(tileatlas.search, "cell_kind",
                        lambda space, cell: SPACE_KINDS[space][0])
    # plans cache their cells' kinds: the faulty ones are read into a cache
    # of their own, which goes with the patch
    monkeypatch.setattr(tileatlas.search, "_plan", lru_cache(maxsize=16)(
        tileatlas.search._plan.__wrapped__))
    with pytest.raises(RuntimeError, match=re.escape(
            "incremental checks admitted an invalid corona: orientation "
            "'t0' not allowed for tile u1 at (0, 0, 1) in ")):
        enumerate_source_coronas(load_bundled("triangles6"))


WINDOW_KINDS = (("wang13", (ShapeKind.SQUARE,)),
                ("triangles6", (ShapeKind.TRI_UP, ShapeKind.TRI_DOWN)),
                ("cubes21", (ShapeKind.CUBE,)))


def test_paint_matches_per_cell_placements():
    # a set's one tile table: every label that placement_ok accepts on a
    # cell of some kind, kind by kind in prototile then code order, is
    # chr(i) for the i-th of them, legal on exactly one kind, and its hue
    # per facet, in its hue tuple under its kind and in that facet's
    # translate table, stands for the colour effective_facets reads there:
    # chr(h) for the h-th of the sorted integer colours.  On the three
    # lattices, placed by translations and by all isometries, and on tri2d
    # sets with up triangles only; the table is invisible to equality,
    # hashing and repr
    rng = random.Random(7)
    sets = [load_bundled(name) for name, _ in WINDOW_KINDS]
    sets += [random_tileset(rng, space, rng.randint(1, 5), 4)
             for space in ("square2d", "tri2d", "cube3d") for _ in range(3)]
    for n in (1, 3):
        ts = random_tileset(rng, "tri2d", n, 4, name="up")
        sets.append(TileSet(ts.name, tuple(
            Prototile(p.id, ShapeKind.TRI_UP, p.colours)
            for p in ts.prototiles), ts.rule, ts.allowed))
    short = 0
    for base in sets:
        for allowed in ("translations", "all"):
            ts = TileSet(base.name, base.prototiles, base.rule, allowed)
            space, table = ts.space, ts.table
            kinds = SPACE_KINDS[space]
            region = RegionSpec(space, (2,) * space_dim(space), False)
            found = {}  # label -> (kind index, facets), per kind accepting it
            for k, kind in enumerate(kinds):
                cell = next(c for c in region_cells(region)
                            if cell_kind(space, c) is kind)
                for p in ts.prototiles:
                    for code in space_codes(space):
                        pl = Placement(cell, p.id, code)
                        if placement_ok(ts, region, pl) is None:
                            found.setdefault((p.id, code), []).append(
                                (k, effective_facets(ts, pl)))
            assert list(table.chars.items()) == [
                (label, chr(i)) for i, label in enumerate(found)]
            assert all(len(hits) == 1 for hits in found.values())
            colours = sorted({c for ((_, eff),) in found.values()
                              for c in eff})
            assert table.ints == colours
            assert len(table.colours) == FACET_COUNT[kinds[0]]
            assert list(table.hues) == list(kinds)
            for k, kind in enumerate(kinds):
                assert list(table.hues[kind]) == [
                    table.chars[label] for label, ((j, _),) in found.items()
                    if j == k], (ts.name, allowed, kind)
            for label, ((k, eff),) in found.items():
                ch = table.chars[label]
                i = ord(ch)
                assert table.kinds[i] == chr(k), (ts.name, allowed, label)
                hues = table.hues[kinds[k]][ch]
                assert [to[i] for to in table.colours] == list(hues)
                assert [colours[ord(h)] for h in hues] == list(eff), \
                    (ts.name, allowed, label)
            assert len(table.kinds) == len(found)
            assert all(len(to) == len(found) for to in table.colours)
            # a character outside the table reads as no kind
            for ch in (chr(len(found)), chr(len(found) + 1), "\uffff"):
                assert ch.translate(table.kinds) == ""
            short += len(found) < len(kinds)
            twin = TileSet(ts.name, ts.prototiles, ts.rule, ts.allowed)
            assert ts == twin and hash(ts) == hash(twin)
            assert repr(ts) == repr(twin) and "table=" not in repr(ts)
            assert ts.table is not twin.table
    assert short


def test_row_checks_refuse_characters_outside_the_table():
    # str.translate keeps a character that its table lacks; the kind table
    # deletes it, so a row holding one is refused.  Up triangles alone
    # under a rule that would accept a down cell's character chr(1), the
    # down kind's own, if it read as its kind and colour
    up = TileSet("up", (Prototile("u", ShapeKind.TRI_UP, (1, 2, 1)),),
                 FacetRule("table", frozenset({(1, 2), (2, 2)})),
                 "translations")
    table = up.table
    assert len(table.chars) == 1
    window = tileatlas.atlas._corona_window(ShapeKind.TRI_UP)
    row = window.kinds  # chr(0) on up cells, chr(1) on down ones
    assert not _rows_ok(table, window, [row])
    seen = 0
    for name, kinds in WINDOW_KINDS:
        ts = load_bundled(name)
        table = ts.table
        for kind in kinds:
            window = tileatlas.atlas._corona_window(kind)
            valid = window_rows(ts, kind, 20000, table.chars)[:3]
            assert valid and all(_rows_ok(table, window, [r]) for r in valid)
            for row, c in itertools.product(valid, range(len(window.cells))):
                for ch in (chr(len(table.chars)), window.kinds[c], "\uffff"):
                    if ch in table.chars.values():
                        continue
                    bad = row[:c] + ch + row[c + 1:]
                    assert not _rows_ok(table, window, [bad])
                    assert not _rows_ok(table, window, [*valid, bad])
                    seen += 1
    assert seen


def window_rows(ts, kind, limit, chars):
    """Valid windows of `ts` that the engine yields within `limit` nodes,
    packed as the enumerator packs them, and then each character of
    `ts.table` taken to the one that `chars` gives its label."""
    window = tileatlas.atlas._corona_window(kind)
    pick = itemgetter(*map(window.order.index, window.cells))
    rows = []
    region_search(ts, window.region, limit, rows=rows, cells=window.order)
    to = {ord(ch): chars[label] for label, ch in ts.table.chars.items()}
    return ["".join(pick(row)).translate(to) for row in rows]


def with_facet_variants(ts, rule):
    """`ts` under `rule`, its prototiles first, then per prototile and facet
    a copy whose colour there is new: put in a window for its original, it
    fails the one pair that facet is in, if any."""
    new = 1 + max(c for p in ts.prototiles for c in p.colours)
    variants = [Prototile(f"{p.id}~{f}", p.kind,
                          p.colours[:f] + (new,) + p.colours[f + 1:])
                for p in ts.prototiles for f in range(len(p.colours))]
    return TileSet(ts.name, ts.prototiles + tuple(variants), rule, ts.allowed)


def test_column_recheck_matches_window_valid():
    # a row passes the row check, and a batch the column check, exactly
    # when patch_valid accepts the window of the row, or of every row; a
    # refused batch is named by patch_valid's first violation on the first
    # row that it refuses
    rng = random.Random(2210)
    seen = Counter()
    for name, kinds in WINDOW_KINDS:
        base = load_bundled(name)
        colours = sorted({c for p in base.prototiles for c in p.colours})
        extra = {tuple(rng.sample(colours, 2)) for _ in range(3)}
        table = FacetRule("table", frozenset({(c, c) for c in colours}
                                             | extra))
        facets = len(base.prototiles[0].colours)
        for rule in (base.rule, table):
            ts = with_facet_variants(base, rule)
            ident = identity_code(ts.space)
            chars = ts.table.chars
            # the last label is none of the set's, as a faulty engine's
            labels = [*chars, ("zz", ident)]
            tiles = [t for t, _ in labels]
            for kind in kinds:
                window = tileatlas.atlas._corona_window(kind)
                # rows of the set without variants are rows of ts
                valid = window_rows(TileSet(name, base.prototiles, rule,
                                            base.allowed), kind, 20000, chars)
                assert len(valid) >= 3, (name, kind)
                # every one-cell change of a few valid windows to a tile of
                # the set, the unknown label or a variant of the tile there,
                # among valid rows and sometimes before a second changed row
                cells = range(len(window.cells))
                for row, c in itertools.product(valid[:3], cells):
                    tile = tiles[ord(row[c])]
                    for k in (*[chars[p.id, ident] for p in base.prototiles],
                              chr(len(chars)),
                              *[chars[f"{tile}~{f}", ident]
                                for f in range(facets)]):
                        rows = rng.choices(valid, k=3)
                        rows.insert(rng.randrange(4),
                                    row[:c] + k + row[c + 1:])
                        if rng.random() < 0.3:
                            other, d = rng.choice(valid), rng.choice(cells)
                            rows.append(other[:d] + rng.choice(valid)[d]
                                        + other[d + 1:])
                        verdicts = [window_valid(ts, kind,
                                                 [tiles[ord(x)] for x in r])
                                    for r in rows]
                        assert [_rows_ok(ts.table, window, [r])
                                for r in rows] == verdicts
                        ok = _rows_ok(ts.table, window, rows)
                        assert ok == all(verdicts)
                        if not ok:
                            first = rows[verdicts.index(False)]
                            faults = window_faults(
                                ts, kind, [tiles[ord(x)] for x in first])
                            named = [labels[ord(x)] for x in first]
                            assert _refusal(ts, kind, labels, rows, 0) == \
                                f"{faults[0]} in {named}"
                        seen[kind, rule.kind, ok] += 1
    # every window kind and rule kind met batches that pass and that fail
    for _, kinds in WINDOW_KINDS:
        for kind in kinds:
            for rule in ("identical", "table"):
                assert seen[kind, rule, True] and seen[kind, rule, False]


def test_atlas_contains_dunder():
    # a Corona equals the plain (center, ring) tuple, so the atlas and its
    # set view hold both, and the view compares equal to, and both ways as
    # a subset of, the frozenset of plain pairs; anything else, a ring that
    # is not iterable included, is in neither and raises nothing
    ts = load_bundled("triangles6")
    for mode in ("c1", "c2"):
        atlas = derive_atlas(reduce_set(ts, mode))
        some = next(iter(atlas.coronas))
        assert some in atlas
        assert Corona(("x0", "t5"), some.ring) not in atlas
        assert all((c.center, c.ring) in atlas for c in atlas.coronas)
        assert all((c.center, c.ring) in atlas.coronas for c in atlas.coronas)
        plain = frozenset((c.center, c.ring) for c in atlas.coronas)
        assert atlas.coronas == plain and plain == atlas.coronas
        assert plain <= atlas.coronas and atlas.coronas <= plain
        assert plain >= atlas.coronas and atlas.coronas >= plain
        for stranger in ((some.center, 5), (some.center, None),
                         (some.center, (["t5"],) * len(some.ring)),
                         (some.center,), (*some, ()), [some.center, some.ring],
                         None, 5, "ab"):
            assert stranger not in atlas
            assert stranger not in atlas.coronas


def shuffled(ts, seed):
    """`ts` with its prototiles in a seeded random order."""
    rng = random.Random(seed)
    return TileSet(ts.name, tuple(rng.sample(ts.prototiles,
                                             len(ts.prototiles))),
                   ts.rule, ts.allowed)


@pytest.mark.parametrize("name, mode, seed, digest", [
    ("wang13", "c1", None,
     "7069563faa079f986987dc233fbc2f6c42644754e63734237fc77b453bf7ead7"),
    ("wang13", "c2", None,
     "fee2b299aa397ed41d29f9993023e314d13880bf9428be5b8d45e67b2331dc39"),
    ("wang13", "c2", 1,
     "8b059cab7bd5bd5c257ef10147f86e7edc74edddd0aae4dc335acfe23ef73079"),
    ("wang13", "c2", 2,
     "7d235f181ed07d2a71d6f38d0038fe9c21ca38e7b8f7920aa487a19515fb31ef"),
    ("triangles6", "c1", None,
     "b8ffc44d8941da92ce0e36c11cc654f4d8ef58fab43e7128f7f57a7ebe242b67"),
    ("triangles6", "c2", None,
     "4ec14d0717a5dec5f1989d5b40366af46e9c91598f4316cb07a01e994bf5adb8"),
    ("triangles6", "c2", 1,
     "b3924e00d764ee19fab9a3f6e0f591cf1c2a63c88f1d4faba263ef2d499810fa"),
    ("triangles6", "c2", 2,
     "406a1fe77694b473b45d873fdc7707e7b9190af296aa31f587efc8c04945d5c7"),
])
def test_atlas_text_is_pinned(name, mode, seed, digest):
    # the atlas text byte for byte, in the bundled and two shuffled
    # prototile orders: packing and sorting must not move a line
    ts = load_bundled(name)
    if seed is not None:
        ts = shuffled(ts, seed)
    text = serialize_atlas(derive_atlas(reduce_set(ts, mode)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_wide_label_table():
    # more than 256 labels, so some row holds an index of 256 or more.  Ids
    # are chosen so that string order differs from numeric order, and the
    # lines are read shuffled, so the table grows past 256 part way through
    # the text and the first-use order is far from the sorted one.
    rng = random.Random(2026)
    labels = [(f"x{i}", code) for i in range(150) for code in ("r0", "m3")]
    coronas = {Corona(rng.choice(labels),
                      tuple(rng.choice(labels) for _ in range(8)))
               for _ in range(600)}

    def line(c):
        return " ".join([*c.center, ":", *(t for e in c.ring for t in e)])

    lines = [line(c) for c in coronas]
    rng.shuffle(lines)
    atlas = parse_atlas("atlas wide\n" + "\n".join(lines) + "\n")
    assert len(atlas.labels) > 256
    assert {len(row) for row in atlas.rows} == {9}
    assert max(max(map(ord, row)) for row in atlas.rows) >= 256
    text = serialize_atlas(atlas)
    assert text.splitlines() == ["atlas wide"] + [
        line(c) for c in sorted(coronas, key=Corona.sort_key)]
    back = parse_atlas(text)
    assert back == atlas == Atlas("wide", coronas)
    assert serialize_atlas(back) == text
    assert len(atlas.coronas) == len(coronas)
    assert set(atlas.coronas) == coronas
    assert all(c in atlas for c in coronas)
    some = next(iter(coronas))
    for stranger in (Corona(("zz", "r0"), some.ring),
                     Corona(some.center, some.ring[:3] + (("x1", "q9"),)
                            + some.ring[4:]),
                     Corona(some.center, some.ring[:7]),
                     Corona(some.center, some.ring + some.ring[:1]),
                     Corona(some.center, ())):
        assert stranger not in atlas
        assert stranger not in atlas.coronas


def test_label_limit(monkeypatch):
    # a label index is a character, so a table holds at most the range of
    # chr; past the limit the interner refuses the text instead of chr
    # raising ValueError
    assert LABEL_LIMIT == sys.maxunicode + 1
    monkeypatch.setattr(tileatlas.atlas, "LABEL_LIMIT", 4)
    three = "atlas a\nx0 r0 : " + "x1 r0 x2 r0 " * 4 + "\n"
    four = three + "x3 r0 : " + "x0 r0 " * 8 + "\n"
    assert len(parse_atlas(four).labels) == 4
    with pytest.raises(FormatError, match="at most 4 labels"):
        parse_atlas(four + "x4 r0 : " + "x0 r0 " * 8 + "\n")
    with pytest.raises(FormatError, match="at most 4 labels"):
        Atlas("a", [Corona((f"x{i}", "r0"), (("x0", "r0"),) * 8)
                    for i in range(5)])
    # missing_coronas needs two characters past the table's; without them
    # it reads even a whole torus cell by cell
    monkeypatch.setattr(tileatlas.atlas, "corona_rows", None)
    region = RegionSpec("square2d", (3, 3), True)
    patch = Patch("p", region, {c: Placement(c, f"x{sum(c) % 4}", "r0")
                                for c in region_cells(region)})
    atlas = parse_atlas(four)
    assert missing_coronas(atlas, patch) == oracle_missing_coronas(
        atlas, patch) == (sorted(patch.placements), 9)


def test_column_route_leaves_the_label_limit_to_the_line_reader(monkeypatch):
    # a block whose new labels would pass the limit is read line by line,
    # so a fault on an earlier line of it is still the one named
    monkeypatch.setattr(tileatlas.atlas, "LABEL_LIMIT", 4)

    def line(centre, *ring):
        return " ".join([centre, "r0", ":", *(f"{t} r0" for t in ring)])

    lines = ["atlas a", line("x0", *["x1"] * 8), line("x1", *["x0"] * 8)]
    last = line("x2", "x3", *["x4"] * 7)
    with pytest.raises(FormatError,
                       match="^line 4: repeats the corona of line 3$"):
        parse_atlas("\n".join([*lines, lines[-1], last, ""]))
    with pytest.raises(FormatError, match="^an atlas holds at most 4 labels$"):
        parse_atlas("\n".join([*lines, last, ""]))


def test_packed_rows_follow_sort_key_order():
    # rows sort as Corona.sort_key does, and the coronas view behaves as
    # the set it replaced
    atlas = derive_atlas(reduce_set(load_bundled("wang13"), "c2"))
    assert list(atlas.labels) == sorted(atlas.labels)
    assert {len(row) for row in atlas.rows} == {9}
    assert Atlas("none", []).labels == ()
    order = sorted(atlas.coronas, key=Corona.sort_key)
    by_rows = [Corona(atlas.labels[ord(r[0])],
                      tuple(atlas.labels[ord(i)] for i in r[1:]))
               for r in sorted(atlas.rows)]
    assert by_rows == order
    assert atlas.coronas == frozenset(order) == set(atlas.coronas)
    assert hash(atlas.coronas) == hash(frozenset(order))
    assert {atlas.coronas: 1}[frozenset(order)] == 1
    some = order[0]
    assert atlas.coronas - {some} == frozenset(order[1:])
    assert Atlas(atlas.name, atlas.coronas - {some}) != atlas
