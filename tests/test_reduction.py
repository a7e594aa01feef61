"""Reduction tests.

Oracles: the counting formula vs the built representative list (two routes);
exact rational point arithmetic for the decoration stabilizer; bijectivity
and patch round-trips for the encoding.  Literal encodings of the bundled
sets are frozen as regression anchors.
"""

import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import UNREADABLE, random_tileset
from tileatlas.geometry import (
    KIND_SPACE,
    SPACE_KINDS,
    ShapeKind,
    image_kind,
    orientation_lift,
    point_group,
    space_codes,
)
from tileatlas.reduction import (
    DECORATION_POINT,
    _groups,
    DecodeError,
    DecoratedPrototile,
    ReducedSet,
    build_encoding,
    decode_patch,
    encode_patch,
    parse_reduced,
    partition_translation,
    reduce_set,
    reduced_cardinality,
    serialize_reduced,
)
from tileatlas.tileset import (
    FacetRule,
    FormatError,
    Patch,
    Placement,
    Prototile,
    RegionSpec,
    TileSet,
    load_bundled,
    parse_tileset,
    region_cells,
)
from tileatlas.solver import random_patch


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def test_partition_translation_square_and_tri():
    ts = load_bundled("wang13")
    assert partition_translation(ts) == [[p.id for p in ts.prototiles]]
    tri = load_bundled("triangles6")
    assert partition_translation(tri) == [["u1", "u2", "u3"], ["d1", "d2", "d3"]]


def up_down_set():
    """Up and down tiles interleaved, placed by translations."""
    kinds = {"up": ShapeKind.TRI_UP, "down": ShapeKind.TRI_DOWN}
    spec = ("a up", "b down", "c up", "d up", "e down", "f up", "g up",
            "h up", "i up")
    tiles = []
    for entry in spec:
        tid, kind = entry.split()
        tiles.append(Prototile(tid, kinds[kind], (1, 1, 1)))
    return TileSet("updown", tuple(tiles), FacetRule("identical"),
                   "translations")


def test_c2_merges_up_and_down():
    # c2 hosts every translation class of a set in one group: the largest
    # class first, the others after it in input order
    tri = load_bundled("triangles6")
    assert _groups(tri, "c2") == [
        (["u1", "u2", "u3", "d1", "d2", "d3"], ShapeKind.TRI_UP)]
    ts = load_bundled("wang13")
    assert _groups(ts, "c2") == [
        ([p.id for p in ts.prototiles], ShapeKind.SQUARE)]
    down_first = TileSet("t", tuple(reversed(tri.prototiles)), tri.rule,
                         tri.allowed)
    assert _groups(down_first, "c2") == [
        (["d3", "d2", "d1", "u3", "u2", "u1"], ShapeKind.TRI_DOWN)]


def test_up_down_encoding_is_pinned():
    ts = up_down_set()
    assert (reduced_cardinality(ts, "c1"), reduced_cardinality(ts, "c2")) == (3, 2)
    up = {"a": ("x0", "t0"), "c": ("x0", "t1"), "d": ("x0", "t2"),
          "f": ("x0", "t3"), "g": ("x0", "t4"), "h": ("x0", "t5"),
          "i": ("x1", "t0")}
    c1 = reduce_set(ts, "c1")
    assert [(r.id, r.kind) for r in c1.reps] == [
        ("x0", ShapeKind.TRI_UP), ("x1", ShapeKind.TRI_UP),
        ("x2", ShapeKind.TRI_DOWN)]
    assert c1.forward == {**up, "b": ("x2", "t0"), "e": ("x2", "t1")}
    c2 = reduce_set(ts, "c2")
    assert [(r.id, r.kind) for r in c2.reps] == [
        ("x0", ShapeKind.TRI_UP), ("x1", ShapeKind.TRI_UP)]
    # the down members continue the up host's numbering in the carrier coset
    assert c2.forward == {**up, "b": ("x1", "ut0"), "e": ("x1", "ut1")}


def test_each_lattice_is_one_isometry_class():
    # c2 hosts all translation classes of a set in one group on this fact
    for space, kinds in SPACE_KINDS.items():
        for a in kinds:
            for b in kinds:
                assert any(image_kind(a, c) is b for c in space_codes(space)), \
                    (a, b)


def test_class_group_orders():
    # a c1 representative carries one member per element of its class's
    # group: |G| members of one kind share one representative, |G| + 1 need two
    width = {ShapeKind.SQUARE: 4, ShapeKind.CUBE: 6,
             ShapeKind.TRI_UP: 3, ShapeKind.TRI_DOWN: 3}
    for kind, order in ((ShapeKind.SQUARE, 8), (ShapeKind.CUBE, 48),
                        (ShapeKind.TRI_UP, 6), (ShapeKind.TRI_DOWN, 6)):
        assert len(point_group(kind).codes) == order
        for n, count in ((order, 1), (order + 1, 2)):
            tiles = tuple(Prototile(f"p{i}", kind, (1,) * width[kind])
                          for i in range(n))
            ts = TileSet("one", tiles, FacetRule("identical"), "translations")
            assert reduced_cardinality(ts, "c1") == count
            reps, forward = build_encoding(ts, "c1")
            assert [r.kind for r in reps] == [kind] * count
            assert {forward[t.id] for t in tiles[:order]} == {
                ("x0", c) for c in point_group(kind).codes}


# ---------------------------------------------------------------------------
# Decoration points: exact rational stabilizer check
# ---------------------------------------------------------------------------

def lift_point(lift, p):
    m, t = lift.matrix, lift.shift
    return tuple(
        sum(Fraction(m[i][j]) * p[j] for j in range(len(p))) + t[i]
        for i in range(len(p))
    )


def test_decoration_points_have_trivial_stabilizer():
    for kind, (nums, den) in DECORATION_POINT.items():
        p = tuple(Fraction(n, den) for n in nums)
        fixers = []
        for code in point_group(kind).codes:
            lift = orientation_lift(kind, code)
            if lift_point(lift, p) == p:
                fixers.append(code)
        assert fixers == [point_group(kind).codes[0]], kind


def test_decoration_points_are_interior():
    for kind, (nums, den) in DECORATION_POINT.items():
        p = tuple(Fraction(n, den) for n in nums)
        if kind in (ShapeKind.SQUARE, ShapeKind.CUBE):
            assert all(abs(c) < Fraction(1, 2) for c in p)
        elif kind is ShapeKind.TRI_UP:
            assert all(c > 0 for c in p) and p[0] + p[1] < 1
        else:
            assert all(c < 1 for c in p) and p[0] + p[1] > 1


def test_down_decoration_is_point_reflection_of_up():
    (un, ud) = DECORATION_POINT[ShapeKind.TRI_UP]
    (dn, dd) = DECORATION_POINT[ShapeKind.TRI_DOWN]
    up = tuple(Fraction(n, ud) for n in un)
    down = tuple(Fraction(n, dd) for n in dn)
    assert tuple(1 - c for c in up) == down


# ---------------------------------------------------------------------------
# Counting: formula vs construction, and the frozen headline numbers
# ---------------------------------------------------------------------------

def test_bundled_set_counts():
    wang = load_bundled("wang13")
    assert reduced_cardinality(wang, "c1") == 2
    assert reduced_cardinality(wang, "c2") == 2
    cubes = load_bundled("cubes21")
    assert reduced_cardinality(cubes, "c1") == 1
    assert reduced_cardinality(cubes, "c2") == 1
    tri = load_bundled("triangles6")
    assert reduced_cardinality(tri, "c1") == 2
    assert reduced_cardinality(tri, "c2") == 1


def test_formula_matches_construction_on_random_sets():
    rng = random.Random(20260815)
    for _ in range(120):
        space = rng.choice(("square2d", "cube3d", "tri2d"))
        ts = random_tileset(rng, space, rng.randint(1, 40))
        for mode in ("c1", "c2"):
            rs = reduce_set(ts, mode)
            assert len(rs.reps) == reduced_cardinality(ts, mode)
            # every source tile is mapped, injectively
            assert set(rs.forward) == set(ts.by_id)
            assert len(rs.inverse) == len(rs.forward)


def test_c2_never_larger_than_c1():
    rng = random.Random(77)
    for _ in range(60):
        space = rng.choice(("square2d", "cube3d", "tri2d"))
        ts = random_tileset(rng, space, rng.randint(1, 30))
        assert reduced_cardinality(ts, "c2") <= reduced_cardinality(ts, "c1")


# ---------------------------------------------------------------------------
# The encoding itself
# ---------------------------------------------------------------------------

def test_wang13_encoding_is_the_documented_one():
    ts = load_bundled("wang13")
    rs = reduce_set(ts, "c1")
    assert [r.id for r in rs.reps] == ["x0", "x1"]
    assert all(r.kind is ShapeKind.SQUARE for r in rs.reps)
    order = ["r0", "r1", "r2", "r3", "m0", "m1", "m2", "m3"]
    want = {}
    for j, p in enumerate(ts.prototiles):
        want[p.id] = (f"x{j // 8}", order[j % 8])
    assert rs.forward == want
    # c2 coincides when there is a single class
    assert reduce_set(ts, "c2").forward == want


def test_cubes21_encoding_uses_one_rep():
    ts = load_bundled("cubes21")
    rs = reduce_set(ts, "c1")
    assert [r.id for r in rs.reps] == ["x0"]
    codes = space_codes("cube3d")
    for j, p in enumerate(ts.prototiles):
        assert rs.forward[p.id] == ("x0", codes[j])


def test_triangles6_c1_encoding():
    ts = load_bundled("triangles6")
    rs = reduce_set(ts, "c1")
    assert [(r.id, r.kind) for r in rs.reps] == [
        ("x0", ShapeKind.TRI_UP), ("x1", ShapeKind.TRI_DOWN)]
    assert rs.forward == {
        "u1": ("x0", "t0"), "u2": ("x0", "t1"), "u3": ("x0", "t2"),
        "d1": ("x1", "t0"), "d2": ("x1", "t1"), "d3": ("x1", "t2"),
    }


def test_triangles6_c2_encoding():
    ts = load_bundled("triangles6")
    rs = reduce_set(ts, "c2")
    assert [(r.id, r.kind) for r in rs.reps] == [("x0", ShapeKind.TRI_UP)]
    # up members carry the stabilizer elements; down members carry the
    # carrier coset (codes that map the up shape onto the down shape)
    assert rs.forward["u1"] == ("x0", "t0")
    assert rs.forward["u2"] == ("x0", "t1")
    assert rs.forward["u3"] == ("x0", "t2")
    for tid in ("d1", "d2", "d3"):
        rep, code = rs.forward[tid]
        assert rep == "x0"
        assert image_kind(ShapeKind.TRI_UP, code) is ShapeKind.TRI_DOWN
    # frozen convention (regression anchor)
    assert rs.forward["d1"] == ("x0", "ut4")
    assert rs.forward["d2"] == ("x0", "ut5")
    assert rs.forward["d3"] == ("x0", "ut3")


def test_rep_class_is_largest_then_first():
    up = [Prototile(f"u{i}", ShapeKind.TRI_UP, (1, 1, 1)) for i in range(2)]
    down = [Prototile(f"d{i}", ShapeKind.TRI_DOWN, (1, 1, 1)) for i in range(5)]
    ts = TileSet("t", tuple(up + down), FacetRule("identical"), "translations")
    rs = reduce_set(ts, "c2")
    # the down class is larger, so reps are down tiles and up members store
    # codes in the down->up carrier coset
    assert all(r.kind is ShapeKind.TRI_DOWN for r in rs.reps)
    assert len(rs.reps) == 2  # ceil(7/6)
    for tid in ("d0", "d1", "d2", "d3", "d4"):
        assert image_kind(ShapeKind.TRI_DOWN, rs.forward[tid][1]) is \
            ShapeKind.TRI_DOWN
    for tid in ("u0", "u1"):
        assert image_kind(ShapeKind.TRI_DOWN, rs.forward[tid][1]) is \
            ShapeKind.TRI_UP
    # members are numbered rep class first: d0..d4 get elements 0..4,
    # u0 gets element 5 of rep x0, u1 rolls over to rep x1
    assert rs.forward["u1"][0] == "x1"


def test_encoding_requires_translation_placed_sets():
    ts = TileSet("t", (Prototile("a", ShapeKind.SQUARE, (1, 1, 1, 1)),),
                 FacetRule("identical"), "all")
    # each reads the groups, which refuse the set before the mode is read,
    # with the message that ReducedSet and parse_reduced give
    for fn in (build_encoding, reduce_set, reduced_cardinality):
        for mode in ("c1", "c2", "c3"):
            with pytest.raises(FormatError, match=(
                    "^reduction is defined for translation-placed sets$")):
                fn(ts, mode)
    with pytest.raises(FormatError):
        reduced_cardinality(load_bundled("wang13"), "c3")


def test_stored_code_image_kind_matches_member_kind():
    rng = random.Random(5)
    for _ in range(40):
        space = rng.choice(("square2d", "cube3d", "tri2d"))
        ts = random_tileset(rng, space, rng.randint(1, 25))
        for mode in ("c1", "c2"):
            rs = reduce_set(ts, mode)
            rep_kind = {r.id: r.kind for r in rs.reps}
            for tid, (rep, code) in rs.forward.items():
                assert image_kind(rep_kind[rep], code) is ts.by_id[tid].kind


# ---------------------------------------------------------------------------
# Patch round-trip
# ---------------------------------------------------------------------------

def full_random_patch(rng, ts, extents, torus):
    region = RegionSpec(ts.space, extents, torus)
    placements = {}
    from tileatlas.tileset import identity_code
    ident = identity_code(ts.space)
    from tileatlas.geometry import cell_kind
    for cell in region_cells(region):
        kind = cell_kind(ts.space, cell)
        options = [p.id for p in ts.prototiles if p.kind is kind]
        if not options:
            continue
        placements[cell] = Placement(cell, rng.choice(options), ident)
    return Patch(ts.name, region, placements)


def test_encode_decode_roundtrip_random():
    rng = random.Random(123)
    for _ in range(60):
        space = rng.choice(("square2d", "cube3d", "tri2d"))
        ts = random_tileset(rng, space, rng.randint(1, 20))
        mode = rng.choice(("c1", "c2"))
        rs = reduce_set(ts, mode)
        extents = (2, 3, 2) if space == "cube3d" else (3, 2)
        patch = full_random_patch(rng, ts, extents, rng.random() < 0.5)
        enc = encode_patch(rs, patch)
        assert set(enc.placements) == set(patch.placements)
        assert decode_patch(rs, enc) == Patch(ts.name, patch.region,
                                              patch.placements)


def test_decode_rejects_pairs_outside_image():
    ts = load_bundled("wang13")
    rs = reduce_set(ts, "c1")
    region = RegionSpec("square2d", (1, 1), False)
    # (x1, r3) is b8; (x1, m3) is past the 13th tile and decodes to nothing
    good = Patch(rs.name, region, {(0, 0): Placement((0, 0), "x1", "r3")})
    assert decode_patch(rs, good).placements[(0, 0)].tile == "b8"
    bad = Patch(rs.name, region, {(0, 0): Placement((0, 0), "x1", "m3")})
    with pytest.raises(DecodeError):
        decode_patch(rs, bad)


def test_encode_rejects_oriented_sources_and_unknown_tiles():
    ts = load_bundled("wang13")
    rs = reduce_set(ts, "c1")
    region = RegionSpec("square2d", (1, 1), False)
    with pytest.raises(DecodeError):
        encode_patch(rs, Patch("wang13", region,
                               {(0, 0): Placement((0, 0), "a1", "r1")}))
    with pytest.raises(DecodeError):
        encode_patch(rs, Patch("wang13", region,
                               {(0, 0): Placement((0, 0), "zz", "r0")}))


def test_codec_names_the_first_offender_in_dict_order():
    # encode_patch and decode_patch read a patch in bulk; a patch they refuse
    # is read again placement by placement, so the message names the first
    # offender in the patch's own order (shuffled here, so not sorted
    # order), worded as before.  An encode offender's orientation is
    # checked before its tile
    rng = random.Random(35)
    ts = load_bundled("wang13")
    rs = reduce_set(ts, "c2")
    found = random_patch(ts, (5, 5), seed=2).patch
    items = list(found.placements.items())
    rng.shuffle(items)
    source = Patch(ts.name, found.region, dict(items))
    encoded = encode_patch(rs, source)
    n = len(items)
    for picks in ([0], [n // 2], [n - 1], [n // 2, n - 1], [n - 1, 0]):
        first = min(picks)
        bad = dict(encoded.placements)
        for k, cell in enumerate(bad):
            if k in picks:
                bad[cell] = bad[cell]._replace(tile="x9")
        cell = items[first][0]
        with pytest.raises(DecodeError) as refused:
            decode_patch(rs, Patch(rs.name, found.region, bad))
        assert str(refused.value) == (
            f"placement x9 {bad[cell].orientation} at {cell} does not "
            "decode to any source tile")
        for change, fault in (
                ({"orientation": "r1"},
                 "source placements must be translations, got 'r1'"),
                ({"tile": "zz"}, "tile 'zz' is not in the encoded set"),
                ({"tile": "zz", "orientation": "r2"},
                 "source placements must be translations, got 'r2'")):
            bad = dict(source.placements)
            for k, cell in enumerate(bad):
                if k == first:
                    bad[cell] = bad[cell]._replace(**change)
                elif k in picks:  # a later offender of the other kind
                    bad[cell] = bad[cell]._replace(
                        **({"tile": "zy"} if "orientation" in change
                           else {"orientation": "r3"}))
            with pytest.raises(DecodeError) as refused:
                encode_patch(rs, Patch(ts.name, found.region, bad))
            assert str(refused.value) == fault


# ---------------------------------------------------------------------------
# Text format round-trip
# ---------------------------------------------------------------------------

def test_reduced_serialization_roundtrip():
    for name in ("wang13", "cubes21", "triangles6"):
        ts = load_bundled(name)
        for mode in ("c1", "c2"):
            rs = reduce_set(ts, mode)
            text = serialize_reduced(rs)
            back = parse_reduced(text, ts)
            assert back == rs
            assert serialize_reduced(back) == text


def test_source_tile_named_rep_roundtrips():
    # "rep -> x0 r0" is an arrow line, not a malformed rep line
    ts = parse_tileset("tileset t\nspace square2d\nisometries translations\n"
                       "rule identical\ntile rep 1 2 3 4\ntile b 1 1 2 2\n")
    for mode in ("c1", "c2"):
        rs = reduce_set(ts, mode)
        text = serialize_reduced(rs)
        assert "\nrep -> " in text
        assert parse_reduced(text, ts) == rs


def test_reduced_writer_refuses_what_the_reader_cannot_return():
    ts = load_bundled("wang13")
    rs = reduce_set(ts, "c2")
    # a rep named "->" would make its rep line an arrow line
    for bad in (*UNREADABLE, "->"):
        tiles = (replace(ts.prototiles[0], id=bad), *ts.prototiles[1:])
        changed = [replace(rs, reps=(replace(rs.reps[0], id=bad),
                                     *rs.reps[1:]))]
        if bad != "->":
            changed += [replace(rs, name=bad),
                        reduce_set(replace(ts, prototiles=tiles), "c2")]
        for c in changed:
            with pytest.raises(FormatError, match=re.escape(repr(bad))):
                serialize_reduced(c)
    # a code outside the source set's lattice
    tid = ts.prototiles[0].id
    for bad in ("zz", "t0", "r 0"):
        changed = replace(rs, forward={**rs.forward, tid: ("x0", bad)})
        with pytest.raises(FormatError, match=re.escape(repr(bad))):
            serialize_reduced(changed)


def test_parse_reduced_errors():
    ts = load_bundled("triangles6")
    rs = reduce_set(ts, "c1")
    good = serialize_reduced(rs)
    for bad in (
        good.replace("reduced triangles6-c1 c1", "reduced t c9"),
        good.replace("u2 -> x0 t1\n", ""),  # missing mapping
        good.replace("u2 -> x0 t1", "u2 -> x9 t1"),  # unknown rep
        good.replace("u2 -> x0 t1", "u2 -> x0 t9"),  # unknown code
        good.replace("u2 -> x0 t1", "u1 -> x0 t1"),  # duplicate tile
        good + "u1 -> x0 t5\n",
        good.replace("rep x1 down", "rep x1 sideways"),
        good.replace("rep x1 down", "rep x1 square"),  # another lattice
        # on another lattice, though no tile maps to it
        good.replace("rep x1 down", "rep x1 down\nrep x9 cube"),
    ):
        with pytest.raises(FormatError):
            parse_reduced(bad, ts)
    for bad, message in (
        (good + "rep x0 up\n", "duplicate rep id 'x0'"),
        (good + "zz -> x0 t0\n", "unknown source tile 'zz'"),
    ):
        with pytest.raises(FormatError, match=message):
            parse_reduced(bad, ts)
    # a non-injective map is rejected at construction
    with pytest.raises(FormatError):
        parse_reduced(good.replace("u2 -> x0 t1", "u2 -> x0 t0"), ts)
    # ut0 is unused in c2, but it maps the up representative onto a down cell
    c2 = serialize_reduced(reduce_set(ts, "c2"))
    with pytest.raises(FormatError):
        parse_reduced(c2.replace("u1 -> x0 t0", "u1 -> x0 ut0"), ts)
    # the encoding is defined for translation-placed sources only
    with pytest.raises(FormatError):
        parse_reduced(good, TileSet(ts.name, ts.prototiles, ts.rule, "all"))


def test_reduced_set_maps_every_tile_of_a_translation_placed_source():
    # the constructor refuses what parse_reduced refuses after reading, with
    # its messages and in its order: a missing tile before a repeated label
    ts = load_bundled("triangles6")
    rs = reduce_set(ts, "c1")
    good = serialize_reduced(rs)
    gap = {tid: key for tid, key in rs.forward.items() if tid != "u2"}
    every = TileSet(ts.name, ts.prototiles, ts.rule, "all")
    for source, forward, text, message in (
            (ts, gap, good.replace("u2 -> x0 t1\n", ""),
             "tiles without mapping: ['u2']"),
            (ts, {**gap, "u3": ("x0", "t0")},
             good.replace("u2 -> x0 t1\n", "").replace("u3 -> x0 t2",
                                                       "u3 -> x0 t0"),
             "tiles without mapping: ['u2']"),
            (ts, {**rs.forward, "u3": ("x0", "t0")},
             good.replace("u3 -> x0 t2", "u3 -> x0 t0"),
             "encoding is not injective: ('x0', 't0') used by u1 and u3"),
            (every, rs.forward, good,
             "reduction is defined for translation-placed sets")):
        for make in (lambda: ReducedSet(rs.name, rs.mode, source, rs.reps,
                                        forward),
                     lambda: parse_reduced(text, source)):
            with pytest.raises(FormatError) as refused:
                make()
            assert str(refused.value) == message
    # so the encoded alphabet has a label for each source character, in the
    # order of the source set's tile table, and `chars` is its index
    for name in ("wang13", "cubes21", "triangles6", "kari14"):
        source = load_bundled(name)
        for mode in ("c1", "c2"):
            rs = reduce_set(source, mode)
            assert rs.labels == tuple(rs.forward[tid]
                                      for tid, _ in source.table.labels)
            assert list(rs.chars) == list(rs.labels)
            assert list(rs.chars.values()) == [
                *map(chr, range(len(source.table.labels)))]
