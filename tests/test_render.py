"""Renderer tests.

The load-bearing property is that glyphs are chiral and asymmetric (so every
orientation of a placed representative is visually distinct) and that output
bytes are a pure function of the patch.
"""

import hashlib
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

import tileatlas.render as render
from tileatlas.geometry import (
    KIND_SPACE,
    ShapeKind,
    image_kind,
    orientation_lift,
    point_group,
    space_codes,
)
from tileatlas.reduction import DECORATION_POINT
from tileatlas.render import (
    GLYPH,
    colour_hex,
    render_reduced_patch,
    render_source_patch,
)
from tileatlas.reduction import encode_patch, reduce_set
from tileatlas.solver import random_patch, solve_atlas, SolveConfig
from tileatlas.tileset import (
    Patch,
    Placement,
    RegionSpec,
    load_bundled,
)


def glyph_point_set(kind):
    pts = set()
    for stroke in GLYPH[kind]:
        for p in stroke:
            pts.add(tuple(Fraction(c) for c in p))
    return pts


def lift_point(lift, p):
    return tuple(
        sum(Fraction(lift.matrix[i][j]) * p[j] for j in range(len(p)))
        + lift.shift[i]
        for i in range(len(p))
    )


def apply_lift(lift, pts):
    return {lift_point(lift, p) for p in pts}


def test_glyphs_have_trivial_stabilizer():
    for kind in (ShapeKind.SQUARE, ShapeKind.TRI_UP, ShapeKind.TRI_DOWN):
        pts = glyph_point_set(kind)
        codes = point_group(kind).codes
        for code in codes[1:]:
            lift = orientation_lift(kind, code)
            assert apply_lift(lift, pts) != pts, (kind, code)


def test_glyph_images_distinct_across_all_orientations():
    # not only is the stabilizer trivial; all 8 (resp. 12) images differ,
    # so a rendered placement pins down its orientation code
    for kind in (ShapeKind.SQUARE, ShapeKind.TRI_UP):
        pts = glyph_point_set(kind)
        images = set()
        for code in space_codes("square2d" if kind is ShapeKind.SQUARE
                                else "tri2d"):
            lift = orientation_lift(kind, code)
            images.add(frozenset(apply_lift(lift, pts)))
        assert len(images) == (8 if kind is ShapeKind.SQUARE else 12)


def test_source_render_square_structure():
    wang = load_bundled("wang13")
    patch = random_patch(wang, (3, 2), seed=1).patch
    svg = render_source_patch(wang, patch)
    ET.fromstring(svg)  # well-formed XML
    assert svg.startswith("<svg ")
    # per cell: background, 4 strips, outline
    assert svg.count("<polygon") == 6 * 6


def test_source_render_tri_structure():
    tri = load_bundled("triangles6")
    patch = random_patch(tri, (2, 2), seed=0, torus=True).patch
    svg = render_source_patch(tri, patch)
    ET.fromstring(svg)
    assert svg.count("<polygon") == 8 * 5  # background, 3 strips, outline


def test_source_render_cube_structure():
    cubes = load_bundled("cubes21")
    patch = random_patch(cubes, (2, 2, 2), seed=3).patch
    svg = render_source_patch(cubes, patch)
    ET.fromstring(svg)
    assert svg.count("<polygon") == 8 * 6
    assert svg.count("<circle") == 8 * 2  # Z+ and Z- dots


def test_reduced_render_structure_and_orientation_sensitivity():
    wang = load_bundled("wang13")
    rs = reduce_set(wang, "c1")
    region = RegionSpec("square2d", (1, 1), False)
    a = Patch(rs.name, region, {(0, 0): Placement((0, 0), "x0", "r0")})
    b = Patch(rs.name, region, {(0, 0): Placement((0, 0), "x0", "r1")})
    svg_a = render_reduced_patch(rs, a)
    svg_b = render_reduced_patch(rs, b)
    ET.fromstring(svg_a)
    assert svg_a.count("<polyline") == 3
    assert svg_a.count("<circle") == 1
    assert svg_a != svg_b  # the glyph moved


def test_reduced_render_tri_and_cube():
    tri = load_bundled("triangles6")
    rt = reduce_set(tri, "c2")
    r = solve_atlas(rt, RegionSpec("tri2d", (2, 1), True))
    svg = render_reduced_patch(rt, r.patch)
    ET.fromstring(svg)
    assert svg.count("<polyline") == 3 * 4

    cubes = load_bundled("cubes21")
    rc = reduce_set(cubes, "c1")
    rr = solve_atlas(rc, RegionSpec("cube3d", (2, 1, 2), False))
    svg3 = render_reduced_patch(rc, rr.patch)
    ET.fromstring(svg3)
    assert svg3.count("<text") == 4
    assert svg3.count("<circle") == 4


def test_rendering_is_deterministic_and_order_independent():
    wang = load_bundled("wang13")
    patch = random_patch(wang, (4, 3), seed=9).patch
    svg1 = render_source_patch(wang, patch)
    svg2 = render_source_patch(wang, patch)
    assert svg1 == svg2
    reordered = Patch(patch.set_name, patch.region,
                      dict(reversed(list(patch.placements.items()))))
    assert render_source_patch(wang, reordered) == svg1

    rs = reduce_set(wang, "c1")
    xp = solve_atlas(rs, RegionSpec("square2d", (3, 3), False),
                     SolveConfig(seed=4))
    assert render_reduced_patch(rs, xp.patch) == \
        render_reduced_patch(rs, xp.patch)


@pytest.mark.parametrize("name, extents, torus, seed, digest", [
    ("wang13", (4, 4), False, 1,
     "46febdede6e32f073e13e479c442b6912dd5a7d899c31712cc31908a6f2efa77"),
    ("triangles6", (3, 2), True, 0,
     "2fc84658d49a1d580445c1e886fabc8447457e557bbfe8dfc8ec965aeb04d594"),
    ("cubes21", (2, 2, 2), False, 3,
     "601bf120f8960273e9b443062ba573bab9994be14b7b3fad2dfe9200c2a0c7e3"),
], ids=["square", "tri", "cube"])
def test_reduced_render_bytes_are_pinned(name, extents, torus, seed, digest):
    # exact-arithmetic output, pinned byte for byte: memoizing or reordering
    # the lifts must not move a single coordinate
    ts = load_bundled(name)
    rs = reduce_set(ts, "c2")
    patch = encode_patch(rs, random_patch(ts, extents, seed=seed,
                                          torus=torus).patch)
    svg = render_reduced_patch(rs, patch)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def exact_lift_rep(rep_kind, code):
    """Exact route: the lifted glyph and decoration point as Fractions."""
    lift = orientation_lift(rep_kind, code)
    nums, den = DECORATION_POINT[rep_kind]
    strokes = tuple(tuple(lift_point(lift, p) for p in stroke)
                    for stroke in GLYPH.get(rep_kind, ()))
    return strokes, lift_point(lift, tuple(Fraction(n, den) for n in nums))


def exact_at_cell(cell, space, p):
    """Exact route: add the cell's base as a Fraction, then round once."""
    base = cell[:2] if space == "tri2d" else cell
    return tuple(float(x + b) for x, b in zip(p, base))


def test_reduced_render_matches_exact_fraction_route(monkeypatch):
    # every representative under every code, far from the origin, must
    # render to the same bytes as the Fraction route
    far = 10 ** 6
    for name in ("wang13", "triangles6", "cubes21"):
        ts = load_bundled(name)
        for mode in ("c1", "c2"):
            rs = reduce_set(ts, mode)
            space = KIND_SPACE[rs.reps[0].kind]
            placements = {}
            i = 0
            for rep in rs.reps:
                for code in space_codes(space):
                    i += 1
                    if space == "cube3d":
                        cell = (far + 7 * i, far - 3 * i, i % 2)
                    elif space == "tri2d":
                        up = image_kind(rep.kind, code) is ShapeKind.TRI_UP
                        cell = (far + 7 * i, far - 3 * i, 0 if up else 1)
                    else:
                        cell = (far + 7 * i, far - 3 * i)
                    placements[cell] = Placement(cell, rep.id, code)
            extents = (1, 1, 2) if space == "cube3d" else (1, 1)
            patch = Patch(rs.name, RegionSpec(space, extents, False),
                          placements)
            svg = render_reduced_patch(rs, patch)
            with monkeypatch.context() as m:
                m.setattr(render, "_lift_rep", exact_lift_rep)
                m.setattr(render, "_at_cell", exact_at_cell)
                assert render_reduced_patch(rs, patch) == svg, (name, mode)
            # the integer quotient is the Fraction's correctly rounded
            # float, also past 2**53 where a float sum would round twice
            for rep in rs.reps:
                for code in space_codes(space):
                    _, mark = render._lift_rep(rep.kind, code)
                    _, exact = exact_lift_rep(rep.kind, code)
                    for b in (0, -far, far, 2 ** 53 + 1, -(3 ** 40)):
                        cell = (b, b, b)
                        assert render._at_cell(cell, space, mark) == \
                            exact_at_cell(cell, space, exact)


def test_palette():
    assert colour_hex(0) == "#eeeeee"
    first = [colour_hex(c) for c in range(1, 25)]
    assert len(set(first)) == 24
    assert colour_hex(25) == colour_hex(1)  # wraps past the palette
