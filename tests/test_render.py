"""Renderer tests.

The load-bearing property is that glyphs are chiral and asymmetric (so every
orientation of a placed representative is visually distinct) and that output
bytes are a pure function of the patch.
"""

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

import tileatlas
from tileatlas.geometry import (
    KIND_SPACE,
    ShapeKind,
    image_kind,
    orientation_lift,
    point_group,
    space_codes,
    space_dim,
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
    FormatError,
    Patch,
    Placement,
    RegionSpec,
    load_bundled,
    parse_patch,
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
    ("triangles6", (20, 20), True, 7,
     "2d389660a6d1ff6c7ab8173140608f97d2b6849d53ea2e3e71a1ad8c8ebedd30"),
], ids=["square", "tri", "cube", "tri-20x20"])
def test_reduced_render_bytes_are_pinned(name, extents, torus, seed, digest):
    # exact-arithmetic output, pinned byte for byte: memoizing or reordering
    # the lifts must not move a single coordinate
    ts = load_bundled(name)
    rs = reduce_set(ts, "c2")
    patch = encode_patch(rs, random_patch(ts, extents, seed=seed,
                                          torus=torus).patch)
    svg = render_reduced_patch(rs, patch)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, extents, torus, seed, digest", [
    ("wang13", (4, 4), False, 1,
     "fc7bf002d65c31aa23b3d442c19bdeb1d0f07ffdeb72051d027762c9257612e9"),
    ("triangles6", (3, 2), True, 0,
     "5d108b13b7b84ea522bb3254bb1080b72cdfc823c593d4d166c4846f65016cdc"),
    ("cubes21", (2, 2, 2), False, 3,
     "de4910a8eef780a417e01baccad528f9b43e2fd0846db6f78c1e64a41f3b0722"),
    ("triangles6", (20, 20), True, 7,
     "95cd0163708a5b46301580014335eb29a8eb1a4beb5db41c25eac968ff20763a"),
], ids=["square", "tri", "cube", "tri-20x20"])
def test_source_render_bytes_are_pinned(name, extents, torus, seed, digest):
    # the strips' vertex order, the cube layer shifts and the Z dots all
    # reach the bytes: a new layout of the cells must not move any of them
    ts = load_bundled(name)
    patch = random_patch(ts, extents, seed=seed, torus=torus).patch
    svg = render_source_patch(ts, patch)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def exact_lift_rep(rep_kind, code):
    """Exact route: the lifted glyph and decoration point as Fractions."""
    lift = orientation_lift(rep_kind, code)
    nums, den = DECORATION_POINT[rep_kind]
    strokes = tuple(tuple(lift_point(lift, p) for p in stroke)
                    for stroke in GLYPH.get(rep_kind, ()))
    return strokes, lift_point(lift, tuple(Fraction(n, den) for n in nums))


def every_label(rs, base):
    """A free patch of the reduced set with every representative under every
    code of its lattice, one placement each, at cells from `base` on."""
    space = KIND_SPACE[rs.reps[0].kind]
    placements = {}
    i = 0
    for rep in rs.reps:
        for code in space_codes(space):
            i += 1
            cell = (base + 7 * i, base + 3 * i)
            if space == "cube3d":
                cell += (i % 2,)
            elif space == "tri2d":
                up = image_kind(rep.kind, code) is ShapeKind.TRI_UP
                cell += (0 if up else 1,)
            placements[cell] = Placement(cell, rep.id, code)
    # the region holds every cell; render refuses cells outside it
    extents = tuple(max(c[k] for c in placements) + 1
                    for k in range(space_dim(space)))
    return Patch(rs.name, RegionSpec(space, extents, False), placements)


def svg_elements(svg):
    """The SVG's elements in document order, as (tag, attributes)."""
    return [(el.tag.rpartition("}")[2], el.attrib)
            for el in ET.fromstring(svg)]


def three_decimals(v):
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def exact_glyph_numbers(rs, patch):
    """Exact route: each cell's stroke ends and decoration point, in drawing
    order, as the SVG should write them.  Each lattice coordinate is the
    Fraction plus the cell's base, rounded to a float once; only then is it
    shifted to its layer (cubes) or its y scaled (triangles).  A triangle's
    canvas x is the exact x + y/2, rounded once."""
    kinds = {r.id: r.kind for r in rs.reps}
    space = patch.region.space
    out = []
    for cell in sorted(patch.placements):
        pl = patch.placements[cell]
        strokes, mark = exact_lift_rep(kinds[pl.tile], pl.orientation)
        for p in [p for stroke in strokes for p in stroke] + [mark]:
            x, y = float(p[0] + cell[0]), float(p[1] + cell[1])
            if space == "tri2d":
                x = float(p[0] + cell[0] + (p[1] + cell[1]) / 2)
                y *= 3 ** 0.5 / 2.0
            elif space == "cube3d":
                x += cell[2] * (patch.region.extents[0] + 1)
            out += [three_decimals(x), three_decimals(-y)]
    return out


def drawn_glyph_numbers(svg):
    """The numbers of the SVG's stroke ends and decoration markers, in
    document order, as written."""
    out = []
    for tag, at in svg_elements(svg):
        if tag == "polyline":
            out += [v for pt in at["points"].split() for v in pt.split(",")]
        elif tag == "circle":
            out += [at["cx"], at["cy"]]
    return out


def test_reduced_render_matches_exact_fraction_route():
    # every representative under every code, near and far from the origin,
    # also past 2**53 where a float sum of the cell and the point would round
    # twice: each glyph number in the SVG is the exact route's
    for name in ("wang13", "triangles6", "cubes21"):
        ts = load_bundled(name)
        for mode in ("c1", "c2"):
            rs = reduce_set(ts, mode)
            for base in (0, 10 ** 6, 2 ** 53 + 1, 3 ** 40):
                patch = every_label(rs, base)
                svg = render_reduced_patch(rs, patch)
                assert drawn_glyph_numbers(svg) == \
                    exact_glyph_numbers(rs, patch), (name, mode, base)


def outline_box(at):
    """The bounding box of an outline polygon's points."""
    pts = [tuple(map(float, pt.split(","))) for pt in at["points"].split()]
    xs, ys = zip(*pts)
    return min(xs), max(xs), min(ys), max(ys)


def test_every_drawn_point_lies_inside_its_cell_outline():
    # the canvas bounds are folded from the cell outlines alone, which is
    # exact only if every other point a cell draws lies inside its outline's
    # box: glyph points, markers with their radius, cube labels, strips and
    # the source cubes' Z dots
    for name in ("wang13", "triangles6", "cubes21"):
        ts = load_bundled(name)
        source = random_patch(ts, (2,) * space_dim(ts.space), seed=0).patch
        patches = [(render_source_patch, ts, source)]
        for mode in ("c1", "c2"):
            rs = reduce_set(ts, mode)
            patches.append((render_reduced_patch, rs, every_label(rs, 0)))
        for render_patch, tiles, patch in patches:
            box = None
            for tag, at in svg_elements(render_patch(tiles, patch)):
                if tag == "polygon" and at["fill"] == "white":
                    box = lo_x, hi_x, lo_y, hi_y = outline_box(at)
                    continue
                if tag == "polygon":  # a strip, or the closing outline
                    x0, x1, y0, y1 = outline_box(at)
                    assert lo_x <= x0 and x1 <= hi_x, (name, at, box)
                    assert lo_y <= y0 and y1 <= hi_y, (name, at, box)
                    continue
                if tag == "polyline":
                    pts = [tuple(map(float, pt.split(",")))
                           for pt in at["points"].split()]
                    r = 0.0
                elif tag == "circle":
                    pts = [(float(at["cx"]), float(at["cy"]))]
                    r = float(at["r"])
                else:  # a cube label's anchor
                    pts = [(float(at["x"]), float(at["y"]))]
                    r = 0.0
                for x, y in pts:
                    assert lo_x < x - r and x + r < hi_x, (name, tag, at, box)
                    assert lo_y < y - r and y + r < hi_y, (name, tag, at, box)


def test_glyph_points_stay_within_their_outline_past_2_53():
    # outlines are rounded by the glyphs' own route (a triangle's canvas x
    # is its exact x + y/2 rounded once), so at any base every drawn glyph
    # number and cube label anchor lies within its cell's outline box; it
    # may meet it, where both round to one float
    for name in ("wang13", "cubes21", "triangles6"):
        for mode in ("c1", "c2"):
            rs = reduce_set(load_bundled(name), mode)
            for base in (0, 2 ** 53 + 1, 3 ** 40):
                svg = render_reduced_patch(rs, every_label(rs, base))
                for tag, at in svg_elements(svg):
                    if tag == "polygon":
                        box = lo_x, hi_x, lo_y, hi_y = outline_box(at)
                        continue
                    if tag == "polyline":
                        pts = [tuple(map(float, pt.split(",")))
                               for pt in at["points"].split()]
                    elif tag == "circle":
                        pts = [(float(at["cx"]), float(at["cy"]))]
                    else:  # a cube label's anchor
                        pts = [(float(at["x"]), float(at["y"]))]
                    for x, y in pts:
                        assert lo_x <= x <= hi_x and lo_y <= y <= hi_y, (
                            name, mode, base, tag, at, box)


def test_cube_label_is_escaped_as_saxutils_escapes_it():
    rs = reduce_set(load_bundled("cubes21"), "c1")
    rep = dataclasses.replace(rs.reps[0], id="a&<b>")
    rs = dataclasses.replace(rs, reps=(rep,) + rs.reps[1:])
    cell, code = (0, 0, 0), space_codes("cube3d")[0]
    patch = Patch("p", RegionSpec("cube3d", (1, 1, 1), False),
                  {cell: Placement(cell, rep.id, code)})
    svg = render_reduced_patch(rs, patch)
    assert f'>{escape(f"a&<b> {code}")}</text>' in svg
    (text,) = [el for el in ET.fromstring(svg) if el.tag.endswith("text")]
    assert text.text == f"a&<b> {code}"


def test_cube_render_does_not_import_urllib():
    # xml.sax.saxutils would pull in urllib: about 7 MB of peak RSS that
    # no render needs
    src = str(Path(tileatlas.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "from tileatlas.reduction import encode_patch, reduce_set\n"
        "from tileatlas.render import render_reduced_patch\n"
        "from tileatlas.solver import random_patch\n"
        "from tileatlas.tileset import load_bundled\n"
        "ts = load_bundled('cubes21')\n"
        "rs = reduce_set(ts, 'c1')\n"
        "patch = random_patch(ts, (2, 2, 2), seed=0).patch\n"
        "svg = render_reduced_patch(rs, encode_patch(rs, patch))\n"
        "print('<text' in svg, 'urllib.request' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_palette():
    assert colour_hex(0) == "#eeeeee"
    first = [colour_hex(c) for c in range(1, 25)]
    assert len(set(first)) == 24
    assert colour_hex(25) == colour_hex(1)  # wraps past the palette


def test_render_refuses_placements_that_do_not_fit_their_cell():
    # an id the set lacks, a code that carries the tile onto the other
    # triangle kind, and a code of another lattice are each refused with
    # their cell named, not drawn nor a KeyError
    rs = reduce_set(load_bundled("triangles6"), "c2")
    cube_rs = reduce_set(load_bundled("cubes21"), "c1")
    ts = load_bundled("wang13")
    cube = "sXYZ:+++/XYZ"
    for render, tiles, space, cell, tile, code, fault in (
            (render_reduced_patch, rs, "tri2d", (0, 0, 1), "x0", "t0",
             "orientation 't0' does not fit tile x0 at (0, 0, 1)"),
            (render_reduced_patch, rs, "tri2d", (0, 0, 0), "zz", "t0",
             "unknown tile id 'zz' at (0, 0, 0)"),
            (render_reduced_patch, cube_rs, "cube3d", (0, 0, 0), "zz", cube,
             "unknown tile id 'zz' at (0, 0, 0)"),
            (render_reduced_patch, cube_rs, "cube3d", (0, 0, 0), "x0", "r0",
             "orientation 'r0' does not fit tile x0 at (0, 0, 0)"),
            (render_source_patch, rs.source, "tri2d", (0, 0, 1), "u1", "t0",
             "orientation 't0' does not fit tile u1 at (0, 0, 1)"),
            (render_source_patch, ts, "square2d", (0, 0), "zz", "r0",
             "unknown tile id 'zz' at (0, 0)"),
            (render_source_patch, ts, "square2d", (0, 0), "a1", "t0",
             "orientation 't0' does not fit tile a1 at (0, 0)")):
        region = RegionSpec(space, (1,) * space_dim(space), False)
        patch = Patch("p", region, {cell: Placement(cell, tile, code)})
        with pytest.raises(FormatError, match=f"^{re.escape(fault)}$"):
            render(tiles, patch)
    # the code that carries x0 onto the down cell draws
    good = Patch("p", RegionSpec("tri2d", (1, 1), False),
                 {(0, 0, 1): Placement((0, 0, 1), "x0", "ut4")})
    assert "<polyline" in render_reduced_patch(rs, good)
    # the region is checked once per patch, and cell by cell only when that
    # check fails: a found patch with one cell outside, of another arity,
    # negative, at the extent or with triangle bit 2, refuses that cell or
    # an unknown tile, whichever comes first in sorted order
    for ts, extents, torus in ((ts, (3, 2), False),
                               (rs.source, (3, 2), True),
                               (load_bundled("cubes21"), (2, 2, 3), False)):
        dim = len(extents)
        tri_bit = (0,) * (ts.space == "tri2d")
        found = random_patch(ts, extents, 5, torus).patch
        text = "x".join(map(str, extents))
        for cell in [(0,) * (dim + len(tri_bit) + 1), (0,) * (dim - 1),
                     (-1,) + (0,) * (dim - 1) + tri_bit,
                     (extents[0],) + (0,) * (dim - 1) + tri_bit,
                     (0,) * (dim - 1) + extents[-1:] + tri_bit,
                     *[(1, 1, 2)] * bool(tri_bit)]:
            pl = next(iter(found.placements.values()))
            for unknown in (min(found.placements), max(found.placements)):
                placements = dict(found.placements)
                placements[unknown] = Placement(unknown, "zz", pl.orientation)
                placements[cell] = Placement(cell, pl.tile, pl.orientation)
                faults = {
                    cell: f"cell {cell} lies outside the {text} region",
                    unknown: f"unknown tile id 'zz' at {unknown}"}
                with pytest.raises(FormatError, match=re.escape(
                        faults[min(faults)])):
                    render_source_patch(
                        ts, Patch("p", found.region, placements))


def test_render_refuses_coordinates_out_of_float_range():
    # a 310-digit x overflowed the float conversion of the outline; a cube
    # layer shift counts towards the bound, and a cell just below it draws
    ts = load_bundled("wang13")
    far = 10 ** 309
    patch = parse_patch(f"patch w {far + 1} 1 free\n{far} 0 a1 r0\n",
                        "square2d")
    beyond = "lies at 2**1000 or beyond on the canvas, out of a float's range"
    with pytest.raises(FormatError,
                       match=re.escape(f"cell ({far}, 0) {beyond}")):
        render_source_patch(ts, patch)
    cubes = load_bundled("cubes21")
    width = 2 ** 999
    layered = parse_patch(f"patch c {width} 1 3 free\n"
                          "0 0 2 a1p0 sXYZ:+++/XYZ\n", "cube3d")
    with pytest.raises(FormatError,
                       match=re.escape(f"cell (0, 0, 2) {beyond}")):
        render_source_patch(cubes, layered)
    near = 2 ** 1000 - 1
    patch = parse_patch(f"patch w {near + 1} {near + 1} free\n"
                        f"{near} {near} a1 r0\n", "square2d")
    svg = render_source_patch(ts, patch)
    ET.fromstring(svg)
    assert "inf" not in svg and "nan" not in svg
