"""Deterministic SVG rendering of patches.

Source-set patches are drawn as cells with an edge strip per facet, coloured
by a fixed palette (colour 0, the uncoloured value, renders as a light
neutral).  Reduced-set patches are drawn as cell outlines with a chiral
glyph per placement: an F-shaped polyline in the representative's frame,
carried onto each cell by the placement's exact affine lift, so the
orientation (including reflections) is readable from the picture.  Cube
patches are laid out as one slice per layer, left to right; out-of-plane
facet colours appear as two corner dots, and reduced cube placements print
their orientation code beside the decoration marker.

Both renderers make one pass over the placed cells in sorted order, after
one check that they all lie in the region (cell by cell only when one does
not, to name the first outside).  Each (tile, code) label is compiled once
per render into a template: the fixed text of every element its cell
draws, colours included, with a `%.3f` slot per x and a `%s` per y (and,
for a reduced set, the label's lifted glyph).  Every x a label draws
depends only on the cell's column (2a + b on triangles, a and the layer
shift on squares and cubes) and every y only on its row, b, so each label
keeps per column its template with the x slots filled and per row its y
strings, each formatted at the first cell of its column or row; every
cell costs one `%`.  Each lattice's `numbers` function is the only place
its geometry is computed.  The canvas bounds are folded from the cell
outlines alone, at the cells that open a column or a row, whose columns
and rows hold every outline: a strip lies within its outline, and each
glyph point, marker with its radius and cube label inside it.  Outlines
round by the glyphs' own route, (2x -+ 1) / 2 on squares and cubes and a
triangle's exact x + y/2 rounded once, so at any coordinate a rounded
point can at most meet its rounded outline.

All geometry is computed in exact lattice arithmetic.  A lifted glyph
point is kept as integer (numerator, denominator) pairs and carried onto its
cell by one integer division, (n + b*d) / d, which Python rounds correctly,
as float(Fraction(n, d) + b) does: each lattice coordinate becomes the
nearest double to the exact one.  Points are embedded to Cartesian floats
only for output; numbers are formatted with fixed precision, placements are
emitted in sorted cell order, and no timestamps or randomness are involved,
so equal inputs give byte-identical SVG text.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from .geometry import ShapeKind, cell_kind, orientation_lift, tri_vertices
from .reduction import DECORATION_POINT, ReducedSet
from .tileset import (FormatError, Patch, TileSet, cell_in_region,
                      cells_in_region, effective_facets,
                      placement_orientations)

SQRT3 = 3 ** 0.5
SCALE = 40.0  # SVG width and height per lattice unit
_FAR = 2 ** 1000  # from here on a canvas x or y could overflow a float

# Fixed facet-colour palette; colour 0 is the uncoloured value.
PALETTE = (
    "#eeeeee",  # 0: uncoloured
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
    "#9a6324", "#fffac8", "#800000", "#aaffc3", "#808000", "#ffd8b1",
    "#000075", "#808080", "#b8860b", "#2e8b57", "#ff69b4", "#4b0082",
)


def colour_hex(c: int) -> str:
    if c == 0:
        return PALETTE[0]
    return PALETTE[1 + (c - 1) % (len(PALETTE) - 1)]


# Chiral F glyph in the representative's frame, as exact lattice points.
# Squares and cubes are centred on the origin; triangle points live inside
# the origin cell.  Three strokes: spine, top arm, middle arm.
_F = Fraction
GLYPH_SQUARE = (
    ((_F(-3, 20), _F(-6, 20)), (_F(-3, 20), _F(6, 20))),
    ((_F(-3, 20), _F(6, 20)), (_F(5, 20), _F(6, 20))),
    ((_F(-3, 20), _F(1, 20)), (_F(3, 20), _F(1, 20))),
)
GLYPH_TRI_UP = (
    ((_F(1, 4), _F(1, 8)), (_F(1, 4), _F(1, 2))),
    ((_F(1, 4), _F(1, 2)), (_F(7, 16), _F(1, 2))),
    ((_F(1, 4), _F(5, 16)), (_F(3, 8), _F(5, 16))),
)
GLYPH_TRI_DOWN = tuple(
    tuple((1 - p[0], 1 - p[1]) for p in stroke) for stroke in GLYPH_TRI_UP
)
GLYPH = {
    ShapeKind.SQUARE: GLYPH_SQUARE,
    ShapeKind.TRI_UP: GLYPH_TRI_UP,
    ShapeKind.TRI_DOWN: GLYPH_TRI_DOWN,
}


# Per lattice, the two outline vertices each facet's edge joins, in facet
# order; the vertex order fixes the byte order of the strip polygons.  Cube
# outlines are the square's, and only the in-plane facets have an edge:
# X+ right, X- left, Y+ top, Y- bottom.
_EDGES = {
    "square2d": ((3, 2), (1, 2), (0, 1), (0, 3)),
    "cube3d": ((1, 2), (3, 0), (2, 3), (0, 1)),
    "tri2d": ((1, 2), (2, 0), (0, 1)),
}

_OUTLINE = 'stroke="#222222" stroke-width="0.030"'


def _polygon(n: int, attrs: str) -> str:
    """An n-vertex polygon's template: a %.3f pair per vertex."""
    return f'<polygon points="{" ".join(["%.3f,%.3f"] * n)}" {attrs}/>'


def _outline(space: str, cell, shift):
    """The cell's outline vertices on the canvas, as an x list and a y list;
    `shift` sets a cube layer beside the layers below it."""
    if space == "tri2d":  # x = a + b/2, rounded once as the glyphs' is
        vs = tri_vertices(cell)
        return ([(2 * a + b) / 2 for a, b in vs],
                [(SQRT3 / 2.0) * b for _, b in vs])
    # the glyphs' integer route, (2x -+ 1) / 2, then the layer's shift
    x0, x1 = (2 * cell[0] - 1) / 2 + shift, (2 * cell[0] + 1) / 2 + shift
    y0, y1 = (2 * cell[1] - 1) / 2, (2 * cell[1] + 1) / 2
    return [x0, x1, x1, x0], [y0, y0, y1, y1]


def _ring(xs, ys) -> list:
    """The outline's numbers in template order, y flipped for the canvas."""
    return [v for x, y in zip(xs, ys) for v in (x, -y)]


def _render(patch: Patch, kinds: dict, compile_label, numbers) -> str:
    """The SVG of every placed cell, in sorted order.

    compile_label(placement) gives the label's (template, data, tail) once
    per (tile, code) label; numbers(cell, shift, xs, ys, data) gives the
    cell's numbers for its template as a list, alternately an x and a y,
    xs and ys being the outline.  A cell that cannot be drawn is a
    FormatError, raised before it is: one outside the patch's region, one
    whose canvas x (cube layers included) or y reaches _FAR, and one whose
    placement does not fit it: a tile id that `kinds` (id -> shape kind)
    lacks, or a code whose image kind is not the cell's, checked once per
    label and cell kind.

    Each label keeps an x string per column and a y tuple per row (see the
    module docstring); on triangles the column is 2a + b, as a point's exact
    x is (2en + dm + de(2a + b)) / 2de."""
    region = patch.region
    space = region.space
    tri = space == "tri2d"
    layer = region.extents[0] + 1 if space == "cube3d" else 0
    labels = {}
    parts = []
    min_x = min_y = float("inf")
    max_x = max_y = float("-inf")
    inside = cells_in_region(region, patch.placements)
    for cell in sorted(patch.placements):
        if not inside and not cell_in_region(region, cell):
            extents = "x".join(map(str, region.extents))
            raise FormatError(f"cell {cell} lies outside the {extents} region")
        pl = patch.placements[cell]
        a, b = cell[0], cell[1]
        shift = cell[2] * layer if layer else 0
        if max(a + shift, b) >= _FAR:
            raise FormatError(f"cell {cell} lies at 2**1000 or beyond on the "
                              "canvas, out of a float's range")
        key = (pl.tile, pl.orientation, cell_kind(space, cell))
        label = labels.get(key)
        if label is None:
            if pl.tile not in kinds:
                raise FormatError(f"unknown tile id {pl.tile!r} at {cell}")
            if pl.orientation not in placement_orientations(
                    "all", kinds[pl.tile], key[2]):
                raise FormatError(f"orientation {pl.orientation!r} does not "
                                  f"fit tile {pl.tile} at {cell}")
            template, data, tail = compile_label(pl)
            # the x slots stay, each y slot becomes a %s for the row's %,
            # and the tail's "%" is escaped for it
            pieces = template.split("%.3f")
            half = "".join(map(add, pieces, ["%.3f", "%%s"] * (
                len(pieces) // 2) + [""]))
            label = labels[key] = (half, data, tail.replace("%", "%%"), {}, {})
        half, data, tail, columns, rows = label
        column = 2 * a + b if tri else (a, shift)
        xs, ys = columns.get(column), rows.get(b)
        if xs is None or ys is None:
            # every outline is a column's and a row's, so the bounds fold
            # here alone; on ties min and max keep the earlier value, which
            # only a zero's sign, never output, could tell apart
            outline = _outline(space, cell, shift)
            min_x, max_x = min(min_x, *outline[0]), max(max_x, *outline[0])
            min_y, max_y = min(min_y, *outline[1]), max(max_y, *outline[1])
            nums = numbers(cell, shift, *outline, data)
            # every number has three decimals, so "-0.000" is only ever a
            # whole number, and no fixed text of a template holds it
            if xs is None:
                xs = columns[column] = (half % tuple(nums[::2])).replace(
                    "-0.000", "0.000") + tail
            if ys is None:
                ys = rows[b] = tuple(("%.3f " * (len(nums) // 2) % tuple(
                    nums[1::2])).replace("-0.000", "0.000").split())
        parts.append(xs % ys)
    if not parts:
        min_x = min_y = 0.0
        max_x = max_y = 1.0
    pad = 0.2
    w, h = (max_x - min_x) + 2 * pad, (max_y - min_y) + 2 * pad
    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%.3f" '
            'height="%.3f" viewBox="%.3f %.3f %.3f %.3f">' % (
                w * SCALE, h * SCALE, min_x - pad, -max_y - pad, w, h))
    # one join: the empty patch keeps its blank body line
    return "\n".join([head.replace("-0.000", "0.000"), *(parts or [""]),
                      "</svg>", ""])


def render_source_patch(ts: TileSet, patch: Patch) -> str:
    """Facet-coloured rendering of a source-set patch.  A placed cell that
    _render cannot draw is a FormatError."""
    space = patch.region.space
    edges = _EDGES[space]
    n = 3 if space == "tri2d" else 4
    cube = space == "cube3d"

    def compile_label(pl):
        # background, in-plane facet strips, a cube's Z+ and Z- dots, outline
        eff = effective_facets(ts, pl)
        elements = [_polygon(n, f'fill="white" {_OUTLINE}')]
        elements += [_polygon(4, f'fill="{colour_hex(eff[f])}"')
                     for f in range(len(edges))]
        if cube:
            elements += [f'<circle cx="%.3f" cy="%.3f" r="0.130" '
                         f'fill="{colour_hex(eff[f])}"/>' for f in (4, 5)]
        elements.append(_polygon(n, f'fill="none" {_OUTLINE}'))
        return "\n".join(elements), None, ""

    def numbers(cell, shift, xs, ys, _):
        cx, cy = sum(xs) / n, sum(ys) / n
        ring = _ring(xs, ys)
        out = list(ring)
        for i, j in edges:
            # a trapezoid along the edge, its inner side pulled 0.3 of the
            # way towards the centroid: v1, v2, p2, p1
            x1, y1, x2, y2 = xs[i], ys[i], xs[j], ys[j]
            out += (x1, -y1, x2, -y2,
                    x2 + 0.3 * (cx - x2), -(y2 + 0.3 * (cy - y2)),
                    x1 + 0.3 * (cx - x1), -(y1 + 0.3 * (cy - y1)))
        if cube:  # Z+ upper-left dot, Z- lower-right dot
            out += (cx - 0.2, -(cy + 0.2), cx + 0.2, -(cy - 0.2))
        return out + ring

    return _render(patch, {p.id: p.kind for p in ts.prototiles},
                   compile_label, numbers)


@lru_cache(maxsize=None)
def _lift_rep(rep_kind: ShapeKind, code: str):
    """The representative's glyph strokes and decoration point under the
    placement's exact lift, before the cell's base is added; each coordinate
    is an integer (numerator, denominator) pair."""
    lift = orientation_lift(rep_kind, code)

    def image(p):
        exact = (
            sum(Fraction(lift.matrix[i][j]) * p[j] for j in range(len(p)))
            + lift.shift[i]
            for i in range(len(p))
        )
        return tuple((x.numerator, x.denominator) for x in exact)

    nums, den = DECORATION_POINT[rep_kind]
    strokes = tuple(tuple(image(p) for p in stroke)
                    for stroke in GLYPH.get(rep_kind, ()))
    return strokes, image(tuple(Fraction(n, den) for n in nums))


def render_reduced_patch(rs: ReducedSet, patch: Patch) -> str:
    """Glyph rendering of a reduced-set patch.  A placed cell that _render
    cannot draw is a FormatError."""
    space = patch.region.space
    rep_kind = {r.id: r.kind for r in rs.reps}
    rep_index = {r.id: i for i, r in enumerate(rs.reps)}
    tri, cube = space == "tri2d", space == "cube3d"

    def compile_label(pl):
        strokes, mark = _lift_rep(rep_kind[pl.tile], pl.orientation)
        colour = colour_hex(rep_index[pl.tile] + 1)
        elements = [_polygon(3 if tri else 4, f'fill="white" {_OUTLINE}')]
        elements += [f'<polyline points="%.3f,%.3f %.3f,%.3f" fill="none" '
                     f'stroke="{colour}" stroke-width="0.050" '
                     f'stroke-linecap="round"/>'] * len(strokes)
        if cube:  # a cube representative has no glyph
            elements.append(
                f'<circle cx="%.3f" cy="%.3f" r="0.080" fill="{colour}"/>\n'
                f'<text x="%.3f" y="%.3f" font-size="0.160" '
                f'font-family="monospace" text-anchor="middle">')
            # the label escaped as XML text, & first
            tail = (f"{pl.tile} {pl.orientation}".replace("&", "&amp;")
                    .replace(">", "&gt;").replace("<", "&lt;") + "</text>")
        else:
            elements.append('<circle cx="%.3f" cy="%.3f" r="0.050" '
                            'fill="#222222"/>')
            tail = ""
        # the x and y of each stroke end, then of the decoration point
        points = [p[:2] for stroke in strokes for p in stroke] + [mark[:2]]
        return "\n".join(elements), points, tail

    def numbers(cell, shift, xs, ys, points):
        a, b = cell[0], cell[1]
        out = _ring(xs, ys)
        for (n, d), (m, e) in points:
            x, y = (n + a * d) / d, (m + b * e) / e
            if tri:  # the exact x + y/2, rounded once
                x = (2 * e * (n + a * d) + d * (m + b * e)) / (2 * d * e)
                y *= SQRT3 / 2.0
            out += (x, -y)
        if cube:
            out[-2] += shift
            out += (float(a) + shift, -(b - 0.32))
        return out

    return _render(patch, rep_kind, compile_label, numbers)
