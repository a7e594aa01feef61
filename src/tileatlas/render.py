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

from .geometry import ShapeKind, orientation_lift, tri_vertices
from .reduction import DECORATION_POINT, ReducedSet
from .tileset import (FormatError, Patch, TileSet, cell_in_region,
                      effective_facets)

SQRT3 = 3 ** 0.5

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


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _coords(pts) -> str:
    """The points as "x,y" pairs, y flipped, each number as `_fmt` writes
    it.  Every number has three decimals, so "-0.000" is only ever a whole
    number."""
    return " ".join([f"{x:.3f},{-y:.3f}" for x, y in pts]).replace(
        "-0.000", "0.000")


class _Canvas:
    def __init__(self):
        self.parts = []
        self.min_x = self.min_y = float("inf")
        self.max_x = self.max_y = float("-inf")

    def bump(self, pts):
        # one min and one max per bound and shape; on ties they keep the
        # earlier value, as a fold over the points one at a time would
        if pts:
            xs, ys = zip(*pts)
            self.min_x = min(self.min_x, *xs)
            self.max_x = max(self.max_x, *xs)
            self.min_y = min(self.min_y, *ys)
            self.max_y = max(self.max_y, *ys)

    def polygon(self, pts, fill, stroke="none", width=0.0):
        self.bump(pts)
        coords = _coords(pts)
        extra = "" if stroke == "none" else \
            f' stroke="{stroke}" stroke-width="{_fmt(width)}"'
        self.parts.append(f'<polygon points="{coords}" fill="{fill}"{extra}/>')

    def polyline(self, pts, stroke, width):
        self.bump(pts)
        coords = _coords(pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" stroke-linecap="round"/>')

    def circle(self, center, r, fill):
        (x, y) = center
        self.bump([(x - r, y - r), (x + r, y + r)])
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" r="{_fmt(r)}" '
            f'fill="{fill}"/>')

    def text(self, pos, s, size):
        from xml.sax.saxutils import escape
        (x, y) = pos
        self.bump([(x, y)])
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(-y)}" font-size="{_fmt(size)}" '
            f'font-family="monospace" text-anchor="middle">{escape(s)}</text>')

    def to_svg(self, scale: float) -> str:
        pad = 0.2
        if not self.parts:
            self.min_x = self.min_y = 0.0
            self.max_x = self.max_y = 1.0
        x0 = self.min_x - pad
        y0 = -self.max_y - pad
        w = (self.max_x - self.min_x) + 2 * pad
        h = (self.max_y - self.min_y) + 2 * pad
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(w * scale)}" height="{_fmt(h * scale)}" '
            f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">'
        )
        body = "\n".join(self.parts)
        return f"{head}\n{body}\n</svg>\n"


def _embed2(p, space):
    """Lattice point (exact) to Cartesian floats."""
    x, y = float(p[0]), float(p[1])
    if space == "tri2d":
        return (x + 0.5 * y, (SQRT3 / 2.0) * y)
    return (x, y)


def _strip(c, v1, v2, t=0.3):
    """Trapezoid along edge v1-v2, pulled towards the centroid c."""
    p1 = (v1[0] + t * (c[0] - v1[0]), v1[1] + t * (c[1] - v1[1]))
    p2 = (v2[0] + t * (c[0] - v2[0]), v2[1] + t * (c[1] - v2[1]))
    return [v1, v2, p2, p1]


# Per lattice, the two outline vertices each facet's edge joins, in facet
# order; the vertex order fixes the byte order of the strip polygons.  Cube
# outlines are the square's, and only the in-plane facets have an edge:
# X+ right, X- left, Y+ top, Y- bottom.
_EDGES = {
    "square2d": ((3, 2), (1, 2), (0, 1), (0, 3)),
    "cube3d": ((1, 2), (3, 0), (2, 3), (0, 1)),
    "tri2d": ((1, 2), (2, 0), (0, 1)),
}


def _frames(patch):
    """Each placed cell of the patch, in sorted order, as (cell, placement,
    outline, shift): its outline on the canvas and the x shift that sets a
    cube layer z beside the layers below it (0 on the planar lattices).
    Raises FormatError naming the first placed cell outside the region
    before any cell is yielded."""
    cells = sorted(patch.placements)
    region = patch.region
    for cell in cells:
        if not cell_in_region(region, cell):
            extents = "x".join(map(str, region.extents))
            raise FormatError(f"cell {cell} lies outside the {extents} region")
    space = region.space
    for cell in cells:
        shift = cell[2] * (region.extents[0] + 1) if space == "cube3d" else 0
        if space == "tri2d":
            outline = [_embed2(v, space) for v in tri_vertices(cell)]
        else:
            x, y = cell[0] + shift, cell[1]
            outline = [(x - 0.5, y - 0.5), (x + 0.5, y - 0.5),
                       (x + 0.5, y + 0.5), (x - 0.5, y + 0.5)]
        yield cell, patch.placements[cell], outline, shift


def render_source_patch(ts: TileSet, patch: Patch, scale: float = 40.0) -> str:
    """Facet-coloured rendering of a source-set patch.  A placed cell
    outside the patch's region is a FormatError."""
    space = patch.region.space
    cv = _Canvas()
    for _, pl, outline, _ in _frames(patch):
        eff = effective_facets(ts, pl)
        n = len(outline)
        cx = sum(p[0] for p in outline) / n
        cy = sum(p[1] for p in outline) / n
        cv.polygon(outline, "white", "#222222", 0.03)
        for f, (i, j) in enumerate(_EDGES[space]):
            cv.polygon(_strip((cx, cy), outline[i], outline[j]),
                       colour_hex(eff[f]))
        if space == "cube3d":
            # out-of-plane: Z+ upper-left dot, Z- lower-right dot
            cv.circle((cx - 0.2, cy + 0.2), 0.13, colour_hex(eff[4]))
            cv.circle((cx + 0.2, cy - 0.2), 0.13, colour_hex(eff[5]))
        cv.polygon(outline, "none", "#222222", 0.03)
    return cv.to_svg(scale)


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


def _at_cell(cell, space, p):
    """Carry a lifted rep-frame point onto the placement's cell, as floats:
    the correctly rounded quotient that float(Fraction(n, d) + b) gives."""
    base = cell[:2] if space == "tri2d" else cell
    return tuple([(n + b * d) / d for (n, d), b in zip(p, base)])


def render_reduced_patch(rs: ReducedSet, patch: Patch, scale: float = 40.0
                         ) -> str:
    """Glyph rendering of a reduced-set patch.  A placed cell outside the
    patch's region is a FormatError."""
    space = patch.region.space
    rep_kind = {r.id: r.kind for r in rs.reps}
    rep_index = {r.id: i for i, r in enumerate(rs.reps)}
    cv = _Canvas()
    for cell, pl, outline, shift in _frames(patch):
        cv.polygon(outline, "white", "#222222", 0.03)
        strokes, mark = _lift_rep(rep_kind[pl.tile], pl.orientation)
        colour = colour_hex(rep_index[pl.tile] + 1)
        for a, b in strokes:  # a cube representative has no glyph
            cv.polyline([_embed2(_at_cell(cell, space, a), space),
                         _embed2(_at_cell(cell, space, b), space)], colour, 0.05)
        mx, my = _embed2(_at_cell(cell, space, mark), space)
        if space == "cube3d":
            cv.circle((mx + shift, my), 0.08, colour)
            cv.text((cell[0] + shift, cell[1] - 0.32),
                    f"{pl.tile} {pl.orientation}", 0.16)
        else:
            cv.circle((mx, my), 0.05, "#222222")
    return cv.to_svg(scale)
