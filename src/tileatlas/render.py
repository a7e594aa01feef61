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

from .geometry import (
    FACET_COUNT,
    ShapeKind,
    cell_kind,
    orientation_lift,
    tri_vertices,
)
from .reduction import DECORATION_POINT, ReducedSet
from .tileset import Patch, TileSet, effective_facets

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


class _Canvas:
    def __init__(self):
        self.parts = []
        self.min_x = self.min_y = float("inf")
        self.max_x = self.max_y = float("-inf")

    def bump(self, pts):
        for (x, y) in pts:
            self.min_x = min(self.min_x, x)
            self.max_x = max(self.max_x, x)
            self.min_y = min(self.min_y, y)
            self.max_y = max(self.max_y, y)

    def polygon(self, pts, fill, stroke="none", width=0.0):
        self.bump(pts)
        coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for (x, y) in pts)
        extra = "" if stroke == "none" else \
            f' stroke="{stroke}" stroke-width="{_fmt(width)}"'
        self.parts.append(f'<polygon points="{coords}" fill="{fill}"{extra}/>')

    def polyline(self, pts, stroke, width):
        self.bump(pts)
        coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for (x, y) in pts)
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


def _square_outline(cx, cy):
    return [(cx - 0.5, cy - 0.5), (cx + 0.5, cy - 0.5),
            (cx + 0.5, cy + 0.5), (cx - 0.5, cy + 0.5)]


def _centroid(pts):
    n = len(pts)
    return (sum(p[0] for p in pts) / n, sum(p[1] for p in pts) / n)


def _strip(c, v1, v2, t=0.3):
    """Trapezoid along edge v1-v2, pulled towards the centroid c."""
    p1 = (v1[0] + t * (c[0] - v1[0]), v1[1] + t * (c[1] - v1[1]))
    p2 = (v2[0] + t * (c[0] - v2[0]), v2[1] + t * (c[1] - v2[1]))
    return [v1, v2, p2, p1]


def _tri_edge(cell, facet):
    """The two vertices of a triangle cell's facet (opposite vertex i)."""
    verts = tri_vertices(cell)
    return verts[(facet + 1) % 3], verts[(facet + 2) % 3]


def _layer_positions(patch):
    """For cube patches: horizontal offset per layer so slices sit side by
    side, ordered by z."""
    w = patch.region.extents[0]
    return {z: z * (w + 1) for z in range(patch.region.extents[2])}


def render_source_patch(ts: TileSet, patch: Patch, scale: float = 40.0) -> str:
    """Facet-coloured rendering of a source-set patch."""
    space = patch.region.space
    cv = _Canvas()
    if space == "cube3d":
        offs = _layer_positions(patch)
        for cell in sorted(patch.placements):
            pl = patch.placements[cell]
            eff = effective_facets(ts, pl)
            x, y, z = cell
            cx = x + offs[z]
            outline = _square_outline(cx, y)
            centre = (cx, y)
            cv.polygon(outline, "white", "#222222", 0.03)
            # in-plane facets: X+ right, X- left, Y+ top, Y- bottom
            edges = {
                0: (outline[1], outline[2]),
                1: (outline[3], outline[0]),
                2: (outline[2], outline[3]),
                3: (outline[0], outline[1]),
            }
            for f, (v1, v2) in edges.items():
                cv.polygon(_strip(centre, v1, v2), colour_hex(eff[f]))
            # out-of-plane: Z+ upper-left dot, Z- lower-right dot
            cv.circle((cx - 0.2, y + 0.2), 0.13, colour_hex(eff[4]))
            cv.circle((cx + 0.2, y - 0.2), 0.13, colour_hex(eff[5]))
            cv.polygon(outline, "none", "#222222", 0.03)
        return cv.to_svg(scale)
    for cell in sorted(patch.placements):
        pl = patch.placements[cell]
        eff = effective_facets(ts, pl)
        kind = cell_kind(space, cell)
        if space == "tri2d":
            outline = [_embed2(v, space) for v in tri_vertices(cell)]
        else:
            outline = _square_outline(cell[0], cell[1])
        centre = _centroid(outline)
        cv.polygon(outline, "white", "#222222", 0.03)
        for f in range(FACET_COUNT[kind]):
            if space == "tri2d":
                a, b = _tri_edge(cell, f)
                v1, v2 = _embed2(a, space), _embed2(b, space)
            else:
                corners = {0: (outline[3], outline[2]), 1: (outline[1], outline[2]),
                           2: (outline[0], outline[1]), 3: (outline[0], outline[3])}
                v1, v2 = corners[f]
            cv.polygon(_strip(centre, v1, v2), colour_hex(eff[f]))
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
    """Glyph rendering of a reduced-set patch."""
    space = patch.region.space
    rep_kind = {r.id: r.kind for r in rs.reps}
    rep_index = {r.id: i for i, r in enumerate(rs.reps)}
    cv = _Canvas()
    if space == "cube3d":
        offs = _layer_positions(patch)
        for cell in sorted(patch.placements):
            pl = patch.placements[cell]
            x, y, z = cell
            cx = x + offs[z]
            outline = _square_outline(cx, y)
            cv.polygon(outline, "white", "#222222", 0.03)
            _, mark = _lift_rep(rep_kind[pl.tile], pl.orientation)
            (mx, my, _) = _at_cell(cell, space, mark)
            cv.circle((mx + offs[z], my), 0.08,
                      colour_hex(rep_index[pl.tile] + 1))
            cv.text((cx, y - 0.32), f"{pl.tile} {pl.orientation}", 0.16)
        return cv.to_svg(scale)
    for cell in sorted(patch.placements):
        pl = patch.placements[cell]
        if space == "tri2d":
            outline = [_embed2(v, space) for v in tri_vertices(cell)]
        else:
            outline = _square_outline(cell[0], cell[1])
        cv.polygon(outline, "white", "#222222", 0.03)
        strokes, mark = _lift_rep(rep_kind[pl.tile], pl.orientation)
        stroke = colour_hex(rep_index[pl.tile] + 1)
        for a, b in strokes:
            cv.polyline([_embed2(_at_cell(cell, space, a), space),
                         _embed2(_at_cell(cell, space, b), space)], stroke, 0.05)
        cv.circle(_embed2(_at_cell(cell, space, mark), space), 0.05, "#222222")
    return cv.to_svg(scale)
