"""Exact lattice geometry for square, cube and triangle tilings.

Conventions (every other module builds on these):

Cells
  square2d  cell = (x, y): the unit square centered on the lattice point.
  cube3d    cell = (x, y, z): the unit cube centered on the lattice point.
  tri2d     cell = (a, b, o) in axial coordinates with orientation bit o
            (0 = up, 1 = down).  The up cell (a, b, 0) has vertices
            (a, b), (a+1, b), (a, b+1) in the lattice basis; the down cell
            (a, b, 1) is its point reflection through the midpoint of the
            shared edge and has vertices (a+1, b+1), (a, b+1), (a+1, b).

Facets (canonical order; FACET_DIRS tabulates the square and cube ones)
  square    0..3 = N (0,+1), E (+1,0), S (0,-1), W (-1,0); facet i meets the
            neighbour's facet (i + 2) mod 4.
  cube      0..5 = X+, X-, Y+, Y-, Z+, Z-; facet i meets facet i ^ 1.
  triangle  facet i is the edge opposite vertex i.  With the point-reflection
            convention facet i always meets the neighbour's facet i:
            up (a,b): 0 -> down (a,b), 1 -> down (a-1,b), 2 -> down (a,b-1);
            down (a,b): 0 -> up (a,b), 1 -> up (a+1,b), 2 -> up (a,b+1).

Isometries
  An Isometry is an exact integer pair (matrix, shift) acting on lattice
  points as x -> M x + t.  For square2d/cube3d the matrix is a signed
  permutation matrix; for tri2d it is a unimodular matrix of the hexagonal
  point group written in the lattice basis.  No floats anywhere.

Orientation codes (bit-exact, used by every serialization format)
  square2d  r0 r1 r2 r3 = ccw rotations by 0/90/180/270, then m0 m1 m2 m3 =
            mirrors across the x-axis, main diagonal, y-axis, anti-diagonal.
  cube3d    "sXYZ:PPP/AAA" means axis X maps to sign P[0] times axis A[0],
            Y to P[1]*A[1], Z to P[2]*A[2].  Canonical order: axis
            permutations lexicographically (XYZ, XZY, YXZ, YZX, ZXY, ZYX),
            signs +++, ++-, +-+, +--, -++, ... within each permutation.
  tri2d     t0..t5 = the up-triangle stabilizer (t0 identity, t1/t2 rotations
            by 120/240 about the centroid, t3/t4/t5 the reflections fixing
            vertex 0/1/2), then ut0..ut5 = the up/down swapping coset
            (u = rotation by 60 composed after t_i).

A code denotes one matrix (one element of the point group modulo lattice
translations).  The affine lift that places a prototile is the unique
isometry with that matrix carrying the origin cell of the source kind onto
the origin cell of the image kind; it is recovered by exact vertex
arithmetic, so triangle stabilizer elements carry the small translation
parts forced by the vertex convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import permutations, product
from operator import add

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]
Cell = tuple[int, ...]


class ShapeKind(Enum):
    SQUARE = "square"
    CUBE = "cube"
    TRI_UP = "up"
    TRI_DOWN = "down"

    # members compare by identity, so the C hash of identity agrees with it;
    # it varies between runs, so no output may iterate a set of kinds
    __hash__ = object.__hash__


SPACES = ("square2d", "cube3d", "tri2d")

SPACE_KINDS = {
    "square2d": (ShapeKind.SQUARE,),
    "cube3d": (ShapeKind.CUBE,),
    "tri2d": (ShapeKind.TRI_UP, ShapeKind.TRI_DOWN),
}

KIND_SPACE = {k: s for s, kinds in SPACE_KINDS.items() for k in kinds}

FACET_COUNT = {
    ShapeKind.SQUARE: 4,
    ShapeKind.CUBE: 6,
    ShapeKind.TRI_UP: 3,
    ShapeKind.TRI_DOWN: 3,
}


def space_dim(space: str) -> int:
    return 3 if space == "cube3d" else 2


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_inv(m: Mat) -> Mat:
    """Inverse of a 2x2 unimodular or 3x3 signed permutation matrix."""
    n = len(m)
    if n == 2:
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert det in (1, -1)
        return ((m[1][1] * det, -m[0][1] * det), (-m[1][0] * det, m[0][0] * det))
    return tuple(tuple(m[j][i] for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class Isometry:
    """Exact lattice isometry x -> matrix @ x + shift."""

    matrix: Mat
    shift: Vec

    def point(self, v: Vec) -> Vec:
        m = mat_vec(self.matrix, v)
        return tuple(m[i] + self.shift[i] for i in range(len(v)))


def compose(f: Isometry, g: Isometry) -> Isometry:
    """The isometry applying g first, then f."""
    return Isometry(
        mat_mul(f.matrix, g.matrix),
        tuple(a + b for a, b in zip(mat_vec(f.matrix, g.shift), f.shift)),
    )


def inverse(f: Isometry) -> Isometry:
    mi = mat_inv(f.matrix)
    return Isometry(mi, tuple(-x for x in mat_vec(mi, f.shift)))


# ---------------------------------------------------------------------------
# Cells and facets
# ---------------------------------------------------------------------------

# Z^d lattices: facet i's outward unit vector, and the facet it meets
FACET_DIRS: dict[str, tuple[tuple[Vec, ...], tuple[int, ...]]] = {
    "square2d": (((0, 1), (1, 0), (0, -1), (-1, 0)), (2, 3, 0, 1)),
    "cube3d": (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                (0, 0, -1)), (1, 0, 3, 2, 5, 4)),
}


def cell_kind(space: str, cell: Cell) -> ShapeKind:
    if space == "tri2d":
        return ShapeKind.TRI_UP if cell[2] == 0 else ShapeKind.TRI_DOWN
    return SPACE_KINDS[space][0]


def origin_cell(kind: ShapeKind) -> Cell:
    space = KIND_SPACE[kind]
    if space == "tri2d":
        return (0, 0, int(kind is ShapeKind.TRI_DOWN))
    return (0,) * space_dim(space)


def tri_vertices(cell: Cell) -> tuple[Vec, Vec, Vec]:
    """Lattice-basis vertices of a triangle cell, in canonical vertex order."""
    a, b, o = cell
    if o == 0:
        return ((a, b), (a + 1, b), (a, b + 1))
    return ((a + 1, b + 1), (a, b + 1), (a + 1, b))


def tri_cell_of_vertices(vs: tuple[Vec, ...]) -> Cell:
    xs = [v[0] for v in vs]
    ys = [v[1] for v in vs]
    m = (min(xs), min(ys))
    return (m[0], m[1], 0) if m in vs else (m[0], m[1], 1)


def apply_cell(f: Isometry, space: str, cell: Cell) -> Cell:
    """Image cell of `cell` under the isometry f."""
    if space != "tri2d":
        return f.point(cell)
    vs = tri_vertices(cell)
    return tri_cell_of_vertices(tuple(f.point(v) for v in vs))


def facet_neighbor(space: str, cell: Cell, facet: int) -> tuple[Cell, int]:
    """(neighbour cell, neighbour facet index) across the given facet."""
    if space != "tri2d":
        dirs, meets = FACET_DIRS[space]
        return tuple(map(add, cell, dirs[facet])), meets[facet]
    a, b, o = cell
    if o == 0:
        nbr = ((a, b, 1), (a - 1, b, 1), (a, b - 1, 1))[facet]
    else:
        nbr = ((a, b, 0), (a + 1, b, 0), (a, b + 1, 0))[facet]
    return nbr, facet


def facet_midpoint2(space: str, cell: Cell, facet: int) -> Vec:
    """Facet midpoint in doubled lattice coordinates (exact integers)."""
    if space != "tri2d":
        return tuple(2 * c + e for c, e in zip(cell, FACET_DIRS[space][0][facet]))
    vs = tri_vertices(cell)
    p, q = vs[(facet + 1) % 3], vs[(facet + 2) % 3]
    return (p[0] + q[0], p[1] + q[1])


_TRI_UP_TOUCH = tuple(sorted(
    [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (-1, 1, 0), (0, -1, 0), (1, -1, 0)]
    + [(0, 0, 1), (-1, 0, 1), (0, -1, 1), (-1, -1, 1), (1, -1, 1), (-1, 1, 1)]
))
_TRI_DOWN_TOUCH = tuple(sorted(
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, 1, 0), (1, -1, 0)]
    + [(-1, 0, 1), (0, -1, 1), (1, 0, 1), (1, -1, 1), (0, 1, 1), (-1, 1, 1)]
))


@lru_cache(maxsize=None)
def touching_offsets(kind: ShapeKind) -> tuple[tuple, ...]:
    """Cell offsets of every cell touching the origin cell of this kind.

    For triangles the third component of an offset is the neighbour's
    absolute orientation bit, not a difference.
    """
    space = KIND_SPACE[kind]
    if space == "tri2d":
        return _TRI_UP_TOUCH if kind is ShapeKind.TRI_UP else _TRI_DOWN_TOUCH
    # the product of a sorted range comes out sorted
    return tuple(d for d in product((-1, 0, 1), repeat=space_dim(space)) if any(d))


def touching_cell(kind: ShapeKind, center: Cell, offset: tuple) -> Cell:
    if kind in (ShapeKind.SQUARE, ShapeKind.CUBE):
        return tuple(c + d for c, d in zip(center, offset))
    return (center[0] + offset[0], center[1] + offset[1], offset[2])


# ---------------------------------------------------------------------------
# Point groups and orientation codes
# ---------------------------------------------------------------------------

_D4: tuple[tuple[str, Mat], ...] = (
    ("r0", ((1, 0), (0, 1))),
    ("r1", ((0, -1), (1, 0))),
    ("r2", ((-1, 0), (0, -1))),
    ("r3", ((0, 1), (-1, 0))),
    ("m0", ((1, 0), (0, -1))),
    ("m1", ((0, 1), (1, 0))),
    ("m2", ((-1, 0), (0, 1))),
    ("m3", ((0, -1), (-1, 0))),
)

_AXES = "XYZ"


def _cube_code(perm: tuple[int, ...], signs: tuple[int, ...]) -> str:
    sgn = "".join("+" if s > 0 else "-" for s in signs)
    axes = "".join(_AXES[p] for p in perm)
    return f"sXYZ:{sgn}/{axes}"


def _cube_matrix(perm: tuple[int, ...], signs: tuple[int, ...]) -> Mat:
    # column j holds signs[j] * e_{perm[j]}
    return tuple(
        tuple(signs[j] if i == perm[j] else 0 for j in range(3)) for i in range(3)
    )


def _cube_elements() -> tuple[tuple[str, Mat], ...]:
    return tuple((_cube_code(perm, signs), _cube_matrix(perm, signs))
                 for perm in permutations((0, 1, 2))
                 for signs in product((1, -1), repeat=3))


_TRI_I = ((1, 0), (0, 1))
_TRI_R60 = ((0, -1), (1, 1))
_TRI_R120 = ((-1, -1), (1, 0))
_TRI_R240 = ((0, 1), (-1, -1))
_TRI_S1 = ((0, 1), (1, 0))
_TRI_S3 = ((-1, -1), (0, 1))
_TRI_S5 = ((1, 0), (-1, -1))

_TRI_STAB_MATS = (_TRI_I, _TRI_R120, _TRI_R240, _TRI_S1, _TRI_S5, _TRI_S3)


def _tri_elements() -> tuple[tuple[str, Mat], ...]:
    out = [(f"t{i}", m) for i, m in enumerate(_TRI_STAB_MATS)]
    out += [(f"ut{i}", mat_mul(_TRI_R60, m)) for i, m in enumerate(_TRI_STAB_MATS)]
    return tuple(out)


@lru_cache(maxsize=None)
def _code_table(space: str) -> tuple[dict[str, Mat], dict[Mat, str]]:
    """The full point group quotient as code -> matrix, in canonical order,
    and matrix -> code."""
    if space == "square2d":
        elements = _D4
    elif space == "cube3d":
        elements = _cube_elements()
    else:
        elements = _tri_elements()
    return dict(elements), {m: c for c, m in elements}


@lru_cache(maxsize=None)
def space_codes(space: str) -> tuple[str, ...]:
    return tuple(_code_table(space)[0])


def code_matrix(space: str, code: str) -> Mat:
    return _code_table(space)[0][code]


def matrix_code(space: str, m: Mat) -> str:
    return _code_table(space)[1][m]


def compose_codes(space: str, f: str, g: str) -> str:
    """Code of 'g first, then f' in the point group quotient."""
    return matrix_code(space, mat_mul(code_matrix(space, f), code_matrix(space, g)))


def inverse_code(space: str, c: str) -> str:
    return matrix_code(space, mat_inv(code_matrix(space, c)))


@lru_cache(maxsize=None)
def orientation_lift(kind: ShapeKind, code: str) -> Isometry:
    """The isometry with this code's matrix mapping the origin cell of
    `kind` onto the origin cell of its image kind."""
    space = KIND_SPACE[kind]
    m = code_matrix(space, code)
    probe = Isometry(m, (0,) * len(m))
    img = apply_cell(probe, space, origin_cell(kind))
    # a triangle's orientation bit is not a coordinate
    return Isometry(m, tuple(-x for x in img[:len(m)]))


@lru_cache(maxsize=None)
def image_kind(kind: ShapeKind, code: str) -> ShapeKind:
    """Shape kind of the image of a `kind` cell under this orientation."""
    space = KIND_SPACE[kind]
    img = apply_cell(orientation_lift(kind, code), space, origin_cell(kind))
    return cell_kind(space, img)


@dataclass(frozen=True)
class PointGroup:
    """Stabilizer of the origin cell of one shape kind, as its orientation
    codes in canonical order."""

    kind: ShapeKind
    codes: tuple[str, ...]


@lru_cache(maxsize=None)
def point_group(kind: ShapeKind) -> PointGroup:
    space = KIND_SPACE[kind]
    return PointGroup(kind, tuple(
        code for code in space_codes(space) if image_kind(kind, code) is kind))


def facet_action(f: Isometry, kind: ShapeKind) -> tuple[int, ...]:
    """Permutation p with p[i] = facet index, on the image cell, of the image
    of facet i of the origin cell of `kind`."""
    space = KIND_SPACE[kind]
    src = origin_cell(kind)
    img = apply_cell(f, space, src)
    n = FACET_COUNT[kind]
    targets = {
        facet_midpoint2(space, img, j): j
        for j in range(FACET_COUNT[cell_kind(space, img)])
    }
    perm = []
    for i in range(n):
        m2 = facet_midpoint2(space, src, i)
        p = mat_vec(f.matrix, m2)
        p = tuple(p[k] + 2 * f.shift[k] for k in range(len(p)))
        perm.append(targets[p])
    return tuple(perm)


@lru_cache(maxsize=None)
def facet_action_code(kind: ShapeKind, code: str) -> tuple[int, ...]:
    return facet_action(orientation_lift(kind, code), kind)

