"""Geometry tests.

Independent oracle: embed each lattice in Cartesian coordinates with floats
(triangle basis e1 = (1, 0), e2 = (1/2, sqrt(3)/2)) and check the exact
integer constructions (orientation lifts, facet permutations, cell actions)
against real linear algebra and point-set geometry.
"""

import math
import random

from tileatlas.geometry import (
    FACET_COUNT,
    KIND_SPACE,
    SPACES,
    Isometry,
    ShapeKind,
    apply_cell,
    cell_kind,
    code_matrix,
    compose,
    compose_codes,
    facet_action,
    facet_action_code,
    facet_midpoint2,
    facet_neighbor,
    image_kind,
    inverse,
    inverse_code,
    matrix_code,
    mat_mul,
    orientation_lift,
    origin_cell,
    point_group,
    space_codes,
    space_dim,
    touching_cell,
    touching_offsets,
    tri_vertices,
)

SQ3 = math.sqrt(3.0)

# Facet directions frozen by the documented facet orders.
SQ_DIRS = ((0, 1), (1, 0), (0, -1), (-1, 0))  # N E S W
CB_DIRS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def tri_verts_local(cell):
    """The documented vertex convention, restated independently."""
    a, b, o = cell
    if o == 0:
        return ((a, b), (a + 1, b), (a, b + 1))
    return ((a + 1, b + 1), (a, b + 1), (a + 1, b))


def cart(space, v):
    """Embed a lattice vector as Cartesian floats."""
    if space == "tri2d":
        return (v[0] + 0.5 * v[1], (SQ3 / 2.0) * v[1])
    return tuple(float(c) for c in v)


def cart_mat(space, m):
    """The Cartesian matrix E # M # E^-1 of a lattice-basis matrix."""
    if space != "tri2d":
        return tuple(tuple(float(x) for x in row) for row in m)
    E = ((1.0, 0.5), (0.0, SQ3 / 2.0))
    Einv = ((1.0, -1.0 / SQ3), (0.0, 2.0 / SQ3))
    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
    return mul(mul(E, tuple(tuple(float(x) for x in row) for row in m)), Einv)


def cart_apply(cm, shift_c, p):
    return tuple(
        sum(cm[i][j] * p[j] for j in range(len(p))) + shift_c[i]
        for i in range(len(p))
    )


def facet_mid_cart(space, cell, facet):
    """Facet midpoints from raw shape geometry (centred squares/cubes, the
    triangle vertex convention) — deliberately not via facet_midpoint2."""
    if space == "square2d":
        return tuple(c + d / 2.0 for c, d in zip(cell, SQ_DIRS[facet]))
    if space == "cube3d":
        return tuple(c + d / 2.0 for c, d in zip(cell, CB_DIRS[facet]))
    verts = tri_verts_local(cell)
    v1 = cart(space, verts[(facet + 1) % 3])
    v2 = cart(space, verts[(facet + 2) % 3])
    return tuple((x + y) / 2.0 for x, y in zip(v1, v2))


def close(p, q, tol=1e-9):
    return all(abs(a - b) < tol for a, b in zip(p, q))


def test_vertex_convention_and_doubled_midpoints_agree():
    rng = random.Random(3)
    for _ in range(50):
        cell = (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(0, 1))
        assert tri_vertices(cell) == tri_verts_local(cell)
    for space in SPACES:
        for _ in range(30):
            cell = rand_cell(rng, space)
            kind = cell_kind(space, cell)
            for f in range(FACET_COUNT[kind]):
                m2 = facet_midpoint2(space, cell, f)
                assert close(cart(space, tuple(c / 2.0 for c in m2)),
                             facet_mid_cart(space, cell, f))


ALL_KINDS = (ShapeKind.SQUARE, ShapeKind.CUBE, ShapeKind.TRI_UP, ShapeKind.TRI_DOWN)


# ---------------------------------------------------------------------------
# Group structure of the orientation code systems
# ---------------------------------------------------------------------------

def test_code_system_sizes_and_identity():
    assert len(space_codes("square2d")) == 8
    assert len(space_codes("cube3d")) == 48
    assert len(space_codes("tri2d")) == 12
    for space in SPACES:
        first = space_codes(space)[0]
        n = space_dim(space)
        assert code_matrix(space, first) == tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n))


def test_codes_bijective_onto_matrices():
    for space in SPACES:
        mats = [code_matrix(space, c) for c in space_codes(space)]
        assert len(set(mats)) == len(mats)
        for c, m in zip(space_codes(space), mats):
            assert matrix_code(space, m) == c


def test_group_closure_and_inverses():
    for space in SPACES:
        codes = space_codes(space)
        ident = codes[0]
        for a in codes:
            ia = inverse_code(space, a)
            assert ia in codes
            assert compose_codes(space, a, ia) == ident
            assert compose_codes(space, ia, a) == ident
            for b in codes:
                ab = compose_codes(space, a, b)
                assert ab in codes
                assert code_matrix(space, ab) == mat_mul(
                    code_matrix(space, a), code_matrix(space, b)
                )


def test_point_group_orders():
    # the stabilizer orders |G| that the reduction's counting formula divides by
    assert len(point_group(ShapeKind.SQUARE).codes) == 8
    assert len(point_group(ShapeKind.CUBE).codes) == 48
    assert len(point_group(ShapeKind.TRI_UP).codes) == 6
    assert len(point_group(ShapeKind.TRI_DOWN).codes) == 6


def test_triangle_codes_split_into_cosets():
    keep = [c for c in space_codes("tri2d") if image_kind(ShapeKind.TRI_UP, c)
            is ShapeKind.TRI_UP]
    swap = [c for c in space_codes("tri2d") if image_kind(ShapeKind.TRI_UP, c)
            is ShapeKind.TRI_DOWN]
    assert keep == ["t0", "t1", "t2", "t3", "t4", "t5"]
    assert swap == ["ut0", "ut1", "ut2", "ut3", "ut4", "ut5"]
    # kinds are swapped or preserved consistently
    for c in keep:
        assert image_kind(ShapeKind.TRI_DOWN, c) is ShapeKind.TRI_DOWN
    for c in swap:
        assert image_kind(ShapeKind.TRI_DOWN, c) is ShapeKind.TRI_UP


# ---------------------------------------------------------------------------
# Orientation lifts: exact constructions vs the Cartesian oracle
# ---------------------------------------------------------------------------

def test_lift_maps_origin_cell_onto_image_origin_cell():
    for kind in ALL_KINDS:
        space = KIND_SPACE[kind]
        for code in space_codes(space):
            lift = orientation_lift(kind, code)
            img = apply_cell(lift, space, origin_cell(kind))
            assert img == origin_cell(image_kind(kind, code)), (kind, code)


def test_stabilizer_codes_fix_origin_cell():
    for kind in ALL_KINDS:
        space = KIND_SPACE[kind]
        for code in point_group(kind).codes:
            lift = orientation_lift(kind, code)
            assert apply_cell(lift, space, origin_cell(kind)) == origin_cell(kind)


def test_facet_action_matches_cartesian_midpoints():
    # The permutation computed with doubled integer midpoints must agree with
    # real geometry: push each facet midpoint through the lift embedded in
    # Cartesian coordinates and find which image-cell facet it lands on.
    for kind in ALL_KINDS:
        space = KIND_SPACE[kind]
        src = origin_cell(kind)
        for code in space_codes(space):
            lift = orientation_lift(kind, code)
            tgt_kind = image_kind(kind, code)
            tgt = origin_cell(tgt_kind)
            perm = facet_action(lift, kind)
            assert sorted(perm) == list(range(FACET_COUNT[kind]))
            cm = cart_mat(space, lift.matrix)
            sh = cart(space, lift.shift)
            for f in range(FACET_COUNT[kind]):
                img_pt = cart_apply(cm, sh, facet_mid_cart(space, src, f))
                want = facet_mid_cart(space, tgt, perm[f])
                assert close(img_pt, want), (kind, code, f)
            assert facet_action_code(kind, code) == perm


def test_square_quarter_turn_facet_permutation():
    # Quarter turn r1 sends N->W, E->N, S->E, W->S in the (N, E, S, W) order.
    assert facet_action_code(ShapeKind.SQUARE, "r1") == (3, 0, 1, 2)


def test_sixty_degree_rotation_about_origin_moves_up_cell():
    # The linear rotation by 60 degrees (no shift) carries the up triangle at
    # the origin onto the down triangle at (-1, 0).
    rot = Isometry(code_matrix("tri2d", "ut0"), (0, 0))
    assert apply_cell(rot, "tri2d", (0, 0, 0)) == (-1, 0, 1)


def test_triangle_stabilizer_lift_shifts():
    # Frozen from the vertex arithmetic: rotations about the cell centre and
    # the three edge-bisector reflections need these lattice translations.
    up = {c: orientation_lift(ShapeKind.TRI_UP, c).shift for c in
          ("t0", "t1", "t2", "t3", "t4", "t5")}
    down = {c: orientation_lift(ShapeKind.TRI_DOWN, c).shift for c in
            ("t0", "t1", "t2", "t3", "t4", "t5")}
    assert up == {"t0": (0, 0), "t1": (1, 0), "t2": (0, 1),
                  "t3": (0, 0), "t4": (0, 1), "t5": (1, 0)}
    assert down == {"t0": (0, 0), "t1": (2, 0), "t2": (0, 2),
                    "t3": (0, 0), "t4": (0, 2), "t5": (2, 0)}
    # Independent check: each lift permutes the vertex set of its cell.
    for kind, table in ((ShapeKind.TRI_UP, up), (ShapeKind.TRI_DOWN, down)):
        cell = origin_cell(kind)
        verts = set(tri_vertices(cell))
        for code in table:
            lift = orientation_lift(kind, code)
            assert {lift.point(v) for v in verts} == verts


def test_lift_of_up_to_down_origin():
    lift = orientation_lift(ShapeKind.TRI_UP, "ut0")
    assert lift == Isometry(((0, -1), (1, 1)), (1, 0))
    verts_up = set(tri_vertices((0, 0, 0)))
    verts_down = set(tri_vertices((0, 0, 1)))
    assert {lift.point(v) for v in verts_up} == verts_down


# ---------------------------------------------------------------------------
# Cell action and adjacency
# ---------------------------------------------------------------------------

def rand_cell(rng, space):
    if space == "square2d":
        return (rng.randint(-5, 5), rng.randint(-5, 5))
    if space == "cube3d":
        return (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
    return (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(0, 1))


def test_apply_cell_preserves_adjacency():
    rng = random.Random(20260815)
    for space in SPACES:
        for code in space_codes(space):
            mat = code_matrix(space, code)
            for _ in range(8):
                shift = tuple(rng.randint(-3, 3) for _ in range(space_dim(space)))
                f = Isometry(mat, shift)
                cell = rand_cell(rng, space)
                kind = cell_kind(space, cell)
                img = apply_cell(f, space, cell)
                perm = facet_action(Isometry(mat, (0,) * len(shift)), kind)
                for facet in range(FACET_COUNT[kind]):
                    nbr, nfacet = facet_neighbor(space, cell, facet)
                    nkind = cell_kind(space, nbr)
                    nperm = facet_action(Isometry(mat, (0,) * len(shift)), nkind)
                    got = facet_neighbor(space, img, perm[facet])
                    assert got == (apply_cell(f, space, nbr), nperm[nfacet])


def test_apply_cell_is_an_action():
    rng = random.Random(7)
    for space in SPACES:
        codes = space_codes(space)
        for _ in range(40):
            a = Isometry(code_matrix(space, rng.choice(codes)),
                         tuple(rng.randint(-3, 3) for _ in range(space_dim(space))))
            b = Isometry(code_matrix(space, rng.choice(codes)),
                         tuple(rng.randint(-3, 3) for _ in range(space_dim(space))))
            cell = rand_cell(rng, space)
            assert apply_cell(compose(a, b), space, cell) == \
                apply_cell(a, space, apply_cell(b, space, cell))
            assert apply_cell(inverse(a), space, apply_cell(a, space, cell)) == cell


def test_shared_facet_midpoints_agree():
    rng = random.Random(99)
    for space in SPACES:
        for _ in range(30):
            cell = rand_cell(rng, space)
            kind = cell_kind(space, cell)
            for facet in range(FACET_COUNT[kind]):
                nbr, nfacet = facet_neighbor(space, cell, facet)
                assert facet_midpoint2(space, cell, facet) == \
                    facet_midpoint2(space, nbr, nfacet)
                # the relation is involutive
                assert facet_neighbor(space, nbr, nfacet) == (cell, facet)


# ---------------------------------------------------------------------------
# Touching neighbourhoods (coronas are built from these)
# ---------------------------------------------------------------------------

def square_touches(a, b):
    return a != b and all(abs(x - y) <= 1 for x, y in zip(a, b))


def tri_touches(a, b):
    return a != b and bool(set(tri_vertices(a)) & set(tri_vertices(b)))


def test_touching_offsets_counts():
    assert len(touching_offsets(ShapeKind.SQUARE)) == 8
    assert len(touching_offsets(ShapeKind.CUBE)) == 26
    assert len(touching_offsets(ShapeKind.TRI_UP)) == 12
    assert len(touching_offsets(ShapeKind.TRI_DOWN)) == 12


def test_touching_offsets_match_point_set_geometry():
    # Oracle: cells touch iff their closed point sets intersect.  For squares
    # and cubes that is the Chebyshev-1 box; for triangles, shared vertices or
    # a shared edge, and edge-sharing triangles always share vertices too.
    for kind in (ShapeKind.SQUARE, ShapeKind.CUBE):
        cell = origin_cell(kind)
        dim = len(cell)
        got = {touching_cell(kind, cell, o) for o in touching_offsets(kind)}
        want = set()
        for off in _boxes(dim, 2):
            other = tuple(c + o for c, o in zip(cell, off))
            if square_touches(cell, other):
                want.add(other)
        assert got == want
    for kind in (ShapeKind.TRI_UP, ShapeKind.TRI_DOWN):
        cell = origin_cell(kind)
        got = {touching_cell(kind, cell, o) for o in touching_offsets(kind)}
        want = set()
        for da in range(-2, 3):
            for db in range(-2, 3):
                for o in (0, 1):
                    other = (cell[0] + da, cell[1] + db, o)
                    if tri_touches(cell, other):
                        want.add(other)
        assert got == want


def _boxes(dim, r):
    if dim == 2:
        return [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)]
    return [(x, y, z) for x in range(-r, r + 1)
            for y in range(-r, r + 1) for z in range(-r, r + 1)]


def test_facet_offsets_are_touching_offsets():
    for kind in ALL_KINDS:
        cell = origin_cell(kind)
        space = KIND_SPACE[kind]
        touch = {touching_cell(kind, cell, o) for o in touching_offsets(kind)}
        for facet in range(FACET_COUNT[kind]):
            nbr, _ = facet_neighbor(space, cell, facet)
            assert nbr in touch


def test_touching_is_symmetric():
    for kind in ALL_KINDS:
        cell = origin_cell(kind)
        for off in touching_offsets(kind):
            other = touching_cell(kind, cell, off)
            okind = cell_kind(KIND_SPACE[kind], other)
            back = {touching_cell(okind, other, o) for o in touching_offsets(okind)}
            assert cell in back


def test_cube_code_roundtrip_examples():
    ident = space_codes("cube3d")[0]
    assert ident == "sXYZ:+++/XYZ"
    m = code_matrix("cube3d", "sXYZ:-+-/YZX")
    assert matrix_code("cube3d", m) == "sXYZ:-+-/YZX"
    # 48 signed permutation matrices, all orthogonal with determinant +-1
    for code in space_codes("cube3d"):
        mm = code_matrix("cube3d", code)
        for row in mm:
            assert sorted(abs(x) for x in row) == [0, 0, 1]
