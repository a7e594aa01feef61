"""The box reader: patch_valid's dense route and parse_patch's column reader,
each against the route it stands in front of."""

import random
from unittest import mock

import pytest

from conftest import kari_orbit_patch, random_tileset
import tileatlas.tileset
from tileatlas.box import dense_valid, facet_steps
from tileatlas.geometry import SPACES, SPACE_KINDS, cell_kind, space_codes
from tileatlas.solver import FOUND, SolveConfig, solve
from tileatlas.patchtext import _by_columns, _by_lines, parse_patch, serialize_patch
from tileatlas.tileset import (
    FacetRule,
    FormatError,
    Patch,
    Placement,
    RegionSpec,
    TileSet,
    facet_pairs,
    load_bundled,
    patch_valid,
    region_cells,
    wrap_cell,
)


def pair_walk(ts, patch):
    """patch_valid with its dense route switched off."""
    with mock.patch.object(tileatlas.tileset, "dense_valid",
                           lambda ts, patch: False):
        return patch_valid(ts, patch)


@pytest.mark.parametrize("space", SPACES)
def test_facet_steps_meet_every_pair_once(space):
    # read from its smaller side, each facet step is one facet_pairs pair
    # per cell, on tori wide enough that no pair repeats and on extent-1
    # wraps
    for extents in ((1,) * 3, (2, 1, 3), (3, 4, 2)):
        region = RegionSpec(space, extents[:3 if space == "cube3d" else 2],
                            True)
        cells = tuple(region_cells(region))
        kinds = SPACE_KINDS[space]
        tri = space == "tri2d"

        def met(cell, j, offset):  # the cell a step meets; tri2d: bit j
            return wrap_cell(region, tuple(
                c + d for c, d in zip(cell, offset)) + (j,) * tri)

        stepped = sorted(
            tuple(sorted([(cell, f), (met(cell, j, offset), nf)]))
            for k, f, j, nf, offset in facet_steps(space)
            for cell in cells if cell_kind(space, cell) is kinds[k])
        listed = sorted(tuple(sorted([(cells[i], f), (cells[j], nf)]))
                        for i, f, j, nf in facet_pairs(region, cells))
        assert stepped == listed, extents


def table_set(rng, space, allowed):
    """A random set whose rule is a table: every colour meets itself and a
    few pairs of unlike colours meet too."""
    ts = random_tileset(rng, space, 4, 3)
    pairs = {(c, c) for c in range(4)} | {
        (rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)}
    return TileSet(ts.name, ts.prototiles, FacetRule("table", frozenset(pairs)),
                   allowed)


def labels(ts, kind):
    """The labels legal on a cell of `kind`, or else one that is not: a
    random tri2d set may lack tiles of one orientation."""
    hues = ts.table.hues[kind]
    return [label for label, ch in ts.table.chars.items() if ch in hues] or [
        (ts.prototiles[0].id, space_codes(ts.space)[0])]


def full_patch(rng, ts, region):
    """A patch that fills the region: the solver's, when it finds one, or
    else legal labels drawn at random."""
    found = solve(ts, region, SolveConfig(seed=rng.randrange(1000)))
    if found.status == FOUND:
        return found.patch
    return Patch(ts.name, region, {
        c: Placement(c, *rng.choice(labels(ts, cell_kind(region.space, c))))
        for c in region_cells(region)})


def mutants(rng, ts, patch):
    """The patch, then copies with its first, a middle or its last cell
    relabelled (a legal label, an unknown tile, a code its cell does not
    allow), emptied, or moved past 2**53, and with a cell outside the
    region added."""
    yield patch
    cells = sorted(patch.placements)
    space = patch.region.space
    for cell in (cells[0], cells[len(cells) // 2], cells[-1]):
        kind = cell_kind(space, cell)
        tile, code = rng.choice(labels(ts, kind))
        bad_code = next((c for c in space_codes(space)
                         if ts.table.chars.get((tile, c))
                         not in ts.table.hues[kind]), code)
        far = (2 ** 53 + 1,) + cell[1:]
        for change in ({cell: Placement(cell, tile, code)},
                       {cell: Placement(cell, "zz", code)},
                       {cell: Placement(cell, tile, bad_code)},
                       {cell: None},
                       {cell: None, far: Placement(far, tile, code)}):
            placements = {**patch.placements, **change}
            yield Patch(patch.set_name, patch.region,
                        {c: p for c, p in placements.items() if p})
    out = (patch.region.extents[0],) + cells[-1][1:]
    yield Patch(patch.set_name, patch.region, {
        **patch.placements, out: Placement(out, *patch.placements[cells[0]][1:])})


def test_dense_route_gives_the_pair_walks_verdicts():
    rng = random.Random(20261019)
    accepted = set()
    for trial in range(240):
        space = SPACES[trial % 3]
        table = trial // 3 % 2
        allowed = ("translations", "all")[trial // 6 % 2]
        ts = (table_set(rng, space, allowed) if table else TileSet(
            "r", random_tileset(rng, space, 4, 2).prototiles,
            FacetRule("identical"), allowed))
        dims = 3 if space == "cube3d" else 2
        extents = tuple(rng.randint(1, 3 if dims == 3 else 4)
                        for _ in range(dims))
        region = RegionSpec(space, extents, bool(trial // 12 % 2))
        for case in mutants(rng, ts, full_patch(rng, ts, region)):
            got = patch_valid(ts, case)
            assert got == pair_walk(ts, case), case
            # it accepts exactly the valid patches that fill their region
            filled = sorted(case.placements) == sorted(region_cells(region))
            assert dense_valid(ts, case) == (filled and got[0]), case
            if filled and got[0]:
                accepted.add((space, ts.rule.kind, region.torus))
    # on every lattice, under both rule kinds, free and torus
    assert len(accepted) == 12, sorted(accepted)


def test_dense_route_on_the_bundled_sets():
    rng = random.Random(7)
    kari = load_bundled("kari14")
    tri = load_bundled("triangles6")
    torus = solve(tri, RegionSpec("tri2d", (6, 6), True),
                  SolveConfig(seed=3)).patch
    wang = solve(load_bundled("wang13"),
                 RegionSpec("square2d", (5, 5), False)).patch
    for ts, patch in ((kari, kari_orbit_patch(kari, 30)), (tri, torus),
                      (load_bundled("wang13"), wang)):
        assert dense_valid(ts, patch)
        for case in mutants(rng, ts, patch):
            got = patch_valid(ts, case)
            assert got == pair_walk(ts, case)
            assert dense_valid(ts, case) == (
                len(case.placements) == len(patch.placements) and got[0])


# ---------------------------------------------------------------------------
# parse_patch by columns
# ---------------------------------------------------------------------------

def read_both(text, space, ids=None):
    """parse_patch's result or FormatError message, and the line reader's;
    the column reader's own result besides."""
    def outcome(read):
        try:
            return read(text, space, ids)
        except FormatError as e:
            return f"FormatError: {e}"
    return (outcome(parse_patch), outcome(_by_lines),
            _by_columns(text, space, ids))


VALID = {
    "square2d": "patch s 2 2 torus\n0 0 a r0\n0 1 b r1\n1 0 a m2\n1 1 b r0\n",
    "tri2d": "patch t 1 2 free\n\n0 0 u a t0\n0 0 d b ut1\n  0 1 u a u\n"
             "0 1 d\tb t3",
    "cube3d": "patch c 1 1 2 free\n0 0 0 a sXYZ:+++/XYZ\n"
              "0 0 1 b sXYZ:-++/YXZ\n",
}


@pytest.mark.parametrize("space", sorted(VALID))
def test_column_reader_gives_the_line_readers_results(space):
    text = VALID[space]
    for ids in (None, {"a", "b"}):
        got, lines, columns = read_both(text, space, ids)
        assert got == lines and isinstance(got, Patch)
        # the block reader reads the writer's form alone (the square and
        # cube texts), and leaves the rest to the line reader
        assert columns == (got if serialize_patch(got) == text else None)
        assert (columns is None) == (space == "tri2d")
    lines = text.splitlines()
    first = next(line for line in lines[1:] if line.split())  # a placement
    mutated = {
        "comment": text.replace("a ", "a # ", 1),
        "crlf": "\r\n".join(lines),
        "unicode breaks": "\u2028".join(lines) + "\x85",
        "field": text.replace(" a ", " a x ", 1),
        "short": text.rstrip("\n").rsplit(" ", 1)[0] + "\n",
        "coordinate": text.replace(first, "x" + first),
        "digits": text.replace(first, "0_1" + first.lstrip()[1:]),
        "unknown id": text.replace(" b ", " z ", 1),
        "unknown code": text.replace(first, first.rsplit(None, 1)[0] + " q9"),
        "duplicate": text + "\n" + first,
        "header": text.replace("patch", "patches", 1),
        "boundary": text.replace("free", "open").replace("torus", "open"),
        "extent": text.replace(" 1 ", " 0 ", 1).replace(" 2 ", " 0 ", 1),
        "header only": lines[0],
        "empty": "",
        "blank": "\n \n\t\n",
    }
    if space == "tri2d":
        mutated["bit"] = text.replace(" d ", " x ", 1)
    for what, case in mutated.items():
        for ids in (None, {"a", "b"}):
            got, lines_read, columns = read_both(case, space, ids)
            assert got == lines_read, what
            assert columns is None or columns == got, what


def test_column_reader_reads_what_the_writer_writes():
    # found patches of each bundled set, written and read back by columns;
    # the tri 10x11 torus and the free cube 10x11x12 reach multi-digit
    # coordinates on every axis, the cube's a string over cubes21's
    # alphabet, as no solve of it is quick
    rng = random.Random(42)
    cube = RegionSpec("cube3d", (10, 11, 12), False)
    for name, region in (("wang13", RegionSpec("square2d", (4, 4), False)),
                         ("triangles6", RegionSpec("tri2d", (4, 4), True)),
                         ("cubes21", RegionSpec("cube3d", (2, 2, 2), False)),
                         ("triangles6", RegionSpec("tri2d", (10, 11), True)),
                         ("cubes21", cube)):
        ts = load_bundled(name)
        if region == cube:
            labels = ts.table.labels
            patch = Patch.of_text(name, region, "".join(
                chr(rng.randrange(len(labels))) for _ in range(10 * 11 * 12)),
                labels)
        else:
            patch = solve(ts, region).patch
        text = serialize_patch(patch)
        read = _by_columns(text, region.space, set(ts.by_id))
        assert read == patch == _by_lines(text, region.space, None)
        assert serialize_patch(read) == text
