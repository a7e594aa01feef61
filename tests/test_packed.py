"""The packed patch against the placements route, its oracle.

A patch that the solver, parse_patch or the codec makes keeps one string of
label characters (`Patch.packed`), one for each cell of its region, each
standing for a label of its alphabet; a patch built from the same
placements (`Patch(set_name, region, placements)`) takes the placements
route in every step.  Hypothesis draws patches on the square, cube and
triangle lattices, each free and torus: found ones, some cells relabelled,
over the set's alphabet, over a longer one and over the reader's.  The two
routes must agree on the patch text, byte for byte, through parse_patch;
on encode, then decode; on patch_valid's verdict and messages; and on
missing_coronas.  Writer-form text with one fault must read as the line
reader reads it.  Examples are derandomized and bounded.  A patch with an
empty cell is a dict patch: test_atlas's
test_missing_coronas_matches_per_cell_oracle and test_tileset's sparse
patches cover those.
"""

import random
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import random_tileset  # noqa: E402
from tileatlas.atlas import Atlas, corona_of, missing_coronas  # noqa: E402
from tileatlas.geometry import SPACES, space_codes, space_dim  # noqa: E402
from tileatlas.patchtext import (  # noqa: E402
    _by_columns,
    _by_lines,
    parse_patch,
    serialize_patch,
)
from tileatlas.reduction import (  # noqa: E402
    DecodeError,
    decode_patch,
    encode_patch,
    reduce_set,
)
from tileatlas.solver import SolveConfig, solve  # noqa: E402
from tileatlas.tileset import (  # noqa: E402
    FormatError,
    Patch,
    Placement,
    RegionSpec,
    load_bundled,
    patch_valid,
)

PACKED = settings(derandomize=True, database=None, max_examples=60,
                  deadline=None)


def cells_of(region):
    """The region's cells in sorted order, a triangle's bit last."""
    tri = region.space == "tri2d"
    return list(product(*map(range, region.extents + (2,) * tri)))


def placements_of(region, text, labels):
    """The placements that `text` stands for over `labels`, built cell by
    cell."""
    return {cell: Placement(cell, *labels[ord(ch)])
            for cell, ch in zip(cells_of(region), text)}


@st.composite
def cases(draw):
    """(set, packed patch, the same placements as a dict patch)."""
    space = draw(st.sampled_from(SPACES))
    torus = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    ts = random_tileset(rng, space, rng.randint(1, 4), colours=1)
    extents = tuple(rng.randint(1, 2 if space == "cube3d" else 4)
                    for _ in range(space_dim(space)))
    region = RegionSpec(space, extents, torus)
    size = len(cells_of(region))
    found = solve(ts, region, SolveConfig(node_limit=3000,
                                          seed=rng.randrange(100))).patch
    labels = ts.table.labels
    text = "".join(rng.choice([*map(chr, range(len(labels)))])
                   for _ in range(size)) if found is None else found.packed[0]
    changes = rng.randint(0, 2)
    if changes:
        # a tile no set holds and a code no translation set places
        labels += (("zz", space_codes(space)[0]),
                   (ts.prototiles[0].id, space_codes(space)[-1]))
        fill = [*map(chr, range(len(labels)))]
        for k in rng.sample(range(size), min(size, changes)):
            text = text[:k] + rng.choice(fill) + text[k + 1:]
        packed = Patch.of_text(ts.name, region, text, labels)
    else:
        packed = found if found is not None else Patch.of_text(
            ts.name, region, text, labels)
    whole = Patch(ts.name, region, placements_of(region, text, labels))
    if rng.random() < 0.5:  # over the reader's alphabet
        packed = parse_patch(serialize_patch(whole), space)
        assert packed.packed is not None
    return ts, packed, whole


def assert_full(patch):
    """A packed patch: one character for each cell of its region, each
    standing for a label of its alphabet."""
    text, labels = patch.packed
    assert len(text) == len(cells_of(patch.region))
    assert max(map(ord, text)) < len(labels)


@pytest.mark.parametrize("name, region", [
    ("wang13", RegionSpec("square2d", (4, 3), False)),
    ("kari14", RegionSpec("square2d", (5, 5), False)),
    ("cubes21", RegionSpec("cube3d", (2, 2, 2), False)),
    ("triangles6", RegionSpec("tri2d", (3, 3), False)),
    ("triangles6", RegionSpec("tri2d", (4, 4), True))])
def test_every_packed_patch_made_fills_its_region(name, region):
    # the solver, parse_patch on the writer's form, encode_patch and
    # decode_patch, from a packed patch and from one read from text
    ts = load_bundled(name)
    found = solve(ts, region).patch
    made = [found, parse_patch(serialize_patch(found), region.space)]
    for mode in ("c1", "c2"):
        rs = reduce_set(ts, mode)
        encoded = encode_patch(rs, found)
        read = parse_patch(serialize_patch(encoded), region.space)
        made += [encoded, decode_patch(rs, encoded), read,
                 decode_patch(rs, read)]
    for patch in made:
        assert_full(patch)


def outcome(fn, *args):
    """fn's result, or its error's type and message."""
    try:
        return fn(*args)
    except (DecodeError, FormatError) as e:
        return type(e).__name__, str(e)


@PACKED
@given(cases())
def test_packed_route_agrees_with_the_placements_route(case):
    ts, packed, whole = case
    region = packed.region
    assert packed.placements == whole.placements
    assert list(packed.placements) == list(whole.placements)
    # the text, byte for byte, and read back by blocks when full
    text = serialize_patch(packed)
    assert text == serialize_patch(whole)
    read = parse_patch(text, region.space)
    assert read == whole and serialize_patch(read) == text
    assert read.packed is not None
    # the verdict and every message, in order
    assert patch_valid(ts, packed) == patch_valid(ts, whole)
    # encode, then decode, also through the encoded text
    rs = reduce_set(ts, "c2")
    encoded, oracle = outcome(encode_patch, rs, packed), outcome(
        encode_patch, rs, whole)
    if isinstance(oracle, tuple):
        assert encoded == oracle
        return
    assert encoded == oracle and encoded.packed is not None
    assert decode_patch(rs, encoded) == whole
    reread = parse_patch(serialize_patch(encoded), region.space, rs.rep_ids)
    assert outcome(decode_patch, rs, reread) == outcome(
        decode_patch, rs, Patch(rs.name, region, dict(oracle.placements)))
    # corona membership, on an atlas of some of the patch's own coronas
    cells = sorted(whole.placements)
    coronas = [corona_of(whole.placements, region, c) for c in cells[::2]]
    atlas = Atlas("some", [c for c in coronas if c is not None])
    assert missing_coronas(atlas, packed) == missing_coronas(atlas, whole)
    assert missing_coronas(atlas, encoded) == missing_coronas(
        atlas, Patch(rs.name, region, dict(encoded.placements)))


@PACKED
@given(cases(), st.sampled_from(["swapped", "repeated", "dropped",
                                 "unknown code", "unknown id"]),
       st.integers(0, 2 ** 16))
def test_one_fault_reads_as_the_line_reader_reads_it(case, fault, pick):
    ts, _, whole = case
    space = whole.region.space
    try:
        text = serialize_patch(whole)
    except FormatError:
        return
    head, *lines = text.splitlines(keepends=True)
    k = pick % len(lines)
    fields = lines[k].split()
    if fault == "swapped":  # two cells' coordinates, or one cell's own
        j = (k + 1) % len(lines)
        width = len(fields) - 2
        other = lines[j].split()
        lines[k] = " ".join(other[:width] + fields[width:]) + "\n"
        lines[j] = " ".join(fields[:width] + other[width:]) + "\n"
    elif fault == "repeated":
        lines.insert(k, lines[k])
    elif fault == "dropped":
        del lines[k]
    elif fault == "unknown code":
        lines[k] = " ".join(fields[:-1] + ["q9"]) + "\n"
    else:
        lines[k] = " ".join(fields[:-2] + ["zy", fields[-1]]) + "\n"
    faulty = head + "".join(lines)
    ids = set(ts.by_id) | {"zz"}
    read = outcome(parse_patch, faulty, space, ids)
    assert read == outcome(_by_lines, faulty, space, ids)
    if faulty != text:
        assert _by_columns(faulty, space, ids) is None
