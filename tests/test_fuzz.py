"""Property tests of the text formats: tile sets, patches, reduced sets and
atlases.

Two properties per format: parsing any text raises nothing but FormatError,
and serialize(parse(serialize(x))) is byte-identical for values drawn over
every lattice.  The texts mix arbitrary strings with near-misses built from
the format's own tokens.  Examples are derandomized and bounded, so runs are
repeatable and quick.  The line splitter all four readers share must split
as str.splitlines does.
"""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import tileatlas.tileset  # noqa: E402
from tileatlas.atlas import Atlas, Corona, parse_atlas, serialize_atlas  # noqa: E402
from tileatlas.geometry import (  # noqa: E402
    FACET_COUNT,
    SPACE_KINDS,
    SPACES,
    space_codes,
    space_dim,
)
from tileatlas.reduction import (  # noqa: E402
    parse_reduced,
    reduce_set,
    serialize_reduced,
)
from tileatlas.text import _lines  # noqa: E402
from tileatlas.tileset import (  # noqa: E402
    FacetRule,
    FormatError,
    Patch,
    Placement,
    Prototile,
    RegionSpec,
    TileSet,
    load_bundled,
    parse_patch,
    parse_tileset,
    region_cells,
    serialize_patch,
    serialize_tileset,
)

RING = {"square2d": 8, "cube3d": 26, "tri2d": 12}

FUZZ = settings(derandomize=True, database=None, max_examples=100,
                deadline=None)

ids = st.sampled_from(["x0", "x1", "x12", "a", "rep_b", "Z9"])


@st.composite
def atlases(draw):
    space = draw(st.sampled_from(SPACES))
    entry = st.tuples(ids, st.sampled_from(space_codes(space)))
    corona = st.builds(
        Corona, entry, st.lists(entry, min_size=RING[space],
                                max_size=RING[space]).map(tuple))
    return Atlas(draw(ids), frozenset(draw(st.lists(corona, max_size=4))))


# near-miss text: loose tokens, and corona lines with any code and ring size
token = st.sampled_from(["atlas", ":", "x0", "r0", "m3", "t0", "ut5", "u",
                         "sXYZ:+++/XYZ", "q9", "#", "a"])
loose = st.lists(token, max_size=30).map(" ".join)
code = st.sampled_from(["r0", "m2", "t0", "ut5", "sXYZ:-+-/ZYX", "u", "q9"])
corona_line = st.builds(
    lambda c, ring: " ".join([*c, ":", *(t for e in ring for t in e)]),
    st.tuples(ids, code), st.lists(st.tuples(ids, code), max_size=27))
body = st.lists(st.one_of(loose, corona_line), max_size=8)
texts = st.one_of(st.text(), body.map("\n".join),
                  body.map(lambda ls: "\n".join(["atlas a", *ls])))


@FUZZ
@given(texts)
def test_parse_atlas_raises_only_format_error(text):
    try:
        parse_atlas(text)
    except FormatError:
        pass


@FUZZ
@given(atlases())
def test_atlas_text_round_trip_is_byte_identical(atlas):
    text = serialize_atlas(atlas)
    back = parse_atlas(text)
    assert back == atlas
    assert serialize_atlas(back) == text


def near_misses(tokens, heads=()):
    """Arbitrary text, or lines of the format's tokens, optionally after one
    of the given head texts."""
    line = st.lists(st.sampled_from(tokens), max_size=8).map(" ".join)
    lines = st.lists(line, max_size=8).map("\n".join)
    texts = [st.text(), lines]
    if heads:
        texts.append(st.builds("{}{}".format, st.sampled_from(heads), lines))
    return st.one_of(*texts)


def raises_only_format_error(parse, *args):
    try:
        parse(*args)
    except FormatError:
        pass


TILESET_HEADS = tuple(
    f"tileset a\nspace {space}\nisometries {placed}\nrule {rule}\n"
    for space in SPACES for placed in ("translations", "all")
    for rule in ("identical", "table"))
tileset_texts = near_misses(
    ["tileset", "space", "isometries", "rule", "pair", "tile", "square2d",
     "cube3d", "tri2d", "translations", "all", "identical", "table", "up",
     "down", "0", "1", "2", "-1", "1.5", "x", "a", "#"], TILESET_HEADS)


@FUZZ
@given(tileset_texts)
def test_parse_tileset_raises_only_format_error(text):
    raises_only_format_error(parse_tileset, text)


colour = st.integers(0, 12)


@st.composite
def tilesets(draw, placed=st.sampled_from(["translations", "all"])):
    space = draw(st.sampled_from(SPACES))
    rule = draw(st.sampled_from(["identical", "table"]))
    pairs = frozenset()
    if rule == "table":
        pairs = draw(st.frozensets(st.tuples(colour, colour), max_size=4))
    shapes = st.tuples(st.sampled_from(SPACE_KINDS[space]),
                       st.lists(colour, min_size=6, max_size=6))
    tiles = tuple(
        Prototile(f"p{i}", kind, tuple(cols[:FACET_COUNT[kind]]))
        for i, (kind, cols) in enumerate(
            draw(st.lists(shapes, min_size=1, max_size=8))))
    return TileSet(draw(ids), tiles, FacetRule(rule, pairs), draw(placed))


@FUZZ
@given(tilesets())
def test_tileset_text_round_trip_is_byte_identical(ts):
    text = serialize_tileset(ts)
    back = parse_tileset(text)
    assert back == ts
    assert serialize_tileset(back) == text


PATCH_HEADS = ("patch a 2 2 free\n", "patch a 2 1 torus\n",
               "patch a 2 2 2 torus\n", "patch a 0 2 free\n")
patch_texts = near_misses(
    ["patch", "free", "torus", "0", "1", "-1", "2", "u", "d", "x0", "a",
     "r0", "m3", "t0", "ut5", "sXYZ:+++/XYZ", "q9", "1.5", "#"], PATCH_HEADS)


@FUZZ
@given(st.sampled_from(SPACES), patch_texts)
def test_parse_patch_raises_only_format_error(space, text):
    raises_only_format_error(parse_patch, text, space)
    raises_only_format_error(parse_patch, text, space, {"a", "x0"})


@st.composite
def patches(draw):
    space = draw(st.sampled_from(SPACES))
    extents = tuple(draw(st.integers(1, 3)) for _ in range(space_dim(space)))
    region = RegionSpec(space, extents, draw(st.booleans()))
    cells = draw(st.lists(st.sampled_from(region_cells(region)), unique=True,
                          max_size=8))
    code = st.sampled_from(space_codes(space))
    return Patch(draw(ids), region, {
        cell: Placement(cell, draw(ids), draw(code)) for cell in cells})


@FUZZ
@given(patches())
def test_patch_text_round_trip_is_byte_identical(patch):
    text = serialize_patch(patch)
    back = parse_patch(text, patch.region.space)
    assert back == patch
    assert serialize_patch(back) == text


SOURCES = {name: load_bundled(name) for name in ("wang13", "triangles6")}
REDUCED_HEADS = tuple(
    serialize_reduced(reduce_set(ts, mode))
    for ts in SOURCES.values() for mode in ("c1", "c2"))
reduced_texts = near_misses(
    ["reduced", "rep", "->", "c1", "c2", "x0", "x1", "u1", "d1", "a",
     "up", "down", "square", "t0", "ut4", "r0", "m1", "q9", "#"],
    REDUCED_HEADS)


@FUZZ
@given(st.sampled_from(sorted(SOURCES)), reduced_texts)
def test_parse_reduced_raises_only_format_error(name, text):
    raises_only_format_error(parse_reduced, text, SOURCES[name])


@FUZZ
@given(tilesets(placed=st.just("translations")), st.sampled_from(["c1", "c2"]))
def test_reduced_text_round_trip_is_byte_identical(ts, mode):
    rs = reduce_set(ts, mode)
    text = serialize_reduced(rs)
    back = parse_reduced(text, ts)
    assert back == rs
    assert serialize_reduced(back) == text


# every line boundary str.splitlines knows, "\r\n" and "\n\r" among them
BOUNDARIES = ["\n", "\r", "\r\n", "\n\r", "\x0b", "\x0c", "\x1c", "\x1d",
              "\x1e", "\x85", "\u2028", "\u2029"]
line_texts = st.lists(
    st.one_of(st.sampled_from(BOUNDARIES),
              st.sampled_from(["", " ", "x", "tile a", "#", "\t", "\x84",
                               "\u2027", "\x1f"]),
              st.text(max_size=5)),
    max_size=40).map("".join)


@FUZZ
@given(line_texts, st.integers(1, 12))
def test_lazy_lines_equal_splitlines(text, chunk):
    # small slices put slice ends between every pair of boundaries
    with mock.patch.object(tileatlas.text, "_CHUNK", chunk):
        assert list(_lines(text)) == text.splitlines()
    assert list(_lines(text)) == text.splitlines()


@FUZZ
@given(st.lists(line_texts, max_size=6))
def test_lines_of_pieces_equal_splitlines_of_their_join(pieces):
    # a file's reads cut the text anywhere, between "\r" and "\n" too
    assert list(_lines(iter(pieces))) == "".join(pieces).splitlines()


def test_errors_keep_line_numbers_across_every_boundary():
    # the fourth content line is bad; "\n\r" is two boundaries, so an
    # empty line follows each content line there
    for sep in BOUNDARIES:
        step = len(("x" + sep).splitlines())
        text = sep.join(["tileset t", "isometries translations",
                         "rule identical", "space hexagon"])
        with pytest.raises(FormatError, match=f"^line {3 * step + 1}: "):
            parse_tileset(text)
