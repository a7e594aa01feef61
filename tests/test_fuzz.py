"""Property tests of the atlas text format.

Two properties: parsing any text raises nothing but FormatError, and
serialize_atlas(parse_atlas(serialize_atlas(a))) is byte-identical for
atlases drawn over every lattice's codes and ring length.  Examples are
derandomized and bounded, so runs are repeatable and quick.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tileatlas.atlas import Atlas, Corona, parse_atlas, serialize_atlas  # noqa: E402
from tileatlas.geometry import SPACES, space_codes  # noqa: E402
from tileatlas.tileset import FormatError  # noqa: E402

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
