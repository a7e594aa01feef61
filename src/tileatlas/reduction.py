"""Reduction of a coloured prototile set to a small decorated set.

A set of coloured prototiles over one lattice, placed by translations only,
is re-encoded over decorated representative tiles.  The mode picks one
grouping of the tiles (`_groups`), and each group has a host shape:

* mode "c1": a group is one shape translation class (squares; cubes; up
  and down triangles separately), hosted by its own shape;
* mode "c2": the one group is the whole set (up and down triangles
  together), hosted by its largest class (ties: first in input order),
  whose members come first.

A group of m members over a host with stabilizer G contributes
ceil(m / |G|) representatives of the host shape.  Member j becomes
representative floor(j / |G|) placed with the stabilizer's (j mod |G|)-th
code; a member of another shape stores that code composed with the inverse
of a carrier code mapping its shape onto the host's, so the code lands in
the coset that maps the host shape onto the member's.  The pair
(representative, code) identifies the source tile.

Each representative is decorated with a marked interior point with trivial
stabilizer, so a placed representative's orientation is always readable.
The reduced-set text format is specified in docs/FORMATS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter

from .geometry import (
    KIND_SPACE,
    ShapeKind,
    compose_codes,
    image_kind,
    inverse_code,
    point_group,
    space_codes,
)
from .box import label_of
from .text import FormatError, _code, _content_lines, _token
from .tileset import Patch, TileSet, identity_code, placement_map

# Marked interior point of each shape, as (numerators, denominator) in cell
# coordinates (squares and cubes are centred on their lattice point; triangle
# points are absolute within the origin cell).  Each point has trivial
# stabilizer, and the down-triangle point is the point reflection of the up
# one, matching the relation between the two cell shapes.
DECORATION_POINT = {
    ShapeKind.SQUARE: ((1, 2), 6),
    ShapeKind.CUBE: ((1, 2, 3), 8),
    ShapeKind.TRI_UP: ((3, 1), 6),
    ShapeKind.TRI_DOWN: ((3, 5), 6),
}


class DecodeError(ValueError):
    """An orientation/representative pair outside the encoding's image."""


@dataclass(frozen=True)
class DecoratedPrototile:
    id: str
    kind: ShapeKind


@dataclass(frozen=True)
class ReducedSet:
    name: str
    mode: str
    source: TileSet
    reps: tuple[DecoratedPrototile, ...]
    forward: dict  # source tile id -> (rep id, orientation code)
    inverse: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inv = {}
        for tid, key in self.forward.items():
            if key in inv:
                raise FormatError(
                    f"encoding is not injective: {key} used by {inv[key]} and {tid}"
                )
            inv[key] = tid
        object.__setattr__(self, "inverse", inv)

    @property
    def rep_ids(self):
        return {r.id for r in self.reps}


def partition_translation(ts: TileSet) -> list[list[str]]:
    """Shape translation classes as lists of tile ids, in input order.

    Two prototiles share a class when their shapes are translates of each
    other, which on these lattices means equal cell kind.
    """
    classes = {}
    for p in ts.prototiles:
        classes.setdefault(p.kind, []).append(p.id)
    return list(classes.values())


def _carrier_code(member: ShapeKind, rep: ShapeKind) -> str:
    """The first code mapping the member shape onto the representative's."""
    for c in space_codes(KIND_SPACE[member]):
        if image_kind(member, c) is rep:
            return c
    raise FormatError(f"shapes {member} and {rep} are not isometric")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _groups(ts: TileSet, mode: str) -> list[tuple[list[str], ShapeKind]]:
    """(member ids, host kind) per group of the mode, in input order.

    A c1 group is one translation class.  The one c2 group is every class,
    since a lattice's cell kinds are isometric (up and down triangles map
    onto each other by the ut codes); its largest class (the first on ties)
    hosts it, and its members come first.
    """
    if ts.allowed != "translations":
        raise FormatError("reduction is defined for translation-placed sets")
    classes = partition_translation(ts)
    if mode == "c1":
        return [(cls, ts.by_id[cls[0]].kind) for cls in classes]
    if mode != "c2":
        raise FormatError(f"unknown reduction mode {mode!r}")
    host = max(classes, key=len)  # max is stable: first largest
    members = host + [t for cls in classes if cls is not host for t in cls]
    return [(members, ts.by_id[host[0]].kind)]


def reduced_cardinality(ts: TileSet, mode: str) -> int:
    """Number of representatives, from the counting formula alone."""
    return sum(_ceil_div(len(members), len(point_group(host).codes))
               for members, host in _groups(ts, mode))


def build_encoding(ts: TileSet, mode: str):
    """Representatives and the source-tile -> (rep, code) map."""
    space = ts.space
    reps = []
    forward = {}
    for members, host in _groups(ts, mode):
        codes = point_group(host).codes
        g = len(codes)
        base = len(reps)
        reps.extend(DecoratedPrototile(f"x{base + i}", host)
                    for i in range(_ceil_div(len(members), g)))
        for j, tid in enumerate(members):
            code = codes[j % g]
            kind = ts.by_id[tid].kind
            if kind is not host:
                carrier = inverse_code(space, _carrier_code(kind, host))
                code = compose_codes(space, carrier, code)
            forward[tid] = (f"x{base + j // g}", code)
    return tuple(reps), forward


def reduce_set(ts: TileSet, mode: str) -> ReducedSet:
    reps, forward = build_encoding(ts, mode)
    return ReducedSet(f"{ts.name}-{mode}", mode, ts, reps, forward)


# ---------------------------------------------------------------------------
# Patch encoding (the tiling-level bijection)
# ---------------------------------------------------------------------------

def encode_patch(rs: ReducedSet, patch: Patch) -> Patch:
    """Rewrite a source-set patch over the representatives.

    Every source placement is translation-only; the encoded placement puts
    the tile's representative at the same cell with the tile's stored
    orientation code.  The placements are read and built in bulk; a patch
    that fails is read again placement by placement, to name the first
    offender.
    """
    ident = identity_code(patch.region.space)
    found = patch.placements.values()
    labels = list(map(rs.forward.get, map(itemgetter(1), found)))
    if None in labels or not {ident}.issuperset(map(itemgetter(2), found)):
        for pl in found:
            if pl.orientation != ident:
                raise DecodeError("source placements must be translations, "
                                  f"got {pl.orientation!r}")
            if pl.tile not in rs.forward:
                raise DecodeError(
                    f"tile {pl.tile!r} is not in the encoded set")
    return Patch(rs.name, patch.region, placement_map(
        patch.placements, map(itemgetter(0), labels),
        map(itemgetter(1), labels)))


def decode_patch(rs: ReducedSet, patch: Patch) -> Patch:
    """Invert encode_patch; fails on pairs outside the encoding's image,
    naming the first in the patch's order."""
    tiles = list(map(rs.inverse.get, map(label_of, patch.placements.values())))
    if None in tiles:
        for cell, pl in patch.placements.items():
            if (pl.tile, pl.orientation) not in rs.inverse:
                raise DecodeError(
                    f"placement {pl.tile} {pl.orientation} at {cell} does "
                    f"not decode to any source tile")
    return Patch(rs.source.name, patch.region, placement_map(
        patch.placements, tiles, repeat(identity_code(patch.region.space))))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_KIND_TOKEN = {k.value: k for k in ShapeKind}


def serialize_reduced(rs: ReducedSet) -> str:
    out = [f"reduced {_token(rs.name, 'set name')} {rs.mode}"]
    for rep in rs.reps:
        # a rep line whose id is "->" would read as an arrow line
        out.append(f"rep {_token(rep.id, 'rep id', '->')} {rep.kind.value}")
    for p in rs.source.prototiles:
        rep_id, code = rs.forward[p.id]
        out.append(f"{_token(p.id, 'tile id')} -> {rep_id} "
                   f"{_code(code, space_codes(rs.source.space))}")
    return "\n".join(out) + "\n"


def parse_reduced(text: str, source: TileSet) -> ReducedSet:
    if source.allowed != "translations":
        raise FormatError("reduction is defined for translation-placed sets")
    name = None
    mode = None
    reps = []
    rep_kind = {}
    forward = {}
    for ln, toks in _content_lines(text):
        if name is None:
            if toks[0] != "reduced" or len(toks) != 3:
                raise FormatError(f"line {ln}: expected reduced header")
            name, mode = toks[1], toks[2]
            if mode not in ("c1", "c2"):
                raise FormatError(f"line {ln}: unknown mode {mode!r}")
        elif toks[0] == "rep" and toks[1:2] != ["->"]:
            # a second token "->" makes an arrow line: a source tile may
            # be named rep
            if len(toks) != 3 or toks[2] not in _KIND_TOKEN:
                raise FormatError(f"line {ln}: bad rep line")
            if toks[1] in rep_kind:
                raise FormatError(f"line {ln}: duplicate rep id {toks[1]!r}")
            if KIND_SPACE[_KIND_TOKEN[toks[2]]] != source.space:
                raise FormatError(f"line {ln}: rep {toks[1]}'s shape {toks[2]} "
                                  f"is not on {source.name}'s lattice")
            rep_kind[toks[1]] = _KIND_TOKEN[toks[2]]
            reps.append(DecoratedPrototile(toks[1], _KIND_TOKEN[toks[2]]))
        else:
            if len(toks) != 4 or toks[1] != "->":
                raise FormatError(f"line {ln}: expected '<tile> -> <rep> <code>'")
            tid, _, rep_id, code = toks
            if tid not in source.by_id:
                raise FormatError(f"line {ln}: unknown source tile {tid!r}")
            if rep_id not in rep_kind:
                raise FormatError(f"line {ln}: unknown rep {rep_id!r}")
            if tid in forward:
                raise FormatError(f"line {ln}: duplicate mapping for {tid!r}")
            kind = source.by_id[tid].kind
            if code not in space_codes(source.space):
                raise FormatError(f"line {ln}: unknown code {code!r}")
            if image_kind(rep_kind[rep_id], code) is not kind:
                raise FormatError(
                    f"line {ln}: {code} does not map rep {rep_id}'s shape onto "
                    f"tile {tid}'s")
            forward[tid] = (rep_id, code)
    if name is None:
        raise FormatError("missing reduced header")
    missing = set(source.by_id) - set(forward)
    if missing:
        raise FormatError(f"tiles without mapping: {sorted(missing)}")
    return ReducedSet(name, mode, source, tuple(reps), forward)
