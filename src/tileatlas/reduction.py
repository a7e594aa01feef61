"""Reduction of a coloured prototile set to a small decorated set.

A set of |P| coloured prototiles over one lattice, placed by translations
only, is re-encoded over k decorated representative tiles, where each shape
class contributes ceil(|P_s| / |G_s|) representatives (G_s the shape's
rotation/reflection stabilizer).  Tile number j of a class becomes
representative floor(j / |G_s|) placed with the stabilizer's j-th element,
so the pair (representative, orientation) identifies the source tile.

Two groupings are supported:

* mode "c1": classes are shape translation classes (squares; cubes; up and
  down triangles separately).
* mode "c2": translation classes that are isometric are merged first (up and
  down triangles become one class).  The largest translation class (ties:
  first in input order) hosts the representatives; members of the other
  classes store their element composed with a fixed carrier isometry, so
  their orientation codes land in the coset that maps the representative's
  shape onto theirs.

Each representative is decorated with a marked interior point with trivial
stabilizer, so a placed representative's orientation is always readable.

Reduced-set text format:

    reduced <name> c1|c2
    rep <rep-id> square|cube|up|down
    <source-id> -> <rep-id> <code>
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import (
    KIND_SPACE,
    ShapeKind,
    code_matrix,
    image_kind,
    inverse,
    mat_mul,
    matrix_code,
    orientation_lift,
    point_group,
    space_codes,
)
from .tileset import (
    FormatError,
    Patch,
    Placement,
    TileSet,
    _content_lines,
    identity_code,
)

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

    @property
    def decoration(self):
        return DECORATION_POINT[self.kind]


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
    order = []
    for p in ts.prototiles:
        if p.kind not in classes:
            classes[p.kind] = []
            order.append(p.kind)
        classes[p.kind].append(p.id)
    return [classes[k] for k in order]


def _kinds_isometric(a: ShapeKind, b: ShapeKind) -> bool:
    if a is b:
        return True
    if KIND_SPACE[a] != KIND_SPACE[b]:
        return False
    return any(image_kind(a, c) is b for c in space_codes(KIND_SPACE[a]))


def partition_isometry(ts: TileSet) -> list[list[list[str]]]:
    """Groups of translation classes whose shapes are isometric.

    Within each group the translation classes keep their input order.
    """
    tclasses = partition_translation(ts)
    kinds = [ts.by_id[c[0]].kind for c in tclasses]
    groups = []
    used = [False] * len(tclasses)
    for i in range(len(tclasses)):
        if used[i]:
            continue
        group = [tclasses[i]]
        used[i] = True
        for j in range(i + 1, len(tclasses)):
            if not used[j] and _kinds_isometric(kinds[i], kinds[j]):
                group.append(tclasses[j])
                used[j] = True
        groups.append(group)
    return groups


def class_group(kind: ShapeKind) -> tuple[str, ...]:
    """The shape stabilizer's orientation codes in canonical order."""
    return point_group(kind).codes


def _carrier_code(member: ShapeKind, rep: ShapeKind) -> str:
    """The first code mapping the member shape onto the representative's."""
    for c in space_codes(KIND_SPACE[member]):
        if image_kind(member, c) is rep:
            return c
    raise FormatError(f"shapes {member} and {rep} are not isometric")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def reduced_cardinality(ts: TileSet, mode: str) -> int:
    """Number of representatives, from the counting formula alone."""
    if mode == "c1":
        return sum(
            _ceil_div(len(c), len(class_group(ts.by_id[c[0]].kind)))
            for c in partition_translation(ts)
        )
    if mode == "c2":
        total = 0
        for group in partition_isometry(ts):
            members = sum(len(c) for c in group)
            rep_class = max(group, key=len)  # max is stable: first largest
            g = len(class_group(ts.by_id[rep_class[0]].kind))
            total += _ceil_div(members, g)
        return total
    raise FormatError(f"unknown reduction mode {mode!r}")


def build_encoding(ts: TileSet, mode: str):
    """Representatives and the source-tile -> (rep, code) map."""
    if ts.allowed != "translations":
        raise FormatError("reduction is defined for translation-placed sets")
    if mode not in ("c1", "c2"):
        raise FormatError(f"unknown reduction mode {mode!r}")
    reps = []
    forward = {}
    counter = 0

    def emit_class(member_ids, member_kinds, rep_kind):
        nonlocal counter
        codes = class_group(rep_kind)
        g = len(codes)
        k = _ceil_div(len(member_ids), g)
        class_reps = []
        for _ in range(k):
            class_reps.append(DecoratedPrototile(f"x{counter}", rep_kind))
            counter += 1
        reps.extend(class_reps)
        carriers = {}
        for j, (tid, kind) in enumerate(zip(member_ids, member_kinds)):
            code = codes[j % g]
            if kind is not rep_kind:
                if kind not in carriers:
                    carriers[kind] = inverse(
                        orientation_lift(kind, _carrier_code(kind, rep_kind))
                    ).matrix
                code = matrix_code(
                    KIND_SPACE[kind],
                    mat_mul(carriers[kind], code_matrix(KIND_SPACE[kind], code)),
                )
            forward[tid] = (class_reps[j // g].id, code)

    if mode == "c1":
        for cls in partition_translation(ts):
            kind = ts.by_id[cls[0]].kind
            emit_class(cls, [kind] * len(cls), kind)
    else:
        for group in partition_isometry(ts):
            rep_class = max(group, key=len)
            rep_kind = ts.by_id[rep_class[0]].kind
            member_ids = list(rep_class)
            for cls in group:
                if cls is not rep_class:
                    member_ids.extend(cls)
            kinds = [ts.by_id[t].kind for t in member_ids]
            emit_class(member_ids, kinds, rep_kind)
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
    orientation code.
    """
    placements = {}
    ident = identity_code(patch.region.space)
    for cell, pl in patch.placements.items():
        if pl.orientation != ident:
            raise DecodeError(
                f"source placements must be translations, got {pl.orientation!r}"
            )
        if pl.tile not in rs.forward:
            raise DecodeError(f"tile {pl.tile!r} is not in the encoded set")
        rep_id, code = rs.forward[pl.tile]
        placements[cell] = Placement(cell, rep_id, code)
    return Patch(rs.name, patch.region, placements)


def decode_patch(rs: ReducedSet, patch: Patch) -> Patch:
    """Invert encode_patch; fails on pairs outside the encoding's image."""
    placements = {}
    ident = identity_code(patch.region.space)
    for cell, pl in patch.placements.items():
        key = (pl.tile, pl.orientation)
        if key not in rs.inverse:
            raise DecodeError(
                f"placement {pl.tile} {pl.orientation} at {cell} does not "
                f"decode to any source tile"
            )
        placements[cell] = Placement(cell, rs.inverse[key], ident)
    return Patch(rs.source.name, patch.region, placements)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_KIND_TOKEN = {k.value: k for k in ShapeKind}


def serialize_reduced(rs: ReducedSet) -> str:
    out = [f"reduced {rs.name} {rs.mode}"]
    for rep in rs.reps:
        out.append(f"rep {rep.id} {rep.kind.value}")
    for p in rs.source.prototiles:
        rep_id, code = rs.forward[p.id]
        out.append(f"{p.id} -> {rep_id} {code}")
    return "\n".join(out) + "\n"


def parse_reduced(text: str, source: TileSet) -> ReducedSet:
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
        elif toks[0] == "rep":
            if len(toks) != 3 or toks[2] not in _KIND_TOKEN:
                raise FormatError(f"line {ln}: bad rep line")
            if toks[1] in rep_kind:
                raise FormatError(f"line {ln}: duplicate rep id {toks[1]!r}")
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
            if code not in space_codes(KIND_SPACE[kind]):
                raise FormatError(f"line {ln}: unknown code {code!r}")
            rk = rep_kind[rep_id]
            if (KIND_SPACE[rk] != KIND_SPACE[kind]
                    or image_kind(rk, code) is not kind):
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
