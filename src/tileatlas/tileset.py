"""Coloured prototile sets, facet matching rules, placements and patches.

The tile-set and patch text formats are specified in docs/FORMATS.md.
Colours are non-negative integers in canonical facet order; 0 is the
uncoloured value and every rule accepts the pair (0, 0).  Orientation codes
are the geometry module's canonical element codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product
from operator import eq, itemgetter, ne
from typing import NamedTuple

from .geometry import (
    FACET_COUNT,
    KIND_SPACE,
    SPACE_KINDS,
    Cell,
    ShapeKind,
    cell_kind,
    facet_action_code,
    facet_neighbor,
    image_kind,
    origin_cell,
    space_codes,
    space_dim,
)

Colour = int
_CHUNK = 1 << 16  # characters of text split into lines at a time


class FormatError(ValueError):
    """Raised on malformed tileset/patch/reduction/atlas text."""


@dataclass(frozen=True)
class FacetRule:
    """Symmetric predicate on colour pairs; "identical" accepts equal colours,
    "table" accepts an explicit pair set.  (0, 0) is always accepted."""

    kind: str
    pairs: frozenset = frozenset()

    def __post_init__(self):
        if self.kind not in ("identical", "table"):
            raise FormatError(f"unknown rule kind {self.kind!r}")
        if self.kind == "identical" and self.pairs:
            raise FormatError("pair lines are only valid with rule table")
        if any(c < 0 for pair in self.pairs for c in pair):
            raise FormatError("rule pair with a negative colour")
        if self.kind == "table":
            closed = set()
            for a, b in self.pairs:
                closed.add((a, b))
                closed.add((b, a))
            closed.add((0, 0))
            object.__setattr__(self, "pairs", frozenset(closed))


def rule_eval(rule: FacetRule, a: Colour, b: Colour) -> bool:
    if rule.kind == "identical":
        return a == b
    return (a, b) in rule.pairs


def rule_test(rule: FacetRule):
    """The rule as one test of two equal-length colour tuples: true when
    rule_eval accepts every position's pair."""
    if rule.kind == "identical":
        return eq
    pairs = rule.pairs
    return lambda xs, ys: pairs.issuperset(zip(xs, ys))


@dataclass(frozen=True)
class Prototile:
    id: str
    kind: ShapeKind
    colours: tuple[Colour, ...]

    def __post_init__(self):
        if len(self.colours) != FACET_COUNT[self.kind]:
            raise FormatError(
                f"tile {self.id}: expected {FACET_COUNT[self.kind]} colours, "
                f"got {len(self.colours)}"
            )
        if any(c < 0 for c in self.colours):
            raise FormatError(f"tile {self.id}: negative colour")


@dataclass(frozen=True)
class TileSet:
    """A non-empty prototile set on exactly one lattice, `space`, worked out
    from the prototiles' shapes; a set with tiles of two lattices is
    refused."""

    name: str
    prototiles: tuple[Prototile, ...]
    rule: FacetRule
    allowed: str  # "translations" | "all"
    space: str = field(init=False, repr=False, compare=False)
    by_id: dict = field(init=False, repr=False, compare=False)
    # cell kind -> (tile, code) -> facet colours, for every code allowed on
    # the kind, in prototile then code order; read by the engine, patch_valid
    # and the window check
    legal: dict = field(init=False, repr=False, compare=False)
    # corona kind -> the atlas module's compiled window check, built on first
    # use; it lives and dies with this set
    window_checks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.allowed not in ("translations", "all"):
            raise FormatError(f"unknown isometry group {self.allowed!r}")
        ids = [p.id for p in self.prototiles]
        if len(set(ids)) != len(ids):
            raise FormatError("duplicate prototile ids")
        spaces = {KIND_SPACE[p.kind] for p in self.prototiles}
        if len(spaces) != 1:
            raise FormatError(f"prototiles must lie on one lattice, not on "
                              f"{sorted(spaces)}")
        object.__setattr__(self, "space", spaces.pop())
        object.__setattr__(self, "by_id", {p.id: p for p in self.prototiles})
        object.__setattr__(self, "legal", {
            kind: {(p.id, code): effective_facets(
                       self, Placement(origin_cell(kind), p.id, code))
                   for p in self.prototiles
                   for code in placement_orientations(self.allowed, p.kind,
                                                      kind)}
            for kind in SPACE_KINDS[self.space]})
        object.__setattr__(self, "window_checks", {})


class Placement(NamedTuple):
    """One tile instance: `tile` is a prototile (or representative) id and
    `orientation` an element code of the lattice's point group quotient.

    A named tuple, so a patch's placements are built in bulk (placement_map)
    and `pl._replace(...)` takes the place of dataclasses.replace."""

    cell: Cell
    tile: str
    orientation: str


# a placement's (tile, orientation) label, read without a Python step
label_of = itemgetter(1, 2)


def placement_map(cells, tiles, codes) -> dict:
    """{cell: Placement(cell, tile, code)} over the three sequences, zipped;
    `cells` is read twice.  Built by C-level maps: no Python step a cell."""
    return dict(zip(cells, map(partial(tuple.__new__, Placement),
                               zip(cells, tiles, codes))))


@dataclass(frozen=True)
class RegionSpec:
    space: str
    extents: tuple[int, ...]
    torus: bool

    def __post_init__(self):
        if self.space not in SPACE_KINDS:
            raise FormatError(f"unknown space {self.space!r}")
        if len(self.extents) != space_dim(self.space):
            raise FormatError("region extents do not match the lattice dimension")
        if any(e < 1 for e in self.extents):
            raise FormatError("region extents must be positive")


@dataclass(frozen=True)
class Patch:
    set_name: str
    region: RegionSpec
    placements: dict  # Cell -> Placement

    def __post_init__(self):
        # checked in bulk; the loop names the first offender
        if any(map(ne, self.placements, map(itemgetter(0),
                                            self.placements.values()))):
            for cell, pl in self.placements.items():
                if cell != pl.cell:
                    raise FormatError(
                        f"placement keyed by {cell} but placed at {pl.cell}")


def region_cells(region: RegionSpec) -> list[Cell]:
    """All cells of the region in scan order (last axis slowest; for tri2d the
    up cell precedes the down cell of the same rhombus)."""
    if region.space == "tri2d":
        w, h = region.extents
        return [(a, b, o) for b in range(h) for a in range(w) for o in (0, 1)]
    # product varies its last factor fastest: the cells' first axis
    return [c[::-1] for c in product(*map(range, reversed(region.extents)))]


def wrap_cell(region: RegionSpec, cell: Cell) -> Cell:
    # entries past the extents (a triangle's orientation bit) are kept
    w = region.extents
    return tuple(c % e for c, e in zip(cell, w)) + cell[len(w):]


def _bounds(region: RegionSpec) -> tuple[int, ...]:
    """Per entry of a cell of the region, the bound it lies below; a
    triangle's orientation bit lies below 2."""
    return region.extents + (2,) * (region.space == "tri2d")


def cell_in_region(region: RegionSpec, cell: Cell) -> bool:
    """Whether `cell` is a lattice cell (tri2d: bit 0 or 1) in the region."""
    ext = _bounds(region)
    return len(cell) == len(ext) and all(0 <= c < e for c, e in zip(cell, ext))


def cells_in_region(region: RegionSpec, cells) -> bool:
    """Whether every one of `cells` is a lattice cell in the region, as
    cell_in_region says: checked once for them all, their lengths first and
    then each entry's least and greatest value.  The entries are read in
    place, one position at a time: zip(*cells) would copy them, which
    raised the benchmark's patch-pipeline peak RSS by about 0.1 MB."""
    ext = _bounds(region)
    return (all(map(len(ext).__eq__, map(len, cells)))
            and all(min(map(entry, cells), default=0) >= 0
                    and max(map(entry, cells), default=0) < e
                    for entry, e in zip(map(itemgetter, range(len(ext))),
                                        ext)))


def effective_facets(ts: TileSet, pl: Placement) -> tuple[Colour, ...]:
    """The placement's facet colours read in the facet order of its cell."""
    proto = ts.by_id[pl.tile]
    perm = facet_action_code(proto.kind, pl.orientation)
    out = [0] * len(perm)
    for i, c in enumerate(proto.colours):
        out[perm[i]] = c
    return tuple(out)


@lru_cache(maxsize=None)
def placement_orientations(allowed: str, kind: ShapeKind, target: ShapeKind):
    """Orientation codes legal for a prototile of `kind` on a `target` cell."""
    space = KIND_SPACE[kind]
    if allowed == "translations":
        codes = (space_codes(space)[0],)
        return codes if kind is target else ()
    return tuple(
        c for c in space_codes(space) if image_kind(kind, c) is target
    )


def placement_ok(ts: TileSet, region: RegionSpec, pl: Placement) -> str | None:
    """None if the placement is internally legal, else a violation message."""
    proto = ts.by_id.get(pl.tile)
    if proto is None:
        return f"unknown tile id {pl.tile!r} at {pl.cell}"
    space = region.space
    if ts.space != space:
        return f"tile {pl.tile} does not live on the {space} lattice"
    if not cell_in_region(region, pl.cell):
        return f"cell {pl.cell} outside region {region.extents}"
    if pl.orientation not in placement_orientations(
        ts.allowed, proto.kind, cell_kind(space, pl.cell)
    ):
        return (
            f"orientation {pl.orientation!r} not allowed for tile {pl.tile} "
            f"at {pl.cell}"
        )
    return None


@lru_cache(maxsize=16)
def facet_pairs(region: RegionSpec,
                cells: tuple) -> tuple[tuple[int, int, int, int], ...]:
    """Each facet-sharing pair of the listed cells once, as (i, facet, j,
    nfacet) index quads in the order of `cells`; the last 16 regions and
    cell tuples are kept, so a sweep over tori of several sizes and sets
    hits on its second pass.  The engine's schedule and patch_valid pass
    sorted cells, so a found patch's re-check reads its search's walk.

    Torus regions wrap.  A pair is listed from the side whose (cell, facet)
    is smaller, so a facet that meets itself (an extent-1 wrap) is no pair;
    a cell that meets itself on two facets is.
    """
    space = region.space
    index = {c: i for i, c in enumerate(cells)}
    out = []
    for i, cell in enumerate(cells):
        for facet in range(FACET_COUNT[cell_kind(space, cell)]):
            nbr, nfacet = facet_neighbor(space, cell, facet)
            if region.torus:
                nbr = wrap_cell(region, nbr)
            j = index.get(nbr)
            if j is not None and (nbr, nfacet) > (cell, facet):
                out.append((i, facet, j, nfacet))
    return tuple(out)


def patch_valid(ts: TileSet, patch: Patch) -> tuple[bool, tuple[str, ...]]:
    """Check every placement and every facet-sharing pair of placements.

    Returns (ok, violations): placement messages first, then facet failures
    in sorted cell, facet order.  Boundary facets of free patches and absent
    neighbours are unconstrained; corner/edge point contacts are always legal
    (lower-dimensional boundary points are uncoloured).  Each placement is
    looked up in `ts.legal` under its cell's kind; placement_ok words only
    the placements that the table refuses.  The region is checked once for
    all placed cells, and cell by cell only when some cell lies outside.
    """
    region = patch.region
    violations = []
    eff = {}
    inside = cells_in_region(region, patch.placements)
    for cell, pl in patch.placements.items():
        facets = None
        # cell_kind reads lattice cells only; another lattice's kind has no
        # table in ts.legal
        if inside or cell_in_region(region, cell):
            facets = ts.legal.get(cell_kind(region.space, cell), {}).get(
                (pl.tile, pl.orientation))
        if facets is None:
            violations.append(placement_ok(ts, region, pl))
        else:
            eff[cell] = facets
    cells = tuple(sorted(eff))
    pairs = facet_pairs(region, cells)
    cols = [eff[c] for c in cells]
    xs = tuple([cols[i][f] for i, f, _, _ in pairs])
    ys = tuple([cols[j][nf] for _, _, j, nf in pairs])
    if not rule_test(ts.rule)(xs, ys):
        violations += [
            f"facet rule fails between {cells[i]} facet {facet} (colour {a}) "
            f"and {cells[j]} facet {nfacet} (colour {b})"
            for (i, facet, j, nfacet), a, b in zip(pairs, xs, ys)
            if not rule_eval(ts.rule, a, b)]
    return (not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

def _lines(text):
    """The lines that str.splitlines() gives for `text`, a str or an
    iterable of str pieces that join to it (a text file's lines, or blocks
    read from it), so no list of every line is held.  Each piece is split
    up to just after its last "\\n", which always ends a line; what follows
    waits for the next piece, so a break such as "\\r\\n" cut between two
    pieces stays one break."""
    held = []  # the pieces since the last "\n"
    for piece in _slices(text) if isinstance(text, str) else text:
        cut = piece.rfind("\n") + 1
        if cut:
            held.append(piece[:cut])
            yield from "".join(held).splitlines()
            # a piece that ends a line is split without a copy
            held = [piece[cut:]] if cut < len(piece) else []
        else:
            held.append(piece)
    yield from "".join(held).splitlines()


def _slices(text: str):
    """`text` in slices of about _CHUNK characters, each ending just after a
    "\\n" where the text has one."""
    pos = 0
    while pos < len(text):
        cut = text.rfind("\n", pos, pos + _CHUNK)
        if cut < 0:
            cut = text.find("\n", pos + _CHUNK)
        cut = len(text) if cut < 0 else cut + 1
        yield text[pos:cut]
        pos = cut


def _content_lines(text):
    """Each line's number and tokens, where it has any before a `#`; a line
    without `#` is split once.  `text` is as _lines takes it."""
    for ln, raw in enumerate(_lines(text), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        toks = raw.split()
        if toks:
            yield ln, toks


def _token(value: str, what: str, *reserved: str) -> str:
    """`value`, which a writer is about to emit as one token; a value the
    readers would not read back as that token (empty, holding whitespace or
    `#`, or one of the format's `reserved` tokens) raises FormatError."""
    if value.split() != [value] or "#" in value or value in reserved:
        raise FormatError(f"cannot write {what} {value!r}: it is not one "
                          "token, or it holds '#', or it is reserved here")
    return value


def _code(value: str, codes) -> str:
    """`value`, which a writer is about to emit as an orientation code; a
    value outside `codes`, those of the text's lattice, raises FormatError."""
    if value not in codes:
        raise FormatError(f"cannot write orientation code {value!r}: it is "
                          "no code of the text's lattice")
    return value


_HEADER_KEYS = ("tileset", "space", "isometries", "rule")


def parse_tileset(text: str) -> TileSet:
    header = {}  # each of _HEADER_KEYS once
    pairs = set()
    tiles = []
    for ln, toks in _content_lines(text):
        key = toks[0]
        try:
            if key in _HEADER_KEYS:
                if key in header:
                    raise FormatError(f"line {ln}: repeated {key} line")
                (header[key],) = toks[1:]
                if key == "space" and header[key] not in SPACE_KINDS:
                    raise FormatError(f"line {ln}: unknown space "
                                      f"{header[key]!r}")
            elif key == "pair":
                a, b = toks[1:]
                pairs.add((int(a), int(b)))
            elif key == "tile":
                if "space" not in header:
                    raise FormatError(f"line {ln}: tile before space")
                space = header["space"]
                if space == "tri2d":
                    tid, orient, *cols = toks[1:]
                    if orient not in ("up", "down"):
                        raise FormatError(f"line {ln}: expected up|down")
                    kind = ShapeKind.TRI_UP if orient == "up" else ShapeKind.TRI_DOWN
                else:
                    tid, *cols = toks[1:]
                    kind = SPACE_KINDS[space][0]
                tiles.append(Prototile(tid, kind, tuple(int(c) for c in cols)))
            else:
                raise FormatError(f"line {ln}: unknown directive {key!r}")
        except ValueError as e:
            if isinstance(e, FormatError):
                raise
            raise FormatError(f"line {ln}: {e}") from None
    if len(header) < len(_HEADER_KEYS):
        raise FormatError("tileset header incomplete (name/space/isometries/rule)")
    if not tiles:
        raise FormatError("tileset has no tiles")
    return TileSet(header["tileset"], tuple(tiles),
                   FacetRule(header["rule"], frozenset(pairs)),
                   header["isometries"])


def serialize_tileset(ts: TileSet) -> str:
    out = [f"tileset {_token(ts.name, 'set name')}", f"space {ts.space}",
           f"isometries {ts.allowed}", f"rule {ts.rule.kind}"]
    if ts.rule.kind == "table":
        for a, b in sorted(p for p in ts.rule.pairs if p[0] <= p[1]):
            out.append(f"pair {a} {b}")
    for p in ts.prototiles:
        cols = " ".join(str(c) for c in p.colours)
        tid = _token(p.id, "tile id")
        if ts.space == "tri2d":
            out.append(f"tile {tid} {p.kind.value} {cols}")
        else:
            out.append(f"tile {tid} {cols}")
    return "\n".join(out) + "\n"


# the fields of a placement line, per lattice, as a refusal names them
_PLACEMENT_FIELDS = {"square2d": "x y tile code", "cube3d": "x y z tile code",
                     "tri2d": "a b u|d tile code"}


def parse_patch(text: str, space: str, ids: set[str] | None = None) -> Patch:
    header = None
    placements = {}
    region = None
    for ln, toks in _content_lines(text):
        try:
            if header is None:
                if toks[0] != "patch":
                    raise FormatError(f"line {ln}: expected patch header")
                dims = space_dim(space)
                if len(toks) != 3 + dims:
                    raise FormatError(f"line {ln}: bad patch header for {space}")
                header = toks[1]
                extents = tuple(int(t) for t in toks[2:2 + dims])
                boundary = toks[2 + dims]
                if boundary not in ("free", "torus"):
                    raise FormatError(f"line {ln}: expected free|torus")
                region = RegionSpec(space, extents, boundary == "torus")
                # what depends on the lattice alone, worked out once
                fields = _PLACEMENT_FIELDS[space]
                width = len(fields.split())
                codes = set(space_codes(space))
                if space == "tri2d":
                    codes.add("u")  # read as ut0
                continue
            if len(toks) != width:
                raise FormatError(f"line {ln}: expected {fields}")
            *coords, tid, code = toks
            if space == "tri2d":
                if coords[2] not in ("u", "d"):
                    raise FormatError(f"line {ln}: expected u|d")
                coords[2] = "ud".index(coords[2])
            cell: Cell = tuple(map(int, coords))
        except ValueError as e:
            if isinstance(e, FormatError):
                raise
            raise FormatError(f"line {ln}: {e}") from None
        if ids is not None and tid not in ids:
            raise FormatError(f"line {ln}: unknown tile id {tid!r}")
        if code not in codes:
            raise FormatError(f"line {ln}: unknown orientation code {code!r}")
        if code == "u":
            code = "ut0"
        if cell in placements:
            raise FormatError(f"line {ln}: duplicate placement at {cell}")
        placements[cell] = Placement(cell, tid, code)
    if region is None:
        raise FormatError("missing patch header")
    return Patch(header, region, placements)


def serialize_patch(patch: Patch) -> str:
    region = patch.region
    boundary = "torus" if region.torus else "free"
    ext = " ".join(str(e) for e in region.extents)
    out = [f"patch {_token(patch.set_name, 'set name')} {ext} {boundary}"]
    for tid, code in {(pl.tile, pl.orientation)
                      for pl in patch.placements.values()}:
        _token(tid, "tile id")
        _code(code, space_codes(region.space))
    tri = region.space == "tri2d"
    arity = len(region.extents) + tri  # a triangle's orientation bit
    for cell in sorted(patch.placements):
        pl = patch.placements[cell]
        if len(cell) != arity or tri and cell[2] not in (0, 1):
            raise FormatError(f"cannot write cell {cell}: it is no "
                              f"{region.space} cell")
        at = (f"{cell[0]} {cell[1]} {'ud'[cell[2]]}" if tri
              else " ".join(map(str, cell)))
        out.append(f"{at} {pl.tile} {pl.orientation}")
    return "\n".join(out) + "\n"


@lru_cache(maxsize=None)
def identity_code(space: str) -> str:
    return space_codes(space)[0]


BUNDLED = ("wang13", "cubes21", "triangles6", "kari14")


def load_bundled(name: str) -> TileSet:
    """Load one of the tile sets shipped with the package."""
    if name not in BUNDLED:
        raise FormatError(f"no bundled tileset {name!r}; have {', '.join(BUNDLED)}")
    from importlib import resources
    text = (resources.files("tileatlas") / "data" / f"{name}.tiles").read_text()
    return parse_tileset(text)
