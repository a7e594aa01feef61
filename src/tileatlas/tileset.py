"""Coloured prototile sets, facet matching rules, placements and patches.

The tile-set and patch text formats are specified in docs/FORMATS.md.
Colours are non-negative integers in canonical facet order; 0 is the
uncoloured value and every rule accepts the pair (0, 0).  Orientation codes
are the geometry module's canonical element codes.

`patch_valid` decides a patch that fills its region by the box module's
dense route, which only accepts; any other patch goes through the pair
walk, which words every violation.  `parse_patch` reads by columns and
leaves what that cannot decide to its line reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product
from operator import eq, itemgetter, ne
from typing import NamedTuple

from .box import bounds, cells_in_region, dense_valid, label_of
from .text import FormatError, _code, _columns, _content_lines, _token
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
    # the box module's compiled facet check, likewise: a list of at most one
    dense_check: list = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "dense_check", [])


class Placement(NamedTuple):
    """One tile instance: `tile` is a prototile (or representative) id and
    `orientation` an element code of the lattice's point group quotient.

    A named tuple, so a patch's placements are built in bulk (placement_map)
    and `pl._replace(...)` takes the place of dataclasses.replace."""

    cell: Cell
    tile: str
    orientation: str


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


def cell_in_region(region: RegionSpec, cell: Cell) -> bool:
    """Whether `cell` is a lattice cell (tri2d: bit 0 or 1) in the region."""
    ext = bounds(region)
    return len(cell) == len(ext) and all(0 <= c < e for c, e in zip(cell, ext))


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
    (lower-dimensional boundary points are uncoloured).

    The region is checked once for all placed cells.  A patch that lies in
    it and fills it is first read in one pass by the box module's dense
    route, which only accepts.  Otherwise, the pair walk: each placement is
    looked up in `ts.legal` under its cell's kind, and placement_ok words
    only the placements that the table refuses; each cell is checked
    against the region only when some cell lies outside.
    """
    region = patch.region
    violations = []
    eff = {}
    inside = cells_in_region(region, patch.placements)
    if inside and dense_valid(ts, patch):
        return True, ()
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
    """The patch of `text` on the `space` lattice, its tile ids among `ids`
    when given.  A str is read a column at a time (_by_columns); text that
    route cannot decide is read line by line, which raises FormatError
    naming the first offending line."""
    patch = _by_columns(text, space, ids)
    return _by_lines(text, space, ids) if patch is None else patch


def _by_columns(text, space: str, ids) -> Patch | None:
    """The patch of `text` read by columns (text._columns), its header by
    the line reader.  Per column one map: the coordinates by int, a
    triangle's u|d bits, and the ids and codes, each looked up in a table
    of the known ones, which also shares their strings.  None for what this
    route cannot decide: a comment, an unknown space, a bad header or
    field, an unknown id or code, or a duplicate cell."""
    read = space in _PLACEMENT_FIELDS and _columns(
        text, len(_PLACEMENT_FIELDS[space].split()))
    if not read:
        return None
    head, (*coords, tids, codes) = read
    canon = dict(zip(space_codes(space), space_codes(space)))
    if space == "tri2d":
        canon["u"] = "ut0"
        coords[2] = map({"u": 0, "d": 1}.__getitem__, coords[2])
    try:
        head = _by_lines(" ".join(head), space, ids)
        cells = list(zip(*[map(int, column) for column in coords]))
        codes = list(map(canon.__getitem__, codes))
        if ids is not None:
            tids = list(map(dict(zip(ids, ids)).__getitem__, tids))
    except (ValueError, KeyError):
        return None
    placements = placement_map(cells, tids, codes)
    return (Patch(head.set_name, head.region, placements)
            if len(placements) == len(cells) else None)


def _by_lines(text, space: str, ids) -> Patch:
    """The patch of `text` read a line at a time, which names the first
    offending line."""
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
    """The patch text, a line per cell in sorted order.  The placements are
    read once by map, the labels checked once each and the cells at once,
    and the lines joined once."""
    region = patch.region
    boundary = "torus" if region.torus else "free"
    ext = " ".join(str(e) for e in region.extents)
    head = f"patch {_token(patch.set_name, 'set name')} {ext} {boundary}"
    cells = sorted(patch.placements)
    placed = list(map(patch.placements.__getitem__, cells))
    for tid, code in set(map(label_of, placed)):
        _token(tid, "tile id")
        _code(code, space_codes(region.space))
    tri = region.space == "tri2d"
    arity = len(region.extents) + tri  # a triangle's orientation bit
    if not all(map(arity.__eq__, map(len, cells))) or tri and not {
            0, 1}.issuperset(map(itemgetter(2), cells)):
        cell = next(c for c in cells
                    if len(c) != arity or tri and c[2] not in (0, 1))
        raise FormatError(f"cannot write cell {cell}: it is no {region.space} "
                          "cell")
    if tri:
        lines = [f"{a} {b} {'ud'[o]} {t} {c}"
                 for (a, b, o), (_, t, c) in zip(cells, placed)]
    else:
        line = " ".join(["%s"] * (arity + 2))
        lines = [line % (*cell, t, c) for cell, (_, t, c) in zip(cells, placed)]
    return "\n".join([head, *lines]) + "\n"


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
