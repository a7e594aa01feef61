"""Coloured prototile sets, facet matching rules, placements and patches.

The tile-set and patch text formats are specified in docs/FORMATS.md.
Colours are non-negative integers in canonical facet order; 0 is the
uncoloured value and every rule accepts the pair (0, 0).  Orientation codes
are the geometry module's canonical element codes.

A patch that the solver, parse_patch or the codec makes fills its region:
it is one string of label characters, one a cell of its region in sorted
order (`Patch.packed`), whose placement dict is built when it is first
read.  `Patch(set_name, region, placements)` keeps its dict, which may
leave cells empty.  `patch_valid` decides a patch that fills its region by
the box module's dense route, which reads that string, or the placements
packed into one, and only accepts; any other patch goes through the pair
walk, which words every violation.  The patch text format is read and
written by the patchtext module.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product, tee
from operator import itemgetter, ne
from typing import NamedTuple

from .box import TileTable, bounds, cells_in_region, dense_valid, tile_table
from .text import LABEL_LIMIT, FormatError, _content_lines, _token
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
    # the one compiled tile table (box.tile_table) of every (tile, code)
    # allowed on each cell kind, in prototile then code order, with the
    # colours it shows there; read by the engine, both routes of
    # patch_valid and the window checks
    table: TileTable = field(init=False, repr=False, compare=False)

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
        # the table names each label and each colour by a character, and a
        # patch's text needs two characters past its labels (box.patch_text)
        labels = sum(len(placement_orientations(self.allowed, p.kind, kind))
                     for kind in SPACE_KINDS[self.space]
                     for p in self.prototiles)
        colours = len({c for p in self.prototiles for c in p.colours})
        if labels > LABEL_LIMIT - 2 or colours > LABEL_LIMIT:
            raise FormatError(
                f"a tile set has at most {LABEL_LIMIT - 2} (tile, code) "
                f"labels and {LABEL_LIMIT} colours, not {labels} and "
                f"{colours}")
        object.__setattr__(self, "table", tile_table(self.space, [
            (kind, (p.id, code),
             effective_facets(self, Placement(origin_cell(kind), p.id, code)))
            for kind in SPACE_KINDS[self.space] for p in self.prototiles
            for code in placement_orientations(self.allowed, p.kind, kind)],
            self.rule))


class Placement(NamedTuple):
    """One tile instance: `tile` is a prototile (or representative) id and
    `orientation` an element code of the lattice's point group quotient.

    A named tuple, so a patch's placements are built in bulk (placement_map)
    and `pl._replace(...)` takes the place of dataclasses.replace."""

    cell: Cell
    tile: str
    orientation: str


@contextmanager
def collector_paused():
    """Pause the cyclic collector, and leave it as it was, also on an
    error: for building many tuples that hold no cycle, each few hundred of
    which would wake a collection that walks every tracked object.  Also a
    decorator."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@collector_paused()
def placement_map(cells, tiles, codes) -> dict:
    """{cell: Placement(cell, tile, code)} over the three iterables, zipped;
    `cells` is read once, through a tee, so it may build its cells as it
    goes.  Built by C-level maps, no Python step a cell, with the collector
    paused."""
    keys, cells = tee(cells)
    return dict(zip(keys, map(partial(tuple.__new__, Placement),
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
    """A set's placements over a region.  `Patch(set_name, region,
    placements)` keeps its placements, which may leave cells empty; one
    that the solver, parse_patch or the codec makes (`Patch.of_text`) fills
    its region and keeps `packed`, one string of label characters, one for
    each cell of its region, and builds `placements` from it when it is
    first read.  A patch is a value: changing its placements after it is
    made is not supported, as a packed patch's checks, text and atlas reads
    never read them again."""

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
        object.__setattr__(self, "packed", None)

    @classmethod
    def of_text(cls, set_name: str, region: RegionSpec, text: str,
                labels: tuple) -> Patch:
        """The patch whose `packed` form is (text, labels): one character
        for each cell of the region in sorted order, chr(i) for labels[i].
        A patch with an empty cell is built from its placements."""
        patch = cls.__new__(cls)
        for key, value in (("set_name", set_name), ("region", region),
                           ("packed", (text, labels))):
            object.__setattr__(patch, key, value)
        return patch

    def __getattr__(self, name):
        # a packed patch's placements, built on first use and kept
        if name != "placements" or "packed" not in self.__dict__:
            raise AttributeError(name)
        text, labels = self.packed
        found = [*map(labels.__getitem__, map(ord, text))]
        placements = placement_map(product(*map(range, bounds(self.region))),
                                   map(itemgetter(0), found),
                                   map(itemgetter(1), found))
        object.__setattr__(self, "placements", placements)
        return placements


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


def facet_pairs(region: RegionSpec,
                cells: tuple) -> tuple[tuple[int, int, int, int], ...]:
    """Each facet-sharing pair of the listed cells once, as (i, facet, j,
    nfacet) index quads in the order of `cells`.  The engine's schedule
    passes the sorted cells, so the one sort it makes also gives its plan's
    sorted-order index.

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
    route, which only accepts.  Otherwise, the pair walk: each placement's
    character in `ts.table` is looked up among its cell kind's, and
    placement_ok words only the placements that the table refuses; each
    cell is checked against the region only when some cell lies outside.
    The hues that the pairs' two ends show are tested at once by the
    table's test, and a failure is worded with the integer colours.
    """
    region, table = patch.region, ts.table
    violations = []
    eff = {}
    inside = patch.packed is not None or cells_in_region(region,
                                                        patch.placements)
    if inside and dense_valid(ts, patch):
        return True, ()
    for cell, pl in patch.placements.items():
        facets = None
        # cell_kind reads lattice cells only; another lattice's kind has no
        # hues in ts.table
        if inside or cell_in_region(region, cell):
            facets = table.hues.get(cell_kind(region.space, cell), {}).get(
                table.chars.get((pl.tile, pl.orientation)))
        if facets is None:
            violations.append(placement_ok(ts, region, pl))
        else:
            eff[cell] = facets
    cells = tuple(sorted(eff))
    pairs = facet_pairs(region, cells)
    cols = [eff[c] for c in cells]
    xs = tuple([cols[i][f] for i, f, _, _ in pairs])
    ys = tuple([cols[j][nf] for _, _, j, nf in pairs])
    if not table.test(xs, ys):
        xs, ys = ([table.ints[ord(h)] for h in hs] for hs in (xs, ys))
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
