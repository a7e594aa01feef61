"""Coronas and corona atlases.

The corona of a placed tile is the tile together with the placements on all
cells touching it (8 on the square lattice, 26 on the cubic lattice, 12 on
the triangular lattice), read in canonical touching-offset order with the
centre translated to the origin cell of its kind.  Corona membership is
checked up to translation only.

An atlas for a reduced set is the set of encodings of every locally valid
source corona: an assignment of source tiles to the corona window in which
all facet-sharing pairs satisfy the facet rule.  Membership can be tested
against the materialized atlas, or implicitly by decoding the corona back to
source tiles and checking the facet rule directly; the two routes agree.

Source coronas are enumerated on the region solver's engine (`search`), one
search per centre kind over the corona window, centre first.  A node is a
candidate tried at any window cell, the centre included.

Atlas text format:

    atlas <name>
    <center-tile> <center-code> : <tile> <code> <tile> <code> ...

with ring entries in touching-offset order and lines sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .geometry import (
    FACET_COUNT,
    KIND_SPACE,
    SPACE_KINDS,
    ShapeKind,
    cell_kind,
    facet_neighbor,
    origin_cell,
    space_dim,
    touching_cell,
    touching_offsets,
)
from .tileset import (
    FormatError,
    Patch,
    Placement,
    RegionSpec,
    TileSet,
    _content_lines,
    effective_facets,
    identity_code,
    patch_valid,
    wrap_cell,
)
from .reduction import ReducedSet
from .search import _schedule, _search


class BudgetExceeded(RuntimeError):
    """Enumeration exceeded its node budget."""


@dataclass(frozen=True)
class Corona:
    """Centre placement plus ring placements, both as (tile, code) pairs.

    The ring is aligned with touching_offsets of the centre's cell kind.
    """

    center: tuple
    ring: tuple

    def sort_key(self):
        return (self.center, self.ring)


@dataclass(frozen=True)
class Atlas:
    name: str
    coronas: frozenset

    def __contains__(self, corona: Corona) -> bool:
        return corona in self.coronas


def corona_of(placements: dict, region: RegionSpec, cell) -> Corona | None:
    """The corona at `cell`, or None when a touching cell is unfilled.

    On torus regions touching cells wrap, so every filled cell of a fully
    placed torus patch has a corona.

    The ring order follows the cell's kind, which matches the atlas
    convention (ring order of the centre's decoded kind) only when the
    placement at `cell` actually fits the cell.  Callers working from
    untrusted patch text must therefore establish decodability and facet
    validity before asking for atlas membership, which is the order the
    solver and the verifier use.
    """
    pl = placements.get(cell)
    if pl is None:
        return None
    kind = cell_kind(region.space, cell)
    ring = []
    for off in touching_offsets(kind):
        ncell = touching_cell(kind, cell, off)
        if region.torus:
            ncell = wrap_cell(region, ncell)
        npl = placements.get(ncell)
        if npl is None:
            return None
        ring.append((npl.tile, npl.orientation))
    return Corona((pl.tile, pl.orientation), tuple(ring))


# ---------------------------------------------------------------------------
# Locally valid source coronas
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _corona_window(kind: ShapeKind):
    """The corona window's free region, its cells (centre first, then the
    ring in touching-offset order) and an assignment order (most-constrained
    first).

    Cells are shifted so the window fits the region with non-negative
    coordinates; the centre sits at the lattice point (1,1[,1]).
    """
    space = KIND_SPACE[kind]
    dim = space_dim(space)

    def shifted(c):  # a triangle's orientation bit is not a coordinate
        return tuple(x + 1 for x in c[:dim]) + tuple(c[dim:])

    center = shifted(origin_cell(kind))
    cells = [center]
    for off in touching_offsets(kind):
        cells.append(shifted(touching_cell(kind, origin_cell(kind), off)))
    cell_set = set(cells)
    adj = {c: [] for c in cells}
    for c in cells:
        for f in range(FACET_COUNT[cell_kind(space, c)]):
            n, _ = facet_neighbor(space, c, f)
            if n in cell_set:
                adj[c].append(n)
    # assignment order: centre first, then repeatedly the cell with the most
    # already-ordered facet neighbours (ties: scan order) so constraints bind
    # as early as possible
    order = [center]
    placed = {center}
    rest = [c for c in cells if c != center]
    while rest:
        best = max(rest, key=lambda c: (sum(n in placed for n in adj[c]),
                                        [-x for x in c]))
        order.append(best)
        placed.add(best)
        rest.remove(best)
    return RegionSpec(space, (3,) * dim, False), tuple(cells), tuple(order)


def enumerate_source_coronas(ts: TileSet, node_cap: int = 10 ** 7) -> set:
    """All locally valid coronas of a translation-placed source set.

    `node_cap` bounds the nodes summed over the centre kinds.  Every complete
    assignment is re-verified independently with patch_valid before being
    admitted.
    """
    if ts.allowed != "translations":
        raise FormatError("corona enumeration expects a translation-placed set")
    space = ts.space
    if space is None:
        raise FormatError("mixed-kind sets have no corona atlas")
    ident = identity_code(space)
    # kind -> (tile, code, facet colours); cells of a kind share its memo
    by_kind = {kind: [] for kind in SPACE_KINDS[space]}
    for p in ts.prototiles:
        eff = effective_facets(ts, Placement(origin_cell(p.kind), p.id, ident))
        by_kind[p.kind].append((p.id, ident, eff))
    out = set()
    nodes = 0
    for kind in by_kind:
        region, cells, order = _corona_window(kind)
        ring = [order.index(c) for c in cells[1:]]

        def admit(labels):
            placements = {c: Placement(c, t, code)
                          for c, (t, code) in zip(order, labels)}
            ok, report = patch_valid(ts, Patch(ts.name, region, placements))
            if not ok:
                raise RuntimeError(
                    f"incremental checks admitted an invalid corona: {report}")
            out.add(Corona(labels[0], tuple(labels[j] for j in ring)))

        per_cell = [by_kind[cell_kind(space, c)] for c in order]
        _, _, spent, _ = _search(per_cell, _schedule(region, order),
                                 FACET_COUNT[kind], ts.rule, node_cap - nodes,
                                 admit)
        nodes += spent  # node_cap + 1 once the cap is crossed
        if nodes > node_cap:
            raise BudgetExceeded(
                f"corona enumeration exceeded {node_cap} nodes")
    return out


def derive_atlas(rs: ReducedSet, node_cap: int = 10 ** 7) -> Atlas:
    """The reduced set's atlas: encodings of all locally valid source coronas."""
    coronas = set()
    for sc in enumerate_source_coronas(rs.source, node_cap):
        center = rs.forward[sc.center[0]]
        ring = tuple(rs.forward[t] for (t, _) in sc.ring)
        coronas.add(Corona(center, ring))
    return Atlas(rs.name, frozenset(coronas))


# ---------------------------------------------------------------------------
# Membership, two routes
# ---------------------------------------------------------------------------

def corona_in_atlas_implicit(rs: ReducedSet, corona: Corona) -> bool:
    """Decide membership without the materialized atlas: decode every
    placement and check the source facet rule over the corona window."""
    key = corona.center
    if key not in rs.inverse:
        return False
    center_tile = rs.inverse[key]
    region, cells, _ = _corona_window(rs.source.by_id[center_tile].kind)
    if len(corona.ring) != len(cells) - 1:
        return False
    tiles = [center_tile]
    for entry in corona.ring:
        if entry not in rs.inverse:
            return False
        tiles.append(rs.inverse[entry])
    ident = identity_code(region.space)
    placements = {c: Placement(c, t, ident) for c, t in zip(cells, tiles)}
    ok, _ = patch_valid(rs.source, Patch(rs.source.name, region, placements))
    return ok


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def serialize_atlas(atlas: Atlas) -> str:
    out = [f"atlas {atlas.name}"]
    for c in sorted(atlas.coronas, key=Corona.sort_key):
        ring = " ".join(f"{t} {code}" for (t, code) in c.ring)
        out.append(f"{c.center[0]} {c.center[1]} : {ring}")
    return "\n".join(out) + "\n"


def parse_atlas(text: str) -> Atlas:
    name = None
    coronas = set()
    for ln, toks in _content_lines(text):
        if name is None:
            if toks[0] != "atlas" or len(toks) != 2:
                raise FormatError(f"line {ln}: expected atlas header")
            name = toks[1]
            continue
        if ":" not in toks or len(toks) < 3:
            raise FormatError(f"line {ln}: bad corona line")
        sep = toks.index(":")
        if sep != 2 or (len(toks) - 3) % 2 != 0:
            raise FormatError(f"line {ln}: bad corona line")
        center = (toks[0], toks[1])
        rest = toks[3:]
        ring = tuple((rest[i], rest[i + 1]) for i in range(0, len(rest), 2))
        coronas.add(Corona(center, ring))
    if name is None:
        raise FormatError("missing atlas header")
    return Atlas(name, frozenset(coronas))
