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

Both the enumerator's re-check and the implicit route run one window check,
compiled once per source set and centre kind and kept on the set: the legal
placements on each window cell (`placement_ok`) with their facet colours
there, and the window's facet-sharing pairs from `facet_pairs`, the pair
walk of `patch_valid`.  The check is built from the prototiles and never
reads the search engine's candidate lists or check schedule, so it stays an
independent check of the engine.

Source coronas are enumerated by the solver's search, `region_search`: one
search per centre kind over the corona window, centre first.  A node is a
candidate tried at any window cell, the centre included.  Every corona it
yields passes the window check before it is admitted.

The atlas text format is specified in docs/FORMATS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .geometry import (
    FACET_COUNT,
    KIND_SPACE,
    SPACE_KINDS,
    SPACES,
    ShapeKind,
    cell_kind,
    facet_neighbor,
    origin_cell,
    space_codes,
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
    facet_pairs,
    identity_code,
    placement_ok,
    rule_eval,
)
from .reduction import ReducedSet
from .search import region_search


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
    space = region.space
    offs = touching_offsets(cell_kind(space, cell))
    # touching_cell and wrap_cell, inlined per lattice
    if space == "cube3d":
        x, y, z = cell
        if region.torus:
            w, h, d = region.extents
            nbrs = [((x + dx) % w, (y + dy) % h, (z + dz) % d)
                    for dx, dy, dz in offs]
        else:
            nbrs = [(x + dx, y + dy, z + dz) for dx, dy, dz in offs]
    elif space == "square2d":
        x, y = cell
        if region.torus:
            w, h = region.extents
            nbrs = [((x + dx) % w, (y + dy) % h) for dx, dy in offs]
        else:
            nbrs = [(x + dx, y + dy) for dx, dy in offs]
    else:  # a triangle offset's third entry is the neighbour's orientation
        a, b, _ = cell
        if region.torus:
            w, h = region.extents
            nbrs = [((a + da) % w, (b + db) % h, o) for da, db, o in offs]
        else:
            nbrs = [(a + da, b + db, o) for da, db, o in offs]
    ring = []
    for ncell in nbrs:
        npl = placements.get(ncell)
        if npl is None:
            return None
        ring.append((npl.tile, npl.orientation))
    return Corona((pl.tile, pl.orientation), tuple(ring))


def missing_coronas(atlas: Atlas, patch: Patch) -> tuple[list, int]:
    """The sorted cells whose complete corona is not in the atlas, and the
    number of complete coronas in the patch."""
    missing, complete = [], 0
    for cell in sorted(patch.placements):
        corona = corona_of(patch.placements, patch.region, cell)
        if corona is not None:
            complete += 1
            if corona not in atlas:
                missing.append(cell)
    return missing, complete


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


def _window_check(ts: TileSet, kind: ShapeKind):
    """The corona window's check for `ts`: the window's cells (centre first,
    then the ring in touching-offset order), per cell the legal (tile, code)
    placements that placement_ok accepts there with their facet colours, and
    the window's facet-sharing pairs from facet_pairs, the pair walk of
    patch_valid.

    It is compiled from the prototiles, not from the engine's candidate
    lists, once per set and kind, and kept on the set.
    """
    check = ts.window_checks.get(kind)
    if check is None:
        region, cells, _ = _corona_window(kind)
        ident = identity_code(region.space)
        colours = []
        for c in cells:
            table = {}
            for p in ts.prototiles:
                pl = Placement(c, p.id, ident)
                if placement_ok(ts, region, pl) is None:
                    table[(p.id, ident)] = effective_facets(ts, pl)
            colours.append(table)
        check = ts.window_checks[kind] = (
            cells, colours, facet_pairs(region, cells))
    return check


def _window_fault(ts: TileSet, check, labels) -> str | None:
    """None when the window's (tile, code) labels, centre first, pass the
    compiled check; else what fails first."""
    cells, colours, pairs = check
    try:
        eff = [table[label] for table, label in zip(colours, labels)]
    except KeyError as e:
        return (f"{e.args[0]} is no legal placement in "
                f"{list(zip(cells, labels))}")
    rule = ts.rule
    for i, f, j, nf in pairs:
        a, b = eff[i][f], eff[j][nf]
        if not rule_eval(rule, a, b):
            return (f"facet rule fails between {cells[i]} facet {f} (colour "
                    f"{a}) and {cells[j]} facet {nf} (colour {b}) in "
                    f"{list(zip(cells, labels))}")
    return None


def enumerate_source_coronas(ts: TileSet, node_cap: int = 10 ** 7) -> set:
    """All locally valid coronas of a translation-placed source set.

    `node_cap` bounds the nodes summed over the centre kinds.  Every complete
    assignment is re-verified by the set's window check before it is
    admitted: each label must be a placement that placement_ok accepts on
    its window cell, and every pair that facet_pairs lists for the window is
    tested against the rule on the facet colours read there.
    """
    if ts.allowed != "translations":
        raise FormatError("corona enumeration expects a translation-placed set")
    space = ts.space
    if space is None:
        raise FormatError("mixed-kind sets have no corona atlas")
    out = set()
    nodes = 0
    for kind in SPACE_KINDS[space]:
        region, cells, order = _corona_window(kind)
        check = _window_check(ts, kind)
        at = [order.index(c) for c in cells]  # window cell -> search index

        def admit(labels):
            window = [labels[j] for j in at]
            fault = _window_fault(ts, check, window)
            if fault is not None:
                raise RuntimeError(
                    f"incremental checks admitted an invalid corona: {fault}")
            out.add(Corona(window[0], tuple(window[1:])))

        _, _, spent, _ = region_search(ts, region, node_cap - nodes,
                                       each=admit, cells=order)
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
    placement and run the source set's window check, as the enumerator's
    re-check does, over the corona window."""
    inverse = rs.inverse
    center = inverse.get(corona.center)
    if center is None:
        return False
    ts = rs.source
    kind = ts.by_id[center].kind
    if len(corona.ring) != len(touching_offsets(kind)):
        return False
    ident = identity_code(KIND_SPACE[kind])
    labels = [(center, ident)]
    labels += [(inverse.get(entry), ident) for entry in corona.ring]
    return _window_fault(ts, _window_check(ts, kind), labels) is None


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def serialize_atlas(atlas: Atlas) -> str:
    out = [f"atlas {atlas.name}"]
    for c in sorted(atlas.coronas, key=Corona.sort_key):
        ring = " ".join(f"{t} {code}" for (t, code) in c.ring)
        out.append(f"{c.center[0]} {c.center[1]} : {ring}")
    return "\n".join(out) + "\n"


@lru_cache(maxsize=None)
def _lattice_of_code() -> dict:
    """Orientation code -> (lattice, ring length); the lattices' code sets
    are disjoint, so a code names its lattice."""
    return {code: (space, len(touching_offsets(SPACE_KINDS[space][0])))
            for space in SPACES for code in space_codes(space)}


def parse_atlas(text: str, rs: ReducedSet | None = None) -> Atlas:
    """Read atlas text.  Every code must be one lattice's orientation code,
    all codes must come from the same lattice, and every ring must have that
    lattice's touching count of entries.  Given the reduced set, every
    (tile, code) label must also be one of its encodings."""
    known = None if rs is None else rs.inverse
    lattice_of = _lattice_of_code()
    name = None
    lattice = None
    codes = frozenset()
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
        line_codes = [toks[1], *toks[4::2]]
        if not codes.issuperset(line_codes):
            for code in line_codes:
                if code not in lattice_of:
                    raise FormatError(
                        f"line {ln}: unknown orientation code {code!r}")
                if lattice is None:
                    lattice = lattice_of[code]
                    codes = frozenset(space_codes(lattice[0]))
                elif lattice_of[code] != lattice:
                    raise FormatError(
                        f"line {ln}: code {code!r} is not a {lattice[0]} code")
        center = (toks[0], toks[1])
        rest = toks[3:]
        ring = tuple((rest[i], rest[i + 1]) for i in range(0, len(rest), 2))
        if len(ring) != lattice[1]:
            raise FormatError(
                f"line {ln}: ring of {len(ring)} entries; {lattice[0]} "
                f"coronas have {lattice[1]}")
        if known is not None:
            for label in (center, *ring):
                if label not in known:
                    raise FormatError(
                        f"line {ln}: {label[0]} {label[1]} encodes no tile "
                        f"of {rs.name}")
        coronas.add(Corona(center, ring))
    if name is None:
        raise FormatError("missing atlas header")
    return Atlas(name, frozenset(coronas))
