"""Shared helpers for the test suite."""

import itertools
import random
from itertools import repeat

from tileatlas.atlas import Corona
from tileatlas.geometry import (
    FACET_COUNT,
    SPACE_KINDS,
    ShapeKind,
    touching_cell,
    touching_offsets,
)
from tileatlas.tileset import (
    FacetRule,
    Patch,
    Placement,
    Prototile,
    RegionSpec,
    TileSet,
    identity_code,
    patch_valid,
    placement_map,
)


# names and tile ids that no text reader returns as written: the comment
# cuts the first, whitespace splits the next two, and the last is no token
UNREADABLE = ("a#b", "a b", "a\u2028b", "")


def random_tileset(rng: random.Random, space: str, n: int, colours: int = 5,
                   name: str = "rand") -> TileSet:
    """A random translation-placed set of n tiles on the given lattice."""
    tiles = []
    for i in range(n):
        kind = rng.choice(SPACE_KINDS[space])
        cols = tuple(rng.randint(0, colours) for _ in range(FACET_COUNT[kind]))
        tiles.append(Prototile(f"p{i}", kind, cols))
    return TileSet(name, tuple(tiles), FacetRule("identical"), "translations")


def brute_square_coronas(ts: TileSet) -> set:
    """Independent corona enumeration: fill the 8 ring cells of a 3x3 free
    region in every possible way and keep what the validator accepts."""
    ident = identity_code("square2d")
    region = RegionSpec("square2d", (3, 3), False)
    center = (1, 1)
    ring_cells = [touching_cell(ShapeKind.SQUARE, center, off)
                  for off in touching_offsets(ShapeKind.SQUARE)]
    ids = [p.id for p in ts.prototiles]
    out = set()
    for ctile in ids:
        for combo in itertools.product(ids, repeat=8):
            placements = {center: Placement(center, ctile, ident)}
            for cell, tid in zip(ring_cells, combo):
                placements[cell] = Placement(cell, tid, ident)
            if patch_valid(ts, Patch(ts.name, region, placements))[0]:
                out.add(Corona((ctile, ident),
                               tuple((t, ident) for t in combo)))
    return out


# Kari's fourteen tiles.  x = p/q in [1/2, 2] is read with integers only:
# floor(k x) is k * p // q.  A carry r floor(j x) - floor(j r x), times the
# ratio's denominator, is coloured as kari14.tiles colours M_2's carries -1
# and 0 and M_{2/3}'s -1/3 to 2/3
KARI_CARRIES = {(1, -1): 1, (1, 0): 2, **{(3, k): 4 + k for k in range(-1, 3)}}


def kari_tile(p: int, q: int, k: int) -> tuple:
    """The colours (N, E, S, W) of Kari's tile for x = p/q in [1/2, 2] at
    column k: machine M_2 (ratio 2) up to 1, M_{2/3} beyond; digits 0, 1, 2
    are colours 7, 8, 9."""
    rp, rq = (2, 1) if p <= q else (2, 3)  # the ratio r = rp/rq

    def carry(j):
        return KARI_CARRIES[rq, rp * (j * p // q) - rq * (j * rp * p
                                                        // (rq * q))]

    rx = (rp * p, rq * q)  # r x
    return (7 + k * p // q - (k - 1) * p // q, carry(k),
            7 + k * rx[0] // rx[1] - (k - 1) * rx[0] // rx[1], carry(k - 1))


def kari_orbit_patch(ts: TileSet, n: int) -> Patch:
    """A free n x n patch of Kari's tiles (`ts` is kari14) whose row r,
    counted from the top, holds f^r(5/7): f doubles x up to 1 and takes two
    thirds of it beyond."""
    by_colours = {p.colours: p.id for p in ts.prototiles}
    cells, tiles, (p, q) = [], [], (5, 7)
    for y in reversed(range(n)):
        cells += [(k, y) for k in range(n)]
        tiles += [by_colours[kari_tile(p, q, k)] for k in range(n)]
        p, q = (2 * p, q) if p <= q else (2 * p, 3 * q)
    return Patch(ts.name, RegionSpec("square2d", (n, n), False),
                 placement_map(cells, tiles, repeat(identity_code("square2d"))))
