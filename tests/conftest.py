"""Shared helpers for the test suite."""

import itertools
import random

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
