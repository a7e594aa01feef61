"""Shared helpers for the test suite."""

import random

from tileatlas.geometry import ShapeKind
from tileatlas.tileset import FacetRule, Prototile, TileSet

SPACE_TILE_KINDS = {
    "square2d": (ShapeKind.SQUARE,),
    "cube3d": (ShapeKind.CUBE,),
    "tri2d": (ShapeKind.TRI_UP, ShapeKind.TRI_DOWN),
}


# names and tile ids that no text reader returns as written: the comment
# cuts the first, whitespace splits the next two, and the last is no token
UNREADABLE = ("a#b", "a b", "a\u2028b", "")


def random_tileset(rng: random.Random, space: str, n: int, colours: int = 5,
                   name: str = "rand") -> TileSet:
    """A random translation-placed set of n tiles on the given lattice."""
    kinds = SPACE_TILE_KINDS[space]
    tiles = []
    for i in range(n):
        kind = rng.choice(kinds)
        width = 4 if kind is ShapeKind.SQUARE else 6 if kind is ShapeKind.CUBE else 3
        cols = tuple(rng.randint(0, colours) for _ in range(width))
        tiles.append(Prototile(f"p{i}", kind, cols))
    return TileSet(name, tuple(tiles), FacetRule("identical"), "translations")
