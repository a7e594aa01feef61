"""Prototile reduction for coloured tilings: trade facet matching rules for
1-corona atlas matching rules over smaller, decorated prototile sets."""

__version__ = "0.1.0"

from .geometry import (
    Isometry,
    PointGroup,
    ShapeKind,
    apply_cell,
    compose,
    facet_action,
    image_kind,
    inverse,
    point_group,
    space_codes,
)
from .tileset import (
    BUNDLED,
    FacetRule,
    FormatError,
    Patch,
    Placement,
    Prototile,
    RegionSpec,
    TileSet,
    load_bundled,
    parse_patch,
    parse_tileset,
    patch_valid,
    serialize_patch,
    serialize_tileset,
)
from .reduction import (
    DecodeError,
    DecoratedPrototile,
    ReducedSet,
    decode_patch,
    encode_patch,
    parse_reduced,
    reduce_set,
    reduced_cardinality,
    serialize_reduced,
)
from .atlas import (
    Atlas,
    BudgetExceeded,
    Corona,
    corona_in_atlas_implicit,
    corona_of,
    derive_atlas,
    enumerate_source_coronas,
    parse_atlas,
    serialize_atlas,
)
from .solver import (
    EXHAUSTED,
    FOUND,
    LIMIT,
    SolveConfig,
    SolveResult,
    count_solutions,
    exhaust_torus,
    random_patch,
    solve,
    solve_atlas,
)
from .render import render_reduced_patch, render_source_patch

__all__ = [
    "__version__",
    # geometry
    "Isometry", "PointGroup", "ShapeKind", "apply_cell", "compose",
    "facet_action", "image_kind", "inverse", "point_group", "space_codes",
    # tile sets and patches
    "BUNDLED", "FacetRule", "FormatError", "Patch", "Placement", "Prototile",
    "RegionSpec", "TileSet", "load_bundled", "parse_patch", "parse_tileset",
    "patch_valid", "serialize_patch", "serialize_tileset",
    # reduction and encoding
    "DecodeError", "DecoratedPrototile", "ReducedSet", "decode_patch",
    "encode_patch", "parse_reduced", "reduce_set", "reduced_cardinality",
    "serialize_reduced",
    # coronas and atlases
    "Atlas", "BudgetExceeded", "Corona", "corona_in_atlas_implicit",
    "corona_of", "derive_atlas", "enumerate_source_coronas", "parse_atlas",
    "serialize_atlas",
    # solving
    "EXHAUSTED", "FOUND", "LIMIT", "SolveConfig", "SolveResult",
    "count_solutions", "exhaust_torus", "random_patch", "solve",
    "solve_atlas",
    # rendering
    "render_reduced_patch", "render_source_patch",
]
