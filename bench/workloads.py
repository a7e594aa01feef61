"""The benchmark's workloads: set-up, one op, and the checks on its results.

Every op takes an input seed and calls the library only through `api`, a
namespace of tileatlas's public functions that the traced run replaces with
wrapped ones.  An op raises `CheckFailed` on the first wrong result and
otherwise returns (counts, digest): counts feed the per-layer metrics, and
the digest covers every artifact the op produced, so that two ops on the
same input can be required to agree byte for byte.

Which of the three workloads stresses which layer, and why each size was
chosen, is set out in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace

from tileatlas import (EXHAUSTED, FOUND, LIMIT, RegionSpec, SolveConfig,
                       TileSet)


class CheckFailed(Exception):
    """An op produced a wrong result."""


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Sizes:
    wang_kmax: int       # torus-exhaust: wang13 k×k tori, k = 1..wang_kmax
    cube_kmax: int       # torus-exhaust: cubes21 k×k×k tori
    tri_count: int       # torus-exhaust: triangles6 n×n torus solutions
    wang_patch: int      # patch-pipeline: free wang13 n×n random patches
    tri_torus: int       # patch-pipeline: triangles6 n×n torus via the atlas
    cube_free: int       # patch-pipeline: free cubes21 n×n×n patch


FULL = Sizes(wang_kmax=7, cube_kmax=3, tri_count=12, wang_patch=7,
             tri_torus=20, cube_free=4)
SMALL = Sizes(wang_kmax=3, cube_kmax=2, tri_count=3, wang_patch=3,
              tri_torus=3, cube_free=2)

# Coronas of the bundled sets' atlases (c2 reduction).
WANG13_CORONAS = 1073
TRIANGLES6_CORONAS = 6
TRIANGLES6_TILINGS = 3


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _seeds(seed):
    rng = random.Random(seed)
    return lambda: rng.getrandbits(32)


# ---------------------------------------------------------------------------
# torus-exhaust: full-tree searches that never find a torus tiling
# ---------------------------------------------------------------------------

def setup_torus_exhaust(api, workdir):
    return SimpleNamespace(wang=api.load_bundled("wang13"),
                           cubes=api.load_bundled("cubes21"),
                           tri=api.load_bundled("triangles6")), {}


def op_torus_exhaust(api, ctx, seed, sizes):
    """wang13 k = 1..7 and cubes21 k = 1..3 tori are exhausted, and the
    triangles6 12×12 torus has exactly three tilings.

    The seed shuffles each cell's candidate order.  An exhaustive search
    visits the same tree in any order, so nodes do not depend on it.
    """
    nxt = _seeds(seed)
    nodes = 0
    verdicts = []
    for ts, kmax, dim in ((ctx.wang, sizes.wang_kmax, 2),
                          (ctx.cubes, sizes.cube_kmax, 3)):
        for k in range(1, kmax + 1):
            r = api.exhaust_torus(ts, (k,) * dim, SolveConfig(seed=nxt()))
            check(r.status == EXHAUSTED, f"{ts.name} k={k}: {r.status}")
            nodes += r.nodes
            verdicts.append((ts.name, k, r.status, r.nodes))
    n = sizes.tri_count
    r = api.count_solutions(ctx.tri, RegionSpec("tri2d", (n, n), True),
                            SolveConfig(seed=nxt()))
    check(r.count == TRIANGLES6_TILINGS,
          f"triangles6 {n}x{n} torus: {r.count} tilings")
    nodes += r.nodes
    cells = len(r.patch.placements)
    first = sorted((c, p.tile) for c, p in r.patch.placements.items())
    return ({"solver.nodes": nodes, "solver.found_cells": cells},
            _digest(verdicts, r.count, first))


# ---------------------------------------------------------------------------
# atlas-derive: the write side of the atlas layer
# ---------------------------------------------------------------------------

def setup_atlas_derive(api, workdir):
    return SimpleNamespace(wang=api.load_bundled("wang13"),
                           tri=api.load_bundled("triangles6")), {}


def op_atlas_derive(api, ctx, seed, sizes):
    """reduce_set + derive_atlas (c2) for wang13 and triangles6; each atlas
    survives a text round trip.

    The seed permutes each set's prototile order, which changes the
    encoding (and so the atlas text) but not the corona counts.
    """
    rng = random.Random(seed)
    coronas = 0
    texts = []
    for ts, expected in ((ctx.wang, WANG13_CORONAS),
                         (ctx.tri, TRIANGLES6_CORONAS)):
        shuffled = TileSet(ts.name, tuple(rng.sample(ts.prototiles,
                                                     len(ts.prototiles))),
                           ts.rule, ts.allowed)
        rs = api.reduce_set(shuffled, "c2")
        atlas = api.derive_atlas(rs)
        check(len(atlas.coronas) == expected,
              f"{ts.name}: {len(atlas.coronas)} coronas, expected {expected}")
        coronas += len(atlas.coronas)
        text = api.serialize_atlas(atlas)
        back = api.parse_atlas(text)
        check(back == atlas, f"{ts.name}: atlas text does not round-trip")
        check(api.serialize_atlas(back) == text,
              f"{ts.name}: atlas text is not byte-identical after parsing")
        texts.append(text)
    return {"atlas.coronas": coronas}, _digest(*texts)


# ---------------------------------------------------------------------------
# patch-pipeline: search, codec, text, validity, atlas read side, SVG, CLI
# ---------------------------------------------------------------------------

def setup_patch_pipeline(api, workdir):
    wang = api.load_bundled("wang13")
    tri = api.load_bundled("triangles6")
    cubes = api.load_bundled("cubes21")
    ctx = SimpleNamespace(
        wang=wang, tri=tri, cubes=cubes,
        wang_rs=api.reduce_set(wang, "c2"),
        tri_rs=api.reduce_set(tri, "c2"),
        cubes_rs=api.reduce_set(cubes, "c2"),
        workdir=workdir)
    ctx.wang_atlas = api.derive_atlas(ctx.wang_rs)
    ctx.tri_atlas = api.derive_atlas(ctx.tri_rs)
    ctx.tri_reduced = os.path.join(workdir, "triangles6-c2.reduced")
    with open(ctx.tri_reduced, "w") as fh:
        fh.write(api.serialize_reduced(ctx.tri_rs))
    coronas = len(ctx.wang_atlas.coronas) + len(ctx.tri_atlas.coronas)
    return ctx, {"atlas.coronas": coronas}


def op_patch_pipeline(api, ctx, seed, sizes):
    """Three found patches go through the whole read/write pipeline.

    * a seeded first-hit random_patch on a free wang13 7×7 region;
    * a seeded solve_atlas on a triangles6 20×20 torus, checked against the
      atlas from set-up;
    * a free cubes21 4×4×4 solve in the default candidate order.

    Each patch goes encode → serialize → parse → decode → patch_valid, and
    is rendered; every complete corona of the wang13 and triangles6 patches
    must be accepted by both membership routes.  cubes21 has no atlas yet
    (it exceeds the derivation budget), so its coronas are not checked.  One
    `tileatlas verify --reduced --with-atlas` runs on the triangles6 patch.
    """
    nxt = _seeds(seed)
    w = sizes.wang_patch
    wang = api.random_patch(ctx.wang, (w, w), nxt())
    check(wang.status == FOUND, f"wang13 {w}x{w} random patch: {wang.status}")
    t = sizes.tri_torus
    tri = api.solve_atlas(ctx.tri_rs, RegionSpec("tri2d", (t, t), True),
                          SolveConfig(seed=nxt()), atlas=ctx.tri_atlas)
    check(tri.status == FOUND, f"triangles6 {t}x{t} torus: {tri.status}")
    c = sizes.cube_free
    cube = api.solve(ctx.cubes, RegionSpec("cube3d", (c, c, c), False))
    check(cube.status == FOUND, f"cubes21 {c}^3 free: {cube.status}")

    counts = {"solver.nodes": wang.nodes + tri.nodes + cube.nodes,
              "solver.found_cells": (len(wang.patch.placements)
                                     + len(tri.patch.placements)
                                     + len(cube.patch.placements)),
              "tileset.cells_checked": 0, "atlas.coronas_checked": 0,
              "render.svg_bytes": 0}
    parts = []
    tri_text = None
    for rs, atlas, source in (
            (ctx.wang_rs, ctx.wang_atlas, wang.patch),
            (ctx.tri_rs, ctx.tri_atlas, api.decode_patch(ctx.tri_rs, tri.patch)),
            (ctx.cubes_rs, None, cube.patch)):
        name = rs.source.name
        encoded = api.encode_patch(rs, source)
        text = api.serialize_patch(encoded)
        parsed = api.parse_patch(text, encoded.region.space, rs.rep_ids)
        check(api.serialize_patch(parsed) == text,
              f"{name}: patch text is not byte-identical after parsing")
        decoded = api.decode_patch(rs, parsed)
        check(decoded.placements == source.placements,
              f"{name}: decode(encode(patch)) differs from the patch")
        ok, violations = api.patch_valid(rs.source, decoded)
        check(ok, f"{name}: decoded patch invalid: {violations[:1]}")
        counts["tileset.cells_checked"] += len(decoded.placements)
        if atlas is not None:
            for cell in sorted(parsed.placements):
                corona = api.corona_of(parsed.placements, parsed.region, cell)
                if corona is None:
                    continue
                listed = api.atlas_contains(atlas, corona)
                implicit = api.corona_in_atlas_implicit(rs, corona)
                check(listed and implicit,
                      f"{name}: corona at {cell}: atlas {listed}, "
                      f"implicit {implicit}")
                counts["atlas.coronas_checked"] += 1
        svg = api.render_reduced_patch(rs, parsed).encode()
        counts["render.svg_bytes"] += len(svg)
        parts += [text.encode(), hashlib.sha256(svg).digest()]
        if rs is ctx.tri_rs:
            tri_text = text

    patch_file = os.path.join(ctx.workdir, "triangles6-torus.patch")
    with open(patch_file, "w") as fh:
        fh.write(tri_text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = api.main(["verify", "--in", "@triangles6", "--patch", patch_file,
                         "--reduced", ctx.tri_reduced, "--with-atlas"])
    cells = len(tri.patch.placements)
    expected = f"ok (decoded facets valid; {cells} coronas in atlas)\n"
    check(code == 0 and out.getvalue() == expected,
          f"cli verify: exit {code}, output {out.getvalue()!r}")
    return counts, _digest(*parts)


WORKLOADS = {
    "torus-exhaust": (setup_torus_exhaust, op_torus_exhaust),
    "atlas-derive": (setup_atlas_derive, op_atlas_derive),
    "patch-pipeline": (setup_patch_pipeline, op_patch_pipeline),
}


# ---------------------------------------------------------------------------
# Known-defect probes: run once per invocation, kept out of every metric
# ---------------------------------------------------------------------------

def _probe_tri30(api):
    ts = api.load_bundled("triangles6")
    r = api.solve(ts, RegionSpec("tri2d", (30, 30), True))
    return r.status


def _probe_wang10(api):
    ts = api.load_bundled("wang13")
    r = api.solve(ts, RegionSpec("square2d", (10, 10), False),
                  SolveConfig(node_limit=3_000_000))
    return r.status


# name -> (what it runs, outcome at the seed commit, function)
PROBES = {
    "triangles6-30x30-torus-solve": (
        "solve on a 1,800-cell torus; the search recurses once per cell",
        "RecursionError", _probe_tri30),
    "wang13-10x10-free-solve-3M": (
        "free 10x10 solve with node_limit=3,000,000",
        LIMIT, _probe_wang10),
}
