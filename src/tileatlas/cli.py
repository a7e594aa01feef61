"""Command line interface.

Subcommands:

    counts     class/stabilizer sizes and reduced cardinalities of a set
    reduce     write the reduced (representative + encoding) description
    tile       search for a valid patch (facet mode, or atlas mode with
               --reduced), write it as patch text
    exhaust    exhaustively search torus tilings (one region, or a k-sweep)
    verify     check a patch file; with --reduced also decode and check
               coronas
    roundtrip  seeded random patches, encoded and decoded back, compared
    render     write an SVG picture of a patch

Exit codes: 0 success/found, 1 exhausted/invalid input, 2 node or memory
limit reached, 3 usage errors.  Output cut off by its reader, as by
`| head`, ends the run with 1 and no message.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from .atlas import (
    DEFAULT_NODE_CAP,
    BudgetExceeded,
    derive_atlas,
    missing_coronas,
)
from .reduction import (
    DecodeError,
    decode_patch,
    encode_patch,
    parse_reduced,
    partition_translation,
    reduce_set,
    reduced_cardinality,
    serialize_reduced,
)
from .geometry import point_group, space_dim
from .render import render_reduced_patch, render_source_patch
from .solver import (
    EXHAUSTED,
    FOUND,
    LIMIT,
    SolveConfig,
    exhaust_torus,
    random_patch,
    solve,
    solve_atlas,
)
from .patchtext import parse_patch, serialize_patch
from .tileset import (
    FormatError,
    RegionSpec,
    load_bundled,
    parse_tileset,
    patch_valid,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_LIMIT = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, worded as a UsageError is; --help is not an error
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(Exception):
    """Flag combinations argparse cannot express."""


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte "
                              f"{e.start})") from None


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_set(source: str):
    """A tileset from a file path, or a bundled set named `@name`."""
    if source.startswith("@"):
        return load_bundled(source[1:])
    return parse_tileset(_read(source))


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return integer


def _region_extents(args, space: str):
    if space == "cube3d":
        if args.depth is None:
            raise UsageError("cube3d regions need --depth")
        return (args.width, args.height, args.depth)
    if args.depth is not None:
        raise UsageError(f"--depth does not apply to {space}")
    return (args.width, args.height)


def _config(args) -> SolveConfig:
    return SolveConfig(
        node_limit=args.node_limit,
        seed=getattr(args, "seed", None),
    )


def _status_exit(status: str) -> int:
    return {FOUND: EXIT_OK, EXHAUSTED: EXIT_NEGATIVE, LIMIT: EXIT_LIMIT}[status]


def cmd_counts(args) -> int:
    ts = _load_set(args.inp)
    classes = partition_translation(ts)
    sizes = [len(c) for c in classes]
    orders = [len(point_group(ts.by_id[c[0]].kind).codes) for c in classes]
    c1 = reduced_cardinality(ts, "c1")
    c2 = reduced_cardinality(ts, "c2")
    print(f"|P|={len(ts.prototiles)}, classes: {sizes}, |G_s|: {orders}, "
          f"C1={c1}, C2={c2}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    ts = _load_set(args.inp)
    rs = reduce_set(ts, args.mode)
    _write(args.out, serialize_reduced(rs))
    return EXIT_OK


def cmd_tile(args) -> int:
    ts = _load_set(args.inp)
    region = RegionSpec(ts.space, _region_extents(args, ts.space), args.torus)
    cfg = _config(args)
    if args.reduced:
        rs = parse_reduced(_read(args.reduced), ts)
        result = solve_atlas(rs, region, cfg)
    else:
        result = solve(ts, region, cfg)
    print(f"{result.status} nodes={result.nodes}", file=sys.stderr)
    if result.patch is not None:
        _write(args.out, serialize_patch(result.patch))
    return _status_exit(result.status)


def cmd_exhaust(args) -> int:
    extent_flags = (args.width, args.height, args.depth) != (None,) * 3
    if args.kmax is not None and extent_flags:
        raise UsageError("--kmax sweeps its own tori: give it no "
                         "--width/--height/--depth")
    ts = _load_set(args.inp)
    cfg = _config(args)
    if args.kmax is not None:
        dims = space_dim(ts.space)
        # one torus at a time, as each line is printed
        regions = ((f"k={k}: ", (k,) * dims) for k in range(1, args.kmax + 1))
    elif args.width is None or args.height is None:
        raise UsageError("exhaust needs --kmax or --width/--height")
    else:
        regions = [("", _region_extents(args, ts.space))]
    worst = EXHAUSTED
    for prefix, extents in regions:
        result = exhaust_torus(ts, extents, cfg)
        print(f"{prefix}{result.status} nodes={result.nodes}")
        if result.status == FOUND:
            if args.out is not None:
                _write(args.out, serialize_patch(result.patch))
            return EXIT_OK
        if result.status == LIMIT:
            worst = LIMIT
    return _status_exit(worst)


def _load_patch(args, ts):
    """(reduced set, patch) from --reduced and --patch: with --reduced the
    patch's tile ids are checked against the reps, without it against the
    set's ids and the reduced set is None."""
    if args.reduced:
        rs = parse_reduced(_read(args.reduced), ts)
        return rs, parse_patch(_read(args.patch), ts.space, rs.rep_ids)
    return None, parse_patch(_read(args.patch), ts.space, set(ts.by_id))


def cmd_verify(args) -> int:
    if args.with_atlas and not args.reduced:
        raise UsageError("--with-atlas needs --reduced")
    ts = _load_set(args.inp)
    rs, patch = _load_patch(args, ts)
    facets = patch
    if rs is not None:
        try:
            facets = decode_patch(rs, patch)
        except DecodeError as e:
            print(f"invalid: {e}")
            return EXIT_NEGATIVE
    ok, violations = patch_valid(ts, facets)
    for v in violations:
        print(f"invalid: {v}")
    if not ok:
        return EXIT_NEGATIVE
    if rs is None:
        print("ok")
    elif args.with_atlas:
        atlas = derive_atlas(rs, node_cap=args.atlas_budget)
        missing, complete = missing_coronas(atlas, patch)
        for cell in missing:
            print(f"invalid: corona at {cell} not in atlas")
        if missing:
            return EXIT_NEGATIVE
        print(f"ok (decoded facets valid; {complete} coronas in atlas)")
    else:
        print("ok (decoded facets valid)")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    ts = _load_set(args.inp)
    rs = reduce_set(ts, args.mode)
    extents = _region_extents(args, ts.space)
    failures = 0
    produced = 0
    for i in range(args.count):
        seed = args.seed + i
        result = random_patch(ts, extents, seed=seed, torus=args.torus,
                              node_limit=args.node_limit)
        if result.status != FOUND:
            print(f"seed {seed}: {result.status}")
            if result.status == LIMIT:
                failures += 1
            continue
        produced += 1
        enc = encode_patch(rs, result.patch)
        dec = decode_patch(rs, enc)
        text_ok = serialize_patch(dec) == serialize_patch(result.patch)
        same = dec.placements == result.patch.placements and text_ok
        print(f"seed {seed}: {'ok' if same else 'MISMATCH'}")
        if not same:
            failures += 1
    print(f"{produced}/{args.count} patches round-tripped, "
          f"{failures} failures")
    return EXIT_OK if failures == 0 and produced > 0 else EXIT_NEGATIVE


def cmd_render(args) -> int:
    ts = _load_set(args.inp)
    rs, patch = _load_patch(args, ts)
    if rs is None:
        svg = render_source_patch(ts, patch)
    else:
        svg = render_reduced_patch(rs, patch)
    _write(args.svg, svg)
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="tileatlas", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(sp, out=False, solveflags=False, extents=False):
        sp.add_argument("--in", dest="inp", required=True,
                        help="tileset file, or @name for a bundled set")
        if out:
            sp.add_argument("--out", default=None,
                            help="output path ('-' or omit for stdout)")
        if extents:
            sp.add_argument("--width", type=_at_least(1), required=True)
            sp.add_argument("--height", type=_at_least(1), required=True)
            sp.add_argument("--depth", type=_at_least(1), default=None)
            sp.add_argument("--torus", action="store_true")
        if solveflags:
            sp.add_argument("--node-limit", type=_at_least(0), default=None)

    sp = sub.add_parser("counts", help="set statistics and reduced sizes")
    add_common(sp)
    sp.set_defaults(func=cmd_counts)

    sp = sub.add_parser("reduce", help="write the reduced set description")
    add_common(sp, out=True)
    sp.add_argument("--mode", choices=("c1", "c2"), required=True)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("tile", help="search for a valid patch")
    add_common(sp, out=True, solveflags=True, extents=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--reduced", default=None,
                    help="reduced description file: solve in atlas mode")
    sp.set_defaults(func=cmd_tile)

    sp = sub.add_parser("exhaust", help="exhaustive torus search")
    add_common(sp, out=True, solveflags=True)
    sp.add_argument("--width", type=_at_least(1), default=None)
    sp.add_argument("--height", type=_at_least(1), default=None)
    sp.add_argument("--depth", type=_at_least(1), default=None)
    sp.add_argument("--kmax", type=_at_least(1), default=None,
                    help="sweep tori on the set's lattice with k = 1..kmax")
    sp.set_defaults(func=cmd_exhaust)

    sp = sub.add_parser("verify", help="validate a patch file")
    add_common(sp)
    sp.add_argument("--patch", required=True)
    sp.add_argument("--reduced", default=None)
    sp.add_argument("--with-atlas", action="store_true",
                    help="also check every complete corona against the atlas")
    sp.add_argument("--atlas-budget", type=_at_least(0),
                    default=DEFAULT_NODE_CAP)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("roundtrip", help="encode/decode seeded random patches")
    add_common(sp, solveflags=True, extents=True)
    sp.add_argument("--mode", choices=("c1", "c2"), required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=_at_least(1), default=1)
    sp.set_defaults(func=cmd_roundtrip)

    sp = sub.add_parser("render", help="draw a patch as SVG")
    add_common(sp)
    sp.add_argument("--patch", required=True)
    sp.add_argument("--reduced", default=None)
    sp.add_argument("--svg", required=True)
    sp.set_defaults(func=cmd_render)

    return p


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """build_parser's parser, built on first use and kept: parse_args reads
    it without changing it, and gives each call a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone is met here, not at exit
        return code
    except BrokenPipeError:
        # the reader of the output has gone: the rest of it, flushed when
        # the interpreter exits, goes to the null device, and nothing is said
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):  # no descriptor
            sys.stdout = open(os.devnull, "w")
        os.close(null)
        return EXIT_NEGATIVE
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_LIMIT
    except (FormatError, DecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
