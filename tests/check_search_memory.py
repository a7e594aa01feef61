"""Run two wang13 searches and a kari14 count whose memo must stay inside its
bound, and check each one's counts, the nodes it replayed included, and
peak RSS; then a seeded first hit whose cells each draw their own candidate
order, inside its own peak RSS bound; then one triangles6 search whose kept
plan must stay inside its own bound, and one read of its patch's coronas
that must keep next to nothing.

- torus: the 11x11 torus exhausted, 612,610,024 nodes, 592,618,260 of them
  replayed, at most 36 MB.  It takes 1.8-2.1 s.  The search's memo holds at
  most MEMO_SIZE entries; without that bound the process peaks near 46 MB.
- free: the free 8x4 region counted, 653,036 solutions in 68,345,953 nodes,
  63,607,921 of them replayed, at most 24 MB.  Its time is printed beside
  its 0.6 s target, not checked: 0.25-0.3 s, with 93 % of the nodes charged
  from the memo, subtrees with solutions below them included.  The process
  peaks near 19 MB, and the bound leaves about a quarter over that.
- count: the free kari14 6x6 region counted, 39,214,580 solutions in
  2,337,550,138 nodes, 2,337,134,030 of them replayed, at most 22 MB, its
  time printed beside its 1 s target: about 0.04 s.  The memo holds counts,
  not solutions: one tuple kept a solution would need gigabytes.  The
  process peaks near 17 MB.
- seeded: a seeded first-hit solve of a free 100x100 region by 13 square
  tiles whose facets all show colour 1, at most 56 MB, its time printed
  (0.3-0.5 s).  Every placement fits, so it finds its patch at node
  10,000, and each cell draws its own candidate order: each of its 10,000
  lists sets up its own colour index at its first miss.  The process peaks
  near 52.5 MB, and the bound leaves about 7 % over that.
- plan: the search plan that region_search keeps for the 20x20 triangle
  torus, the one patch-pipeline's triangles6 patch is found on, at most
  PLAN_BYTES as tracemalloc counts it; the seeded triangles6 search that
  makes it finds its first patch at node 1,564.  A plan that kept more per
  cell, its check lists say, would raise the benchmark's peak RSS; here it
  fails first.
  The size, 368,873 bytes, was measured on Python 3.11 only.  Most of it
  is 800 slices, 799 itemgetters, 400 closures and their 399 cells, the
  543 ints above 256 of the cells' sorted order, 8 lists and the cells'
  800-character structure string.  Object sizes can differ between Python
  versions; a machine word more on each of these 2,950 objects would add
  24 KB, and the bound leaves 131 KB over the measured size.
- read: what missing_coronas keeps once it has read the patch that the
  seeded solve_atlas finds on the 20x20 triangle torus at node 1,564 (800
  complete coronas), at most READ_BYTES as tracemalloc counts it.  It keeps
  nothing per patch: 32 bytes measured on Python 3.11.7.  A table kept per
  patch, such as the 10,400 cells its coronas read as two-byte characters,
  would take it over the bound.

Each check runs in a process of its own, so each peak is its own search's.
Run from the repository root:

    PYTHONPATH=src python tests/check_search_memory.py [torus|free|count|seeded|plan|read]

With no argument all six run; the exit code is 0 when every check holds.
The file name does not match pytest's `test_*.py`, so the suite does not
run it.
"""

import gc
import resource
import subprocess
import sys
import time
import tracemalloc

# bytes the 20x20 triangle torus plan may hold: its size on Python 3.11 and
# about a third over it
PLAN_BYTES = 500_000
# bytes a read of that torus patch's coronas may keep
READ_BYTES = 1_000


def _peak_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def torus():
    from tileatlas import exhaust_torus, load_bundled
    r = exhaust_torus(load_bundled("wang13"), (11, 11))
    return ("wang13 torus", (r.status, r.nodes, r.replayed),
            ("exhausted", 612610024, 592618260), _peak_mb(), 36,
            "MB peak RSS")


def _timed_count(name, extents, target):
    """count_solutions on the free region, and its time beside `target`."""
    from tileatlas import RegionSpec, count_solutions, load_bundled
    ts = load_bundled(name)
    start = time.perf_counter()
    r = count_solutions(ts, RegionSpec("square2d", extents, False))
    spent = time.perf_counter() - start
    return r, f"; {spent:.2f} s (target {target} s)"


def free():
    r, took = _timed_count("wang13", (8, 4), 0.6)
    return ("wang13 free", (r.status, r.count, r.nodes, r.replayed),
            ("found", 653036, 68345953, 63607921), _peak_mb(), 24,
            "MB peak RSS", took)


def count():
    r, took = _timed_count("kari14", (6, 6), 1)
    return ("kari14 free", (r.status, r.count, r.nodes, r.replayed),
            ("found", 39214580, 2337550138, 2337134030), _peak_mb(), 22,
            "MB peak RSS", took)


def seeded():
    from tileatlas import (FacetRule, Prototile, RegionSpec, ShapeKind,
                           SolveConfig, TileSet, solve)
    ones = TileSet("ones", tuple(Prototile(f"t{i}", ShapeKind.SQUARE, (1,) * 4)
                                 for i in range(13)),
                   FacetRule("identical"), "translations")
    start = time.perf_counter()
    r = solve(ones, RegionSpec("square2d", (100, 100), False),
              SolveConfig(seed=1))
    spent = time.perf_counter() - start
    return ("seeded 100x100 first hit", (r.status, r.nodes), ("found", 10000),
            _peak_mb(), 56, "MB peak RSS", f"; {spent:.2f} s")


def plan():
    from tileatlas import RegionSpec, load_bundled, search
    tri = load_bundled("triangles6")
    region = RegionSpec("tri2d", (20, 20), True)
    gc.collect()
    tracemalloc.start()
    status, _, nodes, _, _ = search.region_search(tri, region, seed=7)
    gc.collect()
    # what the search left behind: its plan, and nothing of the search
    size = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return ("20x20 triangle torus plan", (status, nodes), ("found", 1564),
            size, PLAN_BYTES, "bytes kept")


def read():
    from tileatlas import (RegionSpec, SolveConfig, atlas, derive_atlas,
                           load_bundled, reduce_set, solve_atlas)
    rs = reduce_set(load_bundled("triangles6"), "c2")
    listed = derive_atlas(rs)
    r = solve_atlas(rs, RegionSpec("tri2d", (20, 20), True),
                    SolveConfig(seed=7), atlas=listed)
    gc.collect()
    tracemalloc.start()
    complete = atlas.missing_coronas(listed, r.patch)[1]
    gc.collect()
    size = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return ("20x20 triangle torus read", (r.status, r.nodes, complete),
            ("found", 1564, 800), size, READ_BYTES, "bytes kept")


CHECKS = {"torus": torus, "free": free, "count": count, "seeded": seeded,
          "plan": plan, "read": read}


def main(argv) -> int:
    if argv:
        (name,) = argv
        what, got, want, size, bound, unit, *took = CHECKS[name]()
        ok = got == want and size <= bound
        print(f"{'ok' if ok else 'FAIL'} {what}: {got}, expected {want}; "
              f"{size:,.6g} {unit}, bound {bound:,}{''.join(took)}")
        return 0 if ok else 1
    codes = [subprocess.run([sys.executable, __file__, name]).returncode
             for name in CHECKS]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
