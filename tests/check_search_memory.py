"""Run two wang13 searches whose memo must stay inside its bound, and check
each one's counts, the nodes it replayed included, and peak RSS; then one
triangles6 search whose kept plan must stay inside its own bound, and one
read of its patch's coronas that must keep next to nothing.

- torus: the 11x11 torus exhausted, 612,610,024 nodes, 574,918,565 of them
  replayed, at most 36 MB.  It takes 1.9-2.5 s.  The search's memo holds at
  most MEMO_SIZE entries; without that bound the process peaks near 46 MB.
- free: the free 8x4 region counted, 653,036 solutions in 68,345,953 nodes,
  39,721,188 of them replayed, at most 24 MB.  It takes 1.3-2.0 s, with 58 %
  of the nodes charged from the memo; subtrees with solutions below them
  are searched again, not recorded.  The process peaks near 19 MB, and the
  bound leaves about a quarter over that.
- plan: the search plan that region_search keeps for the 20x20 triangle
  torus, the one patch-pipeline's triangles6 patch is found on, at most
  PLAN_BYTES as tracemalloc counts it, beyond the facet pairs that
  facet_pairs keeps; the seeded triangles6 search that makes it finds its
  first patch at node 1,564.  A plan that kept more per cell, its check
  lists say, would raise the benchmark's peak RSS; here it fails first.
  The size, 402,556 bytes, was measured on Python 3.11 only.  Most of it
  is 800 slices, 799 itemgetters, 400 closures and their 399 cells, the
  543 ints above 256 of the cells' sorted order, and 9 lists.  Object
  sizes can differ between Python versions; a machine word more on each
  of these 2,950 objects would add 24 KB, and the bound leaves 97 KB over
  the measured size.
- read: what missing_coronas keeps once it has read the patch that the
  seeded solve_atlas finds on the 20x20 triangle torus at node 1,564 (800
  complete coronas), at most READ_BYTES as tracemalloc counts it.  It keeps
  nothing per patch: 28 bytes measured on Python 3.11.  A table kept per
  patch, such as the 10,400 cells its coronas read as two-byte characters,
  would take it over the bound.

Each check runs in a process of its own, so each peak is its own search's.
Run from the repository root:

    PYTHONPATH=src python tests/check_search_memory.py [torus|free|plan|read]

With no argument all four run; the exit code is 0 when every check holds.
The file name does not match pytest's `test_*.py`, so the suite does not
run it.
"""

import gc
import resource
import subprocess
import sys
import tracemalloc

# bytes the 20x20 triangle torus plan may hold: its size on Python 3.11 and
# about a quarter over it
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
            ("exhausted", 612610024, 574918565), _peak_mb(), 36,
            "MB peak RSS")


def free():
    from tileatlas import RegionSpec, count_solutions, load_bundled
    r = count_solutions(load_bundled("wang13"),
                        RegionSpec("square2d", (8, 4), False))
    return ("wang13 free", (r.status, r.count, r.nodes, r.replayed),
            ("found", 653036, 68345953, 39721188), _peak_mb(), 24,
            "MB peak RSS")


def plan():
    from tileatlas import RegionSpec, load_bundled, search
    from tileatlas.tileset import facet_pairs, region_cells
    tri = load_bundled("triangles6")
    region = RegionSpec("tri2d", (20, 20), True)
    facet_pairs(region, tuple(sorted(region_cells(region))))
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


CHECKS = {"torus": torus, "free": free, "plan": plan, "read": read}


def main(argv) -> int:
    if argv:
        (name,) = argv
        what, got, want, size, bound, unit = CHECKS[name]()
        ok = got == want and size <= bound
        print(f"{'ok' if ok else 'FAIL'} {what}: {got}, expected {want}; "
              f"{size:,.6g} {unit}, bound {bound:,}")
        return 0 if ok else 1
    codes = [subprocess.run([sys.executable, __file__, name]).returncode
             for name in CHECKS]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
