"""Run two wang13 searches whose memo must stay inside its bound, and check
each one's count and peak RSS.

- torus: the 11x11 torus exhausted, 612,610,024 nodes, at most 36 MB.  It
  takes 3.5-6 s.  The search's memo holds at most MEMO_SIZE entries;
  without that bound the process peaks near 46 MB.
- free: the free 8x4 region counted, 653,036 solutions in 68,345,953 nodes,
  at most 40 MB.  It takes 1.3-2.0 s, with 88 % of the nodes charged from
  the memo, the last row's transcripts included.  The process peaks near
  32 MB, and the bound leaves 25 % over that.

Each search runs in a process of its own, so each peak is its own search's.
Run from the repository root:

    PYTHONPATH=src python tests/check_search_memory.py [torus|free]

With no argument both run; the exit code is 0 when every check holds.  The
file name does not match pytest's `test_*.py`, so the suite does not run it.
"""

import resource
import subprocess
import sys


def torus():
    from tileatlas import exhaust_torus, load_bundled
    r = exhaust_torus(load_bundled("wang13"), (11, 11))
    return (r.status, r.nodes), ("exhausted", 612610024), 36


def free():
    from tileatlas import RegionSpec, count_solutions, load_bundled
    r = count_solutions(load_bundled("wang13"),
                        RegionSpec("square2d", (8, 4), False))
    return (r.status, r.count, r.nodes), ("found", 653036, 68345953), 40


CHECKS = {"torus": torus, "free": free}


def main(argv) -> int:
    if argv:
        (name,) = argv
        got, want, bound_mb = CHECKS[name]()
        # ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ok = got == want and peak <= bound_mb
        print(f"{'ok' if ok else 'FAIL'} wang13 {name}: {got}, expected "
              f"{want}; peak RSS {peak:.1f} MB, bound {bound_mb} MB")
        return 0 if ok else 1
    codes = [subprocess.run([sys.executable, __file__, name]).returncode
             for name in CHECKS]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
