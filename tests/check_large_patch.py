"""Check a million-cell patch of Kari's fourteen tiles, the set that tiles
the plane, through the read side: patch_valid, then the CLI's atlas check.

Two checks, each printed with its figures; the exit code is 0 when both
hold:

- patch_valid accepts the free 1000x1000 orbit patch (tests/conftest.py's
  kari_orbit_patch: row r holds f^r(5/7)) within PATCH_VALID_S seconds.
  It fills its region, so the box module's dense route decides it in one
  pass over its cells;
- `tileatlas verify --reduced R --patch P --with-atlas`, run as its own
  process on the patch encoded with c2, prints exactly
  "ok (decoded facets valid; 996004 coronas in atlas)".

The verify time and its process's peak RSS are printed; neither is
checked.  So are those of `tileatlas render --reduced R --patch P --svg S`
on the free 400x400 orbit patch encoded with c2, a baseline for rendering
the million-cell patch; its exit code is printed, not checked.  Each peak
is the CLI process's own high-water mark (VmHWM in /proc/self/status,
which it prints last on stderr): the getrusage figures of a process forked
from this one, which holds the patch, count this process's pages too.
Last, the time of missing_coronas' cell-by-cell route is printed, not
checked: a 12x12 orbit block encoded with c2, placed in the middle of a
free 2000x2000 region, which it fills too sparsely for the box route, has
its 100 complete coronas read, in the least of 7 runs of 20 reads.

Run from the repository root:

    PYTHONPATH=src python tests/check_large_patch.py

Most of its time goes to building and encoding the patches.  The file
name does not match pytest's `test_*.py`, so the suite does not run it.
"""

import os
import subprocess
import sys
import tempfile
import time
import timeit

from conftest import kari_orbit_patch
from tileatlas import (Patch, RegionSpec, derive_atlas, encode_patch,
                       load_bundled, patch_valid, reduce_set,
                       serialize_patch, serialize_reduced)
from tileatlas.atlas import missing_coronas

SIZE = 1000
RENDER_SIZE = 400
# missing_coronas' cell-by-cell route: a block this wide in a free region
# this wide
BLOCK, SPARSE_SIZE = 12, 2000
PATCH_VALID_S = 3.0
EXPECTED = f"ok (decoded facets valid; {(SIZE - 2) ** 2} coronas in atlas)"
# `python -m tileatlas.cli`, which then prints its peak RSS in kB on stderr
CLI = """import sys
from tileatlas.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")).split()[1],
          file=sys.stderr)
sys.exit(code)
"""


def run_cli(*argv):
    """The CLI run on `argv` as its own process: the finished process, its
    seconds, its stderr lines but the last, and its peak RSS."""
    before = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI, *argv],
                          capture_output=True, text=True)
    took = time.perf_counter() - before
    *err, peak = proc.stderr.splitlines() or ["?"]
    rss = f"{int(peak) / 1024:.0f} MB" if peak.isdigit() else repr(peak)
    return proc, took, err, rss


def per_cell_route(ts, rs) -> str:
    """missing_coronas' cell-by-cell route on a BLOCK-wide orbit block in
    the middle of a free SPARSE_SIZE-wide region, timed and worded."""
    mid = (SPARSE_SIZE - BLOCK) // 2
    block = encode_patch(rs, kari_orbit_patch(ts, BLOCK)).placements
    patch = Patch(rs.name, RegionSpec("square2d", (SPARSE_SIZE,) * 2, False),
                  {(x + mid, y + mid): pl._replace(cell=(x + mid, y + mid))
                   for (x, y), pl in block.items()})
    atlas = derive_atlas(rs)
    missing, complete = missing_coronas(atlas, patch)
    took = min(timeit.repeat(lambda: missing_coronas(atlas, patch),
                             number=20, repeat=7)) / 20
    return (f"missing_coronas, cell by cell: {complete} coronas of a "
            f"{BLOCK}x{BLOCK} orbit block in a free {SPARSE_SIZE}x"
            f"{SPARSE_SIZE} region, {len(missing)} missing, in "
            f"{took * 1e3:.2f} ms (not checked)")


def main() -> int:
    ts = load_bundled("kari14")
    rs = reduce_set(ts, "c2")
    # timed first, before this process holds the large patches
    sparse = per_cell_route(ts, rs)
    start = time.perf_counter()
    patch = kari_orbit_patch(ts, SIZE)
    built = time.perf_counter()
    verdict = patch_valid(ts, patch)
    checked = time.perf_counter() - built
    valid = verdict == (True, ()) and checked <= PATCH_VALID_S
    print(f"patch_valid: {SIZE}x{SIZE} orbit patch (built in "
          f"{built - start:.1f} s) {'accepted' if verdict[0] else 'REFUSED'}"
          f" in {checked:.2f} s (limit {PATCH_VALID_S} s)")
    with tempfile.TemporaryDirectory() as tmp:
        reduced, encoded = (os.path.join(tmp, name)
                            for name in ("kari14-c2.reduced", "orbit.patch"))
        with open(reduced, "w", encoding="utf-8") as fh:
            fh.write(serialize_reduced(rs))
        with open(encoded, "w", encoding="utf-8") as fh:
            fh.write(serialize_patch(encode_patch(rs, patch)))
        del patch  # not held while the verify process runs
        proc, took, err, rss = run_cli(
            "verify", "--in", "@kari14", "--reduced", reduced, "--patch",
            encoded, "--with-atlas")
        out = proc.stdout.strip()
        verified = proc.returncode == 0 and out == EXPECTED and not err
        print(f"verify --with-atlas: exit {proc.returncode}, {out!r} "
              f"{' '.join(err)!r} in {took:.1f} s, peak RSS {rss}")
        with open(encoded, "w", encoding="utf-8") as fh:
            fh.write(serialize_patch(encode_patch(
                rs, kari_orbit_patch(ts, RENDER_SIZE))))
        proc, took, err, rss = run_cli(
            "render", "--in", "@kari14", "--reduced", reduced, "--patch",
            encoded, "--svg", os.path.join(tmp, "orbit.svg"))
    print(f"render --reduced: {RENDER_SIZE}x{RENDER_SIZE} orbit patch, exit "
          f"{proc.returncode} {' '.join(err)!r} in {took:.1f} s, peak RSS "
          f"{rss} (not checked)")
    print(sparse)
    ok = valid and verified
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
