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
checked.

Run from the repository root:

    PYTHONPATH=src python tests/check_large_patch.py

It takes 20-40 s on a 2-core machine, most of it building and encoding
the patch and the verify run, which peaks near 1 GB.  The file name does
not match pytest's `test_*.py`, so the suite does not run it.
"""

import os
import resource
import subprocess
import sys
import tempfile
import time

from conftest import kari_orbit_patch
from tileatlas import (encode_patch, load_bundled, patch_valid, reduce_set,
                       serialize_patch, serialize_reduced)

SIZE = 1000
PATCH_VALID_S = 3.0
EXPECTED = f"ok (decoded facets valid; {(SIZE - 2) ** 2} coronas in atlas)"


def main() -> int:
    ts = load_bundled("kari14")
    start = time.perf_counter()
    patch = kari_orbit_patch(ts, SIZE)
    built = time.perf_counter()
    verdict = patch_valid(ts, patch)
    checked = time.perf_counter() - built
    valid = verdict == (True, ()) and checked <= PATCH_VALID_S
    print(f"patch_valid: {SIZE}x{SIZE} orbit patch (built in "
          f"{built - start:.1f} s) {'accepted' if verdict[0] else 'REFUSED'}"
          f" in {checked:.2f} s (limit {PATCH_VALID_S} s)")
    rs = reduce_set(ts, "c2")
    with tempfile.TemporaryDirectory() as tmp:
        reduced, encoded = (os.path.join(tmp, name)
                            for name in ("kari14-c2.reduced", "orbit.patch"))
        with open(reduced, "w", encoding="utf-8") as fh:
            fh.write(serialize_reduced(rs))
        with open(encoded, "w", encoding="utf-8") as fh:
            fh.write(serialize_patch(encode_patch(rs, patch)))
        del patch  # not held while the verify process runs
        before = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tileatlas.cli", "verify", "--in",
             "@kari14", "--reduced", reduced, "--patch", encoded,
             "--with-atlas"], capture_output=True, text=True)
        took = time.perf_counter() - before
    # ru_maxrss is in KiB on Linux; the verify run is the only child
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    out = proc.stdout.strip()
    verified = proc.returncode == 0 and out == EXPECTED
    print(f"verify --with-atlas: exit {proc.returncode}, {out!r} "
          f"{proc.stderr.strip()!r} in {took:.1f} s, peak RSS {rss:.0f} MB")
    ok = valid and verified
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
