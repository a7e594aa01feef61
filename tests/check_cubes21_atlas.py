"""Derive the cubes21 c2 atlas, the one-prototile atlas behind the paper's R³
claim, at the default node budget and check the stored artifact.

Three checks, each printed with its figure; the exit code is 0 when all hold:

- the process's peak RSS right after derivation is at most 250 MB;
- the atlas text has the pinned sha256;
- reading that text back gives the same atlas.

Run from the repository root:

    PYTHONPATH=src python tests/check_cubes21_atlas.py

It takes 30-45 s on a 2-core machine.  Serializing and parsing the 352.7 MB
text take the process past 1 GB, so the RSS check is read before them.  The
file name does not match pytest's `test_*.py`, so the suite does not run it.
"""

import hashlib
import resource
import sys
import time

from tileatlas import (derive_atlas, load_bundled, parse_atlas, reduce_set,
                       serialize_atlas)

DIGEST = "733d3fd5913f93179d608a15fb7195f5031baee7deb679e1121849e611ca8d1a"
DERIVE_RSS_MB = 250


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    start = time.perf_counter()
    atlas = derive_atlas(reduce_set(load_bundled("cubes21"), "c2"))
    rss = peak_rss_mb()
    print(f"derive: {len(atlas.coronas)} coronas in "
          f"{time.perf_counter() - start:.1f} s, peak RSS {rss:.0f} MB "
          f"(limit {DERIVE_RSS_MB})")
    text = serialize_atlas(atlas)
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"text: {len(text)} characters, sha256 {digest}")
    same = parse_atlas(text) == atlas
    print(f"parse: {'equal' if same else 'DIFFERENT'}; peak RSS "
          f"{peak_rss_mb():.0f} MB after {time.perf_counter() - start:.1f} s")
    ok = rss <= DERIVE_RSS_MB and digest == DIGEST and same
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
