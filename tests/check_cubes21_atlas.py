"""Derive the cubes21 c2 atlas, the one-prototile atlas behind the paper's R³
claim, at the default node budget and check the stored artifact.

Five checks, each printed with its figure; the exit code is 0 when all hold:

- the process's peak RSS right after derivation is at most 250 MB;
- every complete corona of a free cubes21 4x4x4 patch (the solver's first,
  in the default candidate order), encoded with c2, is in the atlas by both
  membership routes: `corona in atlas` and `corona_in_atlas_implicit`;
- the atlas text has the pinned sha256;
- reading that text back gives the same atlas;
- the process's peak RSS after that round trip is at most 1,000 MB.

The derivation time is printed beside the 20 s target; it is not checked.

Run from the repository root:

    PYTHONPATH=src python tests/check_cubes21_atlas.py

It takes 22-31 s on a 2-core machine, of which the derivation takes 6-14 s.
Serializing and parsing the 352.7 MB text raise the peak to about 861 MB,
so the derivation's RSS is read before them.  The file name does not match
pytest's `test_*.py`, so the suite does not run it.
"""

import hashlib
import resource
import sys
import time

from tileatlas import (RegionSpec, corona_in_atlas_implicit, corona_of,
                       derive_atlas, encode_patch, load_bundled, parse_atlas,
                       reduce_set, serialize_atlas, solve)

DIGEST = "733d3fd5913f93179d608a15fb7195f5031baee7deb679e1121849e611ca8d1a"
DERIVE_RSS_MB = 250
ROUND_TRIP_RSS_MB = 1000
DERIVE_TARGET_S = 20


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def patch_coronas(rs, atlas) -> bool:
    """Every complete corona of a free 4x4x4 patch, encoded, passes both
    membership routes."""
    found = solve(rs.source, RegionSpec("cube3d", (4, 4, 4), False))
    if found.patch is None:
        print(f"patch: 4x4x4 free {found.status} at {found.nodes} nodes")
        return False
    patch = encode_patch(rs, found.patch)
    complete = listed = implicit = 0
    for cell in sorted(patch.placements):
        corona = corona_of(patch.placements, patch.region, cell)
        if corona is not None:
            complete += 1
            listed += corona in atlas
            implicit += corona_in_atlas_implicit(rs, corona)
    print(f"patch: 4x4x4 free {found.status} at {found.nodes} nodes; "
          f"{complete} complete coronas, {listed} in the atlas, {implicit} "
          f"by the implicit route")
    return complete > 0 and listed == implicit == complete


def main() -> int:
    start = time.perf_counter()
    rs = reduce_set(load_bundled("cubes21"), "c2")
    atlas = derive_atlas(rs)
    rss = peak_rss_mb()
    print(f"derive: {len(atlas.coronas)} coronas in "
          f"{time.perf_counter() - start:.1f} s (target {DERIVE_TARGET_S} s), "
          f"peak RSS {rss:.0f} MB (limit {DERIVE_RSS_MB})")
    in_atlas = patch_coronas(rs, atlas)
    text = serialize_atlas(atlas)
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"text: {len(text)} characters, sha256 {digest}")
    same = parse_atlas(text) == atlas
    trip_rss = peak_rss_mb()
    print(f"parse: {'equal' if same else 'DIFFERENT'}; peak RSS "
          f"{trip_rss:.0f} MB (limit {ROUND_TRIP_RSS_MB}) after "
          f"{time.perf_counter() - start:.1f} s")
    ok = (rss <= DERIVE_RSS_MB and in_atlas and digest == DIGEST and same
          and trip_rss <= ROUND_TRIP_RSS_MB)
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
