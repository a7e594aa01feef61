"""Derive the cubes21 c2 atlas, the one-prototile atlas behind the paper's R³
claim, at a node budget of exactly its enumeration's charge, and check the
stored artifact.

Six checks, each printed with its figure; the exit code is 0 when all hold:

- the derivation succeeds within NODE_CAP nodes, the charge of searching
  the corona window in scan order, which the default budget covers; a
  dearer enumeration prints FAILED, not a traceback;
- the process's peak RSS right after derivation is at most 250 MB;
- every complete corona of a free cubes21 4x4x4 patch (the solver's first,
  in the default candidate order), encoded with c2, is in the atlas by both
  membership routes: `corona in atlas` and `corona_in_atlas_implicit`;
- the atlas text, joined in blocks of BLOCK_LINES lines, each written once
  into sha256 and a temporary file, has the pinned sha256;
- reading that file back, in blocks of the readers' `_CHUNK` characters,
  gives the same atlas;
- the process's peak RSS after that round trip is at most 500 MB.

The derivation time is printed beside the 20 s target, the write time
beside its 2 s target, the write and parse times apart and summed, for the
15 s round-trip target, and the parse time over the derivation time beside
its target of at most 1; no time is checked.

Run from the repository root:

    PYTHONPATH=src python tests/check_cubes21_atlas.py

It takes 8-12 s on a 2-core machine: the derivation 1.2-1.8 s at a
103 MB peak, writing the text through sha256 and the file 1.8-2.2 s (of it
1.3-1.6 s making the lines; line by line the loop took 2.3-2.4 s), and
parsing it back from the file 4.6-7.2 s.  The 352.7 MB text is never held
whole, so the round trip peaks at about 205 MB (about 790 MB through
serialize_atlas and parse_atlas on one str); the derivation's RSS is read
before it.  The file name does not match pytest's `test_*.py`, so the suite
does not run it.
"""

import hashlib
import resource
import sys
import tempfile
import time
from functools import partial
from itertools import islice

from tileatlas import (BudgetExceeded, RegionSpec, atlas_lines,
                       corona_in_atlas_implicit, corona_of, derive_atlas,
                       encode_patch, load_bundled, parse_atlas, reduce_set,
                       solve)
from tileatlas.atlas import DEFAULT_NODE_CAP
from tileatlas.text import _CHUNK

DIGEST = "733d3fd5913f93179d608a15fb7195f5031baee7deb679e1121849e611ca8d1a"
DERIVE_RSS_MB = 250
ROUND_TRIP_RSS_MB = 500
DERIVE_TARGET_S = 20
WRITE_TARGET_S = 2
PARSE_TARGET = 1  # parse time over derivation time
NODE_CAP = 110_651_268  # the enumeration's exact charge
BLOCK_LINES = 1024  # atlas lines joined per sha256 update and file write


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
    try:
        atlas = derive_atlas(rs, NODE_CAP)
    except BudgetExceeded as e:
        print(f"derive: {e}\nFAILED")
        return 1
    derived = time.perf_counter()
    rss = peak_rss_mb()
    print(f"derive: {len(atlas.coronas)} coronas within {NODE_CAP} nodes "
          f"(default budget {DEFAULT_NODE_CAP}) in {derived - start:.1f} s "
          f"(target {DERIVE_TARGET_S} s), peak RSS {rss:.0f} MB (limit "
          f"{DERIVE_RSS_MB})")
    in_atlas = patch_coronas(rs, atlas)
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as f:
        before = time.perf_counter()
        sha, size = hashlib.sha256(), 0
        lines = atlas_lines(atlas)
        # a block per write, so the time is the writer's and not this loop's
        while block := "".join(islice(lines, BLOCK_LINES)):
            sha.update(block.encode())
            f.write(block)
            size += len(block)
        written = time.perf_counter()
        digest = sha.hexdigest()
        print(f"text: {size} characters written in {written - before:.1f} s "
              f"(target {WRITE_TARGET_S} s), sha256 {digest}")
        f.seek(0)
        rewound = time.perf_counter()
        back = parse_atlas(iter(partial(f.read, _CHUNK), ""))
        read = time.perf_counter()
    same = back == atlas
    trip_rss = peak_rss_mb()
    print(f"parse: {'equal' if same else 'DIFFERENT'} in "
          f"{read - rewound:.1f} s, {(read - rewound) / (derived - start):.2f}"
          f" of the derivation's time (target at most {PARSE_TARGET}) "
          f"(write plus parse {written - before + read - rewound:.1f} s); "
          f"peak RSS {trip_rss:.0f} MB (limit {ROUND_TRIP_RSS_MB}) after "
          f"{time.perf_counter() - start:.1f} s")
    ok = (NODE_CAP <= DEFAULT_NODE_CAP and rss <= DERIVE_RSS_MB and in_atlas
          and digest == DIGEST and same and trip_rss <= ROUND_TRIP_RSS_MB)
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
