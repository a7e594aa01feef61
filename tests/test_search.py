"""Search engine tests.

Oracle: the plain depth-first search, a copy of the engine's loop before it
kept records of subtrees.  Both run on the same candidate lists and check
schedule (each through `region_search`), and must agree on status, first
solution, nodes and solutions seen, and give the same rows in the same
order: the engine appends them, and the oracle calls `each` on every
solution.  The engine tests the set table's hues by its test; the oracle
reads the same candidates' integer colours by rule_eval.  Free square
counts are also checked against a profile count, which shares nothing with
either.
"""

import random
import re
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from functools import lru_cache, partial

import pytest

from conftest import random_tileset
from tileatlas import search
from tileatlas.atlas import derive_atlas, enumerate_source_coronas
from tileatlas.geometry import KIND_SPACE, ShapeKind, cell_kind
from tileatlas.search import (COUNT, EXHAUSTED, FOUND, LIMIT, _getter,
                              region_search)
from tileatlas.reduction import reduce_set
from tileatlas.solver import (
    SolveConfig,
    count_solutions,
    exhaust_torus,
    solve,
    solve_atlas,
)
from tileatlas.tileset import (
    FacetRule,
    FormatError,
    Prototile,
    RegionSpec,
    TileSet,
    load_bundled,
    region_cells,
    rule_eval,
)
from tileatlas.window import _corona_window

ENGINE = search._search


def _plain_search(per_cell, checks, width, rule, limit, each=None, at=None,
                  dead=None):
    # `at`, if given, gets the node count at each solution, and `dead` the
    # list length of each cell entered without survivors
    n = len(per_cell)
    tables = {}  # (candidate list, own checks, earlier facets) -> table
    table, keys = [], []
    for i, lst in enumerate(per_cell):
        own = tuple((f, nf) for f, nf, j in checks[i] if j == i)
        earlier = [(f, nf, j) for f, nf, j in checks[i] if j != i]
        sig = (id(lst), own, tuple(f for f, _, _ in earlier))
        if sig not in tables:
            # extent-1 wraps: the candidate meets itself, whatever is around
            base = [(p, label, e) for p, (label, e) in enumerate(lst)
                    if all(rule_eval(rule, e[f], e[nf]) for f, nf in own)]
            tables[sig] = (base, sig[2], len(lst), {})
        table.append(tables[sig])
        keys.append(_getter([j * width + nf for _, nf, j in earlier]))

    limit = float("inf") if limit is None else limit
    colours = [None] * (n * width)  # cell i's facets at i * width
    labels = [None] * n
    stack = []  # (survivors, next survivor, nodes charged) of earlier cells
    # the current cell: its survivors under the colours of its earlier
    # neighbours, the next survivor to try, and its candidates charged so far
    i, surv, k, spent = 0, table[0][0], 0, 0  # cell 0 has no earlier cells
    nodes = count = 0
    first = None
    while True:
        if k < len(surv):
            p, label, e = surv[k]
            k += 1
            # every candidate up to p counts: the ones skipped would fail
            nodes += p + 1 - spent
            spent = p + 1
            if nodes > limit:
                break
            colours[i * width:(i + 1) * width] = e
            labels[i] = label
            if i + 1 == n:
                count += 1
                if at is not None:
                    at.append(nodes)
                if first is None:
                    first = list(labels)
                if each is None:
                    return FOUND, first, nodes, count
                each(labels)
                continue
            stack.append((surv, k, spent))
            i += 1
            base, facets, _, memo = table[i]
            key = keys[i](colours)
            surv = memo.get(key)
            if surv is None:
                surv = memo[key] = [
                    cand for cand in base
                    if all(rule_eval(rule, cand[2][f], v)
                           for f, v in zip(facets, key))]
            if dead is not None and not surv:
                dead.append(table[i][2])
            k = spent = 0
        else:
            nodes += table[i][2] - spent
            if nodes > limit or i == 0:
                break
            i -= 1
            surv, k, spent = stack.pop()
    if nodes > limit:
        return LIMIT, first, limit + 1, count
    return (EXHAUSTED if first is None else FOUND), first, nodes, count


def _with_checks(oracle, checks, ts, per_cell, plan, test, limit, rows=None):
    # the oracle reads integer colours under the rule, not the table's hues
    # under its test: each shared candidate list is read back once, and
    # stays shared; it calls `each` on every solution, whose labels the
    # engine's rows join
    ints, lists = ts.table.ints, {}
    for lst in per_cell:
        if id(lst) not in lists:
            lists[id(lst)] = [(label, tuple([ints[ord(h)] for h in e]))
                              for label, e in lst]
    each = None
    if rows is not None:
        each = ((lambda labels: rows.append("".join(labels)))
                if isinstance(rows, list) else (lambda labels: None))
    return oracle([lists[id(lst)] for lst in per_cell], checks, plan.width,
                  ts.rule, limit, each)


def _run(engine, ts, region, limit, seed, counting, cells=None):
    """(status, labels, nodes, count), the rows and the nodes replayed
    (None for the oracle) of one search under `engine`, over the listed
    cells if `cells` lists them.  A counting search keeps its rows; the
    engine's is also run counting alone, and must come out the same."""
    rows = [] if counting else None
    if engine is not ENGINE:
        # the oracle reads the check schedule that the plan is made from
        _, checks = search._schedule(region, cells or region_cells(region))
        engine = partial(_with_checks, engine, checks, ts)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_search", engine)
        status, labels, nodes, count, *replayed = got = region_search(
            ts, region, limit, seed, rows, cells)
        if counting and engine is ENGINE:
            assert region_search(ts, region, limit, seed, COUNT,
                                 cells) == got
    return ((status, labels, nodes, count), rows or [],
            replayed[0] if replayed else None)


CAP = 20000  # nodes per search; a search that reaches it ends in LIMIT


def test_engine_matches_plain_search():
    rng = random.Random(20261018)
    runs = 0
    replaying = set()  # (trial, lattice) of the searches that replayed
    for trial in range(90):
        space = ("square2d", "tri2d", "cube3d")[trial % 3]
        dim = 3 if space == "cube3d" else 2
        ts = random_tileset(rng, space, rng.randint(3, 8),
                            colours=rng.randint(2, 4))
        if trial % 2:
            ts = replace(ts, allowed="all")
        if trial % 4 == 2:
            pairs = {(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(5)}
            ts = replace(ts, rule=FacetRule("table", frozenset(pairs)))
        torus = rng.random() < 0.6
        kmax = 3 if space == "cube3d" else 5
        extents = tuple(rng.randint(1, kmax) for _ in range(dim))
        region = RegionSpec(space, extents, torus)
        seed = rng.randrange(1000) if rng.random() < 0.5 else None
        for counting in (False, True):
            want, want_calls, _ = _run(_plain_search, ts, region, CAP, seed,
                                       counting)
            limits = {CAP} if want[2] > CAP else {CAP, None}
            limits.update(rng.randrange(want[2] + 1) for _ in range(3))
            for limit in limits:
                want, want_calls, _ = _run(_plain_search, ts, region, limit,
                                           seed, counting)
                got, got_calls, rep = _run(ENGINE, ts, region, limit, seed,
                                           counting)
                case = (trial, region, ts.allowed, ts.rule.kind, seed,
                        counting, limit)
                assert got == want, case
                assert got_calls == want_calls, case
                assert 0 <= rep <= got[2], case
                if rep:
                    replaying.add((trial, space))
                runs += 1
    # the comparison means something only where records were replayed
    assert runs > 800 and len(replaying) >= 10
    assert {space for _, space in replaying} == {"square2d", "tri2d", "cube3d"}


def test_engine_matches_plain_search_on_longer_rows():
    # square regions of 4 to 7 cells a side, whose rows meet the same
    # frontier again; with a seed each row has its own candidate order.
    # Rows may share records, which hold node counts, but never candidate
    # lists: a list shared by two rows would replay one row's order in the
    # other, which the solutions' order and count at the limit show
    rng = random.Random(1)
    cleared = 0  # searches that replayed with a memo of 3 entries
    for trial in range(24):
        ts = random_tileset(rng, "square2d", rng.randint(4, 10),
                            colours=rng.randint(2, 3))
        region = RegionSpec("square2d", (rng.randint(4, 7), rng.randint(4, 7)),
                            rng.random() < 0.5)
        seed = rng.randrange(1000) if trial % 3 else None
        for counting in (False, True):
            want, want_calls, _ = _run(_plain_search, ts, region, 5 * CAP,
                                       seed, counting)
            got, got_calls, _ = _run(ENGINE, ts, region, 5 * CAP, seed,
                                     counting)
            case = (trial, region, seed, counting)
            assert got == want, case
            assert got_calls == want_calls, case
            # a memo of a few entries, cleared again and again
            with pytest.MonkeyPatch.context() as m:
                m.setattr(search, "MEMO_SIZE", 3)
                small = _run(ENGINE, ts, region, 5 * CAP, seed, counting)
            assert small[:2] == (want, want_calls), case
            cleared += small[2] > 0
    assert cleared >= 10


def test_engine_matches_plain_search_on_longer_rows_under_table_rules():
    # the test above under random table rules, whose compiled test checks
    # colour pairs against the table instead of comparing colours; the
    # pairs are one-sided, as written in tile-set text, and the rule closes
    # them
    rng = random.Random(2)
    replaying = 0  # searches that replayed nodes
    for trial in range(30):
        colours = rng.randint(2, 3)
        ts = random_tileset(rng, "square2d", rng.randint(4, 10),
                            colours=colours)
        pairs = {(rng.randint(0, colours), rng.randint(0, colours))
                 for _ in range(rng.randint(2, 5))}
        ts = replace(ts, rule=FacetRule("table", frozenset(pairs)))
        region = RegionSpec("square2d", (rng.randint(4, 7), rng.randint(4, 7)),
                            rng.random() < 0.5)
        seed = rng.randrange(1000) if trial % 3 else None
        for counting in (False, True):
            want, want_calls, _ = _run(_plain_search, ts, region, 5 * CAP,
                                       seed, counting)
            got, got_calls, rep = _run(ENGINE, ts, region, 5 * CAP, seed,
                                       counting)
            case = (trial, region, pairs, seed, counting)
            assert got == want, case
            assert got_calls == want_calls, case
            replaying += rep > 0
            # a limit inside the search ends where the plain search ends
            limit = rng.randrange(want[2] + 1)
            assert (_run(ENGINE, ts, region, limit, seed, counting)[:2]
                    == _run(_plain_search, ts, region, limit, seed,
                            counting)[:2]), case + (limit,)
    assert replaying >= 10


def test_engine_matches_plain_search_on_sets_past_64_labels():
    # square sets of 70 to 90 tiles, whose labels run past code point 63.
    # Identical and table rules; tori with an extent-1 axis, where a
    # candidate meets itself and a list's own checks drop those that fail
    # before any miss tests the rest, and wider ones; unseeded and seeded;
    # first hit, COUNT and kept rows (each counting run is also run under
    # COUNT, in _run); the usual memo and one of 3 entries
    rng = random.Random(48)
    high = replaying = cleared = ended = 0
    for trial in range(16):
        colours = rng.randint(3, 9)
        ts = random_tileset(rng, "square2d", rng.randint(70, 90),
                            colours=colours)
        assert len(ts.table.labels) > 64
        if trial % 2:
            pairs = {(rng.randint(0, colours), rng.randint(0, colours))
                     for _ in range(colours + 1)}
            ts = replace(ts, rule=FacetRule("table", frozenset(pairs)))
        k = rng.randint(3, 6)
        extents = [(1, k), (k, 1),
                   (rng.randint(3, 5), rng.randint(3, 5))][trial % 3]
        region = RegionSpec("square2d", extents, True)
        for seed in (None, rng.randrange(1000)):
            for counting in (False, True):
                want, want_rows, _ = _run(_plain_search, ts, region, 5 * CAP,
                                          seed, counting)
                got, got_rows, rep = _run(ENGINE, ts, region, 5 * CAP, seed,
                                          counting)
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(search, "MEMO_SIZE", 3)
                    small = _run(ENGINE, ts, region, 5 * CAP, seed, counting)
                case = (trial, ts.rule.kind, region, seed, counting)
                assert (got, got_rows) == (want, want_rows), case
                assert small[:2] == (want, want_rows), case
                # rows holding a label past code point 63, which every miss
                # of its cell's colour index kept
                high += any(max(map(ord, row)) > 63 for row in want_rows)
                replaying += rep > 0
                cleared += small[2] > 0
                ended += want[0] != LIMIT
    assert high >= 10 and replaying >= 4 and cleared >= 4 and ended >= 20


def test_engine_matches_plain_search_at_every_limit():
    # seeded counting searches on 3x3 tori of random sets, cut at every limit
    # up to their full charge: some limits fall inside the charge of a cell
    # without survivors, which the engine charges without entering it, and
    # some inside a replayed record's charge
    for space, set_seed, size in (("square2d", 30, (1014, 24)),
                                  ("tri2d", 272, (354, 8))):
        rng = random.Random(set_seed)
        ts = random_tileset(rng, space, rng.randint(4, 7), colours=2)
        region = RegionSpec(space, (3, 3), True)
        dead = []
        full, _, _ = _run(partial(_plain_search, dead=dead), ts, region, None,
                          5, True)
        assert full[2:] == size
        # dead ends whose lists are longer than one candidate, so that some
        # limits fall strictly inside their charge
        assert dead and max(dead) > 1, region
        replayed = 0
        for limit in range(full[2] + 1):
            want, want_calls, _ = _run(_plain_search, ts, region, limit, 5,
                                       True)
            got, got_calls, rep = _run(ENGINE, ts, region, limit, 5, True)
            assert got == want and got_calls == want_calls, (region, limit)
            assert rep <= got[2], (region, limit)
            replayed = max(replayed, rep)
        # replays need record cells
        assert replayed > 0, region


def test_limit_inside_a_replayed_charge():
    # with a limit falling inside a replayed charge, the engine answers
    # limit + 1, as the plain search does when it crosses the limit inside
    # the subtree
    # the search's usual memo and one of 3 entries, cleared again and again
    wang = load_bundled("wang13")
    region = RegionSpec("square2d", (4, 4), True)
    for size in (search.MEMO_SIZE, 3):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(search, "MEMO_SIZE", size)
            full = _run(ENGINE, wang, region, None, None, False)
            assert full[0][0] == EXHAUSTED and full[2] > 0
            rng = random.Random(7)
            for limit in sorted(rng.sample(range(full[0][2]), 150)):
                want = _run(_plain_search, wang, region, limit, None, False)[0]
                got, _, rep = _run(ENGINE, wang, region, limit, None, False)
                assert got == want == (LIMIT, None, limit + 1, 0), (size, limit)
                assert rep <= limit + 1


def test_solver_results_carry_replayed_nodes():
    wang = load_bundled("wang13")
    r = exhaust_torus(wang, (5, 5))
    assert (r.status, r.nodes) == (EXHAUSTED, 192062)
    assert 0 < r.replayed < r.nodes
    free = solve(wang, RegionSpec("square2d", (6, 6), False))
    assert free.status == FOUND and 0 <= free.replayed <= free.nodes
    tri = count_solutions(load_bundled("triangles6"),
                          RegionSpec("tri2d", (6, 6), True))
    assert tri.count == 3 and 0 <= tri.replayed <= tri.nodes
    # a limit caps the replayed part with the nodes
    short = solve(wang, RegionSpec("square2d", (5, 5), True),
                  SolveConfig(node_limit=r.nodes - 1))
    assert (short.status, short.nodes) == (LIMIT, r.nodes)
    assert short.replayed <= short.nodes


def test_region_on_another_lattice_is_refused():
    # no search runs: a wrong-lattice region is no "exhausted" verdict
    wang = load_bundled("wang13")
    tri = load_bundled("triangles6")
    cases = ((solve, wang, RegionSpec("tri2d", (2, 2), True)),
             (count_solutions, tri, RegionSpec("square2d", (2, 2), True)),
             (solve_atlas, reduce_set(wang, "c2"),
              RegionSpec("cube3d", (2, 2, 2), False)),
             (region_search, tri, RegionSpec("square2d", (1, 1), False)))
    for fn, ts, region in cases:
        with pytest.raises(FormatError, match="region is on"):
            fn(ts, region)


def test_replayed_nodes_are_pinned():
    # the subtree records replay exactly these nodes of an exhausted torus
    wang = load_bundled("wang13")
    r = exhaust_torus(wang, (6, 6))
    assert (r.status, r.nodes, r.replayed) == (EXHAUSTED, 631189, 488176)
    # and of free counts, where subtrees with solutions are replayed too:
    # 3x3 is the tree of the c2 corona window
    for extents, want in (((3, 3), (FOUND, 1073, 41626, 28574)),
                          ((5, 3), (FOUND, 10933, 537121, 388388))):
        r = count_solutions(wang, RegionSpec("square2d", extents, False))
        assert (r.status, r.count, r.nodes, r.replayed) == want, extents


# nodes of the benchmark's torus sweep: wang13 k = 1..7 and cubes21 k = 1..3
# exhausted, then the triangles6 12x12 torus counted (count, nodes)
SWEEP = ([13, 559, 6461, 56940, 192062, 631189, 2360176],
         [21, 3045, 1676409],
         (3, 2586))
# and per seed the nodes its records replay: which shift of a segment is
# searched first, and replayed at the others, depends on candidate order.
# Seed 12345's 28,171 at k = 4 also pins the order in which a record cell
# tries its classes, narrowest first: in the order they were stored, a hit
# can reach further, and the walk around it is keyed on more colours, and
# 27,469 are replayed
REPLAYED = {
    None: ([0, 0, 676, 24219, 167531, 488176, 2141906], [0, 1113, 1597050], 0),
    3: ([0, 0, 676, 27209, 163644, 488176, 2141906], [0, 1113, 1597050], 0),
    12345: ([0, 0, 676, 28171, 160290, 466544, 2141906], [0, 1113, 1597050],
            0)}


@pytest.mark.parametrize("seed", [None, 3, 12345])
def test_torus_sweep_counts_are_pinned(seed):
    # an exhaustive search walks the same tree in any candidate order
    config = SolveConfig(seed=seed)
    nodes, replayed = [], []
    for name, dim, kmax in (("wang13", 2, 7), ("cubes21", 3, 3)):
        ts = load_bundled(name)
        runs = [exhaust_torus(ts, (k,) * dim, config)
                for k in range(1, kmax + 1)]
        assert {r.status for r in runs} == {EXHAUSTED}
        nodes.append([r.nodes for r in runs])
        replayed.append([r.replayed for r in runs])
    tri = count_solutions(load_bundled("triangles6"),
                          RegionSpec("tri2d", (12, 12), True), config)
    nodes.append((tri.count, tri.nodes))
    replayed.append(tri.replayed)
    assert tuple(nodes) == SWEEP
    assert tuple(replayed) == REPLAYED[seed]


def _refusal(what, value):
    return pytest.raises(FormatError, match=(
        f"^{what} must be a non-negative integer, not "
        f"{re.escape(repr(value))}$"))


@pytest.mark.parametrize("limit", [-5, 2.5, True, False, "10"])
def test_invalid_node_limits_are_refused(limit):
    # refused before any search runs, naming the value
    wang = load_bundled("wang13")
    region = RegionSpec("square2d", (3, 3), True)
    for run in (solve, count_solutions):
        with _refusal("node limit", limit):
            run(wang, region, SolveConfig(node_limit=limit))


@pytest.mark.parametrize("cap", [None, -1, 10.0, True])
def test_invalid_node_caps_are_refused(cap):
    tri = load_bundled("triangles6")
    with _refusal("node cap", cap):
        enumerate_source_coronas(tri, node_cap=cap)
    with _refusal("node cap", cap):
        derive_atlas(reduce_set(tri, "c2"), node_cap=cap)


@contextmanager
def _frontier_keyed(frontier=True):
    """A context in which, if `frontier`, the search keys every record on
    the whole frontier, as if each subtree reached the last cell."""
    records = search._records

    def whole(checks):
        return records(checks)[0], [len(checks) - 1] * len(checks)

    with pytest.MonkeyPatch.context() as m:
        if frontier:
            m.setattr(search, "_records", whole)
            # plans made with it go into a cache of their own
            m.setattr(search, "_plan",
                      lru_cache(maxsize=16)(search._plan.__wrapped__))
        yield


def test_reach_keyed_records_replay_more():
    # on a torus the frontier holds row 0's bottom colours, which only the
    # last row reads; a subtree that dies before it is keyed without them,
    # so it is charged again under another row 0
    wang = load_bundled("wang13")
    region = RegionSpec("square2d", (6, 6), True)
    for seed in (None, 4):
        with _frontier_keyed():
            whole = _run(ENGINE, wang, region, None, seed, False)
        got = _run(ENGINE, wang, region, None, seed, False)
        assert got[0] == whole[0] == (EXHAUSTED, None, 631189, 0)
        # frontier-keyed records replay 201,916 nodes, reach-keyed ones
        # 488,176 unseeded
        assert whole[2] < got[2] < got[0][2], seed


def test_limit_inside_a_reach_keyed_charge():
    # wang13 5x5 torus, unseeded and seeded: every limit ends where the
    # plain search ends, and some limits fall on nodes that reach-keyed
    # records replay but frontier-keyed ones would search
    wang = load_bundled("wang13")
    region = RegionSpec("square2d", (5, 5), True)

    def replayed(limit, seed, frontier=False):
        with _frontier_keyed(frontier):
            return _run(ENGINE, wang, region, limit, seed, False)[2]

    rng = random.Random(1)
    for seed in (None, 4):
        reach_only = 0
        for limit in sorted(rng.sample(range(1, 192062), 40)):
            want = _run(_plain_search, wang, region, limit, seed, False)[0]
            got, _, rep = _run(ENGINE, wang, region, limit, seed, False)
            assert got == want == (LIMIT, None, limit + 1, 0), (seed, limit)
            assert rep <= got[2]
            # node limit + 1 is replayed keyed on its reach, searched keyed
            # on the whole frontier
            if (rep - replayed(limit - 1, seed) == 1
                    and replayed(limit, seed, True)
                    == replayed(limit - 1, seed, True)):
                reach_only += 1
        assert reach_only >= 5, (seed, reach_only)


@contextmanager
def _unshared():
    """A context in which a record answers only at the record cell that
    stored it: every cell's structure character is its own."""
    plan = search._plan.__wrapped__

    def own(region, cells):
        got = plan(region, cells)
        return got._replace(struct="".join(map(chr, range(len(got.kinds)))))

    with pytest.MonkeyPatch.context() as m:
        # plans made with it go into a cache of their own
        m.setattr(search, "_plan", lru_cache(maxsize=16)(own))
        yield


@pytest.mark.parametrize("name, k, nodes", [("wang13", 7, 2360176),
                                            ("kari14", 8, 46082722)])
def test_shifted_records_replay_more(name, k, nodes):
    # a record stored below one row start answers below every later row
    # start whose rows check the same way: the same nodes, more replayed
    ts = load_bundled(name)
    for seed in (None, 4):
        config = SolveConfig(seed=seed)
        with _unshared():
            own = exhaust_torus(ts, (k, k), config)
        got = exhaust_torus(ts, (k, k), config)
        assert (got.status, got.nodes) == (own.status, own.nodes) == (
            EXHAUSTED, nodes)
        assert own.replayed < got.replayed, seed


def test_engine_matches_plain_search_on_shifted_records():
    # square tori 6 to 8 wide and 4 to 6 high, whose row before the last
    # starts no segment (its segment runs on through the last row), so a
    # record of rows stored at an earlier row start answers there at a
    # cell that ends no segment; and triangle and cube tori.  Each search
    # is one whose records replay more nodes, at least a tenth of its
    # charge more, than they would answered only where they were stored;
    # sampled limits, some of them inside a replay that only a shifted
    # record makes, the usual memo and one of 3 entries
    rng = random.Random(1)
    extents = {
        "square2d": lambda: (rng.randint(6, 8), rng.randint(4, 6)),
        "tri2d": lambda: (rng.randint(3, 6), rng.randint(3, 6)),
        "cube3d": lambda: rng.choice(((2, 2, 4), (3, 2, 4), (2, 3, 4),
                                      (2, 4, 2)))}
    cases = []
    for space, total in (("square2d", 4), ("tri2d", 6), ("cube3d", 8)):
        while len(cases) < total:
            ts = random_tileset(rng, space, rng.randint(3, 8),
                                colours=rng.randint(2, 3))
            region = RegionSpec(space, extents[space](), True)
            seed = rng.randrange(1000) if rng.random() < 0.5 else None
            full, _, rep = _run(ENGINE, ts, region, CAP, seed, True)
            with _unshared():
                own = _run(ENGINE, ts, region, CAP, seed, True)[2]
            if (full[0] != LIMIT and rep > own
                    and 10 * (rep - own) >= full[2] >= 500):
                cases.append((ts, region, seed, full))

    def replayed(case, limit, shared=True):
        with nullcontext() if shared else _unshared():
            return _run(ENGINE, *case[:2], limit, case[2], True)[2]

    inside = 0  # limits inside a replay that only shifted records make
    for case in cases:
        ts, region, seed, full = case
        for limit in (None, *sorted(rng.sample(range(1, full[2]), 10))):
            for counting in (False, True):
                want = _run(_plain_search, ts, region, limit, seed, counting)
                got = _run(ENGINE, ts, region, limit, seed, counting)
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(search, "MEMO_SIZE", 3)
                    small = _run(ENGINE, ts, region, limit, seed, counting)
                assert got[:2] == small[:2] == want[:2], (case, limit)
            # node limit + 1 is replayed, and searched by unshared records
            if (limit and got[2] - replayed(case, limit - 1) == 1
                    and replayed(case, limit, False)
                    == replayed(case, limit - 1, False)):
                inside += 1
    assert inside >= 10


def test_engine_matches_plain_search_on_listed_cells():
    # searches over listed cells, as the corona enumerator runs its
    # windows: the windows, and regions of each lattice with a few cells
    # left out of their scan order, so that rows meet checks that reach
    # back by distances that differ from row to row; records may be shared
    # only where those distances match too
    rng = random.Random(6)
    windows = [_corona_window(kind) for kind in ShapeKind]
    replaying = set()  # the lattices whose searches replayed nodes
    for trial in range(90):
        if trial % 2:
            window = windows[trial // 2 % len(windows)]
            region, cells = window.region, list(window.order)
        else:
            space = ("square2d", "tri2d", "cube3d")[trial // 2 % 3]
            extents = ((rng.randint(2, 3) for _ in range(3))
                       if space == "cube3d"
                       else (rng.randint(3, 6) for _ in range(2)))
            region = RegionSpec(space, tuple(extents), rng.random() < 0.5)
            cells = list(region_cells(region))
            for _ in range(rng.randint(1, 3)):
                cells.remove(rng.choice(cells))
        ts = random_tileset(rng, region.space, rng.randint(3, 6),
                            colours=rng.randint(1, 3))
        seed = rng.randrange(1000) if rng.random() < 0.5 else None
        for counting in (False, True):
            for limit in (CAP, rng.randrange(CAP)):
                want, want_calls, _ = _run(_plain_search, ts, region, limit,
                                           seed, counting, cells)
                got, got_calls, rep = _run(ENGINE, ts, region, limit, seed,
                                           counting, cells)
                case = (trial, region, cells, seed, counting, limit)
                assert (got, got_calls) == (want, want_calls), case
                if rep:
                    replaying.add(region.space)
    assert replaying == {"square2d", "tri2d", "cube3d"}
    # two such searches, whose records a structure without the distances
    # would share wrongly: a 4x5 square region without cells 7 and 18,
    # whose rows check the row above 3 or 4 cells back, and a triangle one
    up, down = ShapeKind.TRI_UP, ShapeKind.TRI_DOWN
    for extents, kinds, colours, left_out, seed in (
            ((4, 5), [ShapeKind.SQUARE] * 5,
             [(1, 1, 1, 1), (0, 2, 1, 1), (2, 1, 2, 2), (2, 0, 2, 0),
              (1, 2, 1, 2)], (7, 18), 858),
            ((5, 5), [up, up, down, down, down, down],
             [(2, 0, 2), (0, 0, 0), (3, 0, 1), (2, 0, 0), (2, 2, 3),
              (0, 0, 2)], (6, 23, 48), None)):
        ts = TileSet("listed", tuple(
            Prototile(f"p{t}", kind, c)
            for t, (kind, c) in enumerate(zip(kinds, colours))),
            FacetRule("identical"), "translations")
        region = RegionSpec(KIND_SPACE[kinds[0]], extents, False)
        cells = [c for i, c in enumerate(region_cells(region))
                 if i not in left_out]
        for counting in (False, True):
            want = _run(_plain_search, ts, region, None, seed, counting,
                        cells)
            got = _run(ENGINE, ts, region, None, seed, counting, cells)
            assert got[:2] == want[:2], (region, counting)


def test_limit_at_a_solution_node():
    # counting searches on free wang13 regions and on small random square
    # sets: a limit just before or at the node that completes a solution
    # ends where the plain search ends
    wang = load_bundled("wang13")
    searches = [(wang, RegionSpec("square2d", extents, False), None)
                for extents in ((5, 3), (4, 4))]
    rng = random.Random(5)
    while len(searches) < 5:
        ts = random_tileset(rng, "square2d", rng.randint(3, 6),
                            colours=rng.randint(2, 3))
        region = RegionSpec("square2d", (rng.randint(4, 6), rng.randint(4, 6)),
                            rng.random() < 0.5)
        seed = rng.randrange(1000) if rng.random() < 0.5 else None
        full = _run(ENGINE, ts, region, CAP, seed, True)[0]
        if full[2] <= CAP and full[3] >= 20:
            searches.append((ts, region, seed))
    for ts, region, seed in searches:
        at = []  # the node that completes each solution
        full = _run(partial(_plain_search, at=at), ts, region, None, seed,
                    True)[0]
        assert full[0] == FOUND and len(at) == full[3]
        if ts is wang:
            assert full[2:] in ((537121, 10933), (482391, 7168))
        for end in sorted(rng.sample(at, 20)):
            for limit in (end - 1, end):
                case = (region, seed, limit)
                want, want_calls, _ = _run(_plain_search, ts, region, limit,
                                           seed, True)
                got, got_calls, rep = _run(ENGINE, ts, region, limit, seed,
                                           True)
                assert got == want and got_calls == want_calls, case
                assert rep <= got[2], case


def _profile_count(ts, width, height):
    """Tilings of the free width x height square region by the translated
    tiles of `ts`, counted a cell at a time in scan order over profiles:
    each column's last top colour and the left neighbour's right colour."""
    north, east, south, west = range(4)
    tiles = [p.colours for p in ts.prototiles]

    @lru_cache(maxsize=None)
    def fits(below, left):
        # (top, right) of each tile that meets the colours below and left
        return [(c[north], c[east]) for c in tiles
                if (below is None or rule_eval(ts.rule, c[south], below))
                and (left is None or rule_eval(ts.rule, c[west], left))]

    counts = {((None,) * width, None): 1}
    for _ in range(height):
        for x in range(width):
            nxt = {}
            for (tops, left), k in counts.items():
                for top, right in fits(tops[x], left):
                    key = (tops[:x] + (top,) + tops[x + 1:],
                           None if x == width - 1 else right)
                    nxt[key] = nxt.get(key, 0) + k
            counts = nxt
    return sum(counts.values())


def test_free_square_counts_match_a_profile_count():
    # counts whose subtrees with solutions the engine replays, against a
    # count that shares nothing with the engine
    for name, extents, want in (("wang13", (8, 4), 653036),
                                ("kari14", (5, 5), 1213029),
                                ("kari14", (6, 6), 39214580)):
        ts = load_bundled(name)
        assert _profile_count(ts, *extents) == want, name
        r = count_solutions(ts, RegionSpec("square2d", extents, False))
        assert (r.status, r.count) == (FOUND, want), name
    rng = random.Random(46)
    for trial in range(40):
        colours = rng.randint(1, 3)
        ts = random_tileset(rng, "square2d", rng.randint(2, 7),
                            colours=colours)
        if trial % 3 == 2:
            pairs = {(rng.randint(0, colours), rng.randint(0, colours))
                     for _ in range(rng.randint(2, 5))}
            ts = replace(ts, rule=FacetRule("table", frozenset(pairs)))
        extents = (rng.randint(1, 6), rng.randint(1, 5))
        want = _profile_count(ts, *extents)
        if want > 10 ** 6:
            # the engine searches the solutions of the last two rows, below
            # the last record cell, one by one at least once
            continue
        r = count_solutions(ts, RegionSpec("square2d", extents, False),
                            SolveConfig(seed=rng.choice((None, trial))))
        assert (r.status, r.count) == (FOUND if want else EXHAUSTED,
                                       want), (trial, ts, extents)


def test_engine_matches_plain_search_where_solutions_replay():
    # free regions with many solutions, whose subtrees with solutions the
    # engine replays, counting and keeping rows, cut at sampled limits:
    # among them the node before and the node at some solutions, some of
    # them inside a subtree replayed in full, which the engine must search
    rng = random.Random(7)
    cases = [(load_bundled("wang13"), RegionSpec("square2d", (4, 3), False),
              None),
             (load_bundled("kari14"), RegionSpec("square2d", (3, 4), False),
              5)]
    extents = {"square2d": lambda: (rng.randint(3, 5), rng.randint(3, 4)),
               "tri2d": lambda: (rng.randint(2, 4), rng.randint(2, 3)),
               "cube3d": lambda: (2, 2, rng.randint(2, 3))}
    for space in ("square2d", "tri2d", "cube3d", "square2d"):
        while True:
            ts = random_tileset(rng, space, rng.randint(3, 6),
                                colours=rng.randint(1, 2))
            region = RegionSpec(space, extents[space](), False)
            seed = rng.choice((None, 3))
            full, _, rep = _run(ENGINE, ts, region, CAP, seed, True)
            if full[0] == FOUND and full[3] >= 100 and 2 * rep > full[2]:
                cases.append((ts, region, seed))
                break
    for ts, region, seed in cases:
        at = []  # the node that completes each solution
        full = _run(partial(_plain_search, at=at), ts, region, None, seed,
                    True)[0]
        assert full[0] == FOUND and full[3] >= 100, region
        ends = sorted(rng.sample(at, 8))
        limits = {end + d for end in ends for d in (-1, 0)}
        limits.update(rng.sample(range(full[2]), 8))
        for limit in sorted(limits):
            for counting in (False, True):
                want = _run(_plain_search, ts, region, limit, seed, counting)
                got = _run(ENGINE, ts, region, limit, seed, counting)
                # solution records are cleared with the classes
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(search, "MEMO_SIZE", 3)
                    small = _run(ENGINE, ts, region, limit, seed, counting)
                assert got[:2] == small[:2] == want[:2], (region, seed, limit,
                                                          counting)


def test_a_solution_class_answers_only_at_its_own_record_cell():
    # the cube corona window, whose record cells 9 and 18 start layers
    # that check alike, so the class of a walk from 18 that saw solutions
    # starts at 9 too; a hit there, whose class ends at cell 17, would
    # count the solutions below 18 as those below 9: an engine that does
    # not ask for the last cell counts 6 of 8 solutions for the first set
    # and 62 of 80 for the second
    window = _corona_window(ShapeKind.CUBE)
    region, cells = window.region, window.order
    struct = search._plan(region, cells).struct
    assert struct.startswith(struct[18:], 9)
    for colours, seed, solutions in (
            ([(1, 0, 0, 1, 1, 1), (0, 0, 1, 1, 1, 1)], None, 8),
            ([(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1), (0, 0, 0, 0, 0, 0)],
             3, 80)):
        ts = TileSet("cubes", tuple(
            Prototile(f"p{t}", ShapeKind.CUBE, c)
            for t, c in enumerate(colours)),
            FacetRule("identical"), "translations")
        want = _run(_plain_search, ts, region, None, seed, True, cells)
        assert want[0][0::3] == (FOUND, solutions)
        got = _run(ENGINE, ts, region, None, seed, True, cells)
        assert got[:2] == want[:2]
        assert got[2] > 0


def test_a_class_answers_only_where_the_kinds_match():
    # a free 3x3 triangle region with nine cells listed out of scan order,
    # where up and down triangles check alike: a struct without the kind
    # lets a class of one kind answer at the other, 54 nodes against the
    # plain search's 58
    up, down = ShapeKind.TRI_UP, ShapeKind.TRI_DOWN
    ts = TileSet("kinds", (Prototile("p0", down, (1, 1, 1)),
                           Prototile("p1", up, (2, 1, 1)),
                           Prototile("p2", up, (1, 0, 0))),
                 FacetRule("identical"), "translations")
    region = RegionSpec("tri2d", (3, 3), False)
    cells = [(1, 1, 0), (2, 0, 0), (2, 2, 0), (0, 2, 1), (1, 1, 1),
             (0, 0, 0), (2, 2, 1), (1, 2, 0), (0, 0, 1)]
    plan = search._plan.__wrapped__

    def kindless(region, cells):
        got = plan(region, cells)
        checks = search._schedule(region, cells)[1]
        codes = {}
        return got._replace(struct="".join(
            chr(codes.setdefault(tuple((f, nf, j - i) for f, nf, j in cs),
                                 len(codes)))
            for i, cs in enumerate(checks)))

    want = _run(_plain_search, ts, region, None, None, True, cells)
    assert want[0][2:] == (58, 2)
    assert _run(ENGINE, ts, region, None, None, True, cells)[:2] == want[:2]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_plan", lru_cache(maxsize=16)(kindless))
        assert _run(ENGINE, ts, region, None, None, True, cells)[0][2] == 54


def test_cached_plans_search_as_fresh_ones():
    # searches of two sets on one region, seeded and not, first hit and
    # counting, interleaved on one plan, each equal to the same search on
    # a plan made afresh
    rng = random.Random(17)
    for name, region in (("wang13", RegionSpec("square2d", (4, 4), True)),
                         ("triangles6", RegionSpec("tri2d", (6, 6), True))):
        other = replace(random_tileset(rng, region.space, 5, colours=2),
                        allowed="all")
        runs = [(ts, seed, counting)
                for seed in (None, 5) for counting in (False, True)
                for ts in (load_bundled(name), other)]
        search._plan.cache_clear()
        shared = [_run(ENGINE, ts, region, CAP, seed, counting)
                  for ts, seed, counting in runs]
        # a counting run searches twice: keeping its rows, and counting
        assert search._plan.cache_info().hits == len(runs) - 1 + sum(
            counting for _, _, counting in runs)
        for run, got in zip(runs, shared):
            search._plan.cache_clear()
            assert _run(ENGINE, run[0], region, CAP, *run[1:]) == got, run
        # the comparisons mean something only where nodes were charged and
        # replayed, and solutions found
        assert any(got[2] for got in shared), region
        assert any(got[0][3] > 1 for got in shared), region


def _per_cell(ts, region, seed):
    """The candidate lists that region_search hands the engine."""
    seen = []

    def engine(per_cell, plan, test, limit, rows=None):
        seen.append(per_cell)
        return EXHAUSTED, None, 0, 0, 0

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_search", engine)
        region_search(ts, region, seed=seed)
    return seen[0]


@pytest.mark.parametrize("name, region, length", [
    ("triangles6", RegionSpec("tri2d", (20, 20), True), 3),
    ("wang13", RegionSpec("square2d", (5, 4), False), 13),
    ("cubes21", RegionSpec("cube3d", (2, 3, 2), True), 21)])
def test_seeded_orders_are_shuffled_lists(name, region, length):
    # each cell's list is what shuffling a copy of its kind's list draws,
    # cell by cell in search order; cells with equal orders share one list
    ts = load_bundled(name)
    for seed in (0, 7, 12345):
        rng = random.Random(seed)
        want = []
        for cell in region_cells(region):
            lst = list(ts.table.hues[cell_kind(region.space, cell)].items())
            assert len(lst) == length
            rng.shuffle(lst)
            want.append(lst)
        got = _per_cell(ts, region, seed)
        assert got == want, seed
        orders = {tuple(map(tuple, lst)) for lst in got}
        assert len({id(lst) for lst in got}) == len(orders), seed

